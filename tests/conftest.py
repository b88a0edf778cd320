import math

import pytest

from spherelp import codes


def level_bound(size: int, top: float) -> int:
    """Most levels ``codes._exact_parts`` may take on ``size`` values of at
    most ``top``: the first sigma is 2**(e + k), each later one at least
    52 - k binades lower, down to 2**-1022, where one level takes what
    remains."""
    k = (size + 1).bit_length()
    first = max(math.frexp(top)[1] + k, -1022)
    return 1 + -(-(first + 1022) // (52 - k))


@pytest.fixture(autouse=True)
def bounded_extraction(monkeypatch):
    """Every exact sum in the tests fails, rather than hangs, once its
    extraction takes more levels than :func:`level_bound` allows."""
    extract = codes._exact_parts

    def guarded(x, top, scratch):
        bound = level_bound(x.size, top)
        for level, part in enumerate(extract(x, top, scratch)):
            assert level < bound, f"extracting {x.size} values below {top!r} takes over {bound} levels"
            yield part

    monkeypatch.setattr(codes, "_exact_parts", guarded)
