"""Seeded outcome census of the four bounds, one line per outcome.

Two recipes, drawn in a fixed order:

* census: seed 12345, 1500 draws.  Each draw takes n from [2, 40), m
  from [1, 24), a capacity N in (D(n, m), D(n, m+1)) (just above the
  left end, just below the right end with 10^u, u in [-12, -3], or
  uniform in between), s uniform in the degree-m validity interval, and
  the next of six potentials.  It makes four calls: ulb(n, N, h),
  uub(n, 1e9, s, h), design_ulb(n, N, m, h) and design_uub(n, N, s, m, h).
* boundary: ulb(n, D(n, m)(1 + delta), riesz:1) for n in [2, 40),
  m in [2, 25] and delta in {1e-15, 1e-14, 1e-13}.

Each line is the outcome's key (its name ``recipe#index kind``, then
the inputs, floats as hex), a tab, then either ``raise Type: message``
or two JSON objects split by a tab, every float as hex: the report's
record (``spherelp.bounds.write_record``: kind, n, m, capacity N_W,
potential, nodes, weights, n1, gt and f) and the verdict on it
(feasible, value, lambda_star, the certificate's Gegenbauer
coefficients and every diagnostic as [name, ok, value, note, tol]).
``read_record`` gives that verdict back from the record alone.  Per-kind
counts go to stderr.

With spherelp importable (installed, or PYTHONPATH=src):

    python tests/census.py > outcomes.txt             # both recipes in full
    python tests/census.py --compare before.txt after.txt   # field by field
    python tests/census.py --known run1.txt run2.txt ... > tests/data/census_known.txt

Which reports are infeasible depends in some cases on the BLAS kernel
(gates such as dominance_above decided at round-off at N >= 1e8) and on
numpy's SIMD dispatch, so ``--known`` takes full runs of one commit under
several numerics, for example OPENBLAS_CORETYPE=Prescott, Nehalem,
Sandybridge, Haswell and SkylakeX, each once as is and once with numpy's
AVX-512 targets off (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
AVX512_SPR"): with them off, a full run has infeasible outcomes that
runs differing only in the BLAS kernel do not.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections import Counter
from dataclasses import astuple
from functools import partial

from spherelp.bounds import _hexed, design_ulb, design_uub, ulb, uub, write_record
from spherelp.potentials import parse_potential
from spherelp.quadrature import dgs_bound, validity_interval

SEED = 12345
DRAWS = 1500
POTENTIALS = ("riesz:1", "gaussian:1", "log", "newton", "riesz:2.5", "shift:1.5:fejes-toth")
DELTAS = (1e-15, 1e-14, 1e-13)
ROUND_OFF = " at round-off"  # marks a known status that some runs give as feasible
KNOWN_HEADER = """\
# Census outcomes (tests/census.py, in full) that raise or are infeasible: name, a tab, then the status.
# Written by tests/census.py --known from full runs under five OpenBLAS kernels: a name fails in at
# least one run, and its status ends in "at round-off" where another run found it feasible.
# test_census.py fails on a failure in its slice not named here with its status, and on a name here
# whose outcome is now feasible unless it is at round-off.  The list only shrinks."""


def _hex(x) -> str:
    return "None" if x is None else float(x).hex()


def census_calls():
    """(key, call) for every call of the census recipe, in draw order."""
    rng = random.Random(SEED)
    for i in range(DRAWS):
        # every draw consumes the same six numbers, whatever it uses
        n = 2 + int(38 * rng.random())
        m = 1 + int(23 * rng.random())
        form, u, t, r = int(3 * rng.random()), -12 + 9 * rng.random(), rng.random(), rng.random()
        left, right = dgs_bound(n, m), dgs_bound(n, m + 1)
        capacity = (left * (1 + 10**u), right * (1 - 10**u), left + t * (right - left))[form]
        lo, hi = validity_interval(n, m)
        s = lo + r * (hi - lo)
        h = parse_potential(POTENTIALS[i % len(POTENTIALS)], n)
        where = f"census#{i}"
        nc, ns, label = _hex(capacity), _hex(s), h.label()
        yield f"{where} ulb n={n} capacity={nc} h={label}", partial(ulb, n, capacity, h)
        yield f"{where} uub n={n} capacity=1e9 s={ns} h={label}", partial(uub, n, 1e9, s, h)
        yield f"{where} design_ulb n={n} capacity={nc} tau={m} h={label}", partial(design_ulb, n, capacity, m, h)
        yield f"{where} design_uub n={n} capacity={nc} s={ns} tau={m} h={label}", partial(design_uub, n, capacity, s, m, h)


def boundary_calls():
    """(key, call) for every capacity of the boundary recipe."""
    h = parse_potential("riesz:1")
    cases = ((delta, n, m) for delta in DELTAS for n in range(2, 40) for m in range(2, 26))
    for i, (delta, n, m) in enumerate(cases):
        capacity = dgs_bound(n, m) * (1 + delta)
        key = f"boundary#{i} ulb n={n} m={m} delta={delta:g} capacity={_hex(capacity)} h={h.label()}"
        yield key, partial(ulb, n, capacity, h)


def outcome(call) -> str:
    """The outcome of one call as text: the raised error, or the report's record and verdict."""
    try:
        report = call()
    except Exception as exc:  # noqa: BLE001 - every raise is an outcome to record
        return f"raise {type(exc).__name__}: " + " ".join(str(exc).split())
    return f"{write_record(report)}\t{verdict_text(report)}"


def verdict_text(report) -> str:
    """The report's verdict as JSON, floats as hex."""
    verdict = {
        "feasible": report.feasible, "value": report.value, "lambda_star": report.lambda_star,
        "certificate": report.certificate.coeffs, "diagnostics": [astuple(c) for c in report.diagnostics],
    }
    return json.dumps(_hexed(verdict))


def outcomes(stride: int = 1):
    """(key, outcome) for every ``stride``-th call of the census, then of the boundary recipe."""
    for recipe in (census_calls(), boundary_calls()):
        for i, (key, call) in enumerate(recipe):
            if i % stride == 0:
                yield key, outcome(call)


def status(text: str) -> str:
    """``feasible``, ``infeasible`` or ``raise Type``."""
    if text.startswith("raise "):
        return text.split(":", 1)[0]
    return "feasible" if parsed(text)["feasible"] else "infeasible"


def parsed(text: str | None) -> dict:
    """An outcome's fields: its raise, or its record's and its verdict's."""
    if text is None or text.startswith("raise "):
        return {"raise": text}
    record, verdict = text.split("\t")
    return {**json.loads(record), **json.loads(verdict)}


def name(key: str) -> str:
    """The outcome's name, ``recipe#index kind``: its inputs follow from the recipe."""
    return " ".join(key.split(" ", 2)[:2])


def _read(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("\t", 1) for line in fh if line.strip())


def known(paths) -> list[str]:
    """census_known.txt's lines from full runs of one commit: every name that fails in any run."""
    runs = [{name(key): status(text) for key, text in _read(path).items()} for path in paths]
    lines = [KNOWN_HEADER]
    for key in runs[0]:
        seen = {run[key] for run in runs}
        failures = seen - {"feasible"}
        if failures:
            (failure,) = failures  # the runs agree on how a name fails, if not on whether
            lines.append(f"{key}\t{failure}" + (ROUND_OFF if "feasible" in seen else ""))
    return lines


def compare(path_a: str, path_b: str) -> int:
    """Print every outcome whose parsed fields differ between two census files, with
    those fields; 1 if any does."""
    a, b = _read(path_a), _read(path_b)
    keys = list(a) + [key for key in b if key not in a]
    differ = 0
    for key in keys:
        fa, fb = parsed(a.get(key)), parsed(b.get(key))
        if fa != fb:
            differ += 1
            print(key)
            for field in dict.fromkeys([*fa, *fb]):
                if fa.get(field) != fb.get(field):
                    print(f"  {field}\n    - {fa.get(field)}\n    + {fb.get(field)}")
    print(f"{differ} of {len(keys)} outcomes differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="print the outcomes that differ")
    parser.add_argument("--known", nargs="+", metavar="RUN", help="print census_known.txt from full runs")
    args = parser.parse_args(argv)
    if args.known:
        print(*known(args.known), sep="\n")
        return 0
    if args.compare:
        return compare(*args.compare)
    counts = Counter()
    for key, text in outcomes():
        print(f"{key}\t{text}")
        recipe, kind = name(key).split(" ")
        counts[recipe.split("#")[0], kind, status(text)] += 1
    for (recipe, kind, what), count in sorted(counts.items()):
        print(f"{recipe} {kind}: {what} {count}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
