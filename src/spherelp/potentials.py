"""Built-in potential functions of the inner product t on [-1, 1).

Each kind carries a closed-form value and first derivative plus the
derivative signs that gate which bounds apply to it:

    riesz(alpha)   (2(1-t))**(-alpha/2), alpha > 0
    newton(n)      (2(1-t))**(1-n/2)  (riesz with alpha = n-2; constant for n=2)
    gaussian(alpha) exp(-alpha*(1-t))
    logarithmic    -log(2(1-t))
    fejes_toth     -sqrt(2(1-t))
    shifted(h, c)  h(t) + c
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_KINDS = ("riesz", "newton", "gaussian", "logarithmic", "fejes_toth", "shifted")
# shift: levels a spec may nest: label() and _values recurse once per level
MAX_SHIFT_DEPTH = 100


@dataclass(frozen=True)
class Potential:
    kind: str
    param: float = 0.0
    base: "Potential | None" = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if not np.isfinite(self.param):
            raise ValueError(f"{self.kind} parameter must be finite, got {self.param!r}")
        if self.kind in ("riesz", "gaussian") and self.param <= 0:
            raise ValueError(f"{self.kind} exponent must be positive")
        if self.kind == "newton" and (self.param < 2 or self.param != int(self.param)):
            raise ValueError("newton potential needs an integer dimension >= 2")
        if self.kind == "shifted" and self.base is None:
            raise ValueError("shifted potential needs a base")

    def label(self) -> str:
        """The spec :func:`parse_potential` reads back as h: parameters in ``:g`` where that round-trips, else repr."""
        short = f"{self.param:g}"
        param = short if float(short) == self.param else repr(self.param)
        if self.kind in ("riesz", "gaussian"):
            return f"{self.kind}:{param}"
        if self.kind == "newton":
            return f"newton:{int(self.param)}"
        if self.kind == "logarithmic":
            return "log"
        if self.kind == "fejes_toth":
            return "fejes-toth"
        return f"shift:{param}:{self.base.label()}"


def riesz(alpha: float) -> Potential:
    return Potential("riesz", float(alpha))


def newton(n: int) -> Potential:
    return Potential("newton", float(n))


def gaussian(alpha: float) -> Potential:
    return Potential("gaussian", float(alpha))


def logarithmic() -> Potential:
    return Potential("logarithmic")


def fejes_toth() -> Potential:
    return Potential("fejes_toth")


def shifted(base: Potential, c: float) -> Potential:
    return Potential("shifted", float(c), base)


def _check_domain(t):
    t = np.asarray(t, dtype=float)
    if (t >= 1.0).any():
        raise ValueError("potential evaluated at t >= 1")
    return t


def potential_eval(h: Potential, t):
    """Value of h at t (scalar or array); t = 1 is a domain error."""
    v = np.asarray(_values(h, _check_domain(t)))
    return v if v.ndim else float(v)


def _values(h: Potential, t: np.ndarray, out: np.ndarray | None = None):
    """The closed form of h at a float array t, unchecked: callers make sure t < 1.

    Worked in place, in out (an array of t's shape) when given, else in one
    new array, by the ufuncs of the formulas in the module docstring.  A
    0-d t is worked in numpy scalars, whose pow is the C library's, and
    gives a scalar unless out is given.
    """
    if h.kind == "shifted":
        v = _values(h.base, t, out)
        v += h.param
        return v
    v = np.subtract(1.0, t, out=out if t.ndim else None)
    # on a numpy scalar the in-place operators rebind v, and the ufuncs return a new scalar
    into = v if t.ndim else None
    if h.kind == "gaussian":
        v *= -h.param
        v = np.exp(v, out=into)
    else:
        v *= 2.0
        if h.kind == "riesz":
            v **= -h.param / 2.0
        elif h.kind == "newton":
            v **= 1.0 - h.param / 2.0
        else:
            v = np.log(v, out=into) if h.kind == "logarithmic" else np.sqrt(v, out=into)
            v = -v if into is None else np.negative(v, out=v)
    if out is None or v is out:
        return v
    out[()] = v
    return out


def potential_derivative(h: Potential, t):
    """Closed-form first derivative of h at t."""
    t = _check_domain(t)
    if h.kind == "riesz":
        v = h.param * (2.0 * (1.0 - t)) ** (-h.param / 2.0 - 1.0)
    elif h.kind == "newton":
        a = h.param - 2.0
        v = a * (2.0 * (1.0 - t)) ** (-a / 2.0 - 1.0)
    elif h.kind == "gaussian":
        v = h.param * np.exp(-h.param * (1.0 - t))
    elif h.kind == "logarithmic":
        v = 1.0 / (1.0 - t)
    elif h.kind == "fejes_toth":
        v = 1.0 / np.sqrt(2.0 * (1.0 - t))
    else:
        return potential_derivative(h.base, t)
    v = np.asarray(v)
    return v if v.ndim else float(v)


def min_nonneg_derivative_order(h: Potential) -> int:
    """Smallest order from which on every derivative of h is >= 0 on [-1, 1).

    Every built-in kind has nonnegative derivatives of all orders >= 1; the
    value is 0 exactly when h itself is nonnegative on the interval, which
    (all kinds being nondecreasing) reduces to the value at -1.
    """
    if h.kind in ("riesz", "gaussian", "newton"):
        return 0
    if h.kind in ("logarithmic", "fejes_toth"):
        return 1
    return 0 if potential_eval(h, -1.0) >= -1e-15 else 1


def derivative_nonneg_from(h: Potential, order: int) -> bool:
    """Certify h^(i) >= 0 on [-1, 1) for every i >= order (closed-form knowledge)."""
    return order >= min_nonneg_derivative_order(h)


def classify(h: Potential) -> bool:
    """Whether h counts as absolutely monotone, from closed-form per-kind knowledge."""
    # logarithmic is conventionally grouped with the absolutely monotone kinds;
    # only its derivative orders >= 1 are nonnegative, and no bound consumes order 0
    return h.kind == "logarithmic" or min_nonneg_derivative_order(h) == 0


def _spec_number(spec: str, part: str, form: str, convert=float):
    """part of the potential spec converted by convert; a failure names the spec and its form."""
    try:
        return convert(part)
    except ValueError:
        raise ValueError(f"potential spec {spec!r} is malformed: expected {form}, got {part!r}") from None


def parse_potential(text: str, n: int | None = None) -> Potential:
    """Parse CLI spellings: riesz:1.0, newton, gaussian:2.5, log, fejes-toth,
    shift:2.0:fejes-toth, with at most MAX_SHIFT_DEPTH shift: levels."""
    spec = text
    shifts = []
    head, _, rest = text.partition(":")
    while head.strip().lower() == "shift":
        c, _, text = rest.partition(":")
        shifts.append(c)
        head, _, rest = text.partition(":")
    if len(shifts) > MAX_SHIFT_DEPTH:
        raise ValueError(f"potential spec nests {len(shifts)} shift: levels, above the cap of {MAX_SHIFT_DEPTH}")
    head = head.strip().lower()
    if rest and head in ("log", "logarithmic", "fejes-toth", "fejes_toth"):
        raise ValueError(f"potential spec {spec!r} is malformed: expected {head} with no parameter, got {rest!r}")
    if head == "riesz":
        h = riesz(_spec_number(spec, rest, "riesz:A with a number A"))
    elif head == "newton":
        dim = _spec_number(spec, rest, "newton or newton:N with an integer N", int) if rest else n
        if dim is None:
            raise ValueError("newton potential needs a dimension")
        h = newton(dim)
    elif head == "gaussian":
        h = gaussian(_spec_number(spec, rest, "gaussian:A with a number A"))
    elif head in ("log", "logarithmic"):
        h = logarithmic()
    elif head in ("fejes-toth", "fejes_toth"):
        h = fejes_toth()
    else:
        raise ValueError(f"unknown potential spec {text!r}")
    for c in reversed(shifts):  # innermost first, as the nesting reads
        h = shifted(h, _spec_number(spec, c, "shift:C:BASE with a number C"))
    return h
