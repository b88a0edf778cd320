"""Built-in potential functions of the inner product t on [-1, 1).

Each kind carries a closed-form value and first derivative plus the
derivative signs that gate which bounds apply to it:

    riesz(alpha)   (2(1-t))**(-alpha/2), alpha > 0
    newton(n)      riesz with alpha = n-2: (2(1-t))**(1-n/2), constant for n=2
    gaussian(alpha) exp(-alpha*(1-t))
    logarithmic    -log(2(1-t))
    fejes_toth     -sqrt(2(1-t))
    shifted(h, c)  h(t) + c

Value and slope come from one dispatch on the gap 1 - t, ``_gap_values``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_KINDS = ("riesz", "newton", "gaussian", "logarithmic", "fejes_toth", "shifted")
# shift: levels a spec may nest: label() and _gap_values recurse once per level
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
    # one reduction when the max is below 1; a NaN max still has every point compared,
    # so a NaN next to t >= 1 raises, and an empty array passes
    if t.size and not t.max() < 1.0 and (t >= 1.0).any():
        raise ValueError("potential evaluated at t >= 1")
    return t


def potential_eval(h: Potential, t):
    """Value of h at t (scalar or array); t = 1 is a domain error."""
    v = np.asarray(_gap_values(h, np.subtract(1.0, _check_domain(t))))
    return v if v.ndim else float(v)


def potential_derivative(h: Potential, t):
    """Closed-form first derivative of h at t."""
    v = np.asarray(_gap_values(h, np.subtract(1.0, _check_domain(t)), slope=True))
    return v if v.ndim else float(v)


def _gap_values(h: Potential, v, slope=False):
    """h at t, or with ``slope`` h', from v = 1 - t, a float array or numpy scalar, unchecked: callers make sure v > 0.

    An array is worked in place by the ufuncs of the formulas in the module
    docstring and returned; a numpy scalar, whose pow is the C library's,
    gives a new scalar.  newton(n) takes riesz's branch with alpha = n - 2.
    """
    if h.kind == "shifted":
        v = _gap_values(h.base, v, slope)
        if not slope:
            v += h.param
        return v
    # on a numpy scalar the in-place operators rebind v, and the ufuncs return a new scalar
    into = v if v.ndim else None
    if h.kind == "gaussian":
        v *= -h.param
        v = np.exp(v, out=into)
        if slope:
            v *= h.param
    elif h.kind == "logarithmic" and slope:
        v = np.reciprocal(v, out=into)
    else:
        v *= 2.0
        if h.kind in ("riesz", "newton"):
            alpha = h.param if h.kind == "riesz" else h.param - 2.0
            v **= -alpha / 2.0 - slope
            if slope:
                v *= alpha
        else:
            v = (np.log if h.kind == "logarithmic" else np.sqrt)(v, out=into)
            if slope:  # fejes_toth: 1 / sqrt(2(1-t))
                v = np.reciprocal(v, out=into)
            else:
                v = -v if into is None else np.negative(v, out=v)
    return v


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
