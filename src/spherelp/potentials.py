"""Built-in potential functions of the inner product t on [-1, 1).

Each kind carries a closed-form value and first derivative plus a
monotonicity classification that gates which bounds apply to it:

    riesz(alpha)   (2(1-t))**(-alpha/2), alpha > 0
    newton(n)      (2(1-t))**(1-n/2)  (riesz with alpha = n-2; constant for n=2)
    gaussian(alpha) exp(-alpha*(1-t))
    logarithmic    -log(2(1-t))
    fejes_toth     -sqrt(2(1-t))
    shifted(h, c)  h(t) + c
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_KINDS = ("riesz", "newton", "gaussian", "logarithmic", "fejes_toth", "shifted")


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
        if self.kind == "riesz":
            return f"riesz:{self.param:g}"
        if self.kind == "newton":
            return f"newton:{int(self.param)}"
        if self.kind == "gaussian":
            return f"gaussian:{self.param:g}"
        if self.kind == "logarithmic":
            return "log"
        if self.kind == "fejes_toth":
            return "fejes-toth"
        return f"shift:{self.param:g}:{self.base.label()}"


@dataclass(frozen=True)
class MonotonicityClass:
    absolutely_monotone: bool
    strictly_absolutely_monotone: bool
    min_nonneg_derivative_order: int | None

    def __post_init__(self):
        if self.strictly_absolutely_monotone and not self.absolutely_monotone:
            raise ValueError("strict implies absolutely monotone")


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
    if np.any(t >= 1.0):
        raise ValueError("potential evaluated at t >= 1")
    return t


def potential_eval(h: Potential, t):
    """Value of h at t (scalar or array); t = 1 is a domain error."""
    t = _check_domain(t)
    if h.kind == "riesz":
        v = (2.0 * (1.0 - t)) ** (-h.param / 2.0)
    elif h.kind == "newton":
        v = (2.0 * (1.0 - t)) ** (1.0 - h.param / 2.0)
    elif h.kind == "gaussian":
        v = np.exp(-h.param * (1.0 - t))
    elif h.kind == "logarithmic":
        v = -np.log(2.0 * (1.0 - t))
    elif h.kind == "fejes_toth":
        v = -np.sqrt(2.0 * (1.0 - t))
    else:
        v = potential_eval(h.base, t) + h.param
    v = np.asarray(v)
    return v if v.ndim else float(v)


def potential_derivative(h: Potential, t, order: int = 1):
    """Closed-form first derivative of h at t; only order 1 is supported."""
    if order != 1:
        raise ValueError("only first derivatives are available in closed form")
    t = _check_domain(t)
    if h.kind == "riesz":
        v = h.param * (2.0 * (1.0 - t)) ** (-h.param / 2.0 - 1.0)
    elif h.kind == "newton":
        a = h.param - 2.0
        v = a * (2.0 * (1.0 - t)) ** (-a / 2.0 - 1.0) if a else np.zeros_like(t)
    elif h.kind == "gaussian":
        v = h.param * np.exp(-h.param * (1.0 - t))
    elif h.kind == "logarithmic":
        v = 1.0 / (1.0 - t)
    elif h.kind == "fejes_toth":
        v = 1.0 / np.sqrt(2.0 * (1.0 - t))
    else:
        return potential_derivative(h.base, t, order)
    v = np.asarray(v)
    return v if v.ndim else float(v)


def _is_polynomial(h: Potential) -> bool:
    if h.kind == "newton" and h.param == 2:
        return True
    if h.kind == "shifted":
        return _is_polynomial(h.base)
    return False


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


@lru_cache(maxsize=64)
def _closed_form_class(h: Potential) -> MonotonicityClass:
    """Monotonicity flags for h from closed-form per-kind knowledge alone."""
    min_order = min_nonneg_derivative_order(h)
    if h.kind == "logarithmic":
        # conventionally grouped with the absolutely monotone kinds; only its
        # derivative orders >= 1 are nonnegative, and no bound consumes order 0
        absolutely = True
    else:
        absolutely = min_order == 0
    strictly = absolutely and not _is_polynomial(h)
    return MonotonicityClass(
        absolutely_monotone=absolutely,
        strictly_absolutely_monotone=strictly,
        min_nonneg_derivative_order=min_order,
    )


_SAMPLE_GRID = np.linspace(-1.0, 0.95, 40)


def classify(h: Potential) -> MonotonicityClass:
    """Monotonicity flags for h, set from closed-form per-kind knowledge.

    Derivative-sign sampling on a fixed grid (values, h', and a central
    second difference of h') is run only as a consistency check against
    the claims.
    """
    cls = _closed_form_class(h)
    _consistency_check(h, cls)
    return cls


def _consistency_check(h: Potential, cls: MonotonicityClass) -> None:
    tol = 1e-7
    grid = _SAMPLE_GRID
    if cls.min_nonneg_derivative_order == 0 and np.min(potential_eval(h, grid)) < -tol:
        raise RuntimeError(f"{h.label()}: claimed nonnegative but sampled value is negative")
    if np.min(potential_derivative(h, grid)) < -tol:
        raise RuntimeError(f"{h.label()}: first derivative sampled negative")
    inner = grid[(grid > -0.999) & (grid < 0.9)]
    step = 1e-4
    second = (potential_derivative(h, inner + step) - potential_derivative(h, inner - step)) / (2 * step)
    if second.size and np.min(second) < -1e-4 * (1.0 + np.max(np.abs(second))):
        raise RuntimeError(f"{h.label()}: second derivative sampled negative")


def parse_potential(text: str, n: int | None = None) -> Potential:
    """Parse CLI spellings: riesz:1.0, newton, gaussian:2.5, log, fejes-toth,
    shift:2.0:fejes-toth."""
    head, _, rest = text.partition(":")
    head = head.strip().lower()
    if head == "riesz":
        return riesz(float(rest))
    if head == "newton":
        dim = int(rest) if rest else n
        if dim is None:
            raise ValueError("newton potential needs a dimension")
        return newton(dim)
    if head == "gaussian":
        return gaussian(float(rest))
    if head in ("log", "logarithmic"):
        return logarithmic()
    if head in ("fejes-toth", "fejes_toth"):
        return fejes_toth()
    if head == "shift":
        c, _, base = rest.partition(":")
        return shifted(parse_potential(base, n), float(c))
    raise ValueError(f"unknown potential spec {text!r}")
