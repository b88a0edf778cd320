"""The normalized Gegenbauer basis.

All polynomials here are scaled to take the value 1 at t = 1.  For a fixed
dimension n >= 2 the Gegenbauer family ``P_i`` is orthogonal on [-1, 1]
with respect to the probability measure

    mu_n(dt) = gamma_n * (1 - t**2)**((n - 3) / 2) dt,

the projection of the uniform measure of the unit sphere in R^n onto a
coordinate axis.  The module tabulates these polynomials by forward
recurrence, multiplies out linear factors in their basis, and converts
between the power basis and the Gegenbauer basis.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from operator import index

import numpy as np

# inputs of at most this many points, which covers every rule's nodes (13 at
# most), run the recurrence on Python floats.  Both paths give the same bits,
# so this is a speed choice only: one flat list of floats beats the array
# path's five direct ufunc calls per degree up to about 16 points at degree
# 5, 18 at degree 10 and 20 at degrees 20 to 75 (one thread, best of 15 x 300
# calls, the two paths interleaved, on a 2-vCPU Xeon KVM guest)
SMALL_TABLE = 16
# each path reads the recurrence constants from its cache, one entry per
# dimension, up to this degree: the height of a lower-bound rule's node table
# at the degree cap (3 x 25); higher tables compute theirs per call
CACHED_DEGREE = 75


@dataclass(frozen=True)
class GegenbauerSeries:
    """Polynomial sum_i coeffs[i] * P_i in the Gegenbauer basis for dimension n."""

    n: int
    coeffs: tuple[float, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension must be >= 2")
        object.__setattr__(self, "coeffs", tuple(np.asarray(self.coeffs, dtype=float).tolist()))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def integral_degree(value, name: str) -> int:
    """A degree argument as an int, or a TypeError naming it; a float would fail deep in a table or solve."""
    try:
        return index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def value_at_one(coeffs) -> float:
    """sum_i coeffs[i] P_i at t = 1: P_i(1) = 1, so the coefficient sum,
    added left to right from 0.0.  Python's ``sum`` of floats adds the same
    way before 3.12 and with compensation from 3.12 on, so the explicit loop
    keeps the value's bits the same under every interpreter."""
    total = 0.0
    for c in np.asarray(coeffs, dtype=float).tolist():
        total += c
    return total


def gegenbauer_eval(n: int, i: int, t):
    """Evaluate P_i for dimension n at t (scalar or array): row i of
    :func:`gegenbauer_table`."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    if i < 0:
        raise ValueError("degree must be >= 0")
    p = gegenbauer_table(n, i, t)[i]
    return p if p.ndim else float(p)


def gegenbauer_table(n: int, imax: int, t) -> np.ndarray:
    """Stack P_0(t), ..., P_imax(t); leading axis is the degree.

    Uses the forward three-term recurrence

        (i + n - 2) P_{i+1}(t) = (2i + n - 2) t P_i(t) - i P_{i-1}(t)

    with P_0 = 1 and P_1 = t, which preserves P_i(1) = 1.  A table beyond
    physical memory raises MemoryError up front: the float path's list, 40
    bytes an entry with its array, grows until the process is killed.
    """
    t = np.asarray(t, dtype=float)
    shape = (imax + 1,) + t.shape
    size = (imax + 1) * t.size * (40 if t.size <= SMALL_TABLE else 8)
    if size > _physical_memory():
        raise MemoryError(f"Unable to allocate {size / 2**30:.3g} GiB for an array with shape {shape}")
    if t.size <= SMALL_TABLE:  # Python floats: the same operations, without ufunc overhead
        # one point's column after another; copy() makes the transpose
        # C-contiguous, the layout of the array path
        flat = np.array(_float_columns(n, imax, t.ravel().tolist()), dtype=float)
        return flat.reshape(-1, imax + 1).T.copy().reshape(shape)
    out = np.empty(shape)
    out[0] = 1.0
    if imax >= 1:
        out[1] = t
    rows, scratch = list(out), np.empty(t.shape)  # t has at least one axis here, so rows are views
    # in place, in the order of the scalar expression, one direct ufunc call per operation
    for (c, j, d), prev, cur, row in zip(_steps(n, imax, _dimension_arrays), rows, rows[1:], rows[2:]):
        np.multiply(c, t, out=row)
        np.multiply(row, cur, out=row)
        np.multiply(j, prev, out=scratch)
        np.subtract(row, scratch, out=row)
        np.divide(row, d, out=row)
    return out


@lru_cache(maxsize=1)
def _physical_memory() -> float:
    """Bytes of physical memory, read once; inf where os.sysconf cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return float("inf")


@lru_cache(maxsize=128)
def _times_t_matrix(n: int, size: int) -> np.ndarray:
    """Read-only matrix taking the coefficients of g (degree < size - 1) to
    those of t g: t P_0 = P_1, (2i + n - 2) t P_i = (i + n - 2) P_{i+1} + i P_{i-1}."""
    i = np.arange(1, size)
    up = np.concatenate(([1.0], (i + n - 2) / (2 * i + n - 2)))[: size - 1]
    out = np.diag(up, -1) + np.diag(i / (2 * i + n - 2), 1)
    out.flags.writeable = False
    return out


def _float_columns(n: int, imax: int, points: list[float]) -> list[float]:
    """P_0(x), ..., P_imax(x) for each float x in turn, as one flat list, in
    the operation order of gegenbauer_table's array path."""
    steps = _steps(n, imax, _dimension_steps)
    flat = []
    for x in points:
        flat += (1.0, x)
        prev, cur = 1.0, x
        for c, j, d in steps:
            prev, cur = cur, (c * x * cur - j * prev) / d
            flat.append(cur)
    return flat if imax else flat[::2]  # imax = 0 keeps P_0 alone


def _steps(n: int, imax: int, cache) -> tuple:
    """The recurrence constants (2j + n - 2, j, j + n - 2) for j = 1..imax - 1, from
    ``cache`` up to CACHED_DEGREE and as floats above it: the values of the ints,
    with no int-to-float conversion per step."""
    if imax <= CACHED_DEGREE:
        return cache(n)[: max(imax - 1, 0)]
    return _step_range(n, imax)


@lru_cache(maxsize=64)
def _dimension_steps(n: int) -> tuple[tuple[float, float, float], ...]:
    """The constants of :func:`_steps` up to CACHED_DEGREE as Python floats, for the float path."""
    return _step_range(n, CACHED_DEGREE)


@lru_cache(maxsize=64)
def _dimension_arrays(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """The same constants as 0-d float64 arrays, for the array path: a ufunc takes
    those as they are, where it converts a Python float on every call."""
    return tuple(tuple(map(_array_constant, step)) for step in _dimension_steps(n))


def _array_constant(v: float) -> np.ndarray:
    """v as a read-only 0-d float64 array, owned by the dimension whose cache entry holds it."""
    out = np.array(v)
    out.flags.writeable = False
    return out


def _step_range(n: int, imax: int) -> tuple[tuple[float, float, float], ...]:
    shift = n - 2.0
    return tuple((j + j + shift, j, j + shift) for j in map(float, range(1, imax)))


def to_gegenbauer(coeffs, n: int) -> GegenbauerSeries:
    """Expand c_0 + c_1*t + ... + c_d*t**d (``coeffs``, lowest power first)
    in the Gegenbauer basis for dimension n.

    Synthesis runs Horner's scheme with multiplication by t performed
    directly in the Gegenbauer basis (exact recurrence coefficients), which
    stays well conditioned through the supported degree range.
    """
    if n < 2:
        raise ValueError("dimension must be >= 2")
    coeffs = [float(c) for c in coeffs]
    times_t = _times_t_matrix(n, len(coeffs))
    g = np.zeros(len(coeffs))
    for c in reversed(coeffs):
        g = times_t @ g
        g[0] += c
    return GegenbauerSeries(n, g)


def gegenbauer_from_roots(n: int, roots) -> np.ndarray:
    """Gegenbauer coefficients of the monic prod_r (t - r), one
    multiplication by t - r per root in the Gegenbauer basis."""
    times_t = _times_t_matrix(n, len(roots) + 1)
    g = np.zeros(len(roots) + 1)
    g[0] = 1.0
    for r in roots:
        g = times_t @ g - r * g
    return g


def from_gegenbauer(g: GegenbauerSeries) -> np.ndarray:
    """Power-basis coefficients of g, lowest power first: the inverse of
    :func:`to_gegenbauer`.  The rows of P_0, P_1, ... follow the
    three-term recurrence in the power basis."""
    n = g.n
    rows = [np.array([1.0]), np.array([0.0, 1.0])]
    for i in range(1, g.degree):
        shifted = np.concatenate(([0.0], rows[i]))
        prev = np.concatenate((rows[i - 1], [0.0, 0.0]))
        rows.append(((2 * i + n - 2) * shifted - i * prev) / (i + n - 2))
    out = np.zeros(g.degree + 1)
    for c, row in zip(g.coeffs, rows):
        out[: row.size] += c * row
    return out
