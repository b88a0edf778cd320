"""Normalized Gegenbauer and adjacent Jacobi polynomials.

All polynomials here are scaled to take the value 1 at t = 1.  For a fixed
dimension n >= 2 the Gegenbauer family ``P_i`` is orthogonal on [-1, 1]
with respect to the probability measure

    mu_n(dt) = gamma_n * (1 - t**2)**((n - 3) / 2) dt,

the projection of the uniform measure of the unit sphere in R^n onto a
coordinate axis.  The module evaluates these polynomials by forward
recurrence, converts between the power basis and the Gegenbauer basis,
computes moments of mu_n, and locates largest zeros of adjacent Jacobi
polynomials (parameters offset from (n-3)/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

MAX_DEGREE = 64


def _trim(coeffs) -> tuple[float, ...]:
    c = [float(x) for x in coeffs]
    while len(c) > 1 and c[-1] == 0.0:
        c.pop()
    return tuple(c)


@dataclass(frozen=True)
class MonomialPoly:
    """Real polynomial c_0 + c_1*t + ... + c_d*t**d in the power basis."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))
        if self.degree > MAX_DEGREE:
            raise ValueError(f"degree {self.degree} exceeds cap {MAX_DEGREE}")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, t):
        return np.polynomial.polynomial.polyval(t, np.asarray(self.coeffs))


@dataclass(frozen=True)
class GegenbauerSeries:
    """Polynomial sum_i coeffs[i] * P_i in the Gegenbauer basis for dimension n."""

    n: int
    coeffs: tuple[float, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension must be >= 2")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, t):
        """Clenshaw's recurrence on (i + n - 2) P_{i+1} = (2i + n - 2) t P_i - i P_{i-1}."""
        t = np.asarray(t, dtype=float)
        n, c = self.n, self.coeffs
        y1 = y2 = np.zeros_like(t)  # b_{i+1}, b_{i+2}
        for i in range(self.degree, 0, -1):
            y1, y2 = c[i] + (2 * i + n - 2) / (i + n - 2) * t * y1 - (i + 1) / (i + n - 1) * y2, y1
        return c[0] + t * y1 - y2 / (n - 1)

    def value_at_one(self) -> float:
        """P_i(1) = 1, so the value at 1 is the plain coefficient sum."""
        return float(sum(self.coeffs))


@dataclass(frozen=True)
class JacobiSpec:
    """Jacobi polynomial P_k^(a + (n-3)/2, b + (n-3)/2), value-1-at-1 scaling.

    The offsets a, b select the systems adjacent to the Gegenbauer family of
    dimension n; (a, b) = (0, 0) recovers P_k itself.
    """

    a: float
    b: float
    n: int
    k: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension must be >= 2")
        if self.k < 0:
            raise ValueError("degree must be >= 0")
        if self.alpha <= -1 or self.beta <= -1:
            raise ValueError("effective Jacobi exponents must exceed -1")

    @property
    def alpha(self) -> float:
        return self.a + (self.n - 3) / 2

    @property
    def beta(self) -> float:
        return self.b + (self.n - 3) / 2


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

    with P_0 = 1 and P_1 = t, which preserves P_i(1) = 1.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:  # Python floats: the same operations, without ufunc overhead
        x = float(t)
        p = [1.0, x]
        for j in range(1, imax):
            p.append(((2 * j + n - 2) * x * p[j] - j * p[j - 1]) / (j + n - 2))
        return np.array(p[: imax + 1])
    out = np.empty((imax + 1,) + t.shape)
    out[0] = 1.0
    if imax >= 1:
        out[1] = t
    scratch = np.empty_like(t)
    for j in range(1, imax):  # in place, in the order of the scalar expression
        row = out[j + 1]
        np.multiply(2 * j + n - 2, t, out=row)
        row *= out[j]
        np.multiply(j, out[j - 1], out=scratch)
        row -= scratch
        row /= j + n - 2
    return out


def _jacobi_unnormalized(alpha: float, beta: float, k: int, t):
    """Standard (unnormalized) Jacobi polynomial by three-term recurrence."""
    t = np.asarray(t, dtype=float)
    p_prev = np.ones_like(t)
    if k == 0:
        return p_prev
    p = (alpha + 1) + (alpha + beta + 2) * (t - 1) / 2
    for i in range(2, k + 1):
        s = 2 * i + alpha + beta
        c0 = 2 * i * (i + alpha + beta) * (s - 2)
        c1 = (s - 1) * (alpha * alpha - beta * beta)
        c2 = (s - 1) * s * (s - 2)
        c3 = 2 * (i + alpha - 1) * (i + beta - 1) * s
        p, p_prev = ((c2 * t + c1) * p - c3 * p_prev) / c0, p
    return p


def _jacobi_value_at_one(alpha: float, k: int) -> float:
    v = 1.0
    for j in range(1, k + 1):
        v *= (alpha + j) / j
    return v


def jacobi_eval(spec: JacobiSpec, t):
    """Evaluate the adjacent Jacobi polynomial of ``spec``, scaled to 1 at t=1."""
    raw = _jacobi_unnormalized(spec.alpha, spec.beta, spec.k, t)
    val = raw / _jacobi_value_at_one(spec.alpha, spec.k)
    return val if val.ndim else float(val)


def _jacobi_tridiagonal(alpha: float, beta: float, k: int):
    """Diagonal and off-diagonal of the k-by-k symmetric Jacobi matrix.

    Eigenvalues are the zeros of the degree-k Jacobi polynomial (Golub-Welsch).
    """
    ab = alpha + beta
    diag = np.empty(k)
    diag[0] = (beta - alpha) / (ab + 2)
    for i in range(1, k):
        diag[i] = (beta * beta - alpha * alpha) / ((2 * i + ab) * (2 * i + ab + 2))
    off = np.empty(max(k - 1, 0))
    if k > 1:
        off[0] = np.sqrt(4 * (alpha + 1) * (beta + 1) / ((ab + 2) ** 2 * (ab + 3)))
    for i in range(2, k):
        s = 2 * i + ab
        off[i - 1] = np.sqrt(4 * i * (i + alpha) * (i + beta) * (i + ab) / (s * s * (s * s - 1)))
    return diag, off


def jacobi_zeros(spec: JacobiSpec) -> np.ndarray:
    """All k zeros of the Jacobi polynomial, ascending."""
    if spec.k == 0:
        return np.empty(0)
    diag, off = _jacobi_tridiagonal(spec.alpha, spec.beta, spec.k)
    if spec.k == 1:
        return diag.copy()
    return eigh_tridiagonal(diag, off, eigvals_only=True)


def jacobi_largest_zero(spec: JacobiSpec) -> float:
    """Largest zero of the Jacobi polynomial of ``spec``.

    The degree-zero convention t_0^{1,1} = -1 applies for (a, b) = (1, 1);
    other degree-zero specs are rejected.  For k >= 1, eigenvalues of the
    tridiagonal Jacobi matrix bracket the zero and Brent refinement brings
    it to ~1e-13.
    """
    if spec.k == 0:
        if spec.a == 1 and spec.b == 1:
            return -1.0
        raise ValueError("degree-0 largest zero is defined only for offsets (1, 1)")
    zeros = jacobi_zeros(spec)
    top = float(zeros[-1])
    left = -1.0 if spec.k == 1 else float(0.5 * (zeros[-1] + zeros[-2]))

    def f(x):
        return jacobi_eval(spec, x)

    # the normalized polynomial is positive on (top, 1], negative just left of top
    root = brentq(f, left, 1.0, xtol=1e-15, rtol=8.9e-16)
    if abs(f(root)) > 1e-11:
        raise RuntimeError(f"largest-zero refinement failed for {spec}")
    return float(root)


def measure_moment(n: int, j: int) -> float:
    """Moment integral t^j dmu_n: zero for odd j, double-factorial ratio for even."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    if j < 0:
        raise ValueError("exponent must be >= 0")
    if j % 2 == 1:
        return 0.0
    v = 1.0
    for i in range(1, j // 2 + 1):
        v *= (2 * i - 1) / (n + 2 * i - 2)
    return v


@lru_cache(maxsize=128)
def _times_t_matrix(n: int, size: int) -> np.ndarray:
    """Read-only matrix taking the coefficients of g (degree < size - 1) to
    those of t g: t P_0 = P_1, (2i + n - 2) t P_i = (i + n - 2) P_{i+1} + i P_{i-1}."""
    i = np.arange(1, size)
    up = np.concatenate(([1.0], (i + n - 2) / (2 * i + n - 2)))[: size - 1]
    out = np.diag(up, -1) + np.diag(i / (2 * i + n - 2), 1)
    out.flags.writeable = False
    return out


def to_gegenbauer(p: MonomialPoly, n: int) -> GegenbauerSeries:
    """Expand a power-basis polynomial in the Gegenbauer basis for dimension n.

    Synthesis runs Horner's scheme with multiplication by t performed
    directly in the Gegenbauer basis (exact recurrence coefficients), which
    stays well conditioned through the supported degree range.
    """
    if n < 2:
        raise ValueError("dimension must be >= 2")
    times_t = _times_t_matrix(n, len(p.coeffs))
    g = np.zeros(len(p.coeffs))
    for c in reversed(p.coeffs):
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


@lru_cache(maxsize=128)
def gegenbauer_monomial_table(n: int, imax: int) -> tuple[np.ndarray, ...]:
    """Power-basis coefficient vectors of P_0, ..., P_imax, read-only."""
    rows = [np.array([1.0])]
    if imax >= 1:
        rows.append(np.array([0.0, 1.0]))
    for i in range(1, imax):
        shifted = np.concatenate(([0.0], rows[i]))
        prev = np.concatenate((rows[i - 1], [0.0, 0.0]))
        rows.append(((2 * i + n - 2) * shifted - i * prev) / (i + n - 2))
    for row in rows:
        row.flags.writeable = False
    return tuple(rows)


def from_gegenbauer(g: GegenbauerSeries) -> MonomialPoly:
    """Inverse of :func:`to_gegenbauer`."""
    rows = gegenbauer_monomial_table(g.n, g.degree)
    out = np.zeros(g.degree + 1)
    for c, row in zip(g.coeffs, rows):
        out[: row.size] += c * row
    return MonomialPoly(tuple(out))
