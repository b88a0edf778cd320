"""Levenshtein-function quadrature rules for energy bounds.

For a dimension n and a capacity N > 2 there is a unique degree m with
D(n, m) < N <= D(n, m+1), where D counts the Delsarte-Goethals-Seidel
partition of capacities.  Solving L_m(n, s) = N for the Levenshtein
function L_m produces nodes alpha_0 < ... < alpha_{k-1+eps} in [-1, 1)
(m = 2k-1+eps) and positive weights rho_i such that

    f_0 = f(1)/N + sum_i rho_i f(alpha_i)

holds exactly for every polynomial f of degree <= m, f_0 being the mean of
f against the measure mu_n.  The module builds these rules from a capacity
(lower-bound direction) or from a maximal inner product s (upper-bound
direction), and multiplies out the monic Levenshtein polynomial whose
roots are the nodes, as one array of Gegenbauer coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, isfinite, sqrt

import numpy as np

from .orthopoly import _float_columns, gegenbauer_from_roots, gegenbauer_table, value_at_one

MAX_RULE_DEGREE = 25


class QuadratureError(RuntimeError):
    """Internal inconsistency while building a rule (bad roots or weights)."""


class WeightAtMinusOneError(QuadratureError):
    """An even-degree rule whose weight at the node -1 is not positive.

    It vanishes at s = lo(m) = hi(m - 1) and can round to 0 a few ulps
    above, where no degree-m rule exists and the degree-(m - 1) rule
    bounds s.
    """


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a 1/N-quadrature of degree m = 2k-1+eps.

    ``table`` holds P_0..P_d at the nodes, read-only, with d = 3m for a
    lower-bound rule and d = m for an upper-bound rule: the one node table
    that the exactness check, the Hermite operator, the Q_j scan and the
    node contact check read, each through its row prefix.
    """

    n: int
    m: int
    nodes: tuple[float, ...]
    weights: tuple[float, ...]
    capacity: float
    table: np.ndarray = field(compare=False, repr=False)

    @property
    def eps(self) -> int:
        return split_degree(self.m)[1]

    @property
    def s(self) -> float:
        return self.nodes[-1]


def split_degree(m: int) -> tuple[int, int]:
    """m = 2k - 1 + eps with eps in {0, 1}."""
    if m < 1:
        raise ValueError("degree must be >= 1")
    k = (m + 1) // 2
    return k, m - (2 * k - 1)


def dgs_bound(n: int, m: int) -> int:
    """Delsarte-Goethals-Seidel number D(n, m)."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    k, eps = split_degree(m)
    return comb(n + k - 2 + eps, n - 1) + comb(n + k - 2, n - 1)


def select_degree_from_capacity(n: int, capacity: float) -> int:
    """The unique m >= 1 with D(n, m) < capacity <= D(n, m+1).

    Capacities at or below D(n, 1) = 2 fall into m = 1 by the same
    half-open convention; an infinite capacity is named as such.
    """
    if not capacity > 1:
        raise ValueError(f"capacity must exceed 1, got {capacity!r}")
    if not isfinite(capacity):
        raise ValueError(f"capacity must be finite, got {capacity!r}")
    m = 1
    while capacity > dgs_bound(n, m + 1):
        m += 1
        if m > MAX_RULE_DEGREE:
            raise ValueError(f"capacity {capacity} needs degree above cap {MAX_RULE_DEGREE}")
    return m


@lru_cache(maxsize=1024)
def validity_interval(n: int, m: int) -> tuple[float, float]:
    """Interval [t_{k-1+eps}^{1,1-eps}, t_k^{1,eps}] on which L_m(n, .) is valid.

    t_j^{1,b} is the largest zero of the degree-j (1, b) adjacent Jacobi
    polynomial: the top eigenvalue of its Jacobi matrix (Golub-Welsch),
    within about 2e-15 of the zero up to m = 25.  t_0^{1,1} = -1 by convention.
    """
    if n < 2:
        raise ValueError("dimension must be >= 2")
    k, eps = split_degree(m)

    def largest_zero(b: int, j: int) -> float:
        diag, off = _jacobi_matrix(n, b, j)
        return float(np.linalg.eigvalsh(_tridiagonal(diag, off))[-1])

    lo = largest_zero(1 - eps, k - 1 + eps) if k - 1 + eps else -1.0
    return lo, largest_zero(eps, k)


def select_degree_from_s(n: int, s: float) -> int:
    """The degree m whose validity interval contains s; ties go to smaller m."""
    if not -1 <= s < 1:
        raise ValueError("s must lie in [-1, 1)")
    for m in range(1, MAX_RULE_DEGREE + 1):
        _, hi = validity_interval(n, m)
        if s <= hi:
            return m
    raise ValueError(f"s = {s} needs degree above cap {MAX_RULE_DEGREE}")


def levenshtein_function(n: int, m: int, s: float) -> float:
    """Levenshtein bound L_m(n, s) for the maximal cardinality at inner product s.

    The closed-form rational expression; it is a cardinality bound only for
    s in :func:`validity_interval`, which callers check where it matters.
    """
    k, eps = split_degree(m)
    lead = comb(k + n - 3 + eps, n - 2)
    head = (2 * k + n - 3 + 2 * eps) / (n - 1)
    # P_0..P_{k+eps} at s, to the bit as gegenbauer_table gives them
    p = _float_columns(n, k + eps, [float(s)])
    pk, pke, pkm = p[k], p[k + eps], p[k - 1 + eps]
    num = (1 + s) ** eps * (pkm - pke)
    den = (1 - s) * (eps * pk + pke)
    return float(lead * (head - num / den))


@lru_cache(maxsize=256)
def _jacobi_matrix(n: int, b: int, size: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Diagonal and off-diagonal of the size-by-size Jacobi matrix of the
    (1, b) adjacent family, the Jacobi weight (1 - t)^(a + 1) (1 + t)^(a + b)
    with a = (n - 3)/2.  Its eigenvalues are the zeros of the degree-size
    polynomial (Golub-Welsch); b = 0 gives nu = (1 - t) dmu_n."""
    alpha, beta = 1 + (n - 3) / 2, b + (n - 3) / 2
    ab = alpha + beta
    diag = [(beta - alpha) / (ab + 2)]
    off = [sqrt(4 * (alpha + 1) * (beta + 1) / ((ab + 2) ** 2 * (ab + 3)))] if size > 1 else []
    for i in range(1, size):
        s = 2 * i + ab
        diag.append((beta * beta - alpha * alpha) / (s * (s + 2)))
        if i > 1:
            off.append(sqrt(4 * i * (i + alpha) * (i + beta) * (i + ab) / (s * s * (s * s - 1))))
    return tuple(diag), tuple(off)


def _tridiagonal(diag, off) -> np.ndarray:
    """The symmetric tridiagonal matrix as a dense array, its lower triangle
    filled (the triangle ``np.linalg.eigh`` reads)."""
    size = len(diag)
    matrix = np.zeros((size, size))
    matrix.flat[:: size + 1] = diag
    matrix.flat[size :: size + 1] = off
    return matrix


def _ratio(diag, off, j: int, x: float) -> float:
    """p_j(x) / p_{j-1}(x) for the monic polynomials of a Jacobi matrix."""
    q = x - diag[0]
    for i in range(1, j):
        q = x - diag[i] - off[i - 1] ** 2 / q
    return q


def compute_weights(n: int, m: int, s: float, capacity: float, table_degree: int | None = None) -> QuadratureRule:
    """The verified degree-m 1/N rule whose largest node is s, with its
    node table P_0..P_table_degree (default m).

    Testing the 1/N identity on f = (1 - t) g shows that rho_i (1 - alpha_i)
    is a Gauss-type rule for nu = (1 - t) dmu_n, a probability measure: a
    k-point Gauss-Radau rule with s fixed for odd m, a (k+1)-point
    Gauss-Lobatto rule with -1 and s fixed for even m.  Golub's modified
    Jacobi matrix of nu carries the fixed nodes as eigenvalues; the
    eigenvalues are the nodes and, with v_0 the first components of the unit
    eigenvectors, rho_i = v_0i^2 / (1 - alpha_i) (Golub-Welsch), positive by
    construction.  The largest eigenvalue must lie within 1e-6 of s and,
    for even m, the smallest within 1e-7 of -1; both are snapped, and the
    capacity enters only the gates of :func:`_verified_rule`.
    """
    k, eps = split_degree(m)
    diag, off = (list(v) for v in _jacobi_matrix(n, 0, k + eps))
    if eps == 1:
        # last row (a, b) chosen so that p_{k+1} = (t - a) p_k - b^2 p_{k-1} vanishes at -1 and s
        q_s, q_m = _ratio(diag, off, k, s), _ratio(diag, off, k, -1.0)
        # b^2 >= 0 for s at or above the largest zero of p_k; round-off there
        # can flip its sign, and b = 0 leaves the node -1 a zero weight
        diag[k] = s - (s + 1) * q_m / (q_m - q_s)
        off[k - 1] = sqrt(max((s + 1) * q_s * q_m / (q_m - q_s), 0.0))
    elif k > 1:
        diag[k - 1] = s - off[k - 2] ** 2 / _ratio(diag, off, k - 1, s)
    else:
        diag[0] = s
    nodes, vectors = np.linalg.eigh(_tridiagonal(diag, off))  # ascending, unit eigenvectors as columns
    if abs(nodes[-1] - s) > 1e-6:
        raise QuadratureError(
            f"largest node does not match s for {_where(n, m, s, capacity)}: it is {nodes[-1]:.17g}, "
            f"off by {nodes[-1] - s:.6g} (tolerance 1e-6)"
        )
    nodes[-1] = s
    if eps == 1:
        if abs(nodes[0] + 1) > 1e-7:
            raise QuadratureError(
                f"even-degree rule lacks the node at -1 for {_where(n, m, s, capacity)}: smallest node is "
                f"{nodes[0]:.17g} (tolerance 1e-7)"
            )
        nodes[0] = -1.0
    # s = 1 puts a node at 1, which the rule gate then names: no divide-by-zero warning first
    with np.errstate(divide="ignore"):
        weights = vectors[0] ** 2 / (1.0 - nodes)
    return _verified_rule(n, m, nodes, weights, capacity, m if table_degree is None else table_degree)


def _verified_rule(n: int, m: int, nodes, weights, capacity: float, table_degree: int) -> QuadratureRule:
    """The rule on snapped ``nodes`` (s last) and ``weights``, held to the one gate of every rule: k + eps of
    each, nodes strictly ascending in [-1, 1), positive weights and exactness on P_0..P_m within 1e-9."""
    if not len(nodes) == len(weights) == sum(split_degree(m)):  # k + eps, for m = 2k - 1 + eps
        raise QuadratureError(
            f"a degree-{m} rule for (n={n}, capacity={capacity:.12g}) needs {sum(split_degree(m))} nodes and as "
            f"many weights, not {len(nodes)} nodes and {len(weights)} weights"
        )
    if len(nodes) > 1:
        gap = int(np.argmin(np.diff(nodes)))
        if nodes[gap + 1] - nodes[gap] <= 1e-9:
            where = _where(n, m, nodes[-1], capacity)
            raise QuadratureError(
                f"{'descending' if nodes[gap + 1] < nodes[gap] else 'repeated'} nodes for {where}: "
                f"nodes {gap} and {gap + 1} are {nodes[gap + 1] - nodes[gap]:.6g} apart"
            )
    if nodes[0] < -1 - 1e-9 or nodes[-1] >= 1:
        bad = 0 if nodes[0] < -1 - 1e-9 else len(nodes) - 1
        raise QuadratureError(
            f"node outside [-1, 1) for {_where(n, m, nodes[-1], capacity)}: node {bad} is {nodes[bad]:.17g}"
        )
    low = int(np.argmin(weights))  # the first NaN, if any, which fails the gate
    if not weights[low] > 0:
        raise (WeightAtMinusOneError if m % 2 == 0 and low == 0 else QuadratureError)(
            f"nonpositive quadrature weight for {_where(n, m, nodes[-1], capacity)}: "
            f"weight {low} of {len(weights)} is {weights[low]:.6g}"
        )
    table = gegenbauer_table(n, table_degree, nodes)
    table.flags.writeable = False
    residuals = exactness_residuals(table[: m + 1], weights, capacity)
    worst = int(np.argmax(np.abs(residuals)))
    if not abs(residuals[worst]) <= 1e-9:
        raise QuadratureError(
            f"quadrature exactness failure for {_where(n, m, nodes[-1], capacity)}: "
            f"largest residual is {residuals[worst]:.6g} on P_{worst} (tolerance 1e-9)"
        )
    return QuadratureRule(n, m, tuple(nodes), tuple(weights), float(capacity), table)


def _where(n: int, m: int, s: float, capacity: float) -> str:
    """The rule an error message names, formatted only when raising."""
    return f"(n={n}, m={m}, s={s:.12g}, capacity={capacity:.12g})"


def exactness_residuals(table: np.ndarray, weights, capacity: float) -> np.ndarray:
    """Residual of the 1/N identity on each row P_j of a node table (entry j for P_j)."""
    res = table @ np.asarray(weights) + 1.0 / capacity
    res[0] -= 1.0
    return res


def solve_ulb_rule(n: int, capacity: float) -> QuadratureRule:
    """Build the 1/N_W-quadrature rule for a capacity N_W > 2.

    Selects the degree from the capacity, solves L_m(n, s) = N_W by Brent's
    method on the validity interval (:func:`_brent_root`), then builds the
    rule with largest node s by :func:`compute_weights` at the degree of s,
    ties to the smaller (:func:`select_degree_from_s`), with its node table
    up to three times that degree for the Q_j scan.  Within round-off above
    D(n, m) the solve gives s = lo(m) = hi(m-1), where the degree-m weight
    at -1 vanishes and the degree-(m-1) rule is a 1/D(n, m) rule.
    """
    if not capacity > 2:
        raise ValueError(f"capacity must exceed 2, got {capacity!r}")
    m = select_degree_from_capacity(n, capacity)
    lo, hi = validity_interval(n, m)

    def f(x):
        return levenshtein_function(n, m, x) - capacity

    flo, fhi = f(lo), f(hi)
    if flo >= 0:
        s = lo  # capacity at the left edge of its degree interval
    elif fhi <= 0:
        s = hi
    else:
        s = _brent_root(f, lo, hi, flo, fhi, f"(n={n}, m={m}, capacity={capacity:.12g})")
    degree = select_degree_from_s(n, s)
    return compute_weights(n, degree, s, capacity, 3 * degree)


def _brent_root(f, xpre, xcur, fpre, fcur, where):
    """Root of f on [xpre, xcur], where f changes sign, by Brent's method.

    Scipy's C ``brentq`` (Zeros/brentq.c) step for step, with xtol = 1e-15,
    rtol = 8.9e-16 and at most 100 steps, so every iterate and the root
    agree with ``scipy.optimize.brentq`` to the bit; the end values
    fpre = f(xpre) and fcur = f(xcur) are the caller's.
    """
    xtol, rtol, maxiter = 1e-15, 8.9e-16, 100
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise QuadratureError(
        f"Brent's method did not converge in {maxiter} steps for {where}: last iterate {xcur:.17g}"
    )


def levenshtein_polynomial(n: int, m: int, s: float) -> QuadratureRule:
    """The verified rule on the roots of the monic Levenshtein polynomial of
    degree m for inner product s, at capacity L_m(n, s); only an upper bound
    that reads the polynomial itself multiplies it out, by
    :func:`levenshtein_coefficients`."""
    return compute_weights(n, m, s, levenshtein_function(n, m, s))


def levenshtein_coefficients(rule: QuadratureRule) -> np.ndarray:
    """Gegenbauer coefficients of the monic Levenshtein polynomial f on the
    roots of ``rule``, a rule of :func:`levenshtein_polynomial`.

    For m = 2k-1 f is (t - s) K(t)^2 with K monic of degree k-1; for
    m = 2k an extra factor (t + 1) appears.  Checked for nonnegative
    coefficients (strictly positive away from interval endpoints) and
    f(1)/f_0 equal to the rule's capacity L_m(n, s) within 1e-9 relative.
    """
    interior = rule.nodes[rule.eps:-1]
    return _check_levenshtein(rule, gegenbauer_from_roots(rule.n, (rule.s,) + rule.nodes[:rule.eps] + interior * 2))


def _check_levenshtein(rule: QuadratureRule, g: np.ndarray) -> np.ndarray:
    """``g``, the Levenshtein polynomial's coefficients on ``rule``, computed or recorded, held to their two gates."""
    n, m, s, capacity = rule.n, rule.m, rule.s, rule.capacity
    where = f"(n={n}, m={m}, s={s:.12g})"
    # strict positivity can degrade to a zero coefficient at interval endpoints
    low = int(np.argmin(g))
    if g[low] < -1e-10 * np.max(np.abs(g)):
        raise QuadratureError(
            f"Levenshtein polynomial for {where} has a negative coefficient: "
            f"coefficient {low} of {g.size} is {g[low]:.6g}"
        )
    ratio = value_at_one(g) / g[0]
    if not abs(ratio - capacity) <= 1e-9 * max(1.0, abs(capacity)):  # a NaN fails
        raise QuadratureError(
            f"coefficient ratio {ratio:.12g} for {where} disagrees with the Levenshtein "
            f"function value {capacity:.12g}"
        )
    return g
