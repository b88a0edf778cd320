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
direction), and constructs the monic Levenshtein polynomial whose roots
are the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, sqrt

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from .orthopoly import (
    GegenbauerSeries,
    JacobiSpec,
    _jacobi_tridiagonal,
    gegenbauer_from_roots,
    gegenbauer_table,
    jacobi_largest_zero,
)

MAX_RULE_DEGREE = 25


class QuadratureError(RuntimeError):
    """Internal inconsistency while building a rule (bad roots or weights)."""


class ValidityError(ValueError):
    """s lies outside the validity interval of the requested Levenshtein degree."""


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a 1/N-quadrature of degree m = 2k-1+eps."""

    n: int
    m: int
    k: int
    eps: int
    nodes: tuple[float, ...]
    weights: tuple[float, ...]
    capacity: float

    @property
    def s(self) -> float:
        return self.nodes[-1]


@dataclass(frozen=True)
class LevenshteinPolynomial:
    """Monic degree-m polynomial vanishing at the rule nodes (interior doubled).

    For m = 2k-1 it is (t - s) K(t)^2 with K monic of degree k-1; for
    m = 2k an extra factor (t + 1) appears.  Its Gegenbauer coefficients are
    strictly positive and f(1)/f_0 recovers the Levenshtein function value.
    """

    n: int
    m: int
    s: float
    rule: QuadratureRule
    gegenbauer: GegenbauerSeries
    outside_validity: bool = False

    @property
    def nodes(self) -> tuple[float, ...]:
        return self.rule.nodes


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


def select_degree_from_capacity(n: int, capacity: float) -> tuple[int, int, int]:
    """The unique m >= 1 with D(n, m) < capacity <= D(n, m+1), plus (k, eps).

    Capacities at or below D(n, 1) = 2 fall into m = 1 by the same
    half-open convention.
    """
    if not capacity > 1:
        raise ValueError(f"capacity must exceed 1, got {capacity!r}")
    m = 1
    while capacity > dgs_bound(n, m + 1):
        m += 1
        if m > MAX_RULE_DEGREE:
            raise ValueError(f"capacity {capacity} needs degree above cap {MAX_RULE_DEGREE}")
    k, eps = split_degree(m)
    return m, k, eps


@lru_cache(maxsize=None)
def validity_interval(n: int, m: int) -> tuple[float, float]:
    """Interval [t_{k-1+eps}^{1,1-eps}, t_k^{1,eps}] on which L_m(n, .) is valid."""
    k, eps = split_degree(m)
    lo = jacobi_largest_zero(JacobiSpec(1, 1 - eps, n, k - 1 + eps))
    hi = jacobi_largest_zero(JacobiSpec(1, eps, n, k))
    return lo, hi


def select_degree_from_s(n: int, s: float) -> tuple[int, int, int]:
    """The degree m whose validity interval contains s; ties go to smaller m."""
    if not -1 <= s < 1:
        raise ValueError("s must lie in [-1, 1)")
    for m in range(1, MAX_RULE_DEGREE + 1):
        _, hi = validity_interval(n, m)
        if s <= hi:
            k, eps = split_degree(m)
            return m, k, eps
    raise ValueError(f"s = {s} needs degree above cap {MAX_RULE_DEGREE}")


def levenshtein_function(n: int, m: int, s: float, allow_outside_validity: bool = False) -> float:
    """Levenshtein bound L_m(n, s) for the maximal cardinality at inner product s.

    Outside the validity interval the rational expression is still defined
    but loses its meaning as a cardinality bound; such calls must opt in.
    """
    k, eps = split_degree(m)
    lo, hi = validity_interval(n, m)
    if not allow_outside_validity and not (lo - 1e-9 <= s <= hi + 1e-9):
        raise ValidityError(f"s = {s} outside validity interval [{lo}, {hi}] of degree {m}")
    lead = comb(k + n - 3 + eps, n - 2)
    head = (2 * k + n - 3 + 2 * eps) / (n - 1)
    table = gegenbauer_table(n, k + eps, s)
    pk, pke, pkm = (float(table[i]) for i in (k, k + eps, k - 1 + eps))
    num = (1 + s) ** eps * (pkm - pke)
    den = (1 - s) * (eps * pk + pke)
    return float(lead * (head - num / den))


@lru_cache(maxsize=256)
def _nu_jacobi_matrix(n: int, size: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Diagonal and off-diagonal of the size-by-size Jacobi matrix of
    nu = (1 - t) dmu_n, the (a + 1, a) Jacobi weight with a = (n - 3)/2."""
    a = (n - 3) / 2
    diag, off = _jacobi_tridiagonal(a + 1, a, size)
    return tuple(diag.tolist()), tuple(off.tolist())


def _ratio(diag, off, j: int, x: float) -> float:
    """p_j(x) / p_{j-1}(x) for the monic polynomials of a Jacobi matrix."""
    q = x - diag[0]
    for i in range(1, j):
        q = x - diag[i] - off[i - 1] ** 2 / q
    return q


def compute_weights(n: int, m: int, s: float, capacity: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the degree-m 1/N rule whose largest node is s.

    Testing the 1/N identity on f = (1 - t) g shows that rho_i (1 - alpha_i)
    is a Gauss-type rule for nu = (1 - t) dmu_n, a probability measure: a
    k-point Gauss-Radau rule with s fixed for odd m, a (k+1)-point
    Gauss-Lobatto rule with -1 and s fixed for even m.  Golub's modified
    Jacobi matrix of nu carries the fixed nodes as eigenvalues; the
    eigenvalues are the nodes and, with v_0 the first components of the unit
    eigenvectors, rho_i = v_0i^2 / (1 - alpha_i) (Golub-Welsch), positive by
    construction.  The capacity enters only the verification: ascending
    nodes in [-1, 1) with s largest and -1 present for even m, positive
    weights, and exactness on P_0..P_m within 1e-9.
    """
    k, eps = split_degree(m)
    diag, off = (list(v) for v in _nu_jacobi_matrix(n, k + eps))
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
    nodes, vectors = eigh_tridiagonal(np.asarray(diag), np.asarray(off))
    where = f"(n={n}, m={m}, s={s:.12g}, capacity={capacity:.12g})"
    if nodes.size > 1:
        gap = int(np.argmin(np.diff(nodes)))
        if nodes[gap + 1] - nodes[gap] <= 1e-9:
            raise QuadratureError(
                f"repeated nodes for {where}: nodes {gap} and {gap + 1} are "
                f"{nodes[gap + 1] - nodes[gap]:.6g} apart"
            )
    if nodes[0] < -1 - 1e-9 or nodes[-1] >= 1:
        bad = 0 if nodes[0] < -1 - 1e-9 else nodes.size - 1
        raise QuadratureError(f"node outside [-1, 1) for {where}: node {bad} is {nodes[bad]:.17g}")
    if abs(nodes[-1] - s) > 1e-6:
        raise QuadratureError(
            f"largest node does not match s for {where}: it is {nodes[-1]:.17g}, "
            f"off by {nodes[-1] - s:.6g} (tolerance 1e-6)"
        )
    nodes[-1] = s
    if eps == 1:
        if abs(nodes[0] + 1) > 1e-7:
            raise QuadratureError(
                f"even-degree rule lacks the node at -1 for {where}: smallest node is "
                f"{nodes[0]:.17g} (tolerance 1e-7)"
            )
        nodes[0] = -1.0
    weights = vectors[0] ** 2 / (1.0 - nodes)
    low = int(np.argmin(weights))
    if weights[low] <= 0:
        raise QuadratureError(
            f"nonpositive quadrature weight for {where}: "
            f"weight {low} of {weights.size} is {weights[low]:.6g}"
        )
    residuals = exactness_residuals(n, nodes, weights, capacity, m)
    worst = int(np.argmax(np.abs(residuals)))
    if abs(residuals[worst]) > 1e-9:
        raise QuadratureError(
            f"quadrature exactness failure for {where}: "
            f"largest residual is {residuals[worst]:.6g} on P_{worst} (tolerance 1e-9)"
        )
    return nodes, weights


def exactness_residuals(n: int, nodes, weights, capacity: float, jmax: int, table=None) -> np.ndarray:
    """Residual of the 1/N identity on P_0..P_jmax (index j entry is for P_j);
    ``table`` may hold ``gegenbauer_table(n, jmax, nodes)`` if already built."""
    if table is None:
        table = gegenbauer_table(n, jmax, np.asarray(nodes, dtype=float))
    res = table @ np.asarray(weights) + 1.0 / capacity
    res[0] -= 1.0
    return res


def solve_ulb_rule(n: int, capacity: float) -> QuadratureRule:
    """Build the 1/N_W-quadrature rule for a capacity N_W > 2.

    Selects the degree from the capacity, solves L_m(n, s) = N_W by Brent's
    method on the validity interval, then builds the rule with largest
    node s by :func:`compute_weights`.
    """
    if not capacity > 2:
        raise ValueError(f"capacity must exceed 2, got {capacity!r}")
    m = select_degree_from_capacity(n, capacity)[0]
    lo, hi = validity_interval(n, m)

    def f(x):
        return levenshtein_function(n, m, x, allow_outside_validity=True) - capacity

    flo, fhi = f(lo), f(hi)
    if flo >= 0:
        s = lo  # capacity at the left edge of its degree interval
    elif fhi <= 0:
        s = hi
    else:
        s = brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16)
    return _rule(n, m, s, capacity)


def _rule(n: int, m: int, s: float, capacity: float) -> QuadratureRule:
    k, eps = split_degree(m)
    nodes, weights = compute_weights(n, m, s, capacity)
    return QuadratureRule(n, m, k, eps, tuple(nodes), tuple(weights), float(capacity))


def rule_from_s(n: int, m: int, s: float, allow_outside_validity: bool = False) -> QuadratureRule:
    """Rule whose nodes are the Levenshtein-polynomial roots for (n, m, s).

    The capacity is N_1 = L_m(n, s); this is the upper-bound direction,
    where s is prescribed and the capacity is derived.
    """
    return _rule(n, m, s, levenshtein_function(n, m, s, allow_outside_validity))


def levenshtein_polynomial(
    n: int, m: int, s: float, allow_outside_validity: bool = False
) -> LevenshteinPolynomial:
    """Monic Levenshtein polynomial of degree m for inner product s, with
    the rule on its roots.

    Consistency checks: nonnegative Gegenbauer coefficients (strictly
    positive away from interval endpoints) and f(1)/f_0 equal to
    L_m(n, s) within 1e-9 relative.
    """
    capacity = levenshtein_function(n, m, s, allow_outside_validity)
    lo, hi = validity_interval(n, m)
    outside = not (lo - 1e-9 <= s <= hi + 1e-9)
    rule = _rule(n, m, s, capacity)
    interior = rule.nodes[rule.eps:-1]
    series = GegenbauerSeries(n, gegenbauer_from_roots(n, (s,) + rule.nodes[:rule.eps] + interior + interior))
    g = np.asarray(series.coeffs)
    where = f"(n={n}, m={m}, s={s:.12g})"
    # strict positivity can degrade to a zero coefficient at interval endpoints
    low = int(np.argmin(g))
    if g[low] < -1e-10 * np.max(np.abs(g)):
        raise QuadratureError(
            f"Levenshtein polynomial for {where} has a negative coefficient: "
            f"coefficient {low} of {g.size} is {g[low]:.6g}"
        )
    ratio = series.value_at_one() / g[0]
    if abs(ratio - capacity) > 1e-9 * max(1.0, abs(capacity)):
        raise QuadratureError(
            f"coefficient ratio {ratio:.12g} for {where} disagrees with the Levenshtein "
            f"function value {capacity:.12g}"
        )
    return LevenshteinPolynomial(n, m, float(s), rule, series, outside)
