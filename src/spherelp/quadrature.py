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
from math import comb

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.optimize import brentq

from .orthopoly import (
    GegenbauerSeries,
    JacobiSpec,
    MonomialPoly,
    gegenbauer_monomial_table,
    gegenbauer_table,
    jacobi_largest_zero,
    measure_gauss_rule,
    to_gegenbauer,
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

    def apply(self, f) -> float:
        """f(1)/capacity + sum_i rho_i f(alpha_i) for a callable f."""
        vals = f(np.asarray(self.nodes))
        return float(f(1.0) / self.capacity + np.dot(self.weights, vals))


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
    nodes: tuple[float, ...]
    monomial: MonomialPoly
    gegenbauer: GegenbauerSeries
    outside_validity: bool = False

    @property
    def coeff_at_one(self) -> float:
        return self.gegenbauer.value_at_one()


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
    if capacity <= 1:
        raise ValueError("capacity must exceed 1")
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


def _cleared_node_polynomial(n: int, m: int, capacity: float) -> np.ndarray:
    """Power-basis coefficients of the degree-(k+eps) polynomial whose roots
    are the rule nodes: the numerator of L_m(n, t) - capacity with the
    spurious (1 - t) factor divided out."""
    k, eps = split_degree(m)
    lead = comb(k + n - 3 + eps, n - 2)
    head = (2 * k + n - 3 + 2 * eps) / (n - 1)
    rows = gegenbauer_monomial_table(n, k + eps)
    pk, pke, pkm = rows[k], rows[k + eps], rows[k - 1 + eps]
    dpoly = eps * np.pad(pk, (0, len(pke) - len(pk))) + pke if eps else pke
    one_minus_t = np.array([1.0, -1.0])
    g = npoly.polymul((lead * head - capacity) * one_minus_t, dpoly)
    num = npoly.polysub(np.pad(pkm, (0, len(pke) - len(pkm))), pke)
    if eps:
        num = npoly.polymul(np.array([1.0, 1.0]), num)
    g = npoly.polysub(g, lead * num)
    quotient, remainder = npoly.polydiv(g, one_minus_t)
    scale = max(1.0, np.max(np.abs(g)))
    if np.max(np.abs(remainder)) > 1e-8 * scale:
        raise QuadratureError(
            f"cleared node polynomial for (n={n}, m={m}, capacity={capacity:.12g}) is not "
            f"divisible by (1 - t): remainder {float(remainder[0]):.6g} against scale {scale:.6g}"
        )
    return quotient


def _polish_roots(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    deriv = npoly.polyder(coeffs)
    for _ in range(3):
        val = npoly.polyval(roots, coeffs)
        slope = npoly.polyval(roots, deriv)
        step = np.where(slope != 0, val / np.where(slope != 0, slope, 1.0), 0.0)
        roots = roots - step
    return roots


def _nodes_from_degree(n: int, m: int, s: float, capacity: float) -> np.ndarray:
    """All k+eps nodes of the rule: companion-matrix roots of the cleared
    polynomial, Newton-polished, validated real/simple/ascending."""
    k, eps = split_degree(m)
    where = f"(n={n}, m={m}, s={s:.12g}, capacity={capacity:.12g})"
    coeffs = _cleared_node_polynomial(n, m, capacity)
    roots = npoly.polyroots(coeffs)
    scale = max(1.0, np.max(np.abs(roots)))
    worst = int(np.argmax(np.abs(roots.imag)))
    if abs(roots.imag[worst]) > 1e-8 * scale:
        raise QuadratureError(
            f"complex node encountered for {where}: root {worst} has imaginary part "
            f"{roots.imag[worst]:.6g}"
        )
    nodes = _polish_roots(coeffs, np.sort(roots.real))
    if nodes.size != k + eps:
        raise QuadratureError(f"wrong node count for {where}: {nodes.size} nodes, expected {k + eps}")
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
    return nodes


def compute_weights(n: int, nodes, capacity: float) -> np.ndarray:
    """Quadrature weights via Lagrange basis polynomials.

    For ell_i(t) = prod_{j != i} (t - alpha_j) the 1/N identity forces
    rho_i = [ (ell_i)_0 - ell_i(1)/N ] / ell_i(alpha_i), with (ell_i)_0 the
    mean of ell_i against mu_n.  Every ell_i is kept in product form: its
    values at alpha_i and at 1 are products of differences, and its mean is
    the Gauss rule of mu_n with enough points to be exact at their degree.
    Positivity and exactness on the Gegenbauer basis up to the rule degree
    are verified, not assumed.
    """
    nodes = np.asarray(nodes, dtype=float)
    size = nodes.size
    eps = 1 if abs(nodes[0] + 1.0) <= 1e-12 else 0
    m = 2 * (size - eps) - 1 + eps
    gauss_x, gauss_w = measure_gauss_rule(n, (size + 1) // 2)
    factor = ~np.eye(size, dtype=bool)  # ell_i takes the factor for alpha_j when j != i
    at_nodes = np.prod(np.where(factor, nodes[:, None] - nodes, 1.0), axis=1)
    at_one = np.prod(np.where(factor, 1.0 - nodes, 1.0), axis=1)
    mean = np.prod(np.where(factor[:, None, :], gauss_x[:, None] - nodes, 1.0), axis=2) @ gauss_w
    weights = (mean - at_one / capacity) / at_nodes
    where = f"(n={n}, m={m}, capacity={capacity:.12g})"
    low = int(np.argmin(weights))
    if weights[low] <= 0:
        raise QuadratureError(
            f"nonpositive quadrature weight for {where}: "
            f"weight {low} of {size} is {weights[low]:.6g}"
        )
    residuals = exactness_residuals(n, nodes, weights, capacity, m)
    worst = int(np.argmax(np.abs(residuals)))
    if abs(residuals[worst]) > 1e-9:
        raise QuadratureError(
            f"quadrature exactness failure for {where}: "
            f"largest residual is {residuals[worst]:.6g} on P_{worst} (tolerance 1e-9)"
        )
    return weights


def exactness_residuals(n: int, nodes, weights, capacity: float, jmax: int) -> np.ndarray:
    """Residual of the 1/N identity on P_0..P_jmax (index j entry is for P_j)."""
    table = gegenbauer_table(n, jmax, np.asarray(nodes, dtype=float))
    res = table @ np.asarray(weights) + 1.0 / capacity
    res[0] -= 1.0
    return res


def solve_ulb_rule(n: int, capacity: float) -> QuadratureRule:
    """Build the 1/N_W-quadrature rule for a capacity N_W > 2.

    Selects the degree from the capacity, solves L_m(n, s) = N_W by Brent's
    method on the validity interval, then recovers the remaining nodes and
    the weights.
    """
    if capacity <= 2:
        raise ValueError("capacity must exceed 2")
    m, k, eps = select_degree_from_capacity(n, capacity)
    if m > MAX_RULE_DEGREE:
        raise ValueError(f"degree {m} above cap {MAX_RULE_DEGREE}")
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
    nodes = _nodes_from_degree(n, m, s, capacity)
    weights = compute_weights(n, nodes, capacity)
    return QuadratureRule(n, m, k, eps, tuple(nodes), tuple(weights), float(capacity))


def rule_from_s(n: int, m: int, s: float, allow_outside_validity: bool = False) -> QuadratureRule:
    """Rule whose nodes are the Levenshtein-polynomial roots for (n, m, s).

    The capacity is N_1 = L_m(n, s); this is the upper-bound direction,
    where s is prescribed and the capacity is derived.
    """
    k, eps = split_degree(m)
    capacity = levenshtein_function(n, m, s, allow_outside_validity)
    nodes = _nodes_from_degree(n, m, s, capacity)
    weights = compute_weights(n, nodes, capacity)
    return QuadratureRule(n, m, k, eps, tuple(nodes), tuple(weights), float(capacity))


def levenshtein_polynomial(
    n: int, m: int, s: float, allow_outside_validity: bool = False
) -> LevenshteinPolynomial:
    """Monic Levenshtein polynomial of degree m for inner product s.

    Consistency checks: nonnegative Gegenbauer coefficients (strictly
    positive away from interval endpoints) and f(1)/f_0 equal to
    L_m(n, s) within 1e-9 relative.
    """
    k, eps = split_degree(m)
    capacity = levenshtein_function(n, m, s, allow_outside_validity)
    lo, hi = validity_interval(n, m)
    outside = not (lo - 1e-9 <= s <= hi + 1e-9)
    nodes = _nodes_from_degree(n, m, s, capacity)
    interior = nodes[1:-1] if eps else nodes[:-1]
    kernel = npoly.polyfromroots(interior)
    coeffs = npoly.polymul(np.array([-s, 1.0]), npoly.polymul(kernel, kernel))
    if eps:
        coeffs = npoly.polymul(np.array([1.0, 1.0]), coeffs)
    poly = MonomialPoly(tuple(coeffs))
    series = to_gegenbauer(poly, n)
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
    return LevenshteinPolynomial(n, m, float(s), tuple(nodes), poly, series, outside)
