"""Independent reference computations and output checks for the benchmark.

Nothing here calls into spherelp: Gegenbauer polynomials come from
``scipy.special.eval_jacobi``, Jacobi zeros from ``scipy.special.roots_jacobi``
and the potentials from their closed forms.  Each ``check_*`` function
returns a list of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

from math import comb, fsum

import numpy as np
from scipy.special import binom, eval_jacobi, roots_jacobi

# certificate and quadrature tolerances the program itself promises
COEFF_TOL = 1e-9
EXACTNESS_TOL = 1e-9
DOMINANCE_TOL = 1e-9
# values the program sums in the same order as the reference
SUM_RTOL = 1e-12
# values the program derives along another route (LP objective, N_1)
DERIVED_RTOL = 1e-9


def h_value(label: str, t):
    """Closed form of the benchmark's potentials at inner product t < 1."""
    t = np.asarray(t, dtype=float)
    if label.startswith("riesz:"):
        return np.power(2.0 - 2.0 * t, -float(label[6:]) / 2.0)
    if label.startswith("gaussian:"):
        return np.exp(float(label[9:]) * (t - 1.0))
    if label == "log":
        return -np.log(2.0 - 2.0 * t)
    if label == "fejes-toth":
        return -np.sqrt(2.0 - 2.0 * t)
    raise ValueError(f"no closed form for {label!r}")


def gegenbauer_table(n: int, jmax: int, t) -> np.ndarray:
    """P_0..P_jmax for dimension n at t, normalised to P_j(1) = 1 (rows = degree)."""
    a = (n - 3) / 2
    j = np.arange(jmax + 1, dtype=float)[:, None]
    return eval_jacobi(j, a, a, np.atleast_1d(np.asarray(t, dtype=float))[None, :]) / binom(j + a, j)


def series_eval(n: int, coeffs, t) -> np.ndarray:
    """sum_j coeffs[j] P_j(t)."""
    c = np.asarray(coeffs, dtype=float)
    return c @ gegenbauer_table(n, c.size - 1, t)


def split_degree(m: int) -> tuple[int, int]:
    k = (m + 1) // 2
    return k, m - (2 * k - 1)


def dgs(n: int, m: int) -> int:
    """Delsarte-Goethals-Seidel number D(n, m)."""
    k, eps = split_degree(m)
    return comb(n + k - 2 + eps, n - 1) + comb(n + k - 2, n - 1)


def degree_from_capacity(n: int, capacity: float) -> int:
    m = 1
    while capacity > dgs(n, m + 1):
        m += 1
    return m


def _largest_jacobi_zero(k: int, a: float, b: float) -> float:
    if k == 0:
        return -1.0
    return float(np.max(roots_jacobi(k, a, b)[0]))


def validity_interval(n: int, m: int) -> tuple[float, float]:
    """[t_{k-1+eps}^{1,1-eps}, t_k^{1,eps}]: largest zeros of adjacent Jacobi polynomials."""
    k, eps = split_degree(m)
    base = (n - 3) / 2
    lo = _largest_jacobi_zero(k - 1 + eps, 1 + base, 1 - eps + base)
    hi = _largest_jacobi_zero(k, 1 + base, eps + base)
    return lo, hi


def levenshtein(n: int, m: int, s: float) -> float:
    """Levenshtein bound L_m(n, s), written from the paper's two parity cases."""
    k, eps = split_degree(m)
    p = gegenbauer_table(n, k + 1, s)[:, 0]
    if eps == 0:
        return comb(k + n - 3, k - 1) * (
            (2 * k + n - 3) / (n - 1) - (p[k - 1] - p[k]) / ((1 - s) * p[k])
        )
    return comb(k + n - 2, k) * (
        (2 * k + n - 1) / (n - 1) - (1 + s) * (p[k] - p[k + 1]) / ((1 - s) * (p[k] + p[k + 1]))
    )


def cube_crosspolytope_energy(n: int, label: str) -> float:
    """Energy of the cross-polytope plus cube union from its inner-product distribution.

    Cross-polytope points carry weight 1/(2n + n^2) and cube points
    n^2/(2^n (2n + n^2)).  Each cross point sees its antipode and 2n - 2
    orthogonal points, and +-1/sqrt(n) against half of the cube each; two
    cube points differing in d signs have inner product 1 - 2d/n.
    """

    def h(t):
        return float(h_value(label, t))

    wp = 1.0 / (n * n + 2 * n)
    wc = n * n * wp / 2**n
    cross = 2 * n * wp * wp * (h(-1.0) + (2 * n - 2) * h(0.0))
    mixed = 2 * (2 * n) * 2**n * wp * wc * (h(n**-0.5) + h(-(n**-0.5))) / 2
    cube = [2**n * wc * wc * comb(n, d) * h(1.0 - 2.0 * d / n) for d in range(1, n + 1)]
    return fsum([cross, mixed] + cube)


def pairwise_energy(points, weights, label: str) -> float:
    """sum over ordered pairs i != j of w_i w_j h(x_i . x_j), summed exactly."""
    x = np.asarray(points, dtype=float)
    w = np.asarray(weights, dtype=float)
    i, j = np.triu_indices(w.size, 1)
    gram = np.clip(x @ x.T, -1.0, 1.0)
    return fsum(2.0 * w[i] * w[j] * h_value(label, gram[i, j]))


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def check_rule(n: int, m: int, nodes, weights, capacity: float) -> list[str]:
    """Quadrature rule of degree m: node count, positivity, 1/N exactness on P_0..P_m."""
    k, eps = split_degree(m)
    a = np.asarray(nodes, dtype=float)
    w = np.asarray(weights, dtype=float)
    if a.size != k + eps or w.size != a.size:
        return [f"rule has {a.size} nodes and {w.size} weights, expected {k + eps}"]
    out = []
    if np.any(w <= 0):
        out.append(f"nonpositive weight {w.min():.3e}")
    if np.any(np.diff(a) <= 0) or a[0] < -1.0 or a[-1] >= 1.0:
        out.append("nodes not strictly ascending in [-1, 1)")
    res = gegenbauer_table(n, m, a) @ w + 1.0 / capacity
    res[0] -= 1.0
    worst = float(np.max(np.abs(res)))
    if worst > EXACTNESS_TOL:
        out.append(f"exactness residual {worst:.3e} > {EXACTNESS_TOL}")
    return out


def check_signs(coeffs, direction: str) -> list[str]:
    """Positive definite (ULB, 'below') or nonpositive (UUB, 'above') coefficients past P_0."""
    c = np.asarray(coeffs, dtype=float)[1:]
    if c.size == 0:
        return []
    if direction == "below" and c.min() < -COEFF_TOL:
        return [f"certificate coefficient {c.min():.3e} < 0"]
    if direction == "above" and c.max() > COEFF_TOL:
        return [f"certificate coefficient {c.max():.3e} > 0"]
    return []


def check_dominance(n: int, coeffs, label: str, lo: float, hi: float, direction: str, nodes, rng) -> list[str]:
    """Certificate <= h ('below') or >= h ('above') at seeded points of [lo, hi].

    Uniform points plus points at log-uniform offsets of 1e-6..1e-2 on both
    sides of each node, where the certificate touches h; none of them is
    expected on the program's uniform-plus-refinement grid.
    """
    a = np.asarray(nodes, dtype=float)
    offsets = 10.0 ** rng.uniform(-6.0, -2.0, size=(a.size, 4))
    offsets[:, ::2] *= -1.0
    t = np.concatenate([rng.uniform(lo, hi, size=48), (a[:, None] + offsets).ravel()])
    t = t[(t >= lo) & (t <= hi)]
    gap = series_eval(n, coeffs, t) - h_value(label, t)
    worst = float(gap.max() if direction == "below" else -gap.min())
    if worst > DOMINANCE_TOL:
        return [f"certificate {'above' if direction == 'below' else 'below'} h by {worst:.3e}"]
    return []


def check_objective(coeffs, capacity: float, value: float) -> list[str]:
    """The bound is the LP objective f_0 - f(1)/N of its certificate f."""
    c = np.asarray(coeffs, dtype=float)
    objective = float(c[0] - c.sum() / capacity)
    if not _close(objective, value, DERIVED_RTOL):
        return [f"value {value!r} != certificate objective {objective!r}"]
    return []


def check_ulb(report, n: int, capacity: float, label: str, rng) -> list[str]:
    """Lower-bound report: degree, rule, value = sum rho_i h(alpha_i), certificate."""
    out = []
    m = degree_from_capacity(n, capacity)
    if report.m != m:
        return [f"degree {report.m}, expected {m} for N_W = {capacity}"]
    rule = report.rule
    if not _close(rule.capacity, capacity, SUM_RTOL):
        out.append(f"rule capacity {rule.capacity!r} != {capacity!r}")
    out += check_rule(n, m, rule.nodes, rule.weights, capacity)
    expected = fsum(np.asarray(rule.weights) * h_value(label, np.asarray(rule.nodes)))
    if not _close(report.value, expected, SUM_RTOL):
        out.append(f"value {report.value!r} != sum rho_i h(alpha_i) = {expected!r}")
    coeffs = report.certificate.coeffs
    out += check_objective(coeffs, capacity, report.value)
    out += check_signs(coeffs, "below")
    out += check_dominance(n, coeffs, label, -1.0, 0.999, "below", rule.nodes, rng)
    return out


def check_uub(report, n: int, m: int, capacity: float, s: float, label: str, rng, design: bool) -> list[str]:
    """Upper-bound report: degree, N_1 = L_m(n, s) >= N_W, rule with largest node s, certificate."""
    if report.m != m:
        return [f"degree {report.m}, expected {m} for s = {s}"]
    out = []
    rule = report.rule
    n1 = levenshtein(n, m, s)
    if not _close(rule.capacity, n1, DERIVED_RTOL):
        out.append(f"N_1 {rule.capacity!r} != L_m(n, s) = {n1!r}")
    if capacity > rule.capacity:
        out.append(f"capacity {capacity} above N_1 {rule.capacity}")
    if rule.nodes[-1] != s:
        out.append(f"largest node {rule.nodes[-1]!r} != s = {s!r}")
    out += check_rule(n, m, rule.nodes, rule.weights, rule.capacity)
    coeffs = report.certificate.coeffs
    out += check_objective(coeffs, capacity, report.value)
    if not design:
        out += check_signs(coeffs, "above")
    out += check_dominance(n, coeffs, label, -1.0, s, "above", rule.nodes, rng)
    return out


def check_energy(value: float, points, weights, label: str, bundled_n: int | None) -> list[str]:
    """Energy against an exact pairwise sum, and the closed form for the bundled union."""
    out = []
    expected = pairwise_energy(points, weights, label)
    if not _close(value, expected, SUM_RTOL):
        out.append(f"energy {value!r} != pairwise fsum {expected!r}")
    if bundled_n is not None:
        closed = cube_crosspolytope_energy(bundled_n, label)
        if not _close(value, closed, SUM_RTOL):
            out.append(f"energy {value!r} != inner-product distribution {closed!r}")
    return out
