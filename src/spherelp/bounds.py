"""Universal energy bounds for weighted spherical codes and designs.

The lower bound at capacity N_W evaluates the potential at the nodes of
the 1/N_W-quadrature; its certificate is the Hermite interpolant sitting
below h with nonnegative Gegenbauer coefficients.  The upper bound at
maximal inner product s interpolates h at the roots of the Levenshtein
polynomial and subtracts the smallest multiple lambda* of that polynomial
that drives all nonconstant coefficients nonpositive.  Design variants
drop the coefficient sign conditions.  Every certificate condition is
re-verified numerically and recorded; a failed check marks the report
infeasible instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import fsum
from operator import index
from typing import NamedTuple

import numpy as np

from .hermite import (
    InterpolantReport,
    dominance_grid,
    hermite_interpolant,
    ulb_nodes,
    uub_nodes,
    verify_dominance,
)
from .orthopoly import GegenbauerSeries, MonomialPoly
from .potentials import Potential, _closed_form_class, derivative_nonneg_from, potential_eval
from .quadrature import (
    QuadratureRule,
    dgs_bound,
    exactness_residuals,
    levenshtein_polynomial,
    select_degree_from_s,
    solve_ulb_rule,
)

COEFF_TOL = 1e-9
VALUE_TOL = 1e-10
ULB_INTERVAL = (-1.0, 0.999)  # where lower-bound certificates must stay below h


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    value: float | None = None
    note: str = ""


@dataclass(frozen=True)
class BoundReport:
    kind: str
    n: int
    m: int
    rule: QuadratureRule
    value: float
    certificate: GegenbauerSeries
    potential: Potential
    feasible: bool
    diagnostics: tuple[CheckResult, ...]
    lambda_star: float | None = None
    n1: float | None = None

    def diagnostic(self, name: str) -> CheckResult:
        for check in self.diagnostics:
            if check.name == name:
                return check
        raise KeyError(name)


@dataclass(frozen=True)
class TestFunctionReport:
    """Values Q_j = 1/N_W + sum_i rho_i P_j(alpha_i) for the (n, N_W) rule."""

    n: int
    m: int
    rule: QuadratureRule
    values: dict[int, float]

    @property
    def negative_indices(self) -> tuple[int, ...]:
        return tuple(j for j, v in sorted(self.values.items()) if v < -COEFF_TOL)

    @property
    def improvable(self) -> bool:
        return bool(self.negative_indices)


def _rule_energy(rule: QuadratureRule, h: Potential) -> float:
    vals = potential_eval(h, np.asarray(rule.nodes))
    return fsum(w * v for w, v in zip(rule.weights, np.atleast_1d(vals)))


def test_functions(n: int, capacity: float, j_max: int) -> TestFunctionReport:
    """Test-function values Q_1..Q_jmax against the lower-bound rule.

    Q_j vanishes for j <= m by quadrature exactness; a negative value at
    some larger j signals that the degree-m bound is improvable (possible
    only from degree m+3 on).
    """
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    rule = _ulb_setup(index(n), float(capacity)).rule
    res = exactness_residuals(n, rule.nodes, rule.weights, rule.capacity, j_max)
    return TestFunctionReport(n, rule.m, rule, {j: float(res[j]) for j in range(1, j_max + 1)})


def _scan_checks(rule: QuadratureRule, j_max: int) -> CheckResult:
    res = exactness_residuals(rule.n, rule.nodes, rule.weights, rule.capacity, j_max)
    bad = [j for j in range(rule.m + 1, j_max + 1) if res[j] < -COEFF_TOL]
    if bad:
        note = f"ULB improvable, degree >= m+3: negative Q_j at j={bad}"
    else:
        note = f"Q_j >= 0 for j <= {j_max}"
    return CheckResult("test_function_scan", not bad, float(np.min(res[rule.m + 1:])) if j_max > rule.m else None, note)


class _UlbSetup(NamedTuple):
    rule: QuadratureRule
    scan: CheckResult
    grid: np.ndarray


@lru_cache(maxsize=8)
def _ulb_setup(n: int, capacity: float) -> _UlbSetup:
    """The part of a lower bound at (n, N_W) that does not depend on h.

    The rule, its Q_j scan up to 3m and the read-only dominance grid on
    ULB_INTERVAL are universal, so bounds for many potentials at one
    (n, N_W) share one solve.  Callers pass ``int`` and ``float`` so equal
    inputs share one entry; a failed solve raises and stores nothing.
    """
    rule = solve_ulb_rule(n, capacity)
    grid = dominance_grid(*ULB_INTERVAL, rule.nodes)
    grid.flags.writeable = False
    return _UlbSetup(rule, _scan_checks(rule, 3 * rule.m), grid)


def _ulb_from_setup(setup: _UlbSetup, h: Potential, kind: str) -> BoundReport:
    rule = setup.rule
    n = rule.n
    value = _rule_energy(rule, h)
    cert = hermite_interpolant(h, ulb_nodes(rule.nodes, rule.eps), n)
    checks = [
        CheckResult("interpolation", cert.node_residual <= 1e-9, cert.node_residual),
    ]
    ok_dom, violation = verify_dominance(cert, h, ULB_INTERVAL, "below", grid=setup.grid)
    checks.append(CheckResult("dominance_below", ok_dom, violation))
    coeffs = np.asarray(cert.gegenbauer.coeffs)
    if kind == "ulb":
        ok_pd = bool(coeffs[1:].min() >= -COEFF_TOL) if coeffs.size > 1 else True
        checks.append(CheckResult("positive_definite", ok_pd, float(coeffs[1:].min()) if coeffs.size > 1 else 0.0))
    else:
        ok_pd = True
        checks.append(
            CheckResult("positive_definite", True, None, "not required for design bounds")
        )
    objective = cert.gegenbauer.coeffs[0] - cert.gegenbauer.value_at_one() / rule.capacity
    ok_val = abs(objective - value) <= VALUE_TOL * max(1.0, abs(value))
    checks.append(CheckResult("objective_consistency", ok_val, abs(objective - value)))
    checks.append(setup.scan)
    feasible = bool(cert.node_residual <= 1e-9 and ok_dom and ok_pd and ok_val)
    return BoundReport(
        kind=kind,
        n=n,
        m=rule.m,
        rule=rule,
        value=value,
        certificate=cert.gegenbauer,
        potential=h,
        feasible=feasible,
        diagnostics=tuple(checks),
    )


def ulb(n: int, capacity: float, h: Potential) -> BoundReport:
    """Universal lower bound on the weighted energy at capacity N_W > 2."""
    if not derivative_nonneg_from(h, 1):
        raise ValueError(f"potential {h.label()} lacks nonnegative derivatives of order >= 1")
    return _ulb_from_setup(_ulb_setup(index(n), float(capacity)), h, "ulb")


def ulb_for_weights(weights, n: int, h: Potential) -> BoundReport:
    """Lower bound for an explicit weight vector (capacity from its squares)."""
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    if abs(w.sum() - 1.0) > 1e-12:
        raise ValueError("weights must sum to 1")
    s_w = float(np.dot(w, w))
    n_w = 1.0 / s_w
    variance = s_w / w.size - 1.0 / w.size**2
    report = ulb(n, n_w, h)
    extra = (
        CheckResult("sum_of_squared_weights", True, s_w),
        CheckResult("capacity", True, n_w),
        CheckResult("weight_variance", True, variance),
    )
    return replace(report, diagnostics=extra + report.diagnostics)


def design_ulb(n: int, capacity: float, tau: int, h: Potential) -> BoundReport:
    """Lower bound for weighted designs of strength tau.

    Valid for any potential with h^(tau+1) >= 0; the certificate need not be
    positive definite because the first tau moments vanish.
    """
    if not derivative_nonneg_from(h, tau + 1):
        raise ValueError(f"potential {h.label()} lacks h^({tau + 1}) >= 0")
    if not dgs_bound(n, tau) < capacity <= dgs_bound(n, tau + 1):
        raise ValueError(
            f"capacity {capacity} outside (D({n},{tau}), D({n},{tau + 1})] ="
            f" ({dgs_bound(n, tau)}, {dgs_bound(n, tau + 1)}]"
        )
    return _ulb_from_setup(_ulb_setup(index(n), float(capacity)), h, "design_ulb")


def _capacity_consistency(n1: float, capacity: float) -> CheckResult:
    # a code with sum of squared weights 1/N_W has at least N_W points, and its
    # cardinality is capped by N_1; below that the bound is valid but vacuous
    ok = n1 >= capacity - 1e-9
    return CheckResult(
        "capacity_consistency",
        bool(ok),
        n1,
        "" if ok else "N_1 < N_W: no code attains this capacity at this inner product",
    )


def _lambda_star(gt: np.ndarray, f: np.ndarray, h: Potential, checks: list[CheckResult]) -> float:
    positive = [i for i in range(1, f.size) if i < gt.size and gt[i] > 1e-12]
    lam = max((gt[i] / f[i] for i in positive), default=0.0)
    if _closed_form_class(h).absolutely_monotone and f.size > 2:
        shortcut = float(max((gt[i] / f[i] for i in range(1, min(gt.size, f.size - 1))), default=0.0))
        agree = abs(shortcut - lam) <= 1e-9 * max(1.0, abs(lam))
        checks.append(CheckResult("lambda_star_shortcut", bool(agree), shortcut))
    return float(lam)


def uub(n: int, capacity: float, s: float, h: Potential, m_override: int | None = None) -> BoundReport:
    """Universal upper bound on the weighted energy at maximal inner product s.

    The degree comes from the validity interval containing s unless an
    explicit override is given (table-reproduction mode); with an override
    the N_1 interval hypothesis is checked and reported rather than
    enforced.
    """
    if not -1 <= s < 1:
        raise ValueError("s must lie in [-1, 1)")
    if m_override is None:
        m, _, _ = select_degree_from_s(n, s)
        allow_outside = False
    else:
        m = m_override
        allow_outside = True
    if not derivative_nonneg_from(h, m):
        raise ValueError(f"potential {h.label()} lacks h^({m}) >= 0")
    lp = levenshtein_polynomial(n, m, s, allow_outside_validity=allow_outside)
    rule = lp.rule
    n1 = rule.capacity

    g_t = hermite_interpolant(h, uub_nodes(rule.nodes, rule.eps), n)
    checks = [CheckResult("interpolation", g_t.node_residual <= 1e-9, g_t.node_residual)]
    gt = np.asarray(g_t.gegenbauer.coeffs)
    f = np.asarray(lp.gegenbauer.coeffs)
    lam = _lambda_star(gt, f, h, checks)

    gt_pad = np.pad(gt, (0, f.size - gt.size)) if gt.size < f.size else gt[: f.size]
    g_coeffs = gt_pad - lam * f
    g_series = GegenbauerSeries(n, tuple(g_coeffs))
    g_mono = np.asarray(g_t.poly.coeffs)
    lp_mono = np.asarray(lp.monomial.coeffs)
    g_poly = MonomialPoly(tuple(np.pad(g_mono, (0, lp_mono.size - g_mono.size)) - lam * lp_mono))
    node_vals = potential_eval(h, np.asarray(rule.nodes))
    g_report = InterpolantReport(
        g_poly,
        g_series,
        float(np.max(np.abs(g_poly(np.asarray(rule.nodes)) - node_vals))),
    )

    ok_signs = bool(np.max(g_coeffs[1:]) <= COEFF_TOL)
    checks.append(CheckResult("coefficient_signs", ok_signs, float(np.max(g_coeffs[1:]))))
    ok_dom, violation = verify_dominance(g_report, h, (-1.0, s), "above", rule.nodes)
    checks.append(CheckResult("dominance_above", ok_dom, violation))
    checks.append(
        CheckResult("nodes_touch", g_report.node_residual <= COEFF_TOL, g_report.node_residual)
    )

    gt0 = float(gt[0])
    gt1 = g_t.gegenbauer.value_at_one()
    value = -lam * f[0] * (1.0 - n1 / capacity) + gt0 - gt1 / capacity
    alt = (-lam * f[0] + gt1 / n1) * (1.0 - n1 / capacity) + _rule_energy(rule, h)
    ok_val = abs(value - alt) <= VALUE_TOL * max(1.0, abs(value))
    checks.append(CheckResult("objective_consistency", ok_val, abs(value - alt)))

    hyp = dgs_bound(n, m) < n1 <= dgs_bound(n, m + 1)
    checks.append(
        CheckResult(
            "n1_interval_hypothesis",
            hyp,
            n1,
            f"D({n},{m})={dgs_bound(n, m)}, D({n},{m + 1})={dgs_bound(n, m + 1)}"
            + ("" if hyp else "; reported only, bound still computed"),
        )
    )
    checks.append(_capacity_consistency(n1, capacity))
    if lp.outside_validity:
        checks.append(CheckResult("s_within_validity", False, s, "degree override outside validity interval"))

    feasible = bool(ok_signs and ok_dom and ok_val and g_t.node_residual <= 1e-9)
    return BoundReport(
        kind="uub",
        n=n,
        m=m,
        rule=rule,
        value=float(value),
        certificate=g_series,
        potential=h,
        feasible=feasible,
        diagnostics=tuple(checks),
        lambda_star=lam,
        n1=float(n1),
    )


def design_uub(n: int, capacity: float, s: float, tau: int, h: Potential) -> BoundReport:
    """Upper bound for weighted tau-designs with maximal inner product s.

    Uses the Hermite interpolant alone (the Levenshtein correction has
    lambda = 0); only h^(tau) >= 0 and dominance above h on [-1, s] are
    required.
    """
    if not -1 <= s < 1:
        raise ValueError("s must lie in [-1, 1)")
    if not derivative_nonneg_from(h, tau):
        raise ValueError(f"potential {h.label()} lacks h^({tau}) >= 0")
    rule = levenshtein_polynomial(n, tau, s, allow_outside_validity=True).rule
    n1 = rule.capacity

    g_t = hermite_interpolant(h, uub_nodes(rule.nodes, rule.eps), n)
    checks = [CheckResult("interpolation", g_t.node_residual <= 1e-9, g_t.node_residual)]
    ok_dom, violation = verify_dominance(g_t, h, (-1.0, s), "above", rule.nodes)
    checks.append(CheckResult("dominance_above", ok_dom, violation))
    checks.append(CheckResult("coefficient_signs", True, None, "not required for design bounds"))

    gt1 = g_t.gegenbauer.value_at_one()
    value = (capacity - n1) * gt1 / (capacity * n1) + _rule_energy(rule, h)
    alt = g_t.gegenbauer.coeffs[0] - gt1 / capacity
    ok_val = abs(value - alt) <= VALUE_TOL * max(1.0, abs(value))
    checks.append(CheckResult("objective_consistency", ok_val, abs(value - alt)))

    hyp = dgs_bound(n, tau) < n1 <= dgs_bound(n, tau + 1)
    checks.append(
        CheckResult(
            "n1_interval_hypothesis",
            hyp,
            n1,
            "" if hyp else "reported only, bound still computed",
        )
    )
    checks.append(_capacity_consistency(n1, capacity))

    feasible = bool(ok_dom and ok_val and g_t.node_residual <= 1e-9)
    return BoundReport(
        kind="design_uub",
        n=n,
        m=tau,
        rule=rule,
        value=float(value),
        certificate=g_t.gegenbauer,
        potential=h,
        feasible=feasible,
        diagnostics=tuple(checks),
        lambda_star=0.0,
        n1=float(n1),
    )
