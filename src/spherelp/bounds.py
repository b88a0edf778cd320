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
from math import fsum, isfinite
from operator import index
from typing import NamedTuple

import numpy as np

from .codes import check_weights
from .hermite import (
    HermiteOperator,
    NodeMultiset,
    dominance_grid,
    hermite_interpolant,
    hermite_operator,
    ulb_nodes,
    uub_nodes,
    verify_dominance,
)
from .orthopoly import GegenbauerSeries, gegenbauer_table
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


def _scan_checks(rule: QuadratureRule, j_max: int, table: np.ndarray) -> CheckResult:
    res = exactness_residuals(rule.n, rule.nodes, rule.weights, rule.capacity, j_max, table)
    bad = [j for j in range(rule.m + 1, j_max + 1) if res[j] < -COEFF_TOL]
    if bad:
        note = f"ULB improvable, degree >= m+3: negative Q_j at j={bad}"
    else:
        note = f"Q_j >= 0 for j <= {j_max}"
    return CheckResult("test_function_scan", not bad, float(np.min(res[rule.m + 1:])) if j_max > rule.m else None, note)


class _CertificateSetup(NamedTuple):
    node_table: np.ndarray
    operator: HermiteOperator
    grid: np.ndarray
    table: np.ndarray


def _certificate_setup(
    rule: QuadratureRule, multiset: NodeMultiset, interval: tuple[float, float], node_degree: int
) -> _CertificateSetup:
    """The part of a certificate check on the rule that does not depend on h.

    P_0..P_node_degree at the nodes give the Hermite operator's value rows;
    the dominance grid on the interval and its table P_0..P_m (both
    read-only) turn each dominance check into one product.
    """
    node_table = gegenbauer_table(rule.n, node_degree, np.asarray(rule.nodes))
    grid = dominance_grid(*interval, rule.nodes)
    table = gegenbauer_table(rule.n, rule.m, grid)
    grid.flags.writeable = table.flags.writeable = False
    return _CertificateSetup(node_table, hermite_operator(multiset, rule.n, node_table), grid, table)


class _UlbSetup(NamedTuple):
    rule: QuadratureRule
    scan: CheckResult
    certificate: _CertificateSetup


@lru_cache(maxsize=1)
def _ulb_setup(n: int, capacity: float) -> _UlbSetup:
    """The part of a lower bound at (n, N_W) that does not depend on h.

    The rule, its Q_j scan up to 3m and its certificate setup on
    ULB_INTERVAL serve every potential at one (n, N_W).  One entry covers
    potentials run back to back and keeps the grid's table (0.75 MB at
    m = 20) from piling up.  Callers pass ``int`` and ``float`` so equal
    inputs share one entry; a failed solve raises and stores nothing.
    """
    rule = solve_ulb_rule(n, capacity)
    # P_0..P_3m at the nodes serve both the Q_j scan and the operator's value rows
    setup = _certificate_setup(rule, ulb_nodes(rule.nodes, rule.eps), ULB_INTERVAL, 3 * rule.m)
    return _UlbSetup(rule, _scan_checks(rule, 3 * rule.m, setup.node_table), setup)


def _ulb_from_setup(setup: _UlbSetup, h: Potential, design: bool) -> BoundReport:
    rule, scan, certificate = setup
    n = rule.n
    value = _rule_energy(rule, h)
    cert = hermite_interpolant(h, certificate.operator, n)
    checks = [CheckResult("interpolation", cert.node_residual <= 1e-9, cert.node_residual)]
    ok_dom, violation = verify_dominance(cert.gegenbauer, h, "below", certificate.grid, certificate.table)
    checks.append(CheckResult("dominance_below", ok_dom, violation))
    coeffs = np.asarray(cert.gegenbauer.coeffs)
    if design:
        ok_pd = True
        checks.append(
            CheckResult("positive_definite", True, None, "not required for design bounds")
        )
    else:
        ok_pd = bool(coeffs[1:].min() >= -COEFF_TOL) if coeffs.size > 1 else True
        checks.append(CheckResult("positive_definite", ok_pd, float(coeffs[1:].min()) if coeffs.size > 1 else 0.0))
    objective = cert.gegenbauer.coeffs[0] - cert.gegenbauer.value_at_one() / rule.capacity
    ok_val = abs(objective - value) <= VALUE_TOL * max(1.0, abs(value))
    checks.append(CheckResult("objective_consistency", ok_val, abs(objective - value)))
    checks.append(scan)
    feasible = bool(cert.node_residual <= 1e-9 and ok_dom and ok_pd and ok_val)
    return BoundReport(
        kind="design_ulb" if design else "ulb",
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
    return _ulb_from_setup(_ulb_setup(index(n), float(capacity)), h, design=False)


def ulb_for_weights(weights, n: int, h: Potential) -> BoundReport:
    """Lower bound for an explicit weight vector (capacity from its squares)."""
    w = check_weights(weights)
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
    return _ulb_from_setup(_ulb_setup(index(n), float(capacity)), h, design=True)


def _lambda_star(gt: np.ndarray, f: np.ndarray, h: Potential, checks: list[CheckResult]) -> float:
    positive = [i for i in range(1, f.size) if i < gt.size and gt[i] > 1e-12]
    lam = max((gt[i] / f[i] for i in positive), default=0.0)
    if _closed_form_class(h).absolutely_monotone and f.size > 2:
        shortcut = float(max((gt[i] / f[i] for i in range(1, min(gt.size, f.size - 1))), default=0.0))
        agree = abs(shortcut - lam) <= 1e-9 * max(1.0, abs(lam))
        checks.append(CheckResult("lambda_star_shortcut", bool(agree), shortcut))
    return float(lam)


def _upper_bound(
    n: int, capacity: float, s: float, m: int, h: Potential, design: bool, allow_outside: bool
) -> BoundReport:
    """Upper bound at maximal inner product s from the degree-m rule.

    The certificate is the Hermite interpolant g_T of h at the roots of the
    Levenshtein polynomial f, minus lambda* f.  Design bounds fix lambda* = 0
    and drop the coefficient sign conditions, so they skip that check, the
    lambda* shortcut, the node-contact check of the corrected polynomial
    and the validity-interval flag.
    """
    if not (isfinite(capacity) and capacity > 0):
        raise ValueError(f"capacity must be finite and positive, got {capacity!r}")
    lp = levenshtein_polynomial(n, m, s, allow_outside_validity=allow_outside)
    rule = lp.rule
    n1 = rule.capacity

    setup = _certificate_setup(rule, uub_nodes(rule.nodes, rule.eps), (-1.0, s), m)
    g_t = hermite_interpolant(h, setup.operator, n)
    checks = [CheckResult("interpolation", g_t.node_residual <= 1e-9, g_t.node_residual)]
    gt = np.asarray(g_t.gegenbauer.coeffs)
    f = np.asarray(lp.gegenbauer.coeffs)
    if design:
        lam, cert = 0.0, g_t.gegenbauer
        ok_signs = True
        checks.append(CheckResult("coefficient_signs", True, None, "not required for design bounds"))
    else:
        lam = _lambda_star(gt, f, h, checks)
        gt_pad = np.pad(gt, (0, f.size - gt.size)) if gt.size < f.size else gt[: f.size]
        g_coeffs = gt_pad - lam * f
        cert = GegenbauerSeries(n, g_coeffs)
        ok_signs = bool(np.max(g_coeffs[1:]) <= COEFF_TOL)
        checks.append(CheckResult("coefficient_signs", ok_signs, float(np.max(g_coeffs[1:]))))
    ok_dom, violation = verify_dominance(cert, h, "above", setup.grid, setup.table)
    checks.append(CheckResult("dominance_above", ok_dom, violation))
    if not design:
        # g_T - lambda* f at the nodes, from the node table
        at_nodes = g_coeffs @ setup.node_table[: g_coeffs.size] - potential_eval(h, setup.operator.points)
        touch = float(np.max(np.abs(at_nodes)))
        checks.append(CheckResult("nodes_touch", touch <= COEFF_TOL, touch))

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
    # a code with sum of squared weights 1/N_W has at least N_W points, and its
    # cardinality is capped by N_1; below that the bound is valid but vacuous
    attained = n1 >= capacity - 1e-9
    checks.append(
        CheckResult(
            "capacity_consistency",
            bool(attained),
            n1,
            "" if attained else "N_1 < N_W: no code attains this capacity at this inner product",
        )
    )
    if lp.outside_validity and not design:
        checks.append(CheckResult("s_within_validity", False, s, "degree override outside validity interval"))

    feasible = bool(ok_signs and ok_dom and ok_val and g_t.node_residual <= 1e-9)
    return BoundReport(
        kind="design_uub" if design else "uub",
        n=n,
        m=m,
        rule=rule,
        value=float(value),
        certificate=cert,
        potential=h,
        feasible=feasible,
        diagnostics=tuple(checks),
        lambda_star=lam,
        n1=float(n1),
    )


def uub(n: int, capacity: float, s: float, h: Potential, m_override: int | None = None) -> BoundReport:
    """Universal upper bound on the weighted energy at maximal inner product s.

    The degree comes from the validity interval containing s unless an
    explicit override is given (table-reproduction mode); with an override
    the N_1 interval hypothesis is checked and reported rather than
    enforced.
    """
    if not -1 <= s < 1:
        raise ValueError("s must lie in [-1, 1)")
    m = select_degree_from_s(n, s)[0] if m_override is None else m_override
    if not derivative_nonneg_from(h, m):
        raise ValueError(f"potential {h.label()} lacks h^({m}) >= 0")
    return _upper_bound(n, capacity, s, m, h, design=False, allow_outside=m_override is not None)


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
    return _upper_bound(n, capacity, s, tau, h, design=True, allow_outside=True)
