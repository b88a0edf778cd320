"""Universal energy bounds for weighted spherical codes and designs.

All four bounds are certified by one routine, ``_certify``, on a 1/N
quadrature rule: at capacity N_W for lower bounds, at the roots of the
Levenshtein polynomial f for maximal inner product s for upper bounds.
The certificate is the Hermite interpolant g_T of h at the nodes minus
lambda* f, the least multiple of f that drives all nonconstant
coefficients nonpositive (``uub`` only; lambda* = 0 for the other
kinds).  It must stay below h with nonnegative coefficients (lower) or
above h on [-1, s] with nonpositive ones (upper); design variants drop
the sign conditions.  Every condition is re-verified numerically and
recorded; a failed check marks the report infeasible instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import fsum, inf, isfinite
from operator import index
from typing import NamedTuple

import numpy as np

from .codes import check_weights
from .hermite import HermiteOperator, dominance_grid, hermite_interpolant, hermite_operator, verify_dominance
from .orthopoly import GegenbauerSeries, gegenbauer_table
from .potentials import Potential, classify, derivative_nonneg_from, potential_eval
from .quadrature import (
    MAX_RULE_DEGREE,
    QuadratureError,
    QuadratureRule,
    dgs_bound,
    exactness_residuals,
    levenshtein_polynomial,
    select_degree_from_s,
    solve_ulb_rule,
    split_degree,
    validity_interval,
)

COEFF_TOL = 1e-9
VALUE_TOL = 1e-10
ULB_INTERVAL = (-1.0, 0.999)  # where lower-bound certificates must stay below h
# The lower-bound grid's first FIXED_POINTS points, its uniform points but the
# last, are the same for every rule, so their Gegenbauer table is kept per
# dimension.  The split is a multiple of 32: BLAS dgemv then gives every point
# the body or tail position it has in one product over the whole grid, so the
# products of the two pieces keep that product's bits (4001 does not).
FIXED_POINTS = 4000
FIXED_DIMENSIONS = 8  # dimensions whose fixed table is kept, the most recent ones
_FIXED_GRID = dominance_grid(*ULB_INTERVAL, ())[:FIXED_POINTS]
_FIXED_GRID.flags.writeable = False
_fixed_tables: dict[int, np.ndarray] = {}  # n -> P_0..P_d on _FIXED_GRID, least recent first


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

    @staticmethod
    def verdict(j: int, m: int, q: float) -> str:
        """``zero`` where exactness (j <= m) or COEFF_TOL makes Q_j vanish, else its sign."""
        if j <= m or abs(q) <= COEFF_TOL:
            return "zero"
        return "nonneg" if q >= 0 else "neg"

    @property
    def negative_indices(self) -> tuple[int, ...]:
        return tuple(j for j, v in sorted(self.values.items()) if self.verdict(j, self.m, v) == "neg")

    @property
    def improvable(self) -> bool:
        return bool(self.negative_indices)


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
    return TestFunctionReport(n, rule.m, rule, dict(enumerate(res.tolist()[1:], 1)))


def _scan_checks(rule: QuadratureRule, j_max: int, table: np.ndarray) -> CheckResult:
    res = exactness_residuals(rule.n, rule.nodes, rule.weights, rule.capacity, j_max, table)
    # one conversion: a verdict per numpy scalar doubled the scan's time
    bad = list(TestFunctionReport(rule.n, rule.m, rule, dict(enumerate(res.tolist()[1:], 1))).negative_indices)
    if bad:
        note = f"ULB improvable, degree >= m+3: negative Q_j at j={bad}"
    else:
        note = f"Q_j >= 0 for j <= {j_max}"
    return CheckResult("test_function_scan", not bad, float(np.min(res[rule.m + 1:])), note)


class _Setup(NamedTuple):
    rule: QuadratureRule
    operator: HermiteOperator
    grid: np.ndarray
    pieces: tuple[np.ndarray, ...]
    closing: tuple[CheckResult, ...]


def _setup(
    rule: QuadratureRule,
    doubled: slice,
    interval: tuple[float, float],
    closing: tuple[CheckResult, ...],
    head: tuple[np.ndarray, ...] = (),
) -> _Setup:
    """The part of a certificate check on the rule that does not depend on h.

    ``doubled`` slices the nodes where the certificate also matches h'.
    The rule's node table gives the Hermite operator's value rows, so the
    nodes are tabulated once per rule; the dominance grid on the interval
    and its table P_0..P_m, in consecutive column pieces (all read-only),
    turn each dominance check into one product per piece.  ``head`` holds
    the pieces of the grid's first points that the caller keeps; the rule
    tabulates the rest.  ``closing`` holds the checks on the rule alone
    that end each report.
    """
    grid = dominance_grid(*interval, rule.nodes)
    tail = gegenbauer_table(rule.n, rule.m, grid[sum(piece.shape[1] for piece in head) :])
    grid.flags.writeable = tail.flags.writeable = False
    operator = hermite_operator(rule.nodes, doubled, rule.n, rule.table)
    return _Setup(rule, operator, grid, head + (tail,), closing)


def _fixed_table(n: int, m: int) -> np.ndarray:
    """P_0..P_m on the lower-bound grid's first FIXED_POINTS points.

    A read-only view of the table kept for dimension n, whose rows grow to
    the largest m asked for n; each row has the same bits at any height.
    The tables of the last FIXED_DIMENSIONS dimensions asked for are kept.
    """
    table = _fixed_tables.pop(n, None)
    if table is None or table.shape[0] <= m:
        table = gegenbauer_table(n, m, _FIXED_GRID)
        table.flags.writeable = False
    _fixed_tables[n] = table
    if len(_fixed_tables) > FIXED_DIMENSIONS:
        del _fixed_tables[next(iter(_fixed_tables))]
    return table[: m + 1]


@lru_cache(maxsize=1)
def _ulb_setup(n: int, capacity: float) -> _Setup:
    """The part of a lower bound at (n, N_W) that does not depend on h.

    The rule, its Q_j scan up to 3m and its certificate setup on
    ULB_INTERVAL serve every potential at one (n, N_W).  The dominance
    table's first piece, the 4000 points shared by every rule, comes from
    :func:`_fixed_table` (0.67 MB at m = 20, once per dimension); the rule
    tabulates only the other 1 + 81k points for its k nodes (0.15 MB at
    m = 20).  One entry covers potentials run back to back and keeps the
    rules' pieces from piling up.  Callers pass ``int`` and ``float`` so
    equal inputs share one entry; a failed solve raises and stores nothing.
    """
    rule = solve_ulb_rule(n, capacity)
    # the rule's node table, P_0..P_3m, serves the Q_j scan and the operator's value rows
    closing = (_scan_checks(rule, 3 * rule.m, rule.table),)
    return _setup(rule, slice(rule.eps, None), ULB_INTERVAL, closing, (_fixed_table(n, rule.m),))


def _lambda_star(gt: np.ndarray, f: np.ndarray, h: Potential, checks: list[CheckResult]) -> float:
    ratios = gt[1:] / f[1 : gt.size]  # g_T has m coefficients, f has m + 1
    lam = max(ratios[gt[1:] > 1e-12], default=0.0)
    if classify(h) and f.size > 2:
        shortcut = float(max(ratios, default=0.0))
        agree = abs(shortcut - lam) <= 1e-9 * max(1.0, abs(lam))
        checks.append(CheckResult("lambda_star_shortcut", bool(agree), shortcut))
    return float(lam)


def _certify(
    kind: str, setup: _Setup, h: Potential, capacity: float, f: GegenbauerSeries | None = None
) -> BoundReport:
    """The bound of ``kind`` at capacity N_W on the setup's rule, with its checks.

    The certificate is g = g_T - lambda* f; only ``uub`` passes the
    Levenshtein polynomial f, so lambda* = 0 for the other kinds.  With N_1
    the rule's capacity, ``objective_consistency`` compares

        objective = -lambda* f_0 (1 - N_1/N_W) + g_T,0 - g_T(1)/N_W
        energy    = (-lambda* f_0 + g_T(1)/N_1) (1 - N_1/N_W) + sum_i rho_i h(alpha_i).

    Lower bounds pass N_W = N_1, which with lambda* = 0 reduces these bit
    for bit to g_T,0 - g_T(1)/N_W and the rule energy, and report the
    energy side; upper bounds report the objective side.  Interpolation,
    coefficient signs, dominance and objective consistency decide
    ``feasible``; the other checks are reported only.
    """
    rule, operator, grid, pieces, closing = setup
    lower = kind in ("ulb", "design_ulb")
    n1 = rule.capacity
    # h at the nodes, evaluated once for the Hermite jet, node contact and rule energy
    at_nodes = potential_eval(h, operator.points)
    g_t = hermite_interpolant(h, operator, at_nodes)
    interpolation = CheckResult("interpolation", g_t.node_residual <= 1e-9, g_t.node_residual)
    checks = [interpolation]
    gt = np.asarray(g_t.gegenbauer.coeffs)
    lam, f0, cert = 0.0, 0.0, g_t.gegenbauer
    if f is not None:
        fc = np.asarray(f.coeffs)
        lam, f0 = _lambda_star(gt, fc, h, checks), fc[0]
        cert = GegenbauerSeries(rule.n, np.append(gt, 0.0) - lam * fc)
    coeffs = np.asarray(cert.coeffs)

    sign_name = "positive_definite" if lower else "coefficient_signs"
    if kind.startswith("design"):
        signs = CheckResult(sign_name, True, None, "not required for design bounds")
    elif lower:
        worst = float(coeffs[1:].min())
        signs = CheckResult(sign_name, worst >= -COEFF_TOL, worst)
    else:
        worst = float(coeffs[1:].max())
        signs = CheckResult(sign_name, worst <= COEFF_TOL, worst)
    ok_dom, violation = verify_dominance(cert, h, "below" if lower else "above", grid, pieces)
    dominance = CheckResult("dominance_below" if lower else "dominance_above", ok_dom, violation)
    checks += [dominance, signs] if lower else [signs, dominance]
    if f is not None:
        # g_T - lambda* f at the nodes, from the rule's node table
        touch = float(abs(coeffs @ rule.table[: coeffs.size] - at_nodes).max())
        checks.append(CheckResult("nodes_touch", touch <= COEFF_TOL, touch))

    gt0, gt1 = float(gt[0]), g_t.gegenbauer.value_at_one()
    objective = -lam * f0 * (1.0 - n1 / capacity) + gt0 - gt1 / capacity
    # sum_i rho_i h(alpha_i) correctly rounded
    rule_energy = fsum(w * v for w, v in zip(rule.weights, at_nodes.tolist()))
    energy = (-lam * f0 + gt1 / n1) * (1.0 - n1 / capacity) + rule_energy
    value = energy if lower else objective
    ok_val = abs(objective - energy) <= VALUE_TOL * max(1.0, abs(value))
    checks.append(CheckResult("objective_consistency", ok_val, abs(objective - energy)))

    feasible = bool(interpolation.ok and signs.ok and ok_dom and ok_val)
    return BoundReport(
        kind=kind,
        n=rule.n,
        m=rule.m,
        rule=rule,
        value=float(value),
        certificate=cert,
        potential=h,
        feasible=feasible,
        diagnostics=tuple(checks) + closing,
        lambda_star=None if lower else lam,
    )


def ulb(n: int, capacity: float, h: Potential) -> BoundReport:
    """Universal lower bound on the weighted energy at capacity N_W > 2."""
    if not derivative_nonneg_from(h, 1):
        raise ValueError(f"potential {h.label()} lacks nonnegative derivatives of order >= 1")
    return _certify("ulb", _ulb_setup(index(n), float(capacity)), h, float(capacity))


def ulb_for_weights(weights, n: int, h: Potential) -> BoundReport:
    """Lower bound for an explicit weight vector, at capacity 1 / sum of its squares."""
    w = check_weights(weights)
    return ulb(n, 1.0 / float(np.dot(w, w)), h)


def design_ulb(n: int, capacity: float, tau: int, h: Potential) -> BoundReport:
    """Lower bound for weighted designs of strength tau.

    Valid for any potential with h^(tau+1) >= 0; the certificate need not be
    positive definite because the first tau moments vanish.
    """
    split_degree(tau)  # tau below 1 is named as such, before the derivative gate
    if not derivative_nonneg_from(h, tau + 1):
        raise ValueError(f"potential {h.label()} lacks h^({tau + 1}) >= 0")
    if capacity == inf:
        raise ValueError(f"capacity must be finite, got {capacity!r}")
    if not dgs_bound(n, tau) < capacity <= dgs_bound(n, tau + 1):
        raise ValueError(
            f"capacity {capacity} outside (D({n},{tau}), D({n},{tau + 1})] ="
            f" ({dgs_bound(n, tau)}, {dgs_bound(n, tau + 1)}]"
        )
    return _certify("design_ulb", _ulb_setup(index(n), float(capacity)), h, float(capacity))


def _upper_bound(kind: str, n: int, capacity: float, s: float, m: int, h: Potential) -> BoundReport:
    """Upper bound of ``kind`` at maximal inner product s from the degree-m rule.

    Only ``uub`` reads the Levenshtein polynomial f; ``design_uub`` needs
    the rule alone.  The report closes with the checks on the rule alone:
    the N_1 interval hypothesis, the capacity and, for ``uub``, s outside
    the validity interval.
    """
    if not -1 <= s < 1:
        raise ValueError("s must lie in [-1, 1)")
    split_degree(m)  # a degree below 1 is named as such, before the derivative gate
    if not derivative_nonneg_from(h, m):
        raise ValueError(f"potential {h.label()} lacks h^({m}) >= 0")
    if not (isfinite(capacity) and capacity > 0):
        raise ValueError(f"capacity must be finite and positive, got {capacity!r}")
    if m > MAX_RULE_DEGREE:
        raise ValueError(f"degree {m} above cap {MAX_RULE_DEGREE}")
    lo, hi = validity_interval(n, m)
    if kind == "design_uub" and m % 2 == 0 and s == lo:
        # at lo(tau) = hi(tau - 1) the even-degree rule's weight at -1 vanishes; a
        # tau-design is a (tau - 1)-design, so the limiting degree-(tau - 1) rule bounds it
        m -= 1
        lo, hi = validity_interval(n, m)
    within = lo - 1e-9 <= s <= hi + 1e-9
    try:
        lp = levenshtein_polynomial(n, m, s)
        f = lp.gegenbauer if kind == "uub" else None
    except QuadratureError as exc:
        # an overridden degree or a design's tau far from s: a usage error, not a failed rule
        if within:
            raise
        what = f"degree {m}" if kind == "uub" else f"tau = {m}"
        raise ValueError(
            f"s = {s!r} lies outside the validity interval [{lo!r}, {hi!r}] of {what} "
            f"for n = {n}, and the degree-{m} Levenshtein rule at this s fails its checks: {exc}"
        ) from exc
    n1 = lp.rule.capacity
    hyp = dgs_bound(n, m) < n1 <= dgs_bound(n, m + 1)
    dgs = f"D({n},{m})={dgs_bound(n, m)}, D({n},{m + 1})={dgs_bound(n, m + 1)}"
    # a code with sum of squared weights 1/N_W has at least N_W points, and its
    # cardinality is capped by N_1; below that the bound is valid but vacuous
    attained = bool(n1 >= capacity - 1e-9)
    vacuous = "N_1 < N_W: no code attains this capacity at this inner product"
    closing = (
        CheckResult("n1_interval_hypothesis", hyp, n1, dgs + ("" if hyp else "; reported only, bound still computed")),
        CheckResult("capacity_consistency", attained, n1, "" if attained else vacuous),
    )
    if kind == "uub" and not within:
        closing += (CheckResult("s_within_validity", False, s, "degree override outside validity interval"),)
    return _certify(kind, _setup(lp.rule, slice(lp.rule.eps, -1), (-1.0, s), closing), h, capacity, f)


def uub(n: int, capacity: float, s: float, h: Potential, m_override: int | None = None) -> BoundReport:
    """Universal upper bound on the weighted energy at maximal inner product s.

    The degree comes from the validity interval containing s unless an
    explicit override is given (table-reproduction mode); with an override
    the N_1 interval hypothesis is checked and reported rather than
    enforced.
    """
    m = select_degree_from_s(n, s) if m_override is None else m_override
    return _upper_bound("uub", n, capacity, s, m, h)


def design_uub(n: int, capacity: float, s: float, tau: int, h: Potential) -> BoundReport:
    """Upper bound for weighted tau-designs with maximal inner product s.

    Uses the Hermite interpolant alone (the Levenshtein correction has
    lambda = 0); only h^(tau) >= 0 and dominance above h on [-1, s] are
    required.
    """
    return _upper_bound("design_uub", n, capacity, s, tau, h)
