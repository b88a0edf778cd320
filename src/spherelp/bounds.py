"""Universal energy bounds for weighted spherical codes and designs.

Each bound is a :func:`certificate` on a 1/N quadrature rule (at capacity
N_W, or on the roots of the Levenshtein polynomial f at maximal inner
product s) and a :func:`verdict` on it.  The certificate is g = g_T -
lambda* f: the Hermite interpolant g_T of h at the nodes minus the least
multiple of f that makes the nonconstant coefficients nonpositive (``uub``
only).  g must stay below h with nonnegative coefficients (lower) or above
h on [-1, s] with nonpositive ones (upper); design variants drop the signs.
A failed check marks the report infeasible instead of raising.
:func:`write_record` writes a certificate exactly; :func:`read_record`
gives its report back from that record alone, with no rule solve.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from math import fsum, inf, isfinite
from operator import index
from typing import NamedTuple

import numpy as np

from .hermite import DOMINANCE_TOL, HermiteOperator, dominance_grid, hermite_interpolant, hermite_jet, hermite_operator
from .hermite import interpolation_residual, verify_dominance
from .orthopoly import GegenbauerSeries, gegenbauer_table, integral_degree, value_at_one
from .potentials import MAX_SHIFT_DEPTH, Potential, classify, derivative_nonneg_from
from .quadrature import (
    MAX_RULE_DEGREE,
    QuadratureError,
    QuadratureRule,
    WeightAtMinusOneError,
    _check_levenshtein,
    _verified_rule,
    dgs_bound,
    exactness_residuals,
    levenshtein_coefficients,
    levenshtein_polynomial,
    select_degree_from_s,
    solve_ulb_rule,
    split_degree,
    validity_interval,
)

# gates on the node residual, coefficient signs and objective (dominance: DOMINANCE_TOL)
INTERPOLATION_TOL = 1e-9
COEFF_TOL = 1e-9
VALUE_TOL = 1e-10
ULB_INTERVAL = (-1.0, 0.999)  # where lower-bound certificates must stay below h
# The lower-bound grid's first FIXED_POINTS points, its uniform points but the
# last, are the same for every rule, so their Gegenbauer table is kept per
# dimension.  The split is a multiple of 32: BLAS dgemv then gives every point
# the body or tail position it has in one product over the whole grid, so the
# products of the two pieces keep that product's bits (4001 does not).
FIXED_POINTS = 4000
_KINDS = ("ulb", "design_ulb", "uub", "design_uub")


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    value: float | None = None
    note: str = ""
    tol: float | None = None  # the gate it was held to; None for a check reported only


@dataclass(eq=False)
class Certificate:
    """What a verdict reads: kind, N_W, h, rule, h's :func:`hermite_jet` at the nodes,
    g_T and (``uub`` only) f, from which lambda* and g = g_T - lambda* f follow."""

    kind: str
    capacity: float
    potential: Potential
    rule: QuadratureRule
    jet: np.ndarray
    gt: np.ndarray
    f: np.ndarray | None
    lam: float = field(init=False)
    coeffs: np.ndarray = field(init=False)

    def __post_init__(self):
        gt, f, lam, coeffs = self.gt, self.f, 0.0, self.gt
        if f is not None:
            ratios = gt[1:] / f[1 : gt.size]  # g_T has m coefficients, f has m + 1
            lam = float(max(ratios[gt[1:] > 1e-12], default=0.0))
            coeffs = np.concatenate((gt, (0.0,))) - lam * f
        self.lam, self.coeffs = lam, coeffs


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
    source: Certificate = field(compare=False, repr=False)  # what the verdict read
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
    if (j_max := integral_degree(j_max, "j_max")) < 1:
        raise ValueError("j_max must be >= 1")
    rule = _ulb_setup(index(n), float(capacity)).rule
    return _test_report(rule, gegenbauer_table(n, j_max, np.asarray(rule.nodes)))


def _test_report(rule: QuadratureRule, table: np.ndarray) -> TestFunctionReport:
    """Q_1..Q_j for the rows P_0..P_j of ``table`` at the rule's nodes."""
    res = exactness_residuals(table, rule.weights, rule.capacity)
    # one conversion: a verdict per numpy scalar doubled the scan's time
    return TestFunctionReport(rule.n, rule.m, rule, dict(enumerate(res.tolist()[1:], 1)))


class _Setup(NamedTuple):
    rule: QuadratureRule
    operator: HermiteOperator
    grid: np.ndarray
    pieces: tuple[np.ndarray, ...]
    scan: CheckResult | None


def _setup(rule: QuadratureRule, kind: str) -> _Setup:
    """What a verdict of ``kind`` reads besides the certificate: the Hermite operator (value
    rows from the rule's node table; slopes at every node but -1, and s for upper bounds), the
    dominance grid on ULB_INTERVAL or [-1, s], its table in pieces up to the certificate's
    degree (m, or m - 1 for ``design_uub``, whose g_T has m coefficients), and (lower) the Q_j scan."""
    lower = kind in ("ulb", "design_ulb")
    if lower:
        doubled, interval, head = slice(rule.eps, None), ULB_INTERVAL, (_fixed_table(rule.n)[: rule.m + 1],)
        report = _test_report(rule, rule.table)
        bad, note = list(report.negative_indices), f"Q_j >= 0 for j <= {len(report.values)}"
        if bad:
            note = f"ULB improvable, degree >= m+3: negative Q_j at j={bad}"
        scan = CheckResult("test_function_scan", not bad, min(list(report.values.values())[rule.m :]), note)
    else:
        doubled, interval, head, scan = slice(rule.eps, -1), (-1.0, rule.s), (), None
    grid = dominance_grid(*interval, rule.nodes)
    tail = gegenbauer_table(rule.n, rule.m - (kind == "design_uub"), grid[FIXED_POINTS if lower else 0 :])
    grid.flags.writeable = tail.flags.writeable = False
    operator = hermite_operator(rule.nodes, doubled, rule.n, rule.table)
    return _Setup(rule, operator, grid, head + (tail,), scan)


@lru_cache(maxsize=8)
def _fixed_table(n: int) -> np.ndarray:
    """P_0..P_MAX_RULE_DEGREE on the lower-bound grid's first FIXED_POINTS
    points, read-only; each row has the same bits at any height."""
    table = gegenbauer_table(n, MAX_RULE_DEGREE, dominance_grid(*ULB_INTERVAL, ())[:FIXED_POINTS])
    table.flags.writeable = False
    return table


@lru_cache(maxsize=1)
def _ulb_setup(n: int, capacity: float) -> _Setup:
    """The rule at (n, N_W), with its node table P_0..P_3m, and its setup with
    the Q_j scan, for every potential: one entry covers potentials run back
    to back and keeps the rules' tables (0.15 MB at m = 20) from piling up.
    Callers pass ``int`` and ``float`` so equal inputs share one entry; a
    failed solve raises and stores nothing."""
    return _setup(solve_ulb_rule(n, capacity), "ulb")


def certificate(kind: str, setup: _Setup, h: Potential, capacity: float, f: np.ndarray | None) -> Certificate:
    """The certificate of ``kind`` at N_W on the setup's rule: h at the nodes once, one
    Hermite solve for g_T, and lambda* from f, which only ``uub`` passes."""
    jet = hermite_jet(h, setup.operator)
    return Certificate(kind, capacity, h, setup.rule, jet, hermite_interpolant(setup.operator, jet), f)


def verdict(cert: Certificate, setup: _Setup) -> BoundReport:
    """Every check of the certificate, and its bound, on its rule's setup.

    With N_1 the rule's capacity, ``objective_consistency`` compares

        objective = -lambda* f_0 (1 - N_1/N_W) + g_T,0 - g_T(1)/N_W
        energy    = (-lambda* f_0 + g_T(1)/N_1) (1 - N_1/N_W) + sum_i rho_i h(alpha_i),

    with g_T(1) by :func:`value_at_one`.  Lower bounds have N_W = N_1 and
    lambda* = 0, which reduce these bit for bit to g_T,0 - g_T(1)/N_W and the
    rule energy, and report the energy side; upper bounds the objective side.
    The four gates decide ``feasible``; the checks on the rule alone close the
    report: the Q_j scan (lower); N_1's interval, the capacity and, for
    ``uub``, s outside the validity interval (upper).
    """
    kind, rule, h, gt, f, lam, coeffs = cert.kind, cert.rule, cert.potential, cert.gt, cert.f, cert.lam, cert.coeffs
    lower, capacity, n1, n, m = kind in ("ulb", "design_ulb"), cert.capacity, rule.capacity, rule.n, rule.m
    at_nodes = cert.jet[: len(rule.nodes)]
    residual = interpolation_residual(setup.operator, gt, cert.jet)
    interpolation = CheckResult("interpolation", residual <= INTERPOLATION_TOL, residual, "", INTERPOLATION_TOL)
    checks = [interpolation]
    f0 = 0.0 if f is None else f[0]
    if f is not None and classify(h) and f.size > 2:
        shortcut = float(max(gt[1:] / f[1 : gt.size], default=0.0))
        agree = abs(shortcut - lam) <= 1e-9 * max(1.0, abs(lam))
        checks.append(CheckResult("lambda_star_shortcut", bool(agree), shortcut))

    sign_name = "positive_definite" if lower else "coefficient_signs"
    if kind.startswith("design"):
        signs = CheckResult(sign_name, True, None, "not required for design bounds")
    else:
        worst = float(coeffs[1:].min() if lower else coeffs[1:].max())
        signs = CheckResult(sign_name, worst >= -COEFF_TOL if lower else worst <= COEFF_TOL, worst, "", COEFF_TOL)
    ok_dom, violation = verify_dominance(coeffs, h, "below" if lower else "above", setup.grid, setup.pieces)
    dominance = CheckResult("dominance_below" if lower else "dominance_above", ok_dom, violation, "", DOMINANCE_TOL)
    checks += [dominance, signs] if lower else [signs, dominance]
    if f is not None:
        # g_T - lambda* f at the nodes, from the rule's node table
        touch = float(abs(coeffs @ rule.table[: coeffs.size] - at_nodes).max())
        checks.append(CheckResult("nodes_touch", touch <= COEFF_TOL, touch))

    gt0, gt1 = float(gt[0]), value_at_one(gt)
    objective = -lam * f0 * (1.0 - n1 / capacity) + gt0 - gt1 / capacity
    # sum_i rho_i h(alpha_i) correctly rounded
    rule_energy = fsum(w * v for w, v in zip(rule.weights, at_nodes.tolist()))
    energy = (-lam * f0 + gt1 / n1) * (1.0 - n1 / capacity) + rule_energy
    value = energy if lower else objective
    ok_val = bool(abs(objective - energy) <= VALUE_TOL * max(1.0, abs(value)))
    checks.append(CheckResult("objective_consistency", ok_val, abs(objective - energy), "", VALUE_TOL))
    feasible = bool(interpolation.ok and signs.ok and ok_dom and ok_val)

    if lower:
        checks.append(setup.scan)
    else:
        hyp = dgs_bound(n, m) < n1 <= dgs_bound(n, m + 1)
        dgs = f"D({n},{m})={dgs_bound(n, m)}, D({n},{m + 1})={dgs_bound(n, m + 1)}"
        dgs += "" if hyp else "; reported only, bound still computed"
        checks.append(CheckResult("n1_interval_hypothesis", hyp, n1, dgs))
        attained = bool(n1 >= capacity - 1e-9)  # a code has N_W points at least, N_1 at most
        vacuous = "N_1 < N_W: no code attains this capacity at this inner product"
        checks.append(CheckResult("capacity_consistency", attained, n1, "" if attained else vacuous))
        lo, hi = validity_interval(n, m)
        if kind == "uub" and not lo <= rule.s <= hi + 1e-9:
            checks.append(CheckResult("s_within_validity", False, rule.s, "degree override outside validity interval"))
    return BoundReport(
        kind, n, m, rule, float(value), GegenbauerSeries(n, coeffs), h, feasible, tuple(checks), cert, None if lower else lam
    )


def _hexed(x):
    """x for JSON, every float as ``float.hex`` and every sequence a list."""
    if isinstance(x, (tuple, list, np.ndarray)):
        return [_hexed(v) for v in x]
    if isinstance(x, dict):
        return {key: _hexed(v) for key, v in x.items()}
    return x.hex() if isinstance(x, float) else x


def write_record(report: BoundReport) -> str:
    """The exact record of the report's certificate: one line of JSON, every
    float as ``float.hex``, holding what :func:`verdict` reads."""
    cert, rule = report.source, report.source.rule
    return json.dumps(_hexed({
        "kind": cert.kind, "n": int(rule.n), "m": int(rule.m), "capacity": float(cert.capacity),
        "potential": asdict(cert.potential), "nodes": rule.nodes, "weights": rule.weights,
        "n1": rule.capacity, "gt": cert.gt, "f": cert.f,
    }))


def read_record(text: str) -> BoundReport:
    """:func:`verdict` on a :func:`write_record` record's certificate, with no rule solve or Hermite
    solve.  A malformed field outside the rule raises ValueError naming it; the rule and f must pass
    the gates of a solved rule and a computed f, or QuadratureError is raised with their messages."""
    r = json.loads(text)
    if type(r) is not dict:
        raise ValueError(f"a record is one JSON object, not {r!r:.80}")
    kind = _field(r, "kind", f"one of {', '.join(_KINDS)}", ok=lambda v: v in _KINDS)
    n = _field(r, "n", "an integer >= 2", index, lambda v: v >= 2)
    m = _field(r, "m", f"an integer from 1 to {MAX_RULE_DEGREE}", index, lambda v: 1 <= v <= MAX_RULE_DEGREE)
    lower, upper, record = kind in ("ulb", "design_ulb"), kind == "uub", f"for a degree-{m} {kind} record"
    gt = _field(r, "gt", f"{m + lower} numbers {record}", _hex_floats, lambda v: len(v) == m + lower)
    if upper:
        f = np.array(_field(r, "f", f"{m + 1} numbers {record}", _hex_floats, lambda v: len(v) == m + 1))
    else:
        f = _field(r, "f", f"null {record}", ok=lambda v: v is None)
    n1 = _field(r, "n1", "a finite nonzero number", float.fromhex, lambda v: isfinite(v) and v != 0)
    # a lower bound's rule is solved at its capacity N_W, so N_1 = N_W
    want = "a positive finite number" + (f" equal to n1 {record}" if lower else "")
    capacity = _field(r, "capacity", want, float.fromhex, lambda v: 0 < v < inf and (v == n1 or not lower))
    h = _field(r, "potential", f"a recorded potential with at most {MAX_SHIFT_DEPTH} shift levels", _record_potential)
    nodes, weights = (_field(r, key, "a list of numbers", _hex_floats) for key in ("nodes", "weights"))
    rule = _verified_rule(n, m, nodes, weights, n1, 3 * m if lower else m)
    if upper:
        _check_levenshtein(rule, f)
    setup = _setup(rule, kind)
    return verdict(Certificate(kind, capacity, h, rule, hermite_jet(h, setup.operator), np.array(gt), f), setup)


def _field(record: dict, key: str, want: str, read=lambda v: v, ok=lambda v: True):
    """``read(record[key])`` if ``ok`` accepts it, else a ValueError naming the field and ``want``."""
    try:
        if ok(value := read(record[key])):
            return value
    except (KeyError, TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"record field {key!r} must be {want}, got {record.get(key)!r:.80}")


def _hex_floats(values: list) -> tuple[float, ...]:
    """A JSON list of ``float.hex`` strings as floats."""
    if type(values) is not list:
        raise TypeError(f"a list of numbers is a JSON array, not {type(values).__name__}")
    return tuple(map(float.fromhex, values))


def _record_potential(spec: dict, depth: int = 0) -> Potential:
    if depth > MAX_SHIFT_DEPTH:
        raise ValueError(f"a potential nests at most {MAX_SHIFT_DEPTH} shift levels")
    return Potential(spec["kind"], float.fromhex(spec["param"]), spec["base"] and _record_potential(spec["base"], depth + 1))


def ulb(n: int, capacity: float, h: Potential) -> BoundReport:
    """Universal lower bound on the weighted energy at capacity N_W > 2."""
    if not derivative_nonneg_from(h, 1):
        raise ValueError(f"potential {h.label()} lacks nonnegative derivatives of order >= 1")
    setup = _ulb_setup(index(n), float(capacity))
    return verdict(certificate("ulb", setup, h, float(capacity), None), setup)


def design_ulb(n: int, capacity: float, tau: int, h: Potential) -> BoundReport:
    """Lower bound for weighted designs of strength tau.

    Valid for any potential with h^(tau+1) >= 0; the certificate need not be
    positive definite because the first tau moments vanish.
    """
    tau = integral_degree(tau, "tau")
    split_degree(tau)  # tau below 1 is named as such, before the derivative gate
    if not derivative_nonneg_from(h, tau + 1):
        raise ValueError(f"potential {h.label()} lacks h^({tau + 1}) >= 0")
    if capacity == inf:
        raise ValueError(f"capacity must be finite, got {capacity!r}")
    if tau > MAX_RULE_DEGREE:  # before D(n, tau), an exact binomial that grows with tau
        raise ValueError(f"degree {tau} above cap {MAX_RULE_DEGREE}")
    if not dgs_bound(n, tau) < capacity <= dgs_bound(n, tau + 1):
        raise ValueError(
            f"capacity {capacity} outside (D({n},{tau}), D({n},{tau + 1})] ="
            f" ({dgs_bound(n, tau)}, {dgs_bound(n, tau + 1)}]"
        )
    setup = _ulb_setup(index(n), float(capacity))
    return verdict(certificate("design_ulb", setup, h, float(capacity), None), setup)


def _levenshtein_rule(kind: str, n: int, m: int, s: float) -> tuple[QuadratureRule, np.ndarray | None]:
    """The degree-m Levenshtein rule at s and, for ``uub``, its polynomial f.
    A rule that fails at an s outside the validity interval (up to 1e-9 above
    its right end) comes from an overridden degree or a design's tau far from
    s: a usage error, not a failed rule."""
    try:
        rule = levenshtein_polynomial(n, m, s)
        return rule, levenshtein_coefficients(rule) if kind == "uub" else None
    except QuadratureError as exc:
        lo, hi = validity_interval(n, m)
        if lo <= s <= hi + 1e-9:
            raise
        what = f"degree {m}" if kind == "uub" else f"tau = {m}"
        raise ValueError(
            f"s = {s!r} lies outside the validity interval [{lo!r}, {hi!r}] of {what} "
            f"for n = {n}, and the degree-{m} Levenshtein rule at this s fails its checks: {exc}"
        ) from exc


def _upper_bound(kind: str, n: int, capacity: float, s: float, m: int, h: Potential, fallback: bool) -> BoundReport:
    """Upper bound of ``kind`` at maximal inner product s from the degree-m rule.

    Only ``uub`` multiplies out the Levenshtein polynomial f; ``design_uub``
    needs the rule alone.  For even m no degree-m rule exists at s = lo(m),
    where its weight at -1 vanishes, nor a few ulps above, where the rule's
    own weight check finds that weight rounded to 0; there ``fallback``
    takes the degree-(m - 1) rule, and otherwise the degree is refused.
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
    lo = validity_interval(n, m)[0]
    try:
        # at lo(m) = hi(m - 1) an even-degree rule's weight at -1 vanishes
        built = None if m % 2 == 0 and s == lo else _levenshtein_rule(kind, n, m, s)
    except WeightAtMinusOneError:  # rounded to 0 a few ulps above lo(m)
        built = None
    if built is None:
        if not fallback:
            where = "is" if s == lo else f"lies just above {lo!r} ="
            raise ValueError(
                f"s = {s!r} {where} lo({m}) = hi({m - 1}) for n = {n}, where the degree-{m} rule's weight at -1 "
                f"vanishes: no degree-{m} rule exists at this s; degree {m - 1} bounds it"
            )
        # a tau-design is a (tau - 1)-design, so the limiting degree-(tau - 1) rule bounds it
        built = _levenshtein_rule(kind, n, m - 1, s)
    rule, f = built
    setup = _setup(rule, kind)
    return verdict(certificate(kind, setup, h, capacity, f), setup)


def uub(n: int, capacity: float, s: float, h: Potential, m_override: int | None = None) -> BoundReport:
    """Universal upper bound on the weighted energy at maximal inner product s.

    The degree comes from the validity interval containing s unless an
    explicit override is given (table-reproduction mode); with an override
    the N_1 interval hypothesis is checked and reported rather than
    enforced.
    """
    m = select_degree_from_s(n, s) if m_override is None else integral_degree(m_override, "m_override")
    return _upper_bound("uub", n, capacity, s, m, h, m_override is None)


def design_uub(n: int, capacity: float, s: float, tau: int, h: Potential) -> BoundReport:
    """Upper bound for weighted tau-designs with maximal inner product s.

    Uses the Hermite interpolant alone (the Levenshtein correction has
    lambda = 0); only h^(tau) >= 0 and dominance above h on [-1, s] are
    required.
    """
    return _upper_bound("design_uub", n, capacity, s, integral_degree(tau, "tau"), h, True)
