import dataclasses
import json
import math
import random

import numpy as np
import pytest
from numpy.testing import assert_allclose

import census
from oracles import SHARP_CODES, clenshaw, descend, sharp_code, six_hundred_cell, twenty_four_cell_orbits, union_code
from oracles import six_hundred_cell_orbits
from spherelp import bounds
from spherelp.bounds import design_ulb, design_uub, ulb, uub
from spherelp.bounds import test_functions as compute_test_functions
from spherelp.cli import main
from spherelp.codes import cube_crosspolytope, design_strength, energy, pentakis_dodecahedron, regular_ngon
from spherelp.hermite import dominance_grid, hermite_interpolant, hermite_jet, hermite_operator, verify_dominance
from spherelp.orthopoly import GegenbauerSeries, gegenbauer_table, value_at_one
from spherelp.potentials import (
    fejes_toth,
    gaussian,
    logarithmic,
    newton,
    parse_potential,
    potential_eval,
    riesz,
    shifted,
)
from spherelp.quadrature import (
    MAX_RULE_DEGREE,
    QuadratureError,
    WeightAtMinusOneError,
    dgs_bound,
    levenshtein_function,
    levenshtein_polynomial,
    select_degree_from_s,
    solve_ulb_rule,
    validity_interval,
)

PENTAKIS_CAPACITY = 735 / 23
PENTAKIS_S = math.sqrt(1 + 2 / math.sqrt(5)) / math.sqrt(3)


def qp_capacity(n):
    return n * (n + 2) ** 2 * 2**n / (n**3 + 2 ** (n + 1))


def test_ulb_pentakis():
    report = ulb(3, PENTAKIS_CAPACITY, riesz(1))
    assert report.value == pytest.approx(0.804786, abs=1e-6)
    assert report.m == 9 and report.feasible


def test_ulb_regular_8gon_constant_potential():
    report = ulb(2, 8.0, newton(2))
    assert report.value == pytest.approx(0.875, abs=1e-12)
    assert report.value == pytest.approx(1 - 1 / 8, abs=1e-12)


def test_ulb_cube_cross_n3():
    report = ulb(3, qp_capacity(3), newton(3))
    assert report.value == pytest.approx(0.7058, abs=5e-5)


def test_ulb_objective_equals_certificate_objective():
    report = ulb(4, 30.0, gaussian(1.2))
    objective = report.certificate.coeffs[0] - value_at_one(report.certificate.coeffs) / report.rule.capacity
    assert report.value == pytest.approx(objective, abs=1e-10)


def test_ulb_gate_rejects_small_capacity():
    with pytest.raises(ValueError):
        ulb(3, 1.7, riesz(1))


# the lower bound for an explicit weight vector is ulb at capacity 1 / sum of squared weights
def test_ulb_for_weights_pentakis():
    weights = pentakis_dodecahedron().weights
    report = ulb(3, 1 / np.dot(weights, weights), riesz(1))
    assert report.rule.capacity == pytest.approx(PENTAKIS_CAPACITY, rel=1e-12)
    assert report.value == pytest.approx(0.804786, abs=1e-6)


def test_ulb_for_weights_equal_is_cardinality():
    weights = np.full(24, 1 / 24)
    report = ulb(4, 1 / np.dot(weights, weights), newton(4))
    assert report.rule.capacity == pytest.approx(24.0, rel=1e-14)


def test_ulb_for_weights_cube_cross_n4():
    weights = cube_crosspolytope(4).weights
    report = ulb(4, 1 / np.dot(weights, weights), newton(4))
    assert report.rule.capacity == pytest.approx(24.0, rel=1e-12)


@pytest.mark.parametrize(
    "weights, n, spec",
    [
        (pentakis_dodecahedron().weights, 3, "riesz:1"),
        (np.full(24, 1 / 24), 4, "newton:4"),
        (cube_crosspolytope(4).weights, 4, "newton:4"),
    ],
    ids=["pentakis", "equal-24", "cube-cross-4"],
)
def test_ulb_for_weights_is_ulb_at_one_over_the_sum_of_squared_weights(tmp_path, capsys, monkeypatch, weights, n, spec):
    # the CLI's --weights-file derives the capacity itself; its report must be the library's to the bit
    reports = []

    def recording_ulb(*args):
        reports.append(ulb(*args))
        return reports[-1]

    monkeypatch.setattr(bounds, "ulb", recording_ulb)
    wf = tmp_path / "weights.json"
    wf.write_text(json.dumps(weights.tolist()))
    assert main(["ulb", "--n", str(n), "--weights-file", str(wf), "--potential", spec]) == 0
    capsys.readouterr()
    (got,) = reports
    want = ulb(n, 1 / np.dot(weights, weights), parse_potential(spec))
    assert got.value == want.value
    assert got.rule == want.rule
    assert np.array_equal(got.certificate.coeffs, want.certificate.coeffs)
    assert got.diagnostics == want.diagnostics


@pytest.mark.parametrize("capacity", [math.nan, 2.0, 1.0, -math.inf])
def test_lower_bounds_reject_capacity_not_above_two(capacity):
    for call in (
        lambda: solve_ulb_rule(3, capacity),
        lambda: ulb(3, capacity, riesz(1)),
        lambda: compute_test_functions(3, capacity, 5),
    ):
        with pytest.raises(ValueError, match="capacity must exceed 2"):
            call()


def test_lower_bounds_name_an_infinite_capacity():
    for call in (
        lambda: solve_ulb_rule(3, math.inf),
        lambda: ulb(3, math.inf, riesz(1)),
        lambda: design_ulb(3, math.inf, 4, riesz(1)),
        lambda: compute_test_functions(3, math.inf, 5),
    ):
        with pytest.raises(ValueError, match="^capacity must be finite, got inf$"):
            call()


@pytest.mark.parametrize("capacity", [math.nan, math.inf, -math.inf, 0.0, -5.0])
def test_upper_bounds_reject_nonfinite_or_nonpositive_capacity(capacity):
    with pytest.raises(ValueError, match="capacity must be finite and positive"):
        uub(3, capacity, 0.5, riesz(1))
    with pytest.raises(ValueError, match="capacity must be finite and positive"):
        design_uub(3, capacity, 0.5, 3, riesz(1))


def test_bounds_that_take_a_degree_reject_one_above_cap():
    # the override and tau bypass degree selection, so the cap is enforced again
    with pytest.raises(ValueError, match=r"degree 26 above cap 25"):
        uub(3, 30.0, 0.7, riesz(1), m_override=26)
    with pytest.raises(ValueError, match=r"degree 26 above cap 25"):
        design_uub(3, 30.0, 0.7, 26, riesz(1))
    with pytest.raises(ValueError, match=r"^degree 26 above cap 25$"):
        design_ulb(3, 200.0, 26, riesz(1))
    # before D(n, tau), whose exact binomial at this tau took seconds and then failed to print
    with pytest.raises(ValueError, match=r"^degree 1000000 above cap 25$"):
        design_ulb(100_000, 5.0, 10**6, riesz(1))


def test_upper_bounds_reject_dimension_below_two():
    with pytest.raises(ValueError, match="dimension must be >= 2"):
        validity_interval(1, 3)
    with pytest.raises(ValueError, match="dimension must be >= 2"):
        uub(1, 30.0, 0.5, riesz(1))
    with pytest.raises(ValueError, match="dimension must be >= 2"):
        uub(1, 30.0, 0.5, riesz(1), m_override=3)
    with pytest.raises(ValueError, match="dimension must be >= 2"):
        design_uub(1, 30.0, 0.5, 3, riesz(1))


def test_degree_below_one_is_named_before_the_derivative_gate():
    # log lacks h^(0) >= 0 and every potential has h^(-1) >= 0, so a derivative
    # test ahead of the degree check would misname or let through these degrees
    for h in (riesz(1), logarithmic()):
        for m in (0, -1):
            with pytest.raises(ValueError, match="degree must be >= 1"):
                uub(3, 30.0, 0.5, h, m_override=m)
            with pytest.raises(ValueError, match="degree must be >= 1"):
                design_uub(3, 30.0, 0.5, m, h)
            with pytest.raises(ValueError, match="degree must be >= 1"):
                design_ulb(3, 30.0, m, h)


def test_only_uub_builds_the_levenshtein_polynomial(monkeypatch):
    import spherelp.quadrature as quadrature

    calls, multiplied = [], []
    real = quadrature.gegenbauer_from_roots
    monkeypatch.setattr(quadrature, "gegenbauer_from_roots", lambda *args: calls.append(args) or real(*args))
    coefficients = bounds.levenshtein_coefficients
    monkeypatch.setattr(bounds, "levenshtein_coefficients", lambda rule: multiplied.append(rule) or coefficients(rule))
    m = select_degree_from_s(3, PENTAKIS_S)
    assert design_uub(3, PENTAKIS_CAPACITY, PENTAKIS_S, m, riesz(1)).feasible
    # past the validity interval of m = 5 in n = 4 f has a negative mean, which
    # a design bound never reads
    assert design_uub(4, 20.0, 0.71, 5, riesz(1)).kind == "design_uub"
    assert calls == [] and multiplied == []
    report = uub(3, PENTAKIS_CAPACITY, PENTAKIS_S, riesz(1))
    assert report.feasible
    assert len(calls) == 1 and multiplied == [report.rule]


@pytest.mark.parametrize("kind", ["ulb", "design_ulb", "uub", "design_uub"])
def test_each_bound_builds_one_series_its_certificate(kind, monkeypatch):
    # coefficients stay arrays from the solve to the report: the certificate
    # is the only GegenbauerSeries a bound builds, on a memo miss or a hit
    built = []
    post_init = GegenbauerSeries.__post_init__
    monkeypatch.setattr(GegenbauerSeries, "__post_init__", lambda self: built.append(self) or post_init(self))
    call = {
        "ulb": lambda: ulb(3, PENTAKIS_CAPACITY, riesz(1)),
        "design_ulb": lambda: design_ulb(3, PENTAKIS_CAPACITY, 9, riesz(1)),
        "uub": lambda: uub(3, PENTAKIS_CAPACITY, PENTAKIS_S, riesz(1)),
        "design_uub": lambda: design_uub(3, PENTAKIS_CAPACITY, PENTAKIS_S, 9, riesz(1)),
    }[kind]
    bounds._ulb_setup.cache_clear()
    for _ in range(2):
        built.clear()
        report = call()
        assert report.kind == kind and len(built) == 1 and built[0] is report.certificate


def test_uub_pentakis():
    report = uub(3, PENTAKIS_CAPACITY, PENTAKIS_S, riesz(1))
    assert report.value == pytest.approx(0.8234054, abs=1e-6)
    assert report.lambda_star == pytest.approx(7.47994, abs=1e-4)
    assert report.feasible
    coeffs = np.asarray(report.certificate.coeffs)
    assert abs(coeffs[1]) <= 1e-9
    assert np.all(coeffs[2:] < 0)


def test_uub_degree_one_closed_form():
    n, capacity = 5, 9.0
    lo, hi = validity_interval(n, 1)
    s = 0.5 * (lo + hi)
    h = riesz(2)
    report = uub(n, capacity, s, h)
    assert report.m == 1
    assert report.lambda_star == 0.0
    want = (1 - 1 / capacity) * potential_eval(h, s)
    assert report.value == pytest.approx(want, rel=1e-12)


def test_uub_degree_two_closed_form():
    n, capacity = 4, 12.0
    lo, hi = validity_interval(n, 2)
    s = 0.25 * lo + 0.75 * hi
    h = gaussian(2.0)
    report = uub(n, capacity, s, h)
    assert report.m == 2
    hs, hm = potential_eval(h, s), potential_eval(h, -1.0)
    assert report.lambda_star == pytest.approx((hs - hm) / (1 - s * s), rel=1e-10)
    want = ((n - 1) * hs + (1 - n * s * s) * hm) / (n * (1 - s * s)) - hm / capacity
    assert report.value == pytest.approx(want, rel=1e-11)


def test_uub_certificate_touches_h_at_nodes():
    report = uub(3, PENTAKIS_CAPACITY, PENTAKIS_S, riesz(1))
    assert report.diagnostic("nodes_touch").ok
    nodes = np.asarray(report.rule.nodes)
    assert_allclose(clenshaw(report.certificate, nodes), potential_eval(riesz(1), nodes), atol=1e-9)


def test_uub_override_reports_hypothesis():
    report = uub(3, qp_capacity(3), 1 / math.sqrt(3), newton(3), m_override=5)
    assert report.m == 5
    assert not report.diagnostic("n1_interval_hypothesis").ok
    assert not report.diagnostic("s_within_validity").ok
    assert report.feasible  # certificate itself is still valid
    assert report.value == pytest.approx(0.7357, abs=1e-4)


@pytest.mark.parametrize(
    "n, s", [(3, PENTAKIS_S), (4, 0.0), (5, validity_interval(5, 7)[1]), (8, validity_interval(8, 12)[0])]
)
def test_uub_override_at_selected_degree_reports_no_validity_flag(n, s):
    # s inside (or at an endpoint of) the interval of the degree uub selects
    m = select_degree_from_s(n, s)
    report = uub(n, 50.0, s, riesz(1), m_override=m)
    assert "s_within_validity" not in {c.name for c in report.diagnostics}
    assert report.diagnostics == uub(n, 50.0, s, riesz(1)).diagnostics


def test_design_uub_never_reports_validity():
    # 1/sqrt(3) lies above the degree-5 validity interval of n = 3
    s = 1 / math.sqrt(3)
    assert s > validity_interval(3, 5)[1] + 1e-9
    report = design_uub(3, qp_capacity(3), s, 5, newton(3))
    assert "s_within_validity" not in {c.name for c in report.diagnostics}
    assert "s_within_validity" in {c.name for c in uub(3, qp_capacity(3), s, newton(3), m_override=5).diagnostics}


def test_test_functions_vanish_up_to_m():
    report = compute_test_functions(3, PENTAKIS_CAPACITY, 27)
    for j in range(1, report.m + 1):
        assert abs(report.values[j]) <= 1e-9
    assert report.values[10] >= -1e-9
    assert report.values[11] >= -1e-9
    # improvability can only start at degree m + 3
    assert all(j >= report.m + 3 for j in report.negative_indices)


def test_test_functions_random_capacities():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(3, 6))
        capacity = float(rng.uniform(2.1, dgs_bound(n, 9)))
        probe = compute_test_functions(n, capacity, 1)
        report = compute_test_functions(n, capacity, probe.m + 2)
        for j in range(1, report.m + 1):
            assert abs(report.values[j]) <= 1e-9
        assert report.values[report.m + 1] >= -1e-9
        assert report.values[report.m + 2] >= -1e-9


def test_test_functions_jmax_guard():
    with pytest.raises(ValueError):
        compute_test_functions(3, 10.0, 0)


_TOL = bounds.COEFF_TOL


@pytest.mark.parametrize(
    "q", [_TOL, -_TOL, math.nextafter(_TOL, 1), math.nextafter(-_TOL, -1)],
    ids=["tol", "minus-tol", "above-tol", "below-minus-tol"],
)
@pytest.mark.parametrize("offset", [0, 1], ids=["j=m", "j=m+1"])
def test_test_function_verdict_at_its_edges(offset, q):
    # exactness makes Q_j zero up to j = m; beyond it, only |Q_j| > COEFF_TOL has a sign
    report = compute_test_functions(3, PENTAKIS_CAPACITY, 27)
    j = report.m + offset
    edged = dataclasses.replace(report, values={**report.values, j: q})
    want = "zero" if offset == 0 or abs(q) <= _TOL else ("nonneg" if q > 0 else "neg")
    assert edged.verdict(j, edged.m, q) == want
    classes = {k: edged.verdict(k, edged.m, v) for k, v in edged.values.items()}
    assert edged.negative_indices == tuple(sorted(k for k, c in classes.items() if c == "neg"))
    assert (j in edged.negative_indices) == (want == "neg")


def test_scan_check_and_test_functions_share_the_verdict():
    report = compute_test_functions(3, PENTAKIS_CAPACITY, 27)  # j_max = 3m, as in the scan
    scan = ulb(3, PENTAKIS_CAPACITY, riesz(1)).diagnostic("test_function_scan")
    assert report.negative_indices
    assert scan.note == f"ULB improvable, degree >= m+3: negative Q_j at j={list(report.negative_indices)}"


def test_lp_optimality_at_degree_m():
    # feasible perturbations of the certificate never raise the objective
    h = riesz(1)
    report = ulb(3, PENTAKIS_CAPACITY, h)
    rule = report.rule
    coeffs = np.asarray(report.certificate.coeffs)
    table = gegenbauer_table(3, report.m, np.linspace(-1, 0.999, 2001))
    fvals = coeffs @ table
    hvals = potential_eval(h, np.linspace(-1, 0.999, 2001))
    delta = 1e-3
    objective = coeffs[0] - coeffs.sum() / rule.capacity
    for j in range(report.m + 1):
        for sign in (+1.0, -1.0):
            pert = coeffs.copy()
            pert[j] += sign * delta
            feasible = np.all(pert[1:] >= 0) and np.all(fvals + sign * delta * table[j] <= hvals + 1e-12)
            if feasible:
                new_objective = pert[0] - pert.sum() / rule.capacity
                assert new_objective <= objective + 1e-9


def test_ulb_monotone_in_capacity():
    values = [ulb(3, c, riesz(1)).value for c in (5.0, 8.0, 20.0, 100.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_ulb_shift_equivariance():
    base = riesz(1)
    cap = 20.0
    plain = ulb(3, cap, base).value
    lifted = ulb(3, cap, shifted(base, 2.5)).value
    assert lifted == pytest.approx(plain + 2.5 * (1 - 1 / cap), abs=1e-10)


def test_sandwich_on_examples():
    pent = pentakis_dodecahedron()
    h = riesz(1)
    lower = ulb(3, pent.n_w, h).value
    upper = uub(3, pent.n_w, pent.max_inner_product, h).value
    actual = energy(pent, h)
    assert lower <= actual + 1e-9
    assert actual <= upper + 1e-9
    for n in (3, 4, 5):
        code = cube_crosspolytope(n)
        h = newton(n)
        lower = ulb(n, code.n_w, h).value
        upper = uub(n, code.n_w, code.max_inner_product, h).value
        actual = energy(code, h)
        assert lower <= actual + 1e-9
        assert actual <= upper + 1e-9


@pytest.mark.parametrize("spec", ["riesz:1", "riesz:2", "gaussian:1", "log", "newton:2"])
def test_regular_21gon_attains_its_lower_bound(spec):
    # N_W = 21 rounds just above D(2, 20) = 21: the solve lands on the shared
    # end of the degree-19 and degree-20 intervals, and the degree-19 rule
    # there is the 21-gon's own distance distribution
    code, h = regular_ngon(21), parse_potential(spec, 2)
    report = ulb(2, code.n_w, h)
    assert report.feasible and report.m == 19
    assert report.value == pytest.approx(energy(code, h), rel=1e-14, abs=0)


def test_design_ulb_matches_ulb_for_absolutely_monotone():
    a = design_ulb(3, PENTAKIS_CAPACITY, 9, riesz(1))
    b = ulb(3, PENTAKIS_CAPACITY, riesz(1))
    assert a.value == pytest.approx(b.value, abs=1e-14)
    assert a.diagnostic("positive_definite").note == "not required for design bounds"


def test_design_ulb_accepts_fejes_toth():
    report = design_ulb(3, PENTAKIS_CAPACITY, 9, fejes_toth())
    rule = report.rule
    want = sum(w * potential_eval(fejes_toth(), a) for a, w in zip(rule.nodes, rule.weights))
    assert report.value == pytest.approx(want, abs=1e-12)
    assert report.feasible


def test_design_ulb_shift_equivariance():
    plain = design_ulb(3, PENTAKIS_CAPACITY, 9, fejes_toth())
    lifted = design_ulb(3, PENTAKIS_CAPACITY, 9, shifted(fejes_toth(), 2.0))
    assert lifted.value == pytest.approx(plain.value + 2 * (1 - 1 / PENTAKIS_CAPACITY), abs=1e-10)


def test_design_ulb_interval_hypothesis():
    with pytest.raises(ValueError):
        design_ulb(3, PENTAKIS_CAPACITY, 7, riesz(1))  # 735/23 not in (D(3,7), D(3,8)]


def test_design_uub_values():
    cases = [
        (3, PENTAKIS_CAPACITY, PENTAKIS_S, 9, riesz(1), 0.805816, 1e-6),
        (3, qp_capacity(3), 1 / math.sqrt(3), 5, newton(3), 0.70893, 1e-5),
        (4, 24.0, 0.5, 5, newton(4), 0.58111, 1e-5),
        (5, qp_capacity(5), 3 / 5, 6, newton(5), 0.500221, 1e-6),
    ]
    for n, capacity, s, degree, h, want, tol in cases:
        report = design_uub(n, capacity, s, degree, h)
        assert report.value == pytest.approx(want, abs=tol)
        assert report.feasible
        assert report.lambda_star == 0.0


def test_design_uub_equals_interpolant_objective():
    report = design_uub(3, PENTAKIS_CAPACITY, PENTAKIS_S, 9, riesz(1))
    alt = report.certificate.coeffs[0] - value_at_one(report.certificate.coeffs) / PENTAKIS_CAPACITY
    assert report.value == pytest.approx(alt, abs=1e-12)


def test_design_uub_is_the_lambda_zero_upper_bound():
    cases = [
        (3, PENTAKIS_CAPACITY, PENTAKIS_S, 9, riesz(1)),
        (3, qp_capacity(3), 1 / math.sqrt(3), 4, newton(3)),
        (4, 24.0, 0.5, 5, newton(4)),
        (5, 40.0, sum(validity_interval(5, 6)) / 2, 6, gaussian(1)),
    ]
    for n, capacity, s, tau, h in cases:
        report = design_uub(n, capacity, s, tau, h)
        rule = report.rule
        nodes = np.asarray(rule.nodes)
        op = hermite_operator(nodes, slice(rule.eps, -1), n, gegenbauer_table(n, rule.m, nodes))
        g_t = hermite_interpolant(op, hermite_jet(h, op))
        assert report.certificate == GegenbauerSeries(n, g_t)
        assert report.lambda_star == 0.0
        g0, g1 = g_t[0], value_at_one(g_t)
        assert report.value == g0 - g1 / capacity
        rule_sum = math.fsum(w * potential_eval(h, a) for a, w in zip(rule.nodes, rule.weights))
        rule_form = (capacity - rule.capacity) * g1 / (capacity * rule.capacity) + rule_sum
        assert report.value == pytest.approx(rule_form, rel=1e-12)
    # at degree 1 the Levenshtein correction vanishes, so uub is the same bound
    lo, hi = validity_interval(3, 1)
    s = 0.5 * (lo + hi)
    full, design = uub(3, 10.0, s, riesz(2)), design_uub(3, 10.0, s, 1, riesz(2))
    assert full.lambda_star == 0.0
    assert full.value == design.value
    assert full.certificate.coeffs == design.certificate.coeffs + (0.0,)


def test_design_uub_tabulates_its_grid_to_the_certificate_degree(monkeypatch):
    # design_uub's certificate has m coefficients, so its [-1, s] grid is
    # tabulated to degree m - 1, in the bound and in read_record alike; uub's
    # has m + 1.  Each row has a degree-m table's bits, so a verdict on a
    # setup tabulated to degree m gives every field of the report unchanged
    setups, build = [], bounds._setup
    monkeypatch.setattr(bounds, "_setup", lambda rule, kind: setups.append(build(rule, kind)) or setups[-1])
    potentials = (riesz(1), gaussian(1), logarithmic(), fejes_toth(), riesz(2.5))
    rng = random.Random(48)
    for i in range(15):
        n, m = rng.randrange(2, 13), rng.randrange(1, 21)
        lo, hi = validity_interval(n, m)
        s, h, capacity = lo + rng.uniform(0.05, 0.95) * (hi - lo), potentials[i % 5], float(dgs_bound(n, m + 1))
        design = design_uub(n, capacity, s, m, h)
        assert setups[-1].pieces[-1].shape[0] == m, (n, m)
        assert uub(n, capacity, s, h).m == m and setups[-1].pieces[-1].shape[0] == m + 1, (n, m)
        assert census.verdict_text(bounds.read_record(bounds.write_record(design))) == census.verdict_text(design)
        assert setups[-1].pieces[-1].shape[0] == m, (n, m)
        wide = build(design.rule, "uub")
        assert wide.pieces[-1].shape[0] == m + 1
        again = bounds.verdict(bounds.certificate("design_uub", wide, h, capacity, None), wide)
        assert census.verdict_text(again) == census.verdict_text(design), (n, m)


def test_recurrence_constants_are_cached_once_per_dimension():
    # the bounds read the constants of dimension n, and n + 2 for the Hermite
    # slope rows: one entry each, which a cache per (n, degree) is not.  Only
    # the dominance grids, of dimension n, are large enough for the array path
    from spherelp import orthopoly

    caches = (orthopoly._dimension_steps, orthopoly._dimension_arrays)
    for cache in caches:
        cache.cache_clear()
    dimensions = (3, 4, 5, 8)
    for n in dimensions:
        for m in range(1, 21):
            ulb(n, (dgs_bound(n, m) + dgs_bound(n, m + 1)) / 2, riesz(1))
            uub(n, 1e9, sum(validity_interval(n, m)) / 2, riesz(1))
    sizes = (len(set(dimensions) | {n + 2 for n in dimensions}), len(dimensions))
    assert tuple(cache.cache_info().currsize for cache in caches) == sizes
    # a table above the cached degrees computes its constants and stores nothing
    gegenbauer_table(9, 2 * orthopoly.CACHED_DEGREE, np.linspace(-1.0, 1.0, 40))
    assert tuple(cache.cache_info().currsize for cache in caches) == sizes


def test_design_uub_at_most_uub():
    full = uub(3, PENTAKIS_CAPACITY, PENTAKIS_S, riesz(1))
    design = design_uub(3, PENTAKIS_CAPACITY, PENTAKIS_S, 9, riesz(1))
    assert design.value <= full.value + 1e-12


def test_design_uub_at_the_left_end_of_an_even_tau_is_the_lower_degree_bound():
    # at lo(tau) = hi(tau - 1) the degree-tau rule's weight at -1 vanishes; a
    # tau-design is a (tau - 1)-design, so the report is design_uub at tau - 1
    for n in (2, 3, 4, 5, 8, 12):
        h = riesz(1)
        for tau in range(2, 25, 2):
            s = validity_interval(n, tau)[0]
            report, lower = design_uub(n, 10.0, s, tau, h), design_uub(n, 10.0, s, tau - 1, h)
            assert report.feasible and report.m == tau - 1, (n, tau)
            assert report_fields(report) == report_fields(lower), (n, tau)


def test_uub_override_of_an_even_degree_at_its_left_end_is_refused():
    # no degree-m rule exists at lo(m) = hi(m - 1): its weight at -1 vanishes,
    # and round-off decided whether it raised QuadratureError or built a rule
    # on a weight near 0; the refusal is the same at every (n, m)
    for n in (2, 3, 4, 5, 8, 12, 30, 39):
        for m in range(2, 25, 2):
            lo = validity_interval(n, m)[0]
            with pytest.raises(ValueError) as info:
                uub(n, 10.0, lo, riesz(1), m_override=m)
            assert str(info.value) == (
                f"s = {lo!r} is lo({m}) = hi({m - 1}) for n = {n}, where the degree-{m} rule's weight at -1 "
                f"vanishes: no degree-{m} rule exists at this s; degree {m - 1} bounds it"
            )
            # without an override, ties go to the smaller degree, which bounds this s
            assert uub(n, 10.0, lo, riesz(1)).m == m - 1


# (n, m, ulps): s = lo(m) + ulps ulps, where the degree-m rule's weight at -1 rounds to 0
ABOVE_LEFT_END = (
    (2, 16, 1), (3, 6, 1), (10, 4, 1), (39, 18, 1), (6, 10, 2),
    (12, 18, 2), (6, 10, 3), (15, 20, 3), (19, 18, 3), (26, 22, 3),
)


def test_upper_bounds_just_above_an_even_left_end_have_the_outcome_at_it():
    # a few ulps above lo(m) the degree-m rule's own weight check finds its
    # weight at -1 rounded to 0: no degree-m rule exists there, as at lo(m)
    h = riesz(1)
    for n, m, ulps in ABOVE_LEFT_END:
        lo = validity_interval(n, m)[0]
        s = lo
        for _ in range(ulps):
            s = math.nextafter(s, 1.0)
        with pytest.raises(WeightAtMinusOneError, match=f"weight 0 of {m // 2 + 1} is 0"):
            levenshtein_polynomial(n, m, s)
        assert select_degree_from_s(n, s) == m
        report, at_lo = uub(n, 10.0, s, h), uub(n, 10.0, lo, h)
        assert report.m == at_lo.m == m - 1 and report.feasible, (n, m, ulps)
        assert report.value == pytest.approx(at_lo.value, rel=1e-13), (n, m, ulps)
        assert report.diagnostics[-1].name == "capacity_consistency"  # s lies in degree m - 1's interval
        design = design_uub(n, 10.0, s, m, h)
        assert design.m == m - 1 and design.feasible, (n, m, ulps)
        assert report_fields(design) == report_fields(design_uub(n, 10.0, s, m - 1, h))
        with pytest.raises(ValueError) as info:
            uub(n, 10.0, s, h, m_override=m)
        assert str(info.value) == (
            f"s = {s!r} lies just above {lo!r} = lo({m}) = hi({m - 1}) for n = {n}, where the degree-{m} "
            f"rule's weight at -1 vanishes: no degree-{m} rule exists at this s; degree {m - 1} bounds it"
        )


def test_upper_bounds_just_below_a_left_end_are_usage_errors():
    # below lo(m) the degree-m rule does not exist; where it fails to build
    # that is a usage error naming the interval, not a failed rule
    h, refused = riesz(1), 0
    for n in (2, 3, 5, 8, 13, 21, 39):
        for m in range(2, MAX_RULE_DEGREE + 1):
            lo, hi = validity_interval(n, m)
            s = lo - 5e-10
            for build in (lambda: design_uub(n, 10.0, s, m, h), lambda: uub(n, 10.0, s, h, m_override=m)):
                try:
                    report = build()
                except ValueError as exc:
                    refused += 1
                    assert str(exc).startswith(f"s = {s!r} lies outside the validity interval [{lo!r}, {hi!r}] of ")
                else:  # the rule built: uub flags s, design_uub needs no interval
                    assert report.kind == "design_uub" or not report.diagnostic("s_within_validity").ok
    assert refused >= 300


def test_vacuous_capacity_flagged():
    # N_1 below N_W: no code realizes the pair, and the report says so
    report = uub(3, 20.0, 0.3, riesz(1))
    assert report.rule.capacity < 20.0
    assert not report.diagnostic("capacity_consistency").ok
    good = uub(3, PENTAKIS_CAPACITY, PENTAKIS_S, riesz(1))
    assert good.diagnostic("capacity_consistency").ok


LOWER_NAMES = ("interpolation", "dominance_below", "positive_definite", "objective_consistency", "test_function_scan")
UPPER_HEAD = ("interpolation", "lambda_star_shortcut", "coefficient_signs", "dominance_above", "nodes_touch")
UPPER_TAIL = ("objective_consistency", "n1_interval_hypothesis", "capacity_consistency")


@pytest.mark.parametrize(
    "compute, names",
    [
        (lambda: ulb(3, PENTAKIS_CAPACITY, riesz(1)), LOWER_NAMES),
        (lambda: design_ulb(3, PENTAKIS_CAPACITY, 9, riesz(1)), LOWER_NAMES),
        (lambda: uub(3, PENTAKIS_CAPACITY, PENTAKIS_S, riesz(1)), UPPER_HEAD + UPPER_TAIL),
        # the shortcut is checked for absolutely monotone potentials only
        (
            lambda: uub(3, PENTAKIS_CAPACITY, PENTAKIS_S, fejes_toth()),
            UPPER_HEAD[:1] + UPPER_HEAD[2:] + UPPER_TAIL,
        ),
        (
            lambda: uub(3, qp_capacity(3), 1 / math.sqrt(3), newton(3), m_override=5),
            UPPER_HEAD + UPPER_TAIL + ("s_within_validity",),
        ),
        (
            lambda: design_uub(3, qp_capacity(3), 1 / math.sqrt(3), 5, newton(3)),
            ("interpolation", "coefficient_signs", "dominance_above") + UPPER_TAIL,
        ),
    ],
    ids=["ulb", "design_ulb", "uub", "uub-not-absolutely-monotone", "uub-m-override", "design_uub"],
)
def test_diagnostic_names_in_order(compute, names):
    assert tuple(c.name for c in compute().diagnostics) == names


LOWER_GATES = ("interpolation", "dominance_below", "positive_definite", "objective_consistency")
UPPER_GATES = ("interpolation", "coefficient_signs", "dominance_above", "objective_consistency")
GATES = {"ulb": LOWER_GATES, "design_ulb": LOWER_GATES, "uub": UPPER_GATES, "design_uub": UPPER_GATES}


def test_feasible_is_the_conjunction_of_the_four_gates():
    # two reports that round-off in the certificate makes infeasible (large
    # n and m), then a seeded sample of every kind
    reports = [ulb(36, 10917558293.94429, gaussian(1)), uub(35, 1e9, 0.6358760441441441, gaussian(1))]
    rng = np.random.default_rng(20)
    for _ in range(30):
        n, m = int(rng.integers(2, 12)), int(rng.integers(1, 12))
        lo_d, hi_d = dgs_bound(n, m), dgs_bound(n, m + 1)
        capacity = lo_d + (hi_d - lo_d) * float(rng.uniform(0.05, 1.0))
        s = float(rng.uniform(*validity_interval(n, m)))
        h = (riesz(1), gaussian(1), logarithmic(), newton(n))[int(rng.integers(4))]
        reports += [
            ulb(n, capacity, h),
            design_ulb(n, capacity, m, h),
            uub(n, 1e9, s, h),
            uub(n, capacity, s, h, m_override=m),
            design_uub(n, capacity, s, m, h),
        ]
    for report in reports:
        gates = GATES[report.kind]
        assert report.feasible == all(report.diagnostic(name).ok for name in gates)
    # a failed check outside the gates leaves the report feasible
    assert any(
        report.feasible and not all(c.ok for c in report.diagnostics if c.name not in GATES[report.kind])
        for report in reports
    )


def report_fields(report):
    return (report.value, report.certificate.coeffs, report.rule, report.diagnostics, report.feasible)


def test_ulb_memo_matches_cold_solve():
    # a report built on a memoised rule equals the one built on a fresh solve
    for n in (3, 4, 5, 8):
        potentials = (riesz(1), newton(n), gaussian(1), logarithmic(), fejes_toth())
        for m in range(1, 21):
            capacity = dgs_bound(n, m) + 0.37 * (dgs_bound(n, m + 1) - dgs_bound(n, m))
            warm = [ulb(n, capacity, h) for h in potentials]
            for h, report in zip(potentials, warm):
                bounds._ulb_setup.cache_clear()
                assert report_fields(ulb(n, capacity, h)) == report_fields(report)


def test_ulb_design_ulb_and_test_functions_share_one_solve(monkeypatch):
    calls = []
    solve = bounds.solve_ulb_rule

    def counting_solve(n, capacity):
        calls.append((n, capacity))
        return solve(n, capacity)

    monkeypatch.setattr(bounds, "solve_ulb_rule", counting_solve)
    bounds._ulb_setup.cache_clear()
    lower = ulb(3, PENTAKIS_CAPACITY, riesz(1))
    design = design_ulb(3, PENTAKIS_CAPACITY, 9, gaussian(1))
    scan = compute_test_functions(3, PENTAKIS_CAPACITY, 27)
    assert calls == [(3, PENTAKIS_CAPACITY)]
    assert design.rule is lower.rule and scan.rule is lower.rule


def test_ulb_memo_key_normalises_numpy_scalars():
    bounds._ulb_setup.cache_clear()
    numpy_args = ulb(np.int64(4), np.float64(17.3), riesz(1))
    plain = ulb(4, 17.3, gaussian(1))
    info = bounds._ulb_setup.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    assert plain.rule is numpy_args.rule and type(numpy_args.n) is int


@pytest.mark.parametrize(
    "call, degree, name",
    [
        (lambda d: uub(3, 10, 0.5, riesz(1), m_override=d), 5, "m_override"),
        (lambda d: design_ulb(3, 31.9, d, riesz(1)), 9, "tau"),
        (lambda d: design_uub(3, 10, 0.5, d, riesz(1)), 3, "tau"),
        (lambda d: compute_test_functions(3, 31.9, d), 27, "j_max"),
        (lambda d: design_strength(pentakis_dodecahedron(), d), 5, "tau_max"),
    ],
    ids=["uub", "design_ulb", "design_uub", "test_functions", "design_strength"],
)
def test_a_non_integral_degree_is_named(call, degree, name):
    # after the integral degree has filled the caches, its float twin is named
    # at the entry, not met deep inside a table or a cached solve
    call(degree)
    call(np.int64(degree))
    with pytest.raises(TypeError, match=rf"^{name} must be an integer, got {float(degree)!r}$"):
        call(float(degree))


def test_ulb_memo_stores_no_failure(monkeypatch):
    solve = bounds.solve_ulb_rule

    def failing_solve(n, capacity):
        if n == 30:
            raise QuadratureError(f"rule failed its verification for (n={n}, capacity={capacity})")
        return solve(n, capacity)

    monkeypatch.setattr(bounds, "solve_ulb_rule", failing_solve)
    bounds._ulb_setup.cache_clear()
    for _ in range(2):
        with pytest.raises(QuadratureError, match="failed its verification"):
            ulb(30, 2947546837, riesz(1))
        with pytest.raises(ValueError, match="above cap"):
            ulb(3, 1e9, riesz(1))
    assert bounds._ulb_setup.cache_info().currsize == 0


def test_ulb_memo_is_bounded_and_its_grid_read_only():
    bounds._ulb_setup.cache_clear()
    maxsize = bounds._ulb_setup.cache_info().maxsize
    for capacity in np.linspace(2.5, 60.0, 3 * maxsize):
        ulb(3, float(capacity), riesz(1))
        assert bounds._ulb_setup.cache_info().currsize <= maxsize
    setup = bounds._ulb_setup(3, float(capacity))
    assert bounds._ulb_setup.cache_info().hits == 1
    grid = setup.grid
    for array in (grid, *setup.pieces):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[..., 0] = 0.0
    assert np.array_equal(grid, dominance_grid(-1.0, 0.999, setup.rule.nodes))
    whole = gegenbauer_table(3, setup.rule.m, grid)
    assert np.hstack(setup.pieces).tobytes() == whole.tobytes()


def test_ulb_memo_builds_one_operator_per_rule(monkeypatch):
    from spherelp import hermite

    calls, scans = [], []
    build, scan = hermite.hermite_operator, bounds._test_report

    def counting_build(points, doubled, n, values):
        calls.append(n)
        return build(points, doubled, n, values)

    monkeypatch.setattr(bounds, "hermite_operator", counting_build)
    monkeypatch.setattr(hermite, "hermite_operator", counting_build)
    monkeypatch.setattr(bounds, "_test_report", lambda rule, table: scans.append(len(table)) or scan(rule, table))
    bounds._ulb_setup.cache_clear()
    reports = [ulb(4, 24.0, h) for h in (riesz(1), riesz(2), gaussian(1), logarithmic(), fejes_toth())]
    reports.append(design_ulb(4, 24.0, 5, newton(4)))
    # one operator and one Q_j scan (on P_0..P_3m) for the rule, both in its memo entry
    assert calls == [4] and scans == [3 * reports[0].m + 1]
    setup = bounds._ulb_setup(4, 24.0)
    assert all(report.diagnostic("test_function_scan") is setup.scan for report in reports)
    op = setup.operator
    for array in (*setup.pieces, op.points, op.doubled, op.matrix, op.row_scale, op.scaled):
        assert not array.flags.writeable
    for piece in setup.pieces:
        with pytest.raises(ValueError):
            piece[0, 0] = 0.0
    whole = gegenbauer_table(4, setup.rule.m, setup.grid)
    assert np.hstack(setup.pieces).tobytes() == whole.tobytes()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda weights: weights[:2] + [-weights[2]] + weights[3:], "nonpositive quadrature weight"),
        (lambda weights: [w * (1 + 1e-6) for w in weights], "quadrature exactness failure"),
        (lambda weights: weights[:2] + [math.nan] + weights[3:], "nonpositive quadrature weight"),
    ],
    ids=["one-weight-negated", "weights-scaled", "one-weight-nan"],
)
def test_read_record_holds_its_rule_to_the_rule_gates(edit, message):
    # a record's rule passes the gates a solved rule passes, with the same messages
    report = ulb(3, PENTAKIS_CAPACITY, riesz(1))
    record = json.loads(bounds.write_record(report))
    record["weights"] = [w.hex() for w in edit([float.fromhex(w) for w in record["weights"]])]
    with pytest.raises(QuadratureError) as info:
        bounds.read_record(json.dumps(record))
    where = f"(n=3, m=9, s={report.rule.s:.12g}, capacity={report.rule.capacity:.12g})"
    assert str(info.value).startswith(f"{message} for {where}: ")
    assert type(info.value) is QuadratureError


def _edited(record, **fields):
    """The record with ``fields`` replaced, a callable value applied to the recorded field."""
    record = json.loads(record)
    record.update({key: value(record[key]) if callable(value) else value for key, value in fields.items()})
    return json.dumps(record)


def _negated(values):
    return [(-float.fromhex(v)).hex() for v in values]


def _nested(spec, levels):
    return spec if not levels else _nested({"kind": "shifted", "param": (0.5).hex(), "base": spec}, levels - 1)


ULB_9 = "for a degree-9 ulb record, got"  # the record of ulb(3, 735/23, riesz:1)
ULB_9_RULE = "(n=3, m=9, s=-0.941231293105, capacity=31.9565217391)"  # its nodes reversed, s first


@pytest.mark.parametrize(
    "which, fields, error, message",
    [
        pytest.param("ulb", {"m": 8}, ValueError, "record field 'gt' must be 9 numbers for a degree-8 ulb record, got [", id="m-8"),
        pytest.param("ulb", {"kind": "uub"}, ValueError, "record field 'gt' must be 9 numbers for a degree-9 uub record, got [", id="kind-uub-f-null"),
        pytest.param("ulb", {"kind": "bogus"}, ValueError, "record field 'kind' must be one of ulb, design_ulb, uub, design_uub, got 'bogus'", id="kind-bogus"),
        pytest.param(
            "ulb", {"weights": lambda w: w[:-1]}, QuadratureError,
            "a degree-9 rule for (n=3, capacity=31.9565217391) needs 5 nodes and as many weights, not 5 nodes and 4 weights", id="one-weight-dropped",
        ),
        pytest.param("ulb", {"gt": lambda gt: gt[:-1]}, ValueError, f"record field 'gt' must be 10 numbers {ULB_9} [", id="gt-one-short"),
        pytest.param("ulb", {"gt": lambda gt: gt + gt[:1]}, ValueError, f"record field 'gt' must be 10 numbers {ULB_9} [", id="gt-one-long"),
        pytest.param("ulb", {"f": ["0x1p0"] * 10}, ValueError, f"record field 'f' must be null {ULB_9} [", id="f-on-ulb"),
        pytest.param("ulb", {"n": 3.0}, ValueError, "record field 'n' must be an integer >= 2, got 3.0", id="n-float"),
        pytest.param("ulb", {"m": 26}, ValueError, "record field 'm' must be an integer from 1 to 25, got 26", id="m-above-cap"),
        pytest.param(
            "ulb", {"capacity": None}, ValueError,
            f"record field 'capacity' must be a positive finite number equal to n1 {ULB_9} None", id="capacity-null",
        ),
        pytest.param(
            "ulb", {"capacity": (40.0).hex()}, ValueError,
            f"record field 'capacity' must be a positive finite number equal to n1 {ULB_9} '0x1.4000000000000p+5'", id="ulb-capacity-not-n1",
        ),
        pytest.param("uub", {"capacity": "0x0p+0"}, ValueError, "record field 'capacity' must be a positive finite number, got '0x0p+0'", id="uub-capacity-zero"),
        pytest.param(
            "ulb", {"potential": lambda h: _nested(h, 150)}, ValueError,
            "record field 'potential' must be a recorded potential with at most 100 shift levels, got {", id="150-shift-levels",
        ),
        pytest.param(
            "ulb", {"nodes": lambda a: a[::-1], "weights": lambda w: w[::-1]}, QuadratureError,
            f"descending nodes for {ULB_9_RULE}: nodes 1 and 2 are ", id="nodes-and-weights-reversed",
        ),
        pytest.param("uub", {"f": None}, ValueError, "record field 'f' must be 6 numbers for a degree-5 uub record, got None", id="uub-f-null"),
        pytest.param(
            "uub", {"f": _negated}, QuadratureError,
            "Levenshtein polynomial for (n=3, m=5, s=0.5) has a negative coefficient: ", id="uub-f-negated",
        ),
        pytest.param(
            "uub", {"f": lambda f: ["nan"] + f[1:]}, QuadratureError,
            "coefficient ratio nan for (n=3, m=5, s=0.5) disagrees with the Levenshtein function value ", id="uub-f-nan",
        ),
    ],
)
def test_malformed_record_names_its_field(which, fields, error, message):
    # a record's fields are checked first, then its rule at the rule gate and, for uub, f by f's own checks
    report = ulb(3, PENTAKIS_CAPACITY, riesz(1)) if which == "ulb" else uub(3, 20, 0.5, riesz(1))
    with pytest.raises(error) as info:
        bounds.read_record(_edited(bounds.write_record(report), **fields))
    assert str(info.value).startswith(message)
    if error is QuadratureError:  # the rule gate names nodes, f's gates the Levenshtein polynomial
        named = (info.value.stage, info.value.n, info.value.m, info.value.capacity)
        assert named == ("nodes" if which == "ulb" else "levenshtein", 3, report.rule.m, report.rule.capacity)


def test_dominance_on_pieces_split_at_the_fixed_points_keeps_every_bit():
    # the fixed table and a rule's own piece give the product, and so the
    # (ok, violation) bits, of one table over the whole lower-bound grid
    rng = np.random.default_rng(31)
    potentials = (riesz(1), riesz(2.5), gaussian(1), logarithmic(), fejes_toth())
    for i in range(300):
        n, m = int(rng.integers(2, 40)), int(rng.integers(1, 26))
        nodes = np.sort(rng.uniform(-1.0, bounds.ULB_INTERVAL[1], int(rng.integers(1, 14))))
        grid = dominance_grid(*bounds.ULB_INTERVAL, nodes)
        whole = gegenbauer_table(n, m, grid)
        pieces = (bounds._fixed_table(n)[: m + 1], gegenbauer_table(n, m, grid[bounds.FIXED_POINTS :]))
        coeffs = rng.standard_normal(int(rng.integers(1, m + 2))) * 10.0 ** rng.uniform(-3, 3)
        split = np.concatenate([coeffs @ piece[: coeffs.size] for piece in pieces])
        assert split.tobytes() == (coeffs @ whole[: coeffs.size]).tobytes(), (n, m, nodes.size)
        h = potentials[i % len(potentials)]
        for direction in ("below", "above"):
            ok, violation = verify_dominance(coeffs, h, direction, grid, pieces)
            want_ok, want = verify_dominance(coeffs, h, direction, grid, (whole,))
            assert (ok, violation.hex()) == (want_ok, want.hex()), (n, m, nodes.size, direction)


def test_fixed_table_is_read_only_full_height_and_bounded():
    fixed_grid = dominance_grid(*bounds.ULB_INTERVAL, ())[: bounds.FIXED_POINTS]
    bounds._fixed_table.cache_clear()
    table = bounds._fixed_table(5)
    assert table.shape == (26, bounds.FIXED_POINTS) and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0.0
    for m in (1, 3, 6, 9, 20, 25):  # row j has the same bits at any height
        assert table[: m + 1].tobytes() == gegenbauer_table(5, m, fixed_grid).tobytes()
    for n in range(2, 26):
        assert not bounds._fixed_table(n).flags.writeable
        assert bounds._fixed_table.cache_info().currsize <= 8
    assert bounds._fixed_table.cache_info().currsize == 8


def test_a_degree_sweep_tabulates_the_fixed_grid_once(monkeypatch):
    tabulated = []  # (n, imax) of every table on the 4000 fixed points
    table = bounds.gegenbauer_table

    def counting_table(n, imax, t):
        if len(t) == bounds.FIXED_POINTS:
            tabulated.append((n, imax))
        return table(n, imax, t)

    monkeypatch.setattr(bounds, "gegenbauer_table", counting_table)
    bounds._fixed_table.cache_clear()
    for m in (3, 9, 6, 20):
        report = ulb(4, (dgs_bound(4, m) + dgs_bound(4, m + 1)) / 2, riesz(1))
        assert report.m == m and report.feasible
        assert bounds._ulb_setup(4, report.rule.capacity).pieces[0].base is bounds._fixed_table(4)
    assert tabulated == [(4, MAX_RULE_DEGREE)]


def test_each_bound_tabulates_its_nodes_once(monkeypatch):
    from spherelp import hermite, orthopoly, quadrature

    calls = []  # (n, imax, points) of every gegenbauer_table call, wherever spherelp holds it
    table = orthopoly.gegenbauer_table

    def counting_table(n, imax, t):
        calls.append((n, imax, tuple(np.ravel(t).tolist())))
        return table(n, imax, t)

    for module in (orthopoly, quadrature, hermite, bounds):
        monkeypatch.setattr(module, "gegenbauer_table", counting_table)
    lo, hi = validity_interval(4, 7)
    s = lo + 0.3 * (hi - lo)
    bounds._ulb_setup.cache_clear()
    for build, degree in (
        (lambda: ulb(4, 24.0, riesz(1)), lambda m: 3 * m),  # a memo miss
        (lambda: uub(4, 20.0, s, riesz(1)), lambda m: m),
        (lambda: design_uub(4, 20.0, s, 7, riesz(1)), lambda m: m),
    ):
        calls.clear()
        report = build()
        at_nodes = [(n, imax) for n, imax, t in calls if n == report.n and t == report.rule.nodes]
        assert at_nodes == [(report.n, degree(report.m))]
        assert report.rule.table.shape == (degree(report.m) + 1, len(report.rule.nodes))
    calls.clear()
    ulb(4, 24.0, gaussian(1))  # a memo hit tabulates nothing
    assert calls == []


def test_ulb_n2_degree_24_is_feasible():
    # the highest degree in the smallest dimension, where round-off in the
    # interpolant comes closest to the 1e-9 gates
    report = ulb(2, 25.5, riesz(1))
    assert report.m == 24 and report.feasible
    assert report.diagnostic("interpolation").value <= 1e-13


SHARP_ULB_DEGREES = {"e8": 6, "gosset": 4, "schlafli": 3}  # N = D(n, m + 1), the right end of each interval


@pytest.mark.parametrize("spec", ["riesz:1", "gaussian:1", "log"])
@pytest.mark.parametrize("name", list(SHARP_CODES))
def test_sharp_codes_attain_both_bounds(name, spec):
    # a sharp code's energy is both bounds, and its inner products other than 1
    # are the rules' nodes of positive weight; which side of the energy each
    # bound lands on is round-off, so the bracket itself is not pinned here
    n, size, products = SHARP_CODES[name]
    code, h = sharp_code(name), parse_potential(spec)
    e = energy(code, h)
    lower, upper = ulb(n, size, h), uub(n, size, code.max_inner_product, h)
    assert lower.m == SHARP_ULB_DEGREES[name]
    for report in (lower, upper):
        assert report.feasible
        nodes = [a for a, w in zip(report.rule.nodes, report.rule.weights) if w > 1e-12]
        assert len(nodes) == len(products) and max(abs(np.subtract(nodes, products))) <= 1e-12
        assert abs(report.value - e) <= 4 * np.finfo(float).eps * abs(e)
        assert census.verdict_text(bounds.read_record(bounds.write_record(report))) == census.verdict_text(report)


def test_descended_codes_lie_between_their_bounds():
    # equal-weight codes of n = 3 near riesz:1 minima: each energy lies between the ULB at its N_W and
    # the UUB at its maximal inner product, to round-off; at N = 4, 6 and 12 the minimiser is the
    # tetrahedron, octahedron or icosahedron, sharp codes, whose energy is the ULB
    for size in range(4, 41):
        code = descend(3, np.full(size, 1 / size), size, 400)
        for h in (riesz(1), gaussian(1), logarithmic()):
            e = energy(code, h)
            lower, upper = ulb(3, code.n_w, h), uub(3, code.n_w, code.max_inner_product, h)
            assert lower.feasible and upper.feasible
            assert lower.value <= e + 1e-14 * abs(e) and e <= upper.value + 1e-14 * abs(e)
            if size in (4, 6, 12):
                assert abs(e - lower.value) <= 1e-14 * abs(e)


@pytest.mark.parametrize("spec, gap", [("riesz:1", 3.984e-5), ("log", 2.371e-5)])
def test_six_hundred_cell_lies_above_its_ulb(spec, gap):
    # the 600-cell is an 11-design but not sharp: its energy lies strictly
    # above the ULB at its capacity; under gaussian:1 the gap is 5e-14, below
    # the certificate's round-off, so no sign is pinned there
    h = parse_potential(spec, 4)
    report = ulb(4, 120.0, h)
    assert report.m == 11 and report.feasible
    assert energy(six_hundred_cell(), h) - report.value == pytest.approx(gap, rel=1e-3)


def test_six_hundred_cell_capacity_is_improvable():
    report = compute_test_functions(4, 120.0, 33)
    assert report.negative_indices == (14, 15, 17, 27)
    assert report.improvable


@pytest.mark.parametrize("spec, gap", [("riesz:1", 7.019e-4), ("log", 5.483e-4), ("gaussian:1", 1.985e-8)])
def test_twenty_four_cell_with_its_dual_lies_between_its_bounds(spec, gap):
    # a 7-design of 48 points with derived weights 1/48, not sharp: the energy
    # lies strictly inside the bracket; n_w computes as 47.99999999999996
    code, h = union_code(4, twenty_four_cell_orbits(), 7), parse_potential(spec)
    e = energy(code, h)
    lower = ulb(4, code.n_w, h)
    assert lower.m == 7 and lower.feasible
    assert e - lower.value == pytest.approx(gap, rel=1e-3)
    assert design_ulb(4, code.n_w, 7, h).value == lower.value
    assert code.max_inner_product == pytest.approx(math.sqrt(0.5), abs=1e-15)
    upper = uub(4, code.n_w, code.max_inner_product, h)
    assert upper.m == 8 and upper.feasible and upper.value > e


def test_twenty_four_cell_with_its_dual_capacity_is_improvable():
    report = compute_test_functions(4, union_code(4, twenty_four_cell_orbits(), 7).n_w, 21)
    assert report.negative_indices == (10, 11, 19, 20)
    assert report.improvable


@pytest.fixture(scope="module")
def six_hundred_cell_union():
    """The 600-cell with its dual 120-cell, 720 points weighted as a 19-design."""
    return union_code(4, six_hundred_cell_orbits(), 19)


@pytest.mark.parametrize("spec, gap", [("riesz:1", 4.74e-4), ("log", 2.40e-4)])
def test_six_hundred_cell_with_its_dual_lies_above_its_ulb(six_hundred_cell_union, spec, gap):
    # a 19-design of 720 points at N_W = 264600/381, not sharp: its energy lies
    # above the degree-22 ULB by the relative gap; under gaussian:1 the two
    # agree within 1e-14 relative, the certificate's round-off, so no sign is
    # pinned there
    code = six_hundred_cell_union
    for h in (parse_potential(spec), gaussian(1)):
        e, report = energy(code, h), ulb(4, code.n_w, h)
        assert report.m == 22 and report.feasible
        if h.kind == "gaussian":
            assert abs(e - report.value) <= 1e-14 * abs(e)
        else:
            assert (e - report.value) / abs(e) == pytest.approx(gap, rel=5e-3)


def test_six_hundred_cell_with_its_dual_capacity_is_improvable(six_hundred_cell_union):
    report = compute_test_functions(4, six_hundred_cell_union.n_w, 60)
    assert report.negative_indices == (25, 26, 49, 50, 53, 55)


def test_six_hundred_cell_with_its_dual_has_no_design_ulb_and_no_uub_at_its_inner_product(six_hundred_cell_union):
    # the union's N_W lies above D(4, 20) = 506, so no design ULB applies to
    # this 19-design at its own capacity; its largest inner product needs a
    # Levenshtein degree above MAX_RULE_DEGREE
    code, h = six_hundred_cell_union, riesz(1)
    with pytest.raises(ValueError, match=r"outside \(D\(4,19\), D\(4,20\)\] = \(440, 506\]$"):
        design_ulb(4, code.n_w, 19, h)
    assert code.max_inner_product == pytest.approx(0.96353, abs=1e-5)
    with pytest.raises(ValueError, match="needs degree above cap 25$"):
        uub(4, code.n_w, code.max_inner_product, h)


BOUND_CURVE_POTENTIALS = [riesz(1.0), gaussian(1.0), logarithmic(), riesz(2.5)]


def test_ulb_and_uub_meet_at_the_levenshtein_bound():
    # at N_W = N_1 = L_m(n, s) both bounds solve the degree-m rule at s, both
    # certificates interpolate h at its nodes and the lambda* term vanishes, so
    # the two directions meet; ULB <= UUB is not asserted: in 2 of these 300
    # cells (newton, n = 9 and 12) the UUB lies below by about 1.4e-14 relative
    draws = random.Random(3)
    for i in range(300):
        n, m, frac = draws.randrange(2, 13), draws.randrange(1, 16), draws.uniform(0.02, 0.98)
        lo, hi = validity_interval(n, m)
        s = lo + frac * (hi - lo)
        h = (BOUND_CURVE_POTENTIALS + [newton(n)])[i % 5]
        n1 = levenshtein_function(n, m, s)
        lower, upper = ulb(n, n1, h), uub(n, n1, s, h)
        where = (n, m, s, h.label())
        assert lower.m == upper.m == m and lower.feasible and upper.feasible, where
        assert max(abs(np.subtract(lower.rule.nodes, upper.rule.nodes))) <= 2e-14, where
        assert abs(lower.value - upper.value) <= 1e-13 * abs(lower.value), where


@pytest.mark.parametrize("h", BOUND_CURVE_POTENTIALS, ids=lambda h: h.label())
def test_ulb_is_continuous_across_each_dgs_bound(h):
    # at N_W = D(n, m) the degree steps from m - 1 to m while the bound stays
    # continuous: a 1e-9 relative step in N_W moves it by the slope alone
    for n in (2, 3, 4, 5, 8, 12, 20):
        for m in range(2, MAX_RULE_DEGREE):
            d = dgs_bound(n, m)
            below, above = ulb(n, d * (1 - 1e-9), h), ulb(n, d * (1 + 1e-9), h)
            assert (below.m, above.m) == (m - 1, m) and below.feasible and above.feasible, (n, m)
            assert abs(above.value - below.value) <= 1e-8 * abs(below.value), (n, m)


@pytest.mark.parametrize("h", BOUND_CURVE_POTENTIALS, ids=lambda h: h.label())
def test_uub_at_the_levenshtein_bound_is_continuous_across_each_right_end(h):
    # with N_W = L at each side's degree, so that the lambda* term vanishes; at
    # a fixed N_W far from L, UUB(s) jumps at hi(m), and in N_W it is not
    # monotone under log near N_W = 2.5, so neither is asserted
    for n in (3, 4, 8, 12):
        for m in range(1, MAX_RULE_DEGREE - 1):
            hi = validity_interval(n, m)[1]
            sides = [uub(n, levenshtein_function(n, deg, s), s, h) for s, deg in ((hi - 1e-9, m), (hi + 1e-9, m + 1))]
            assert [r.m for r in sides] == [m, m + 1] and all(r.feasible for r in sides), (n, m)
            assert abs(sides[1].value - sides[0].value) <= 5e-8 * abs(sides[0].value), (n, m)
