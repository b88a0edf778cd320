import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spherelp import bounds
from spherelp.bounds import design_ulb, design_uub, ulb, ulb_for_weights, uub
from spherelp.bounds import test_functions as compute_test_functions
from spherelp.codes import cube_crosspolytope, energy, pentakis_dodecahedron
from spherelp.hermite import dominance_grid, hermite_interpolant, hermite_operator, uub_nodes
from spherelp.orthopoly import gegenbauer_table
from spherelp.potentials import (
    fejes_toth,
    gaussian,
    logarithmic,
    newton,
    potential_eval,
    riesz,
    shifted,
)
from spherelp.quadrature import QuadratureError, dgs_bound, solve_ulb_rule, validity_interval

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
    objective = report.certificate.coeffs[0] - report.certificate.value_at_one() / report.rule.capacity
    assert report.value == pytest.approx(objective, abs=1e-10)


def test_ulb_gate_rejects_small_capacity():
    with pytest.raises(ValueError):
        ulb(3, 1.7, riesz(1))


def test_ulb_for_weights_pentakis():
    weights = pentakis_dodecahedron().weights
    report = ulb_for_weights(weights, 3, riesz(1))
    assert report.diagnostic("capacity").value == pytest.approx(PENTAKIS_CAPACITY, rel=1e-12)
    assert report.value == pytest.approx(0.804786, abs=1e-6)
    assert report.diagnostic("weight_variance").value > 0


def test_ulb_for_weights_equal_is_cardinality():
    report = ulb_for_weights(np.full(24, 1 / 24), 4, newton(4))
    assert report.diagnostic("capacity").value == pytest.approx(24.0, rel=1e-14)
    assert report.diagnostic("weight_variance").value == pytest.approx(0.0, abs=1e-18)


def test_ulb_for_weights_cube_cross_n4():
    report = ulb_for_weights(cube_crosspolytope(4).weights, 4, newton(4))
    assert report.diagnostic("capacity").value == pytest.approx(24.0, rel=1e-12)


def test_ulb_for_weights_validation():
    with pytest.raises(ValueError, match="weights must sum to 1"):
        ulb_for_weights([0.5, 0.6], 3, riesz(1))
    with pytest.raises(ValueError, match="weights must be positive"):
        ulb_for_weights([0.5, -0.5, 1.0], 3, riesz(1))
    with pytest.raises(ValueError, match="weights must be finite"):
        ulb_for_weights([0.5, math.nan, 0.5], 3, riesz(1))


@pytest.mark.parametrize("capacity", [math.nan, 2.0, 1.0, -math.inf])
def test_lower_bounds_reject_capacity_not_above_two(capacity):
    for call in (
        lambda: solve_ulb_rule(3, capacity),
        lambda: ulb(3, capacity, riesz(1)),
        lambda: compute_test_functions(3, capacity, 5),
    ):
        with pytest.raises(ValueError, match="capacity must exceed 2"):
            call()


@pytest.mark.parametrize("capacity", [math.nan, math.inf, -math.inf, 0.0, -5.0])
def test_upper_bounds_reject_nonfinite_or_nonpositive_capacity(capacity):
    with pytest.raises(ValueError, match="capacity must be finite and positive"):
        uub(3, capacity, 0.5, riesz(1))
    with pytest.raises(ValueError, match="capacity must be finite and positive"):
        design_uub(3, capacity, 0.5, 3, riesz(1))


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
    g = report.certificate
    assert_allclose(g(nodes), potential_eval(riesz(1), nodes), atol=1e-9)


def test_uub_override_reports_hypothesis():
    report = uub(3, qp_capacity(3), 1 / math.sqrt(3), newton(3), m_override=5)
    assert report.m == 5
    assert not report.diagnostic("n1_interval_hypothesis").ok
    assert not report.diagnostic("s_within_validity").ok
    assert report.feasible  # certificate itself is still valid
    assert report.value == pytest.approx(0.7357, abs=1e-4)


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
    alt = report.certificate.coeffs[0] - report.certificate.value_at_one() / PENTAKIS_CAPACITY
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
        g_t = hermite_interpolant(h, hermite_operator(uub_nodes(rule.nodes, rule.eps), n), n).gegenbauer
        assert report.certificate == g_t
        assert report.lambda_star == 0.0
        g0, g1 = g_t.coeffs[0], g_t.value_at_one()
        assert report.value == g0 - g1 / capacity
        rule_sum = math.fsum(w * potential_eval(h, a) for a, w in zip(rule.nodes, rule.weights))
        rule_form = (capacity - report.n1) * g1 / (capacity * report.n1) + rule_sum
        assert report.value == pytest.approx(rule_form, rel=1e-12)
    # at degree 1 the Levenshtein correction vanishes, so uub is the same bound
    lo, hi = validity_interval(3, 1)
    s = 0.5 * (lo + hi)
    full, design = uub(3, 10.0, s, riesz(2)), design_uub(3, 10.0, s, 1, riesz(2))
    assert full.lambda_star == 0.0
    assert full.value == design.value
    assert full.certificate.coeffs == design.certificate.coeffs + (0.0,)


def test_design_uub_at_most_uub():
    full = uub(3, PENTAKIS_CAPACITY, PENTAKIS_S, riesz(1))
    design = design_uub(3, PENTAKIS_CAPACITY, PENTAKIS_S, 9, riesz(1))
    assert design.value <= full.value + 1e-12


def test_vacuous_capacity_flagged():
    # N_1 below N_W: no code realizes the pair, and the report says so
    report = uub(3, 20.0, 0.3, riesz(1))
    assert report.n1 < 20.0
    assert not report.diagnostic("capacity_consistency").ok
    good = uub(3, PENTAKIS_CAPACITY, PENTAKIS_S, riesz(1))
    assert good.diagnostic("capacity_consistency").ok


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
    grid = setup.certificate.grid
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[0] = 0.0
    assert np.array_equal(grid, dominance_grid(-1.0, 0.999, setup.rule.nodes))


def test_ulb_memo_builds_one_operator_per_rule(monkeypatch):
    from spherelp import hermite

    calls = []
    build = hermite.hermite_operator

    def counting_build(nodes, n, *values):
        calls.append(n)
        return build(nodes, n, *values)

    monkeypatch.setattr(bounds, "hermite_operator", counting_build)
    monkeypatch.setattr(hermite, "hermite_operator", counting_build)
    bounds._ulb_setup.cache_clear()
    for h in (riesz(1), riesz(2), gaussian(1), logarithmic(), fejes_toth()):
        ulb(4, 24.0, h)
    design_ulb(4, 24.0, 5, newton(4))
    assert calls == [4]
    setup = bounds._ulb_setup(4, 24.0)
    certificate, op = setup.certificate, setup.certificate.operator
    for array in (certificate.table, op.points, op.doubled, op.matrix, op.row_scale, op.lu, op.pivots):
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        certificate.table[0, 0] = 0.0
    assert np.array_equal(certificate.table, gegenbauer_table(4, setup.rule.m, certificate.grid))


def test_ulb_n2_degree_24_is_feasible():
    # the highest degree in the smallest dimension, where round-off in the
    # interpolant comes closest to the 1e-9 gates
    report = ulb(2, 25.5, riesz(1))
    assert report.m == 24 and report.feasible
    assert report.diagnostic("interpolation").value <= 1e-13
