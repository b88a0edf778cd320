import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import clenshaw
from spherelp.bounds import ULB_INTERVAL, design_uub, ulb, uub
from spherelp.hermite import (
    dominance_grid,
    hermite_interpolant,
    hermite_jet,
    hermite_operator,
    interpolation_residual,
    verify_dominance,
)
from spherelp.orthopoly import GegenbauerSeries, gegenbauer_table
from spherelp.potentials import (
    fejes_toth,
    gaussian,
    logarithmic,
    newton,
    potential_derivative,
    potential_eval,
    riesz,
)
from spherelp.quadrature import dgs_bound, levenshtein_polynomial, solve_ulb_rule, validity_interval

PENTAKIS_CAPACITY = 735 / 23
ALL = slice(0, None)  # every node doubled


def _doubled(rule, upper):
    """The nodes where a bound's certificate matches h': all but -1 for lower
    bounds, also all but s for upper bounds."""
    return slice(rule.eps, -1 if upper else None)


def _operator(points, doubled, n):
    """The Hermite operator on ``points``, its value rows from a fresh node table."""
    points = np.asarray(points, dtype=float)
    return hermite_operator(points, doubled, n, gegenbauer_table(n, points.size + points[doubled].size - 1, points))


def _solve(h, op):
    """The interpolant's coefficients on the operator and their node residual."""
    jet = hermite_jet(h, op)
    coeffs = hermite_interpolant(op, jet)
    return coeffs, interpolation_residual(op, coeffs, jet)


def _interpolant(h, points, doubled, n):
    return _solve(h, _operator(points, doubled, n))


def _dominance(coeffs, h, direction, lo, hi, nodes=()):
    """verify_dominance in dimension 3 on a freshly built grid and its table in one piece."""
    grid = dominance_grid(lo, hi, nodes)
    return verify_dominance(coeffs, h, direction, grid, (gegenbauer_table(3, coeffs.size - 1, grid),))


def test_constant_potential_reproduced_exactly():
    # a polynomial h of degree <= total-1 is its own interpolant
    h = newton(2)
    coeffs, residual = _interpolant(h, (-0.7, -0.1, 0.6), ALL, 3)
    assert_allclose(coeffs, (1.0, 0.0, 0.0, 0.0, 0.0, 0.0), atol=1e-12)
    assert residual < 1e-12


def test_single_doubled_node_is_tangent_line():
    h = riesz(1)
    a = -0.25
    coeffs, _ = _interpolant(h, (a,), ALL, 3)
    want = (
        potential_eval(h, a) - a * potential_derivative(h, a),
        potential_derivative(h, a),
    )
    # c_0 + c_1 t is c_0 P_0 + c_1 P_1 in every dimension
    assert_allclose(coeffs, want, rtol=1e-13)


def test_uub_degree_two_closed_form():
    # simple nodes {-1, s}: the secant line through the endpoints
    h = gaussian(1.5)
    s = 0.35
    coeffs, _ = _interpolant(h, (-1.0, s), slice(1, -1), 4)
    hs, hm = potential_eval(h, s), potential_eval(h, -1.0)
    want = ((hs + s * hm) / (1 + s), (hs - hm) / (1 + s))
    assert_allclose(coeffs, want, rtol=1e-12)


def test_interpolation_conditions_on_rule_nodes():
    rule = solve_ulb_rule(3, PENTAKIS_CAPACITY)
    for h in (riesz(1), gaussian(2.0), logarithmic(), fejes_toth()):
        coeffs, residual = _interpolant(h, rule.nodes, _doubled(rule, False), 3)
        assert coeffs.size - 1 <= rule.m
        assert residual < 1e-10


@pytest.mark.parametrize("h", [riesz(1), riesz(3), gaussian(1.0), logarithmic()], ids=lambda h: h.label())
@pytest.mark.parametrize("n,capacity", [(3, 20.0), (4, 24.0), (8, 50.0), (3, PENTAKIS_CAPACITY)])
def test_ulb_interpolant_positive_definite(h, n, capacity):
    rule = solve_ulb_rule(n, capacity)
    coeffs, _ = _interpolant(h, rule.nodes, _doubled(rule, False), n)
    assert np.min(coeffs[1:]) >= -1e-9


def test_dominance_below_for_table_rule():
    rule = solve_ulb_rule(3, PENTAKIS_CAPACITY)
    coeffs, _ = _interpolant(riesz(1), rule.nodes, _doubled(rule, False), 3)
    ok, violation = _dominance(coeffs, riesz(1), "below", -1.0, 0.999, rule.nodes)
    assert ok and violation <= 1e-9


def _lifted(coeffs, j, amount):
    coeffs = coeffs.copy()
    coeffs[j] += amount
    return coeffs


def _clenshaw_violation(series, h, direction, grid):
    diff = potential_eval(h, grid) - clenshaw(series, grid)
    return max(0.0, -float(np.min(diff)) if direction == "below" else float(np.max(diff)))


@pytest.mark.parametrize("h", [riesz(1), gaussian(1.0), logarithmic()], ids=lambda h: h.label())
def test_dominance_on_a_tabulated_grid_matches_clenshaw(h):
    # each bound's recorded violation, one product with its grid's table,
    # against Clenshaw on the same grid: below h on ULB_INTERVAL for ulb,
    # above h on [-1, s] for uub and design_uub
    for n, m in itertools.product((2, 3, 4, 5, 8, 12), (1, 2, 3, 5, 8, 12, 17, 21, 24, 25)):
        lo, hi = dgs_bound(n, m), dgs_bound(n, m + 1)
        s = sum(validity_interval(n, m)) / 2
        for report, name, interval in (
            (ulb(n, (lo + hi) / 2, h), "dominance_below", ULB_INTERVAL),
            (uub(n, 10.0, s, h), "dominance_above", (-1.0, s)),
            (design_uub(n, 10.0, s, m, h), "dominance_above", (-1.0, s)),
        ):
            check = report.diagnostic(name)
            grid = dominance_grid(*interval, report.rule.nodes)
            ref = _clenshaw_violation(report.certificate, h, name.split("_")[1], grid)
            assert abs(check.value - ref) <= 1e-11, (report.kind, n, m, check.value, ref)
            assert check.ok == (ref <= 1e-9)
            if report.kind == "uub":  # g_T - lambda* f at the nodes, read from the node table
                nodes = np.asarray(report.rule.nodes)
                touch = float(np.max(np.abs(clenshaw(report.certificate, nodes) - potential_eval(h, nodes))))
                assert abs(report.diagnostic("nodes_touch").value - touch) <= 1e-11


def test_dominance_zero_for_exact_match():
    h = newton(2)
    coeffs, _ = _interpolant(h, (-0.5, 0.2), ALL, 3)
    ok, violation = _dominance(coeffs, h, "below", -1.0, 0.999)
    assert ok and violation == 0.0


def test_dominance_negative_control():
    rule = solve_ulb_rule(3, PENTAKIS_CAPACITY)
    coeffs, _ = _interpolant(riesz(1), rule.nodes, _doubled(rule, False), 3)
    broken = _lifted(coeffs, 0, 1e-3)  # the certificate touches h at the nodes
    ok, violation = _dominance(broken, riesz(1), "below", -1.0, 0.999, rule.nodes)
    assert not ok and violation > 1e-9
    grid = dominance_grid(*ULB_INTERVAL, rule.nodes)
    table = gegenbauer_table(3, rule.m + 2, grid)  # rows past the degree are ignored
    lifted = verify_dominance(_lifted(coeffs, 0, 1e-6), riesz(1), "below", grid, (table,))[1]
    assert lifted == pytest.approx(1e-6, rel=1e-6)


@pytest.mark.parametrize("direction", ["below", "above"])
def test_a_nan_in_the_difference_fails_dominance(direction):
    h = newton(2)
    coeffs, _ = _interpolant(h, (-0.5, 0.2), ALL, 3)
    grid = dominance_grid(-1.0, 0.999, ())
    table = gegenbauer_table(3, coeffs.size - 1, grid)
    assert _dominance(coeffs, h, direction, -1.0, 0.999) == (True, 0.0)
    table[1, 1234] = np.nan  # f, and so h - f, is NaN at one grid point
    ok, violation = verify_dominance(coeffs, h, direction, grid, (table,))
    assert not ok and np.isnan(violation)
    # an all-NaN certificate, as riesz:10000 gives at n = 3 and capacity 20
    ok, violation = verify_dominance(np.full(coeffs.size, np.nan), h, direction, grid, (table,))
    assert not ok and np.isnan(violation)


def test_dominance_pieces_must_cover_the_grid():
    coeffs, _ = _interpolant(riesz(1), (0.0,), ALL, 3)
    grid = dominance_grid(-1.0, 0.5, ())
    table = gegenbauer_table(3, coeffs.size - 1, grid)
    for pieces in ((table[:, :4000],), (table[:, :100], table[:, 200:])):
        with pytest.raises(ValueError, match="cover"):
            verify_dominance(coeffs, riesz(1), "below", grid, pieces)


def test_dominance_direction_must_be_below_or_above():
    with pytest.raises(ValueError, match="direction must be 'below' or 'above'"):
        _dominance(_interpolant(riesz(1), (0.0,), ALL, 3)[0], riesz(1), "sideways", -1.0, 0.5)


def _dominance_grid_loop(lo, hi, nodes, points=4001):
    """Reference: one refinement per node, as the grid was first built."""
    grid = [np.linspace(lo, hi, points)]
    for a in nodes:
        local = a + np.linspace(-1e-3, 1e-3, 81)
        grid.append(np.clip(local, lo, hi))
    return np.unique(np.concatenate(grid))


@pytest.mark.parametrize(
    "lo,hi,nodes",
    [
        (-1.0, 0.5, ()),
        (-1.0, 0.5, (-1.0, -0.9995, 0.1, 0.4996, 0.5)),
        (*ULB_INTERVAL, solve_ulb_rule(3, PENTAKIS_CAPACITY).nodes),
        (*ULB_INTERVAL, (-1.0,) + solve_ulb_rule(5, 40.0).nodes[1:] + (0.9985,)),
    ],
    ids=["empty", "near-ends", "table-rule", "ulb-interval-ends"],
)
def test_dominance_grid_matches_per_node_loop(lo, hi, nodes):
    # the grid is neither sorted nor deduplicated; as a set it is the loop's
    grid = np.unique(dominance_grid(lo, hi, nodes))
    ref = _dominance_grid_loop(lo, hi, nodes)
    assert grid.dtype == ref.dtype and grid.tobytes() == ref.tobytes()


def test_dominance_grid_equals_np_unique_on_seeded_nodes():
    # clustered nodes, nodes on the ends and exact repeats make overlapping
    # refinements with duplicate points, which the grid keeps
    rng = np.random.default_rng(67)
    for _ in range(200):
        lo = float(rng.choice([-1.0, rng.uniform(-1.0, 0.0)]))
        hi = float(rng.choice([ULB_INTERVAL[1], rng.uniform(0.0, 1.0)]))
        nodes = rng.uniform(lo, hi, int(rng.integers(0, 14)))
        nodes = np.concatenate((nodes, nodes[:2] + rng.uniform(-1e-3, 1e-3, nodes[:2].size), [lo, hi][: rng.integers(3)]))
        nodes = np.sort(np.clip(nodes, lo, hi))
        local = np.clip(nodes[:, None] + np.linspace(-1e-3, 1e-3, 81), lo, hi)
        want = np.unique(np.concatenate((np.linspace(lo, hi, 4001), local.ravel())))
        assert np.unique(dominance_grid(lo, hi, nodes)).tobytes() == want.tobytes()


def test_dominance_grid_equals_the_linspace_expression_bytewise():
    # the grid is written in place with linspace's own arithmetic, so it is the
    # concatenated linspace expression to the bit, also on an empty interval
    rng = np.random.default_rng(28)
    cases = [(-1.0, -1.0, np.array([-1.0])), (-1.0, -1.0, np.empty(0)), (0.25, 0.25, np.array([0.25, 0.25]))]
    for _ in range(300):
        lo = float(rng.choice([-1.0, rng.uniform(-1.0, 1.0)]))
        hi = float(rng.choice([lo, ULB_INTERVAL[1], rng.uniform(lo, 1.0)]))
        cases.append((lo, hi, np.sort(rng.uniform(lo, hi, int(rng.integers(0, 14))))))
    for lo, hi, nodes in cases:
        want = np.concatenate(
            (np.linspace(lo, hi, 4001), np.clip(nodes[:, None] + np.linspace(-1e-3, 1e-3, 81), lo, hi).ravel())
        )
        grid = dominance_grid(lo, hi, nodes)
        assert grid.dtype == want.dtype and grid.shape == want.shape and grid.tobytes() == want.tobytes(), (lo, hi)


def _node_residual_loop(h, points, doubled, n, c):
    """Reference: the interpolation defect of the coefficients c with one
    evaluation per node, slopes from P_j' = j (j + n - 2) / (n - 1) P_{j-1}
    of dimension n + 2."""
    series = GegenbauerSeries(n, c)
    pts = np.array(points)
    hvals = potential_eval(h, pts)
    scale = max(1.0, float(np.max(np.abs(hvals))))
    residual = max(abs(float(clenshaw(series, a)) - float(potential_eval(h, a))) for a in pts) / scale
    j = np.arange(1, c.size)
    for a in pts[doubled]:
        slope = float(c[1:] @ (j * (j + n - 2) / (n - 1) * gegenbauer_table(n + 2, c.size - 2, a)))
        residual = max(residual, abs(slope - float(potential_derivative(h, a))) / scale)
    return residual


@pytest.mark.parametrize("h", [riesz(1), gaussian(1.0), logarithmic()], ids=lambda h: h.label())
def test_node_residual_matches_per_node_loop(h):
    for m in range(1, 21):
        lo, hi = validity_interval(4, m)
        rule = levenshtein_polynomial(4, m, 0.5 * (lo + hi))
        for doubled in (_doubled(rule, False), _doubled(rule, True)):
            coeffs, residual = _interpolant(h, rule.nodes, doubled, 4)
            # both are round-off: the system residual and the per-node evaluation
            assert residual <= 1e-14
            assert abs(residual - _node_residual_loop(h, rule.nodes, doubled, 4, coeffs)) <= 1e-14


@pytest.mark.parametrize("n", [2, 3, 8, 30])
def test_gegenbauer_derivative_identity(n):
    # P_j' = j (j + n - 2) / (n - 1) P_{j-1} of dimension n + 2, the rows of
    # the Hermite system, against scipy's unnormalised families
    from scipy import special

    t = np.linspace(-1.0, 1.0, 41)
    higher = gegenbauer_table(n + 2, 24, t)
    for j in range(1, 26):
        got = j * (j + n - 2) / (n - 1) * higher[j - 1]
        if n == 2:  # P_j = T_j and T_j' = j U_{j-1}
            want = j * special.eval_chebyu(j - 1, t)
        else:  # P_j = C_j^lam / C_j^lam(1) and (C_j^lam)' = 2 lam C_{j-1}^{lam+1}
            lam = (n - 2) / 2
            want = 2 * lam * special.eval_gegenbauer(j - 1, lam + 1, t) / special.eval_gegenbauer(j, lam, 1.0)
        assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


def _mp_hermite_rows(mpmath, n, points, doubled):
    """Rows P_j and P_j' at the nodes, from the three-term recurrence and its
    derivative in extended precision (not from the identity under test)."""
    d = len(points) + len(points[doubled]) - 1
    values, slopes = [], []
    for a in points:
        t = mpmath.mpf(a)
        p, dp = [mpmath.mpf(1), t], [mpmath.mpf(0), mpmath.mpf(1)]
        for i in range(1, d):
            p.append(((2 * i + n - 2) * t * p[i] - i * p[i - 1]) / (i + n - 2))
            dp.append(((2 * i + n - 2) * (p[i] + t * dp[i]) - i * dp[i - 1]) / (i + n - 2))
        values.append(p[: d + 1])
        slopes.append(dp[: d + 1])
    return values + slopes[doubled]


# n = 30 sits at the floor set by rounding the jet to double: a 50-digit solve
# of the double-rounded jet is itself off by 2.1e-9 (m = 20) and 6.9e-8
# (m = 25) on these cases
HERMITE_RTOL = {2: 1e-10, 3: 1e-10, 8: 1e-10, 30: 1e-7}


@pytest.mark.parametrize("n", sorted(HERMITE_RTOL))
def test_hermite_coefficients_match_extended_precision_reference(n):
    mpmath = pytest.importorskip("mpmath")
    jets = {
        riesz(1): (lambda t: (2 * (1 - t)) ** mpmath.mpf(-0.5), lambda t: (2 * (1 - t)) ** mpmath.mpf(-1.5)),
        gaussian(1): (lambda t: mpmath.exp(t - 1), lambda t: mpmath.exp(t - 1)),
    }
    with mpmath.workdps(50):
        for m in (5, 12, 20, 25):
            lo, hi = validity_interval(n, m)
            for frac in (0.05, 0.95):
                rule = levenshtein_polynomial(n, m, lo + frac * (hi - lo))
                for doubled in (_doubled(rule, False), _doubled(rule, True)):
                    rows = mpmath.matrix(_mp_hermite_rows(mpmath, n, rule.nodes, doubled))
                    nodes = [mpmath.mpf(a) for a in rule.nodes]
                    for h, (f, df) in jets.items():
                        jet = mpmath.matrix([f(a) for a in nodes] + [df(a) for a in nodes[doubled]])
                        ref = np.array([float(c) for c in mpmath.lu_solve(rows, jet)])
                        got = _interpolant(h, rule.nodes, doubled, n)[0]
                        error = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
                        assert error <= HERMITE_RTOL[n], (m, frac, h.label(), error)


def test_defect_is_the_residual_of_the_system():
    from dataclasses import replace

    rule = solve_ulb_rule(4, 24.0)
    op = _operator(rule.nodes, _doubled(rule, False), 4)
    assert _solve(riesz(1), op)[1] <= 1e-14
    # coefficients solved on the factors but checked against a matrix off by 1e-6
    off = replace(op, matrix=op.matrix + 1e-6)
    assert _solve(riesz(1), off)[1] > 1e-7


def test_singular_system_raises_a_named_error():
    from dataclasses import replace

    rule = solve_ulb_rule(4, 24.0)
    op = _operator(rule.nodes, _doubled(rule, False), 4)
    # two equal rows: the solve finds an exact zero pivot
    scaled = op.scaled.copy()
    scaled[1] = scaled[0]
    with pytest.raises(ValueError) as info:
        _solve(riesz(1), replace(op, scaled=scaled))
    assert str(info.value) == f"singular Hermite system on nodes {[float(a) for a in rule.nodes]}"


def test_operator_is_read_only_and_matches_a_fresh_build():
    rule = solve_ulb_rule(3, PENTAKIS_CAPACITY)
    doubled = _doubled(rule, False)
    op = _operator(rule.nodes, doubled, 3)
    total = len(rule.nodes) + len(rule.nodes[doubled])
    assert op.matrix.shape == (total, total)
    for array in (op.points, op.doubled, op.matrix, op.row_scale, op.scaled):
        assert not array.flags.writeable
    for h in (riesz(1), gaussian(2.0), logarithmic()):
        (coeffs, residual), (fresh, fresh_residual) = _solve(h, op), _interpolant(h, rule.nodes, doubled, 3)
        assert coeffs.tobytes() == fresh.tobytes() and residual == fresh_residual


@pytest.mark.parametrize("n", [2, 3, 5, 8, 30])
def test_operator_matrix_keeps_the_vstack_layout(n):
    # interpolation_residual's matrix @ coeffs rounds according to the
    # matrix's memory layout, so moving from np.vstack's layout (to C or F
    # order, say) would move the interpolation residual of some reports
    rng = np.random.default_rng(n)
    for m in (1, 2, 3, 8, 13, 20):
        lo, hi = validity_interval(n, m)
        for upper in (False, True):
            if upper:
                rule = levenshtein_polynomial(n, m, lo + rng.uniform(0.1, 0.9) * (hi - lo))
            else:
                rule = solve_ulb_rule(n, dgs_bound(n, m) + rng.uniform(0.1, 0.9) * (dgs_bound(n, m + 1) - dgs_bound(n, m)))
            doubled = _doubled(rule, upper)
            op = hermite_operator(rule.nodes, doubled, n, rule.table)
            size = op.points.size + op.doubled.size
            ref = np.vstack((rule.table[:size].T, np.zeros((op.doubled.size, size))))
            assert op.matrix.shape == ref.shape and op.matrix.strides == ref.strides, (m, upper)
