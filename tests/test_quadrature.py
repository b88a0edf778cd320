import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import clenshaw
from spherelp.orthopoly import GegenbauerSeries, gegenbauer_table, value_at_one
from spherelp.quadrature import (
    MAX_RULE_DEGREE,
    QuadratureError,
    _brent_root,
    compute_weights,
    dgs_bound,
    exactness_residuals,
    levenshtein_coefficients,
    levenshtein_function,
    levenshtein_polynomial,
    select_degree_from_capacity,
    select_degree_from_s,
    solve_ulb_rule,
    split_degree,
    validity_interval,
)

PENTAKIS_CAPACITY = 735 / 23

# reference parameters for (3, 735/23); printed values truncated at 4 decimals
TABLE2_NODES = (-0.9412, -0.6741, -0.2109, 0.3281, 0.7793)
TABLE2_WEIGHTS = (0.0771, 0.1889, 0.2636, 0.2612, 0.1777)


def test_dgs_examples():
    assert dgs_bound(3, 9) == 30
    assert dgs_bound(3, 10) == 36
    assert dgs_bound(3, 5) == 12
    for n in (2, 3, 7):
        assert dgs_bound(n, 1) == 2
        assert dgs_bound(n, 2) == n + 1


def test_select_degree_from_capacity():
    assert select_degree_from_capacity(3, PENTAKIS_CAPACITY) == 9
    assert select_degree_from_capacity(3, 13.95) == 5
    # right-closed interval boundary
    for n, m in [(3, 4), (4, 7), (5, 3)]:
        boundary = dgs_bound(n, m + 1)
        assert select_degree_from_capacity(n, float(boundary)) == m
        assert select_degree_from_capacity(n, boundary + 1e-9) == m + 1


@pytest.mark.parametrize("capacity", [float("nan"), 1.0, 0.5, -3.0])
def test_select_degree_rejects_capacity_not_above_one(capacity):
    with pytest.raises(ValueError, match="capacity must exceed 1"):
        select_degree_from_capacity(3, capacity)


def test_levenshtein_low_degree_closed_forms():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        lo1, hi1 = validity_interval(n, 1)
        s = float(rng.uniform(lo1, hi1))
        assert levenshtein_function(n, 1, s) == pytest.approx((s - 1) / s, rel=1e-12)
        lo2, hi2 = validity_interval(n, 2)
        s = float(rng.uniform(lo2, hi2))
        assert levenshtein_function(n, 2, s) == pytest.approx(
            2 * n * (1 - s) / (1 - n * s), rel=1e-12
        )


def test_levenshtein_table_value():
    assert levenshtein_function(3, 5, 1 / math.sqrt(3)) == pytest.approx(
        16.098, abs=5e-4
    )


def test_levenshtein_validity_gate():
    # outside its validity interval L_2 is still the closed-form expression
    for n in (2, 3, 5, 8):
        s = validity_interval(n, 2)[1] + 1e-3
        assert levenshtein_function(n, 2, s) == pytest.approx(2 * n * (1 - s) / (1 - n * s), rel=1e-12)


def _levenshtein_from_table(n, m, s):
    """L_m(n, s) with P_0..P_{k+eps} at s read from gegenbauer_table."""
    k, eps = split_degree(m)
    table = gegenbauer_table(n, k + eps, s)
    pk, pke, pkm = (float(table[i]) for i in (k, k + eps, k - 1 + eps))
    num = (1 + s) ** eps * (pkm - pke)
    den = (1 - s) * (eps * pk + pke)
    return float(math.comb(k + n - 3 + eps, n - 2) * ((2 * k + n - 3 + 2 * eps) / (n - 1) - num / den))


def test_levenshtein_function_equals_the_table_formula():
    # the float recurrence is gegenbauer_table's, operation for operation, so
    # the values agree to the bit, at the ends of each validity interval too
    rng = np.random.default_rng(22)
    for _ in range(300):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(1, MAX_RULE_DEGREE + 1))
        lo, hi = validity_interval(n, m)
        for s in (lo, hi, float(rng.uniform(lo, hi))):
            assert levenshtein_function(n, m, s) == _levenshtein_from_table(n, m, s), (n, m, s)


def test_validity_intervals_tile():
    # adjacent intervals take their shared endpoint from the same Jacobi
    # matrix, so they agree bit for bit
    for n in range(2, 60):
        prev_hi = -1.0
        for m in range(1, MAX_RULE_DEGREE + 1):
            lo, hi = validity_interval(n, m)
            assert lo == prev_hi, (n, m)
            assert hi > lo
            prev_hi = hi


def test_degree_one_interval_endpoints():
    # [t_0^{1,1}, t_1^{1,0}] = [-1, -1/n]
    for n in (2, 3, 4, 10):
        lo, hi = validity_interval(n, 1)
        assert lo == -1.0
        assert hi == pytest.approx(-1 / n, abs=1e-13)
        lo2, hi2 = validity_interval(n, 2)
        assert hi2 == pytest.approx(0.0, abs=1e-13)


def _mp_jacobi(mpmath, alpha, beta, j, t):
    """P_0(t), ..., P_j(t) of the Jacobi family (alpha, beta), and P_j'(t), by
    the classical three-term recurrence (DLMF 18.9.1) in the working precision."""
    p = [mpmath.mpf(1), (alpha + 1) + (alpha + beta + 2) * (t - 1) / 2]
    dp = [mpmath.mpf(0), (alpha + beta + 2) / 2]
    for i in range(2, j + 1):
        s = 2 * i + alpha + beta
        c0 = 2 * i * (i + alpha + beta) * (s - 2)
        c1 = (s - 1) * (alpha**2 - beta**2)
        c2 = (s - 1) * s * (s - 2)
        c3 = 2 * (i + alpha - 1) * (i + beta - 1) * s
        dp.append(((c2 * t + c1) * dp[i - 1] + c2 * p[i - 1] - c3 * dp[i - 2]) / c0)
        p.append(((c2 * t + c1) * p[i - 1] - c3 * p[i - 2]) / c0)
    return p[: j + 1], dp[j]


def _mp_largest_zero(mpmath, n, b, j, start):
    """Largest zero of the degree-j (1, b) adjacent Jacobi polynomial: Newton
    from ``start``, then a Sturm count (sign changes of P_0..P_j, which equal
    the number of zeros of P_j above a point) on either side of the root."""
    alpha, beta = 1 + mpmath.mpf(n - 3) / 2, b + mpmath.mpf(n - 3) / 2
    t = mpmath.mpf(start)
    for _ in range(50):
        p, dp = _mp_jacobi(mpmath, alpha, beta, j, t)
        t -= p[j] / dp
        if abs(p[j] / dp) < mpmath.mpf("1e-45"):
            break

    def zeros_above(x):
        p = _mp_jacobi(mpmath, alpha, beta, j, x)[0]
        return sum(1 for u, v in zip(p, p[1:]) if u * v < 0)

    tiny = mpmath.mpf("1e-40")
    assert (zeros_above(t - tiny), zeros_above(t + tiny)) == (1, 0), (n, b, j, start)
    return t


@pytest.mark.parametrize("n", [2, 3, 4, 8, 30])
def test_validity_interval_endpoints_match_extended_precision_reference(n):
    # [t_{k-1+eps}^{1,1-eps}, t_k^{1,eps}] are top eigenvalues of Jacobi
    # matrices; each must be the largest zero of its polynomial to 2e-15
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for m in range(1, 26):
            k, eps = split_degree(m)
            lo, hi = validity_interval(n, m)
            for (b, j), end in (((1 - eps, k - 1 + eps), lo), ((eps, k), hi)):
                if j == 0:
                    assert end == -1.0  # t_0^{1,1} = -1 by convention
                    continue
                ref = _mp_largest_zero(mpmath, n, b, j, end)
                assert abs(ref - end) <= 2e-15, (m, b, j, end, float(ref))


def test_select_degree_from_s():
    assert select_degree_from_s(4, -1.0) == 1
    # t_1^{1,1} = 0 is shared by degrees 2 and 3; ties go down
    assert select_degree_from_s(4, 0.0) == 2
    # the reference table lists degree 5 here, which its own N_1 violates;
    # selection by validity interval lands one degree higher
    assert select_degree_from_s(3, 1 / math.sqrt(3)) == 6


def test_table2_rule():
    rule = solve_ulb_rule(3, PENTAKIS_CAPACITY)
    assert (rule.m, rule.eps, len(rule.nodes)) == (9, 0, 5)
    assert_allclose(rule.nodes, TABLE2_NODES, atol=1e-4)
    assert_allclose(rule.weights, TABLE2_WEIGHTS, atol=1e-4)
    assert sum(rule.weights) == pytest.approx(1 - 1 / PENTAKIS_CAPACITY, abs=1e-10)


def test_degree_one_rule_closed_form():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        capacity = float(rng.uniform(2.05, n + 1))
        rule = solve_ulb_rule(n, capacity)
        assert rule.m == 1
        assert rule.nodes[0] == pytest.approx(-1 / (capacity - 1), abs=1e-10)
        assert rule.weights[0] == pytest.approx((capacity - 1) / capacity, abs=1e-10)


def test_degree_two_rule_closed_form():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        capacity = float(rng.uniform(n + 1 + 1e-6, 2 * n))
        rule = solve_ulb_rule(n, capacity)
        assert rule.m == 2 and rule.eps == 1
        alpha1 = -(2 * n - capacity) / (n * (capacity - 2))
        rho0 = (capacity - n - 1) / ((n + 1) * capacity - 4 * n)
        rho1 = n * (capacity - 2) ** 2 / (capacity * ((n + 1) * capacity - 4 * n))
        assert rule.nodes[0] == -1.0
        assert rule.nodes[1] == pytest.approx(alpha1, abs=1e-11)
        assert rule.weights[0] == pytest.approx(rho0, abs=1e-11)
        assert rule.weights[1] == pytest.approx(rho1, abs=1e-11)


def test_three_node_weights_closed_form():
    # explicit rho_0, rho_1 for odd m = 5 rules, plus the sum relation
    for n in (3, 4, 5, 6):
        capacity = n * (n + 2) ** 2 * 2**n / (n**3 + 2 ** (n + 1))
        rule = solve_ulb_rule(n, capacity)
        assert rule.m == 5
        a0, a1, a2 = rule.nodes
        n_w = rule.capacity
        rho0 = -(1 - a1**2) * (1 - a2**2) / (a0 * n_w * (a0**2 - a1**2) * (a0**2 - a2**2))
        rho1 = -(1 - a0**2) * (1 - a2**2) / (a1 * n_w * (a1**2 - a0**2) * (a1**2 - a2**2))
        assert rule.weights[0] == pytest.approx(rho0, rel=1e-9)
        assert rule.weights[1] == pytest.approx(rho1, rel=1e-9)
        assert sum(rule.weights) == pytest.approx(1 - 1 / n_w, abs=1e-10)


def test_boundary_capacity_s_is_jacobi_zero():
    # capacity exactly D(n, m+1) puts s at the right endpoint of the interval
    rule = solve_ulb_rule(2, 8.0)
    assert rule.m == 6 and rule.eps == 1
    assert_allclose(rule.nodes, (-1.0, -math.sqrt(2) / 2, 0.0, math.sqrt(2) / 2), atol=1e-12)
    assert_allclose(rule.weights, (0.125, 0.25, 0.25, 0.25), atol=1e-12)


def test_exactness_random_rules():
    rng = np.random.default_rng(10)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        capacity = float(rng.uniform(2.05, dgs_bound(n, 11)))
        rule = solve_ulb_rule(n, capacity)
        table = gegenbauer_table(n, rule.m, np.asarray(rule.nodes))
        res = exactness_residuals(table, rule.weights, rule.capacity)
        assert np.max(np.abs(res)) < 1e-9
        assert abs(sum(rule.weights) - (1 - 1 / capacity)) < 1e-10
        assert (rule.nodes[0] == -1.0) == (rule.eps == 1)


def test_all_nodes_solve_the_capacity_equation():
    # every node of the rule satisfies L_m(n, alpha_i) = N_W
    rule = solve_ulb_rule(3, PENTAKIS_CAPACITY)
    for a in rule.nodes:
        assert levenshtein_function(3, rule.m, a) == pytest.approx(
            rule.capacity, rel=1e-9
        )


def test_node_monotonicity_in_capacity():
    for n, lo, hi in [(3, 31.0, 34.0), (4, 21.0, 27.0), (5, 31.0, 49.0)]:
        small = solve_ulb_rule(n, lo)
        large = solve_ulb_rule(n, hi)
        assert small.m == large.m and small.eps == 0
        assert all(b > a for a, b in zip(small.nodes, large.nodes))
    # even degree: the node at -1 is pinned, the rest still move right
    small = solve_ulb_rule(3, 17.0)
    large = solve_ulb_rule(3, 19.5)
    assert small.m == large.m and small.eps == 1
    assert small.nodes[0] == large.nodes[0] == -1.0
    assert all(b > a for a, b in zip(small.nodes[1:], large.nodes[1:]))


def test_round_trip_capacity():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        capacity = float(rng.uniform(2.1, dgs_bound(n, 11)))
        rule = solve_ulb_rule(n, capacity)
        back = levenshtein_function(n, rule.m, rule.s)
        assert back == pytest.approx(capacity, rel=1e-9)


def test_capacity_guard():
    with pytest.raises(ValueError):
        solve_ulb_rule(3, 2.0)


def _brent_cases():
    """(n, m, capacity): 1600 seeded draws over n < 41, m <= 25, half of them
    1e-15 to 1e-1 relative inside an end of (D(n, m), D(n, m+1)], and a
    grid of capacities 1e-15 to 1e-12 inside both ends for three n."""
    rng = np.random.default_rng(2403)
    for _ in range(1600):
        n, m = int(rng.integers(2, 41)), int(rng.integers(1, MAX_RULE_DEGREE + 1))
        d_lo, d_hi = dgs_bound(n, m), dgs_bound(n, m + 1)
        delta = 10.0 ** -int(rng.integers(1, 16))
        yield n, m, (d_lo * (1 + delta), d_hi * (1 - delta), float(rng.uniform(d_lo, d_hi)))[int(rng.integers(3))]
    for n in (3, 16, 39):
        for m in range(1, MAX_RULE_DEGREE + 1):
            for delta in (1e-15, 1e-14, 1e-12):
                yield n, m, dgs_bound(n, m) * (1 + delta)
                yield n, m, dgs_bound(n, m + 1) * (1 - delta)


def test_brent_root_repeats_scipy_brentq_step_for_step():
    # the capacity solve runs scipy's brentq operation for operation: the
    # same evaluation points in the same order, so the same root to the bit;
    # scipy evaluates both ends itself, the helper takes them from its caller
    from scipy.optimize import brentq

    solved = 0
    for n, m, capacity in _brent_cases():
        lo, hi = validity_interval(n, m)
        points = []

        def f(x):
            points.append(x)
            return levenshtein_function(n, m, x) - capacity

        flo, fhi = f(lo), f(hi)
        if flo >= 0 or fhi <= 0:  # solve_ulb_rule takes an end, no search
            continue
        points.clear()
        root = brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16)
        reference = points.copy()
        points.clear()
        assert _brent_root(f, lo, hi, flo, fhi, n, m, capacity) == root, (n, m, capacity)
        assert reference == [lo, hi] + points, (n, m, capacity)
        if dgs_bound(n, m) * 1.1 < capacity < dgs_bound(n, m + 1) * 0.9:
            assert solve_ulb_rule(n, capacity).s == root
        solved += 1
    assert solved > 1700


def test_brent_root_stops_at_its_iteration_cap():
    # a triple root defeats both interpolation steps: scipy's brentq also
    # gives up after 100 iterations here
    from scipy.optimize import brentq

    def f(x):
        return (x - 0.3) ** 3

    last, info = brentq(f, -1.0, 1.0, xtol=1e-15, rtol=8.9e-16, full_output=True, disp=False)
    assert not info.converged and info.iterations == 100
    with pytest.raises(QuadratureError) as error:
        _brent_root(f, -1.0, 1.0, f(-1.0), f(1.0), 3, 9, 31.25)
    assert str(error.value) == (
        f"Brent's method did not converge in 100 steps for (n=3, m=9, capacity=31.25): last iterate {last:.17g}"
    )
    assert (error.value.stage, error.value.n, error.value.m, error.value.s, error.value.capacity) == ("brent", 3, 9, None, 31.25)


def test_capacity_solve_that_does_not_converge_names_its_inputs(monkeypatch, capsys):
    import spherelp.quadrature as quadrature
    from spherelp.bounds import _ulb_setup
    from spherelp.cli import main

    # the solve's own f = L - N converges within the cap everywhere; a triple
    # root, which both interpolation steps handle badly, reaches it
    brent_root = quadrature._brent_root

    def on_a_triple_root(f, lo, hi, flo, fhi, n, m, capacity):
        def cube(x):
            return (x - (lo + 0.3 * (hi - lo))) ** 3

        return brent_root(cube, lo, hi, cube(lo), cube(hi), n, m, capacity)

    monkeypatch.setattr(quadrature, "_brent_root", on_a_triple_root)
    with pytest.raises(QuadratureError) as info:
        solve_ulb_rule(3, 31.25)
    assert re.fullmatch(
        r"Brent's method did not converge in 100 steps for \(n=3, m=9, capacity=31\.25\): "
        r"last iterate 0\.\d+",
        str(info.value),
    )
    assert (info.value.stage, info.value.n, info.value.m, info.value.s, info.value.capacity) == ("brent", 3, 9, None, 31.25)
    # a RuntimeError, so the CLI reports it as a failed computation
    _ulb_setup.cache_clear()
    assert main(["ulb", "--n", "3", "--capacity", "31.25", "--potential", "riesz:1"]) == 2
    assert "did not converge in 100 steps for (n=3, m=9, capacity=31.25)" in capsys.readouterr().err


def test_levenshtein_polynomial_low_degrees():
    # monic closed forms: degree 1 is (t - s) = -s P_0 + P_1, degree 2 is
    # (t + 1)(t - s) = t^2 + (1 - s) t - s with t^2 = (1 + (n - 1) P_2) / n
    n, s = 4, -0.3
    f = levenshtein_coefficients(levenshtein_polynomial(n, 1, s))
    assert_allclose(f, (-s, 1.0), atol=1e-14)
    lo, hi = validity_interval(n, 2)
    s = 0.5 * (lo + hi)
    f = levenshtein_coefficients(levenshtein_polynomial(n, 2, s))
    assert_allclose(f, (1 / n - s, 1.0 - s, (n - 1) / n), atol=1e-13)


def test_levenshtein_polynomial_pentakis_roots():
    s = math.sqrt(1 + 2 / math.sqrt(5)) / math.sqrt(3)
    rule = levenshtein_polynomial(3, 9, s)
    assert_allclose(rule.nodes, (-0.9247, -0.6213, -0.1493, 0.3703, 0.7946), atol=1e-4)
    assert rule.nodes[-1] == pytest.approx(s, abs=1e-14)


def test_levenshtein_polynomial_invariants():
    rng = np.random.default_rng(14)
    for _ in range(15):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 10))
        lo, hi = validity_interval(n, m)
        s = float(rng.uniform(lo + 0.02 * (hi - lo), hi))
        rule = levenshtein_polynomial(n, m, s)
        coeffs = levenshtein_coefficients(rule)
        assert coeffs.size == m + 1
        assert np.min(coeffs) > 0  # strictly positive away from endpoints
        ratio = value_at_one(coeffs) / coeffs[0]
        assert ratio == pytest.approx(levenshtein_function(n, m, s), rel=1e-9)
        # vanishes at its nodes, nonpositive on [-1, s]
        grid = np.linspace(-1, s, 500)
        f = GegenbauerSeries(n, coeffs)
        assert np.max(clenshaw(f, grid)) <= 1e-9
        assert np.max(np.abs(clenshaw(f, np.asarray(rule.nodes)))) < 1e-9


def test_rule_from_s_matches_capacity_solve():
    # the Levenshtein polynomial's rule at the solved s reproduces the
    # capacity-built rule
    rule = solve_ulb_rule(5, 40.0)
    other = levenshtein_polynomial(5, rule.m, rule.s)
    assert_allclose(other.nodes, rule.nodes, atol=1e-10)
    assert_allclose(other.weights, rule.weights, atol=1e-10)
    assert other.capacity == pytest.approx(40.0, rel=1e-9)


def test_compute_weights_failure_on_bad_nodes():
    # s = 0.6 lies below the degree-7 validity interval of n = 3: the rule
    # with largest node s has a node below -1
    with pytest.raises(QuadratureError):
        compute_weights(3, 7, 0.6, 30.0)


def test_compute_weights_errors_name_inputs(monkeypatch):
    import spherelp.quadrature as quadrature

    rule = solve_ulb_rule(3, 30.0)
    with pytest.raises(QuadratureError) as info:
        compute_weights(3, 9, rule.s, 31.0)
    # 1/31 - 1/30 on every P_j: the largest is whichever round-off favours
    assert re.fullmatch(
        re.escape(f"quadrature exactness failure for (n=3, m=9, s={rule.s:.12g}, capacity=31): ")
        + r"largest residual is -0\.0010752\d+ on P_\d \(tolerance 1e-9\)",
        str(info.value),
    )
    assert (info.value.stage, info.value.n, info.value.m, info.value.s, info.value.capacity) == ("exactness", 3, 9, rule.s, 31.0)

    eigh = quadrature._umath_linalg.eigh_lo

    def vanishing_first_component(matrix, signature):
        nodes, vectors = eigh(matrix, signature=signature)
        vectors[0, 0] = 0.0
        return nodes, vectors

    monkeypatch.setattr(quadrature._umath_linalg, "eigh_lo", vanishing_first_component)
    with pytest.raises(QuadratureError) as info:
        solve_ulb_rule(30, 2947546837)
    message = str(info.value)
    assert message.startswith("nonpositive quadrature weight for (n=30, m=22, s=0.6919")
    assert message.endswith(", capacity=2947546837): weight 0 of 12 is 0")
    assert "[" not in message
    assert (info.value.stage, info.value.n, info.value.m, info.value.capacity) == ("weights", 30, 22, 2947546837)
    assert f"(n=30, m=22, s={info.value.s:.12g}, " in message


def _mp_lagrange_weights(mpmath, n, nodes, capacity):
    """rho_i = [mean(ell_i) - ell_i(1)/N] / ell_i(alpha_i) in 50 digits on the given nodes."""
    with mpmath.workdps(50):
        a = [mpmath.mpf(x) for x in nodes]
        moments = [mpmath.mpf(0) if j % 2 else mpmath.fprod(
            mpmath.mpf(2 * i - 1) / (n + 2 * i - 2) for i in range(1, j // 2 + 1)) for j in range(len(a))]
        weights = []
        for i, ai in enumerate(a):
            others = a[:i] + a[i + 1:]
            coeffs = [mpmath.mpf(1)]
            for r in others:  # multiply by (t - r), lowest power first
                coeffs = [-r * coeffs[0]] + [coeffs[j - 1] - r * coeffs[j] for j in range(1, len(coeffs))] + [coeffs[-1]]
            mean = mpmath.fsum(c * mu for c, mu in zip(coeffs, moments))
            at_one = mpmath.fprod(1 - r for r in others)
            weights.append((mean - at_one / mpmath.mpf(capacity)) / mpmath.fprod(ai - r for r in others))
        return weights


@pytest.mark.parametrize("n", [3, 4, 5, 8, 30])
def test_weights_match_extended_precision_reference(n):
    mpmath = pytest.importorskip("mpmath")
    tol = 1e-11 if n <= 8 else 1e-9
    for m in range(1, 21):
        lo, hi = validity_interval(n, m)
        for frac in (0.05, 0.5, 0.95):
            rule = levenshtein_polynomial(n, m, lo + frac * (hi - lo))
            ref = _mp_lagrange_weights(mpmath, n, rule.nodes, rule.capacity)
            for w, r in zip(rule.weights, ref):
                assert abs(float((w - r) / r)) <= tol, (m, frac)


def test_node_errors_name_inputs(monkeypatch):
    import spherelp.quadrature as quadrature

    # below its validity interval, s is not the largest node of its rule
    with pytest.raises(QuadratureError) as info:
        levenshtein_polynomial(3, 3, -0.9)
    message = str(info.value)
    assert message.startswith("largest node does not match s for (n=3, m=3, s=-0.9, capacity=")
    assert "it is 0.058823529411764" in message and "array" not in message
    assert (info.value.stage, info.value.n, info.value.m, info.value.s) == ("nodes", 3, 3, -0.9)
    assert info.value.capacity == levenshtein_function(3, 3, -0.9)

    # a double eigenvalue at 0.25 stands in for a collapsed rule
    monkeypatch.setattr(quadrature._umath_linalg, "eigh_lo", lambda matrix, signature: (np.array([0.25, 0.25]), np.eye(2)))
    with pytest.raises(QuadratureError) as info:
        levenshtein_polynomial(3, 3, 0.25)
    message = str(info.value)
    assert message.startswith("repeated nodes for (n=3, m=3, s=0.25, capacity=")
    assert "nodes 0 and 1 are " in message and "array" not in message
    assert (info.value.stage, info.value.n, info.value.m, info.value.s) == ("nodes", 3, 3, 0.25)
    assert info.value.capacity == levenshtein_function(3, 3, 0.25)

    # an even-degree rule whose smallest eigenvalue is not -1
    monkeypatch.setattr(quadrature._umath_linalg, "eigh_lo", lambda matrix, signature: (np.array([-0.5, 0.25]), np.eye(2)))
    with pytest.raises(QuadratureError) as info:
        levenshtein_polynomial(3, 2, 0.25)
    assert str(info.value) == (
        f"even-degree rule lacks the node at -1 for (n=3, m=2, s=0.25, capacity={levenshtein_function(3, 2, 0.25):.12g}): "
        "smallest node is -0.5 (tolerance 1e-7)"
    )
    assert (info.value.stage, info.value.n, info.value.m, info.value.s) == ("nodes", 3, 2, 0.25)
    assert info.value.capacity == levenshtein_function(3, 2, 0.25)


def _mp_levenshtein(mpmath, n, m, t):
    """L_m(n, t) in the working precision, from the Gegenbauer recurrence."""
    k, eps = split_degree(m)
    p = [mpmath.mpf(1), t]
    for j in range(1, k + eps):
        p.append(((2 * j + n - 2) * t * p[j] - j * p[j - 1]) / (j + n - 2))
    num = (1 + t) ** eps * (p[k - 1 + eps] - p[k + eps])
    den = (1 - t) * (eps * p[k] + p[k + eps])
    head = mpmath.mpf(2 * k + n - 3 + 2 * eps) / (n - 1)
    return math.comb(k + n - 3 + eps, n - 2) * (head - num / den)


@pytest.mark.parametrize("n", [2, 3, 8, 30])
def test_nodes_match_extended_precision_reference(n):
    # every node but -1 and s solves L_m(n, t) = L_m(n, s); Newton on that
    # equation in 50 digits, from the float node, gives the reference
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for m in (2, 5, 10, 15, 16, 18, 20, 25):
            lo, hi = validity_interval(n, m)
            for frac in (0.05, 0.5, 0.95):
                rule = levenshtein_polynomial(n, m, lo + frac * (hi - lo))
                capacity = _mp_levenshtein(mpmath, n, m, mpmath.mpf(rule.s))
                for a in rule.nodes[rule.eps:-1]:
                    ref = mpmath.findroot(lambda t: _mp_levenshtein(mpmath, n, m, t) - capacity, mpmath.mpf(a))
                    assert abs(float(ref) - a) <= 1e-14, (m, frac, a)


def test_levenshtein_polynomial_errors_name_inputs():
    # past the validity interval of m = 5 in n = 4, which ends at 0.538, the
    # mean f_0 of the Levenshtein polynomial turns negative; the rule still
    # builds, and f is checked when it is multiplied out
    rule = levenshtein_polynomial(4, 5, 0.71)
    with pytest.raises(QuadratureError) as info:
        levenshtein_coefficients(rule)
    message = str(info.value)
    prefix = "Levenshtein polynomial for (n=4, m=5, s=0.71) has a negative coefficient: coefficient 0 of 6 is "
    assert message.startswith(prefix)
    assert float(message[len(prefix):]) == pytest.approx(-7.19907e-4, rel=1e-5)
    assert (info.value.stage, info.value.n, info.value.m, info.value.s, info.value.capacity) == (
        "levenshtein", 4, 5, 0.71, rule.capacity
    )


@pytest.mark.parametrize("n", [3, 8, 30])
def test_levenshtein_coefficients_match_extended_precision_reference(n):
    # the monic polynomial sampled at m + 1 Chebyshev points in 50 digits and
    # expanded by an extended-precision solve; the mean f_0 cancels heavily
    # for large n (f <= 0 on [-1, s], where mu_n has nearly all its mass),
    # so this also pins the coefficient-ratio check
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for m in (3, 10, 20, 25):
            lo, hi = validity_interval(n, m)
            for frac in (0.05, 0.95):
                rule = levenshtein_polynomial(n, m, lo + frac * (hi - lo))
                roots = (rule.s,) + rule.nodes[: rule.eps] + 2 * rule.nodes[rule.eps : -1]
                points = [mpmath.cos(mpmath.pi * (i + mpmath.mpf(1) / 2) / (m + 1)) for i in range(m + 1)]
                rows = []
                for t in points:
                    p = [mpmath.mpf(1), t]
                    for j in range(1, m):
                        p.append(((2 * j + n - 2) * t * p[j] - j * p[j - 1]) / (j + n - 2))
                    rows.append(p[: m + 1])
                values = [mpmath.fprod(t - mpmath.mpf(r) for r in roots) for t in points]
                ref = np.array([float(c) for c in mpmath.lu_solve(mpmath.matrix(rows), mpmath.matrix(values))])
                got = levenshtein_coefficients(rule)
                assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12, (m, frac)


def test_split_degree():
    assert split_degree(9) == (5, 0)
    assert split_degree(6) == (3, 1)
    with pytest.raises(ValueError):
        split_degree(0)
