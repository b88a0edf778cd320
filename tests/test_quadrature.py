import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import eigh_tridiagonal

from spherelp.quadrature import (
    QuadratureError,
    ValidityError,
    compute_weights,
    dgs_bound,
    exactness_residuals,
    levenshtein_function,
    levenshtein_polynomial,
    rule_from_s,
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
    assert select_degree_from_capacity(3, PENTAKIS_CAPACITY)[0] == 9
    assert select_degree_from_capacity(3, 13.95)[0] == 5
    # right-closed interval boundary
    for n, m in [(3, 4), (4, 7), (5, 3)]:
        boundary = dgs_bound(n, m + 1)
        assert select_degree_from_capacity(n, float(boundary))[0] == m
        assert select_degree_from_capacity(n, boundary + 1e-9)[0] == m + 1


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
    assert levenshtein_function(3, 5, 1 / math.sqrt(3), allow_outside_validity=True) == pytest.approx(
        16.098, abs=5e-4
    )


def test_levenshtein_validity_gate():
    lo, hi = validity_interval(3, 5)
    with pytest.raises(ValidityError):
        levenshtein_function(3, 5, hi + 0.05)
    levenshtein_function(3, 5, hi + 0.05, allow_outside_validity=True)


def test_validity_intervals_tile():
    for n in (2, 3, 5, 8):
        prev_hi = -1.0
        for m in range(1, 12):
            lo, hi = validity_interval(n, m)
            assert lo == pytest.approx(prev_hi, abs=1e-12)
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


def test_select_degree_from_s():
    assert select_degree_from_s(4, -1.0)[0] == 1
    # t_1^{1,1} = 0 is shared by degrees 2 and 3; ties go down
    assert select_degree_from_s(4, 0.0)[0] == 2
    # the reference table lists degree 5 here, which its own N_1 violates;
    # selection by validity interval lands one degree higher
    assert select_degree_from_s(3, 1 / math.sqrt(3))[0] == 6


def test_table2_rule():
    rule = solve_ulb_rule(3, PENTAKIS_CAPACITY)
    assert (rule.m, rule.k, rule.eps) == (9, 5, 0)
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
        res = exactness_residuals(n, rule.nodes, rule.weights, rule.capacity, rule.m)
        assert np.max(np.abs(res)) < 1e-9
        assert abs(sum(rule.weights) - (1 - 1 / capacity)) < 1e-10
        assert (rule.nodes[0] == -1.0) == (rule.eps == 1)


def test_all_nodes_solve_the_capacity_equation():
    # every node of the rule satisfies L_m(n, alpha_i) = N_W
    rule = solve_ulb_rule(3, PENTAKIS_CAPACITY)
    for a in rule.nodes:
        assert levenshtein_function(3, rule.m, a, allow_outside_validity=True) == pytest.approx(
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
        back = levenshtein_function(n, rule.m, rule.s, allow_outside_validity=True)
        assert back == pytest.approx(capacity, rel=1e-9)


def test_capacity_guard():
    with pytest.raises(ValueError):
        solve_ulb_rule(3, 2.0)


def test_levenshtein_polynomial_low_degrees():
    # monic closed forms: degree 1 is (t - s) = -s P_0 + P_1, degree 2 is
    # (t + 1)(t - s) = t^2 + (1 - s) t - s with t^2 = (1 + (n - 1) P_2) / n
    n, s = 4, -0.3
    lp = levenshtein_polynomial(n, 1, s)
    assert_allclose(lp.gegenbauer.coeffs, (-s, 1.0), atol=1e-14)
    lo, hi = validity_interval(n, 2)
    s = 0.5 * (lo + hi)
    lp = levenshtein_polynomial(n, 2, s)
    assert_allclose(lp.gegenbauer.coeffs, (1 / n - s, 1.0 - s, (n - 1) / n), atol=1e-13)


def test_levenshtein_polynomial_pentakis_roots():
    s = math.sqrt(1 + 2 / math.sqrt(5)) / math.sqrt(3)
    lp = levenshtein_polynomial(3, 9, s)
    assert_allclose(lp.nodes, (-0.9247, -0.6213, -0.1493, 0.3703, 0.7946), atol=1e-4)
    assert lp.nodes[-1] == pytest.approx(s, abs=1e-14)


def test_levenshtein_polynomial_invariants():
    rng = np.random.default_rng(14)
    for _ in range(15):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 10))
        lo, hi = validity_interval(n, m)
        s = float(rng.uniform(lo + 0.02 * (hi - lo), hi))
        lp = levenshtein_polynomial(n, m, s)
        coeffs = np.asarray(lp.gegenbauer.coeffs)
        assert coeffs.size == m + 1
        assert np.min(coeffs) > 0  # strictly positive away from endpoints
        ratio = lp.gegenbauer.value_at_one() / coeffs[0]
        assert ratio == pytest.approx(levenshtein_function(n, m, s), rel=1e-9)
        # vanishes at its nodes, nonpositive on [-1, s]
        grid = np.linspace(-1, s, 500)
        assert np.max(lp.gegenbauer(grid)) <= 1e-9
        assert np.max(np.abs(lp.gegenbauer(np.asarray(lp.nodes)))) < 1e-9


def test_rule_from_s_matches_capacity_solve():
    # prescribing the solved s reproduces the capacity-built rule
    rule = solve_ulb_rule(5, 40.0)
    other = rule_from_s(5, rule.m, rule.s)
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

    def vanishing_first_component(diag, off):
        nodes, vectors = eigh_tridiagonal(diag, off)
        vectors[0, 0] = 0.0
        return nodes, vectors

    monkeypatch.setattr(quadrature, "eigh_tridiagonal", vanishing_first_component)
    with pytest.raises(QuadratureError) as info:
        solve_ulb_rule(30, 2947546837)
    message = str(info.value)
    assert message.startswith("nonpositive quadrature weight for (n=30, m=22, s=0.6919")
    assert message.endswith(", capacity=2947546837): weight 0 of 12 is 0")
    assert "[" not in message


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
            rule = rule_from_s(n, m, lo + frac * (hi - lo))
            ref = _mp_lagrange_weights(mpmath, n, rule.nodes, rule.capacity)
            for w, r in zip(rule.weights, ref):
                assert abs(float((w - r) / r)) <= tol, (m, frac)


def test_node_errors_name_inputs(monkeypatch):
    import spherelp.quadrature as quadrature

    # below its validity interval, s is not the largest node of its rule
    with pytest.raises(QuadratureError) as info:
        rule_from_s(3, 3, -0.9, allow_outside_validity=True)
    message = str(info.value)
    assert message.startswith("largest node does not match s for (n=3, m=3, s=-0.9, capacity=")
    assert "it is 0.058823529411764" in message and "array" not in message

    # a double eigenvalue at 0.25 stands in for a collapsed rule
    monkeypatch.setattr(quadrature, "eigh_tridiagonal", lambda diag, off: (np.array([0.25, 0.25]), np.eye(2)))
    with pytest.raises(QuadratureError) as info:
        rule_from_s(3, 3, 0.25)
    message = str(info.value)
    assert message.startswith("repeated nodes for (n=3, m=3, s=0.25, capacity=")
    assert "nodes 0 and 1 are " in message and "array" not in message


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
                rule = rule_from_s(n, m, lo + frac * (hi - lo))
                capacity = _mp_levenshtein(mpmath, n, m, mpmath.mpf(rule.s))
                for a in rule.nodes[rule.eps:-1]:
                    ref = mpmath.findroot(lambda t: _mp_levenshtein(mpmath, n, m, t) - capacity, mpmath.mpf(a))
                    assert abs(float(ref) - a) <= 1e-14, (m, frac, a)


def test_levenshtein_polynomial_errors_name_inputs():
    # past the validity interval of m = 5 in n = 4, which ends at 0.538, the
    # mean f_0 of the Levenshtein polynomial turns negative
    with pytest.raises(QuadratureError) as info:
        levenshtein_polynomial(4, 5, 0.71, allow_outside_validity=True)
    message = str(info.value)
    prefix = "Levenshtein polynomial for (n=4, m=5, s=0.71) has a negative coefficient: coefficient 0 of 6 is "
    assert message.startswith(prefix)
    assert float(message[len(prefix):]) == pytest.approx(-7.19907e-4, rel=1e-5)


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
                lp = levenshtein_polynomial(n, m, lo + frac * (hi - lo))
                roots = (lp.s,) + lp.nodes[: lp.rule.eps] + 2 * lp.nodes[lp.rule.eps : -1]
                points = [mpmath.cos(mpmath.pi * (i + mpmath.mpf(1) / 2) / (m + 1)) for i in range(m + 1)]
                rows = []
                for t in points:
                    p = [mpmath.mpf(1), t]
                    for j in range(1, m):
                        p.append(((2 * j + n - 2) * t * p[j] - j * p[j - 1]) / (j + n - 2))
                    rows.append(p[: m + 1])
                values = [mpmath.fprod(t - mpmath.mpf(r) for r in roots) for t in points]
                ref = np.array([float(c) for c in mpmath.lu_solve(mpmath.matrix(rows), mpmath.matrix(values))])
                got = np.asarray(lp.gegenbauer.coeffs)
                assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12, (m, frac)


def test_split_degree():
    assert split_degree(9) == (5, 0)
    assert split_degree(6) == (3, 1)
    with pytest.raises(ValueError):
        split_degree(0)
