"""Acceptance suite: one test per criterion, one printed line per criterion.

Reference cells recorded at 4 (or fewer) decimals were truncated toward
zero (lower bounds, nodes, weights) or rounded up (upper bounds), so table
cells are compared with `cell_matches`, which accepts a half-ulp
difference or an exact truncate/round-up at the recorded precision.
High-precision anchors (energies, bound values, lambda*) are asserted at
their stated absolute tolerances directly.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from spherelp import bounds, codes
from spherelp._tables import (
    TABLE2_NODES,
    TABLE2_WEIGHTS,
    cell_matches,
    reproduce_table1,
    reproduce_table3,
    reproduce_table4,
)
from spherelp.orthopoly import gegenbauer_table
from spherelp.potentials import gaussian, newton, potential_eval, riesz, shifted
from spherelp.quadrature import (
    dgs_bound,
    exactness_residuals,
    solve_ulb_rule,
    validity_interval,
)

PENTAKIS_CAPACITY = 735 / 23
PENTAKIS_S = math.sqrt(1 + 2 / math.sqrt(5)) / math.sqrt(3)


def qp_capacity(n):
    return n * (n + 2) ** 2 * 2**n / (n**3 + 2 ** (n + 1))


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"[criterion {num:>2}] FAIL  {desc}")
        raise
    print(f"[criterion {num:>2}] PASS  {desc}")


def test_criterion_1_table2_rule():
    with criterion(1, "quadrature rule for (3, 735/23) matches reference nodes/weights"):
        rule = solve_ulb_rule(3, PENTAKIS_CAPACITY)
        for got, printed in zip(rule.nodes, TABLE2_NODES):
            assert cell_matches(got, printed, 4), (got, printed)
        for got, printed in zip(rule.weights, TABLE2_WEIGHTS):
            assert cell_matches(got, printed, 4), (got, printed)


def test_criterion_2_pentakis_energy_and_ulb():
    with criterion(2, "pentakis energy 0.8050318 and lower bound 0.804786 at 1e-6"):
        pent = codes.pentakis_dodecahedron()
        value = codes.energy(pent, riesz(1))
        assert value == pytest.approx(0.8050318, abs=1e-6)
        lower = bounds.ulb(3, PENTAKIS_CAPACITY, riesz(1))
        assert lower.value == pytest.approx(0.804786, abs=1e-6)
        assert lower.value <= value


def test_criterion_3_table3():
    with criterion(3, "capacity/nodes/weights/ULB/energy table for n = 2..7"):
        cells = reproduce_table3()
        bad = [c for c in cells if not c.ok]
        assert not bad, bad
        eight = solve_ulb_rule(2, 8.0)
        assert eight.capacity == 8.0
        np.testing.assert_allclose(eight.weights, (0.125, 0.25, 0.25, 0.25), atol=1e-12)
        assert bounds.ulb(2, 8.0, newton(2)).value == pytest.approx(0.875, abs=1e-12)
        assert codes.energy(codes.cube_crosspolytope(2), newton(2)) == pytest.approx(0.875, abs=1e-12)
        seven = solve_ulb_rule(7, qp_capacity(7))
        assert seven.eps == 1 and len(seven.nodes) == 4 and seven.nodes[0] == -1.0


def test_criterion_4_pentakis_uub():
    with criterion(4, "upper bound at the pentakis inner product: roots, lambda*, value, signs"):
        report = bounds.uub(3, PENTAKIS_CAPACITY, PENTAKIS_S, riesz(1))
        for got, printed in zip(report.rule.nodes, (-0.9247, -0.6213, -0.1493, 0.3703, 0.7946)):
            assert cell_matches(got, printed, 4), (got, printed)
        assert report.lambda_star == pytest.approx(7.47994, abs=1e-4)
        assert report.value == pytest.approx(0.8234054, abs=1e-6)
        coeffs = np.asarray(report.certificate.coeffs)
        assert abs(coeffs[1]) <= 1e-9
        assert np.all(coeffs[2:10] < 0)


def test_criterion_5_table4():
    with criterion(5, "upper-bound table at the listed degrees: UUB and N_1 columns"):
        cells = reproduce_table4()
        bad = [c for c in cells if not c.ok]
        assert not bad, bad
        # N_1 column additionally within 5e-4 absolute
        for c in cells:
            if "N_1" in c.label:
                assert abs(c.computed - c.printed) <= 5e-4, c


def test_criterion_6_design_bounds():
    with criterion(6, "design upper bounds 0.805816 / 0.70893 / 0.58111 / 0.500221"):
        cases = [
            (3, PENTAKIS_CAPACITY, PENTAKIS_S, 9, riesz(1), 0.805816, 1e-6),
            (3, qp_capacity(3), 1 / math.sqrt(3), 5, newton(3), 0.70893, 1e-5),
            (4, 24.0, 0.5, 5, newton(4), 0.58111, 1e-5),
            (5, qp_capacity(5), 3 / 5, 6, newton(5), 0.500221, 1e-6),
        ]
        for n, capacity, s, degree, h, want, tol in cases:
            report = bounds.design_uub(n, capacity, s, degree, h)
            assert report.value == pytest.approx(want, abs=tol), (n, report.value, want)
            assert report.feasible


def test_criterion_7_design_strengths():
    with criterion(7, "design strengths: pentakis 9, cube+cross 5 (n=3..6), 8-gon 7"):
        report = codes.design_strength(codes.pentakis_dodecahedron(), 11, tol=1e-9)
        assert report.strength == 9
        assert abs(report.moments[9]) > 1e-3
        for n in (3, 4, 5, 6):
            report = codes.design_strength(codes.cube_crosspolytope(n), 7, tol=1e-9)
            assert report.strength == 5, n
            assert abs(report.moments[5]) > 1e-3
        report = codes.design_strength(codes.regular_ngon(8), 9, tol=1e-9)
        assert report.strength == 7
        assert abs(report.moments[7]) > 1e-3


def test_criterion_8_equal_weight_cross_checks():
    with criterion(8, "equal-weight cross-checks: 0.8049 / 0.70629 / 0.70757"):
        assert bounds.ulb(3, 32.0, riesz(1)).value == pytest.approx(0.8049, abs=5e-5)
        assert bounds.ulb(3, 14.0, newton(3)).value == pytest.approx(0.70629, abs=5e-5)
        eq = codes.with_equal_weights(codes.cube_crosspolytope(3))
        assert codes.energy(eq, newton(3)) == pytest.approx(0.70757, abs=5e-5)


def test_criterion_9_property_suite():
    with criterion(9, "property suite: exactness, dominance, test functions, monotonicity, shifts"):
        rng = np.random.default_rng(2024)
        # 200 random rules: quadrature exactness and the weight-sum identity
        for _ in range(200):
            n = int(rng.integers(2, 9))
            capacity = float(rng.uniform(2.05, dgs_bound(n, 11)))
            rule = solve_ulb_rule(n, capacity)
            table = gegenbauer_table(n, rule.m, np.asarray(rule.nodes))
            res = exactness_residuals(table, rule.weights, rule.capacity)
            assert np.max(np.abs(res)) <= 1e-9
            assert abs(sum(rule.weights) - (1 - 1 / capacity)) <= 1e-10

        # certificate dominance, both directions, on a spread of configurations
        for n, capacity, h in [
            (3, 12.5, riesz(1)),
            (4, 33.0, gaussian(2.0)),
            (5, 41.0, newton(5)),
            (2, 7.5, riesz(0.5)),
            (6, 100.0, riesz(3)),
        ]:
            lower = bounds.ulb(n, capacity, h)
            assert lower.feasible
            assert lower.diagnostic("dominance_below").value <= 1e-9
            s = lower.rule.s
            upper = bounds.uub(n, capacity, s, h)
            assert upper.feasible
            assert upper.diagnostic("dominance_above").value <= 1e-9

        # test functions: zero through m, then two nonnegative values
        for _ in range(20):
            n = int(rng.integers(2, 6))
            capacity = float(rng.uniform(2.1, dgs_bound(n, 9)))
            probe = bounds.test_functions(n, capacity, 1)
            report = bounds.test_functions(n, capacity, probe.m + 2)
            assert all(abs(report.values[j]) <= 1e-9 for j in range(1, report.m + 1))
            assert report.values[report.m + 1] >= -1e-9
            assert report.values[report.m + 2] >= -1e-9

        # lower bound strictly increasing in the capacity
        values = [bounds.ulb(3, c, riesz(1)).value for c in (5.0, 8.0, 20.0, 100.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

        # shift equivariance of bound and energy
        cap = 20.0
        for h, base in [(shifted(riesz(1), 2.5), riesz(1)), (shifted(gaussian(1.0), -0.5), gaussian(1.0))]:
            shift = h.param
            assert bounds.ulb(3, cap, h).value == pytest.approx(
                bounds.ulb(3, cap, base).value + shift * (1 - 1 / cap), abs=1e-10
            )
        pent = codes.pentakis_dodecahedron()
        assert codes.energy(pent, shifted(riesz(1), 1.5)) == pytest.approx(
            codes.energy(pent, riesz(1)) + 1.5 * (1 - pent.s_w), abs=1e-10
        )


def test_criterion_10_low_degree_closed_forms():
    with criterion(10, "degree-1/2 closed forms agree with the general pipeline at 1e-10"):
        rng = np.random.default_rng(77)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            h = [riesz(float(rng.uniform(0.5, 4))), gaussian(float(rng.uniform(0.5, 3)))][
                int(rng.integers(0, 2))
            ]

            # lower bounds at degrees one and two
            cap1 = float(rng.uniform(2.05, n + 1))
            got = bounds.ulb(n, cap1, h).value
            want = (cap1 - 1) / cap1 * potential_eval(h, -1 / (cap1 - 1))
            assert got == pytest.approx(want, abs=1e-10)

            cap2 = float(rng.uniform(n + 1 + 1e-9, 2 * n))
            got = bounds.ulb(n, cap2, h).value
            want = (
                cap2 * (cap2 - n - 1) * potential_eval(h, -1.0)
                + n * (cap2 - 2) ** 2 * potential_eval(h, -(2 * n - cap2) / (n * (cap2 - 2)))
            ) / (cap2 * ((n + 1) * cap2 - 4 * n))
            assert got == pytest.approx(want, abs=1e-10)

            # upper bounds at degrees one and two
            lo, hi = validity_interval(n, 1)
            s = float(rng.uniform(lo + 1e-6, hi - 1e-6))
            capacity = float(rng.uniform(3.0, 50.0))
            got = bounds.uub(n, capacity, s, h).value
            assert got == pytest.approx((1 - 1 / capacity) * potential_eval(h, s), abs=1e-10)

            lo, hi = validity_interval(n, 2)
            s = float(rng.uniform(lo + 1e-6, hi - 1e-6))
            got = bounds.uub(n, capacity, s, h).value
            hs, hm = potential_eval(h, s), potential_eval(h, -1.0)
            want = ((n - 1) * hs + (1 - n * s * s) * hm) / (n * (1 - s * s)) - hm / capacity
            assert got == pytest.approx(want, abs=1e-10)


def test_reference_table1_structure():
    with criterion("1*", "pentakis inner-product distribution table"):
        assert all(c.ok for c in reproduce_table1())
