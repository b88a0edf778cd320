"""Robustness gate for the rule layer over the valid input space.

Every capacity in (D(n, m), D(n, m+1)] and every s in a validity interval
must give a rule with positive weights that is exact on P_0..P_m, up to
the degree cap.  Capacities just above D(n, m) are the hardest: there the
smallest weight of an even-degree rule tends to zero.
"""

import numpy as np
import pytest

from spherelp.cli import main
from spherelp.orthopoly import gegenbauer_table
from spherelp.quadrature import (
    MAX_RULE_DEGREE,
    dgs_bound,
    exactness_residuals,
    levenshtein_polynomial,
    solve_ulb_rule,
    validity_interval,
)


def assert_valid_rule(rule):
    assert min(rule.weights) > 0
    table = gegenbauer_table(rule.n, rule.m, np.asarray(rule.nodes))
    residuals = exactness_residuals(table, rule.weights, rule.capacity)
    assert np.max(np.abs(residuals)) <= 1e-9


def test_seeded_capacities_give_valid_rules():
    rng = np.random.default_rng(12345)
    for _ in range(1500):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(1, MAX_RULE_DEGREE + 1))
        lo, hi = dgs_bound(n, m), dgs_bound(n, m + 1)
        capacity = (lo * (1 + 1e-12), hi * (1 - 1e-12), float(rng.uniform(lo, hi)))[int(rng.integers(3))]
        rule = solve_ulb_rule(n, capacity)
        assert rule.m == m
        assert_valid_rule(rule)


def test_seeded_inner_products_give_valid_rules():
    rng = np.random.default_rng(12345)
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(1, MAX_RULE_DEGREE + 1))
        s = float(rng.uniform(*validity_interval(n, m)))
        rule = levenshtein_polynomial(n, m, s)
        assert rule.nodes[-1] == s
        assert_valid_rule(rule)


@pytest.mark.parametrize("n,m", [(7, 16), (31, 14), (27, 12), (39, 22)])
def test_capacity_just_above_the_degree_boundary(n, m):
    rule = solve_ulb_rule(n, dgs_bound(n, m) * (1 + 1e-12))
    assert rule.m == m and rule.nodes[0] == -1.0
    assert_valid_rule(rule)


def test_cli_ulb_just_above_d_30_22(capsys):
    assert main(["ulb", "--n", "30", "--capacity", "2947546837", "--potential", "riesz:1"]) == 0
    assert capsys.readouterr().err == ""


def test_capacity_within_round_off_of_the_boundary_takes_the_lower_degree():
    # 1e-15 above D(13, 22) the solve puts s on the left end of the degree-22
    # interval, where that rule's weight at -1 vanishes; s is also the right
    # end of degree 21, whose rule there is a valid 1/D(13, 22) rule
    rule = solve_ulb_rule(13, dgs_bound(13, 22) * (1 + 1e-15))
    assert rule.m == 21 and rule.s == validity_interval(13, 22)[0]
    assert_valid_rule(rule)
