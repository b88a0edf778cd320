"""Robustness gate for the rule layer over the valid input space.

Every capacity in (D(n, m), D(n, m+1)] and every s in a validity interval
must give a rule with positive weights that is exact on P_0..P_m, up to
the degree cap.  Capacities just above D(n, m) are the hardest: there the
smallest weight of an even-degree rule tends to zero.  Node sets that are
no rule (too many or too few, out of order, at or above 1) are refused by
the one gate every rule passes, whether solved or read from a record.
"""

import numpy as np
import pytest

from spherelp.cli import main
from spherelp.orthopoly import gegenbauer_table
from spherelp.quadrature import (
    MAX_RULE_DEGREE,
    QuadratureError,
    _verified_rule,
    compute_weights,
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


def _gate_error(m, nodes, weights=None, stage="nodes"):
    """The message of the rule gate on ``nodes`` (equal weights by default) in n = 3 at capacity 10,
    whose error names ``stage`` and the rule's inputs."""
    weights = (0.5,) * len(nodes) if weights is None else weights
    with pytest.raises(QuadratureError) as info:
        _verified_rule(3, m, nodes, weights, 10.0, m)
    error, message = info.value, str(info.value)
    assert (error.stage, error.n, error.m, error.s, error.capacity) == (stage, 3, m, nodes[-1], 10.0)
    # the message names the fields' own values: the count gate as a degree and (n, capacity), every other
    # gate as (n, m, s, capacity), formatted as QuadratureError.of_rule formats them
    if message.startswith("a degree-"):
        assert message.startswith(f"a degree-{error.m} rule for (n={error.n}, capacity={error.capacity:.12g}) ")
    else:
        assert f" for (n={error.n}, m={error.m}, s={error.s:.12g}, capacity={error.capacity:.12g}): " in message
    return message


def test_nodes_above_one_rejected():
    for points in ((0.5, 1.0), (0.5, 1.5)):
        message = _gate_error(3, points)
        assert message == f"node outside [-1, 1) for (n=3, m=3, s={points[1]:.12g}, capacity=10): node 1 is {points[1]:.17g}"


@pytest.mark.parametrize("m", [1, 2, 5, 9])
def test_a_solve_at_s_one_raises_only_the_named_error(m):
    # the node at 1 makes its weight a division by zero; a RuntimeWarning for
    # it, an error under this suite's filterwarnings, must not come first
    with pytest.raises(QuadratureError, match=rf"^node outside \[-1, 1\) for \(n=3, m={m}, s=1, capacity=10\): node \d+ is 1$"):
        compute_weights(3, m, 1.0, 10.0)


def test_node_table_of_the_wrong_shape_is_a_named_error():
    # the node table has one column per node: a degree-m rule has k + eps
    # nodes (m = 2k - 1 + eps) and as many weights
    points = (-0.5, 0.0, 0.5)
    for m, weights, want, got in ((3, None, 2, "3 nodes and 3"), (6, None, 4, "3 nodes and 3"), (5, (0.5, 0.5), 3, "3 nodes and 2")):
        assert _gate_error(m, points, weights) == (
            f"a degree-{m} rule for (n=3, capacity=10) needs {want} nodes and as many weights, not {got} weights"
        )
    # the right counts pass the shape gate and fail only the exactness gate
    for m in (4, 5):
        assert _gate_error(m, points, stage="exactness").startswith(
            f"quadrature exactness failure for (n=3, m={m}, s=0.5, capacity=10): "
        )


@pytest.mark.parametrize(
    "m,points,what,gap",
    [
        # a repeated node whose value and slope rows stay independent: the
        # Hermite system's LU factorisation succeeds, so only the gate catches it
        (6, (-1.0, -0.3, -0.3, 0.5), "repeated", "nodes 1 and 2 are 0 apart"),
        (3, (0.5, -0.5), "descending", "nodes 0 and 1 are -1 apart"),
    ],
    ids=["repeated", "descending"],
)
def test_nodes_not_strictly_ascending_rejected(m, points, what, gap):
    where = f"(n=3, m={m}, s={points[-1]:.12g}, capacity=10)"
    assert _gate_error(m, points) == f"{what} nodes for {where}: {gap}"
