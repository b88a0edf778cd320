import numpy as np
import pytest
from numpy.testing import assert_allclose

from spherelp.hermite import (
    InterpolantReport,
    NodeMultiset,
    _newton_coefficients,
    _newton_to_monomial,
    dominance_grid,
    hermite_interpolant,
    ulb_nodes,
    uub_nodes,
    verify_dominance,
)
from spherelp.bounds import ULB_INTERVAL
from spherelp.orthopoly import MonomialPoly, to_gegenbauer
from spherelp.potentials import (
    fejes_toth,
    gaussian,
    logarithmic,
    newton,
    potential_derivative,
    potential_eval,
    riesz,
)
from spherelp.quadrature import rule_from_s, solve_ulb_rule, validity_interval

PENTAKIS_CAPACITY = 735 / 23


def test_multiset_validation():
    with pytest.raises(ValueError):
        NodeMultiset(((0.5, 2), (-0.5, 2)))  # not ascending
    with pytest.raises(ValueError):
        NodeMultiset(((-0.5, 1), (0.5, 2)))  # simple node away from -1 / endpoint
    with pytest.raises(ValueError):
        NodeMultiset(((-0.5, 3),))
    ok = NodeMultiset(((-1.0, 1), (0.0, 2), (0.5, 1)))
    assert ok.total == 4
    assert ok.expanded() == [-1.0, 0.0, 0.0, 0.5]


def test_multiset_builders():
    nodes = (-1.0, -0.3, 0.4)
    assert ulb_nodes(nodes, 1).entries == ((-1.0, 1), (-0.3, 2), (0.4, 2))
    assert ulb_nodes(nodes[1:], 0).entries == ((-0.3, 2), (0.4, 2))
    assert uub_nodes(nodes, 1).entries == ((-1.0, 1), (-0.3, 2), (0.4, 1))
    assert uub_nodes(nodes[1:], 0).entries == ((-0.3, 2), (0.4, 1))


def test_constant_potential_reproduced_exactly():
    # a polynomial h of degree <= total-1 is its own interpolant
    h = newton(2)
    report = hermite_interpolant(h, ulb_nodes((-0.7, -0.1, 0.6), 0), 3)
    assert_allclose(report.poly.coeffs, (1.0,), atol=1e-12)
    assert report.node_residual < 1e-12


def test_single_doubled_node_is_tangent_line():
    h = riesz(1)
    a = -0.25
    report = hermite_interpolant(h, ulb_nodes((a,), 0), 3)
    want = (
        potential_eval(h, a) - a * potential_derivative(h, a),
        potential_derivative(h, a),
    )
    assert_allclose(report.poly.coeffs, want, rtol=1e-13)


def test_uub_degree_two_closed_form():
    # simple nodes {-1, s}: the secant line through the endpoints
    h = gaussian(1.5)
    s = 0.35
    report = hermite_interpolant(h, NodeMultiset(((-1.0, 1), (s, 1))), 4)
    hs, hm = potential_eval(h, s), potential_eval(h, -1.0)
    want = ((hs + s * hm) / (1 + s), (hs - hm) / (1 + s))
    assert_allclose(report.poly.coeffs, want, rtol=1e-12)


def test_interpolation_conditions_on_rule_nodes():
    rule = solve_ulb_rule(3, PENTAKIS_CAPACITY)
    for h in (riesz(1), gaussian(2.0), logarithmic(), fejes_toth()):
        report = hermite_interpolant(h, ulb_nodes(rule.nodes, rule.eps), 3)
        assert report.poly.degree <= rule.m
        assert report.node_residual < 1e-10


def test_divided_difference_order_invariance():
    h = riesz(2)
    nodes = ulb_nodes((-0.8, -0.2, 0.5), 0)
    z = np.asarray(nodes.expanded())
    values = potential_eval(h, z)
    derivs = {a: float(potential_derivative(h, a)) for a, _ in nodes.entries}
    fwd = _newton_to_monomial(_newton_coefficients(z, values, derivs), z)
    zr = z[::-1].copy()
    rev = _newton_to_monomial(_newton_coefficients(zr, potential_eval(h, zr), derivs), zr)
    assert_allclose(fwd, rev, rtol=1e-9)


@pytest.mark.parametrize("h", [riesz(1), riesz(3), gaussian(1.0), logarithmic()], ids=lambda h: h.label())
@pytest.mark.parametrize("n,capacity", [(3, 20.0), (4, 24.0), (8, 50.0), (3, PENTAKIS_CAPACITY)])
def test_ulb_interpolant_positive_definite(h, n, capacity):
    rule = solve_ulb_rule(n, capacity)
    report = hermite_interpolant(h, ulb_nodes(rule.nodes, rule.eps), n)
    coeffs = np.asarray(report.gegenbauer.coeffs)
    assert np.min(coeffs[1:]) >= -1e-9


def test_dominance_below_for_table_rule():
    rule = solve_ulb_rule(3, PENTAKIS_CAPACITY)
    report = hermite_interpolant(riesz(1), ulb_nodes(rule.nodes, rule.eps), 3)
    ok, violation = verify_dominance(report, riesz(1), (-1.0, 0.999), "below", rule.nodes)
    assert ok and violation <= 1e-9


def test_dominance_on_a_given_grid_matches_the_built_one():
    rule = solve_ulb_rule(4, 24.0)
    report = hermite_interpolant(gaussian(1), ulb_nodes(rule.nodes, rule.eps), 4)
    built = verify_dominance(report, gaussian(1), (-1.0, 0.999), "below", rule.nodes)
    grid = dominance_grid(-1.0, 0.999, rule.nodes)
    assert verify_dominance(report, gaussian(1), (-1.0, 0.999), "below", grid=grid) == built
    # the given grid replaces the built one: a lift that vanishes at t = 0 goes unseen there
    lifted = MonomialPoly(report.poly.coeffs[:-1] + (report.poly.coeffs[-1] + 1e-3,))
    broken = InterpolantReport(lifted, to_gegenbauer(lifted, 4), 0.0)
    assert not verify_dominance(broken, gaussian(1), (-1.0, 0.999), "below", rule.nodes)[0]
    assert verify_dominance(broken, gaussian(1), (-1.0, 0.999), "below", grid=np.array([0.0]))[0]


def test_dominance_zero_for_exact_match():
    h = newton(2)
    report = hermite_interpolant(h, ulb_nodes((-0.5, 0.2), 0), 3)
    ok, violation = verify_dominance(report, h, (-1.0, 0.999), "below")
    assert ok and violation == 0.0


def test_dominance_negative_control():
    rule = solve_ulb_rule(3, PENTAKIS_CAPACITY)
    report = hermite_interpolant(riesz(1), ulb_nodes(rule.nodes, rule.eps), 3)
    bumped = list(report.poly.coeffs)
    bumped[-1] += 1e-3
    poly = MonomialPoly(tuple(bumped))
    broken = InterpolantReport(poly, to_gegenbauer(poly, 3), 0.0)
    ok, violation = verify_dominance(broken, riesz(1), (-1.0, 0.999), "below", rule.nodes)
    assert not ok and violation > 1e-9


def test_nodes_above_one_rejected():
    with pytest.raises(ValueError):
        hermite_interpolant(riesz(1), NodeMultiset(((0.5, 2), (1.0, 1))), 3)
    with pytest.raises(ValueError):
        verify_dominance(
            hermite_interpolant(riesz(1), ulb_nodes((0.0,), 0), 3),
            riesz(1),
            (-1.0, 0.5),
            "sideways",
        )


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
    grid = dominance_grid(lo, hi, nodes)
    ref = _dominance_grid_loop(lo, hi, nodes)
    assert grid.dtype == ref.dtype and grid.tobytes() == ref.tobytes()


def _newton_coefficients_loop(z, values, derivs):
    """Reference: the scalar divided-difference table."""
    table = values.astype(float).copy()
    coeffs = [table[0]]
    for order in range(1, z.size):
        new = np.empty(z.size - order)
        for i in range(new.size):
            dz = z[i + order] - z[i]
            if dz == 0.0:
                new[i] = derivs[z[i]]
            else:
                new[i] = (table[i + 1] - table[i]) / dz
        table = new
        coeffs.append(table[0])
    return np.asarray(coeffs)


@pytest.mark.parametrize("h", [riesz(1), gaussian(1.0), logarithmic()], ids=lambda h: h.label())
def test_newton_coefficients_match_scalar_loop(h):
    for m in range(1, 21):
        lo, hi = validity_interval(4, m)
        rule = rule_from_s(4, m, 0.5 * (lo + hi))
        for multiset in (ulb_nodes(rule.nodes, rule.eps), uub_nodes(rule.nodes, rule.eps)):
            z = np.asarray(multiset.expanded())
            values = potential_eval(h, z)
            derivs = {a: float(potential_derivative(h, a)) for a, mult in multiset.entries if mult == 2}
            got = _newton_coefficients(z, values, derivs)
            ref = _newton_coefficients_loop(z, values, derivs)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def _node_residual_loop(h, multiset, poly):
    """Reference: the interpolation defect with one derivative call per doubled node."""
    pts = np.array([a for a, _ in multiset.entries])
    hvals = potential_eval(h, pts)
    scale = max(1.0, float(np.max(np.abs(hvals))))
    residual = float(np.max(np.abs(poly(pts) - hvals))) / scale
    dpoly = poly.derivative()
    for a, mult in multiset.entries:
        if mult == 2:
            residual = max(residual, abs(float(dpoly(a)) - float(potential_derivative(h, a))) / scale)
    return residual


@pytest.mark.parametrize("h", [riesz(1), gaussian(1.0), logarithmic()], ids=lambda h: h.label())
def test_node_residual_matches_per_node_loop(h):
    for m in range(1, 21):
        lo, hi = validity_interval(4, m)
        rule = rule_from_s(4, m, 0.5 * (lo + hi))
        for multiset in (ulb_nodes(rule.nodes, rule.eps), uub_nodes(rule.nodes, rule.eps)):
            report = hermite_interpolant(h, multiset, 4)
            assert report.node_residual == _node_residual_loop(h, multiset, report.poly)
