import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (
    _surface_monomial_integral,
    closed_form_energy,
    design_point_identity_check,
    sphere_quadrature_check,
)
from spherelp import codes
from spherelp.codes import (
    BLOCK_ROWS,
    TILE_COLUMNS,
    WeightedCode,
    build_config,
    check_weights,
    code_from_json,
    cube,
    cube_crosspolytope,
    design_strength,
    dodecahedron,
    energy,
    exact_sum,
    icosahedron,
    pentakis_dodecahedron,
    regular_ngon,
    twenty_four_cell,
    with_equal_weights,
)
from test_cli_pinned import run_under_fixed_numerics
from spherelp.orthopoly import gegenbauer_eval, gegenbauer_table, to_gegenbauer
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

SQ5 = math.sqrt(5)
PENT_A = math.sqrt(1 - 2 / SQ5) / math.sqrt(3)
PENT_B = math.sqrt(1 + 2 / SQ5) / math.sqrt(3)


def test_pentakis_basics():
    code = pentakis_dodecahedron()
    assert code.size == 32
    assert code.n_w == pytest.approx(735 / 23, rel=1e-14)
    assert code.max_inner_product == pytest.approx(PENT_B, abs=1e-14)
    assert_allclose(np.linalg.norm(code.points, axis=1), 1.0, atol=1e-14)


def test_pentakis_structure_table():
    # per-point inner-product distributions: icosahedron rows then dodecahedron rows
    code = pentakis_dodecahedron()
    gram = code.gram()
    columns = [-1.0, 1 / SQ5, -1 / SQ5, PENT_A, -PENT_A, PENT_B, -PENT_B, 1 / 3, -1 / 3, SQ5 / 3, -SQ5 / 3]
    expected_i = [1, 5, 5, 5, 5, 5, 5, 0, 0, 0, 0]
    expected_d = [1, 0, 0, 3, 3, 3, 3, 6, 6, 3, 3]
    for i in range(32):
        counts = [int(np.sum(np.abs(np.delete(gram[i], i) - v) < 1e-9)) for v in columns]
        assert counts == (expected_i if i < 12 else expected_d)


def test_pentakis_energy():
    assert energy(pentakis_dodecahedron(), riesz(1)) == pytest.approx(0.8050318, abs=1e-6)


def test_two_antipodal_points():
    code = WeightedCode(3, np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]), np.array([0.5, 0.5]))
    for h in (riesz(1), gaussian(2.0)):
        assert energy(code, h) == pytest.approx(potential_eval(h, -1.0) / 2, rel=1e-14)


def test_cube_cross_energy_table():
    assert energy(cube_crosspolytope(3), newton(3)) == pytest.approx(0.7070, abs=5e-5)


def test_closed_form_matches_direct_energy():
    for h in (riesz(1), gaussian(1.3), newton(3)):
        assert closed_form_energy("pentakis_dodecahedron", None, h) == pytest.approx(
            energy(pentakis_dodecahedron(), h), abs=1e-10
        )
    for n in (2, 3, 4, 5, 6, 7):
        h = newton(n)
        assert closed_form_energy("cube_crosspolytope", n, h) == pytest.approx(
            energy(cube_crosspolytope(n), h), abs=1e-10
        )


def test_cube_cross_table_values():
    # printed reference 0.5798 is truncated from 0.57986...
    assert closed_form_energy("cube_crosspolytope", 4, newton(4)) == pytest.approx(0.5798, abs=1e-4)
    assert closed_form_energy("cube_crosspolytope", 2, newton(2)) == pytest.approx(0.875, abs=1e-12)


def test_weighted_moments_pentakis():
    moments = design_strength(pentakis_dodecahedron(), 10).moments
    for ell in range(1, 10):
        assert abs(moments[ell - 1]) < 1e-10
    assert moments[9] > 1e-3


def test_weighted_moment_single_point():
    code = WeightedCode(4, np.array([[1.0, 0.0, 0.0, 0.0]]), np.array([1.0]))
    moments = design_strength(code, 8).moments
    for ell in (1, 3, 8):
        assert moments[ell - 1] == pytest.approx(1.0, rel=1e-14)


def test_moments_nonnegative():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        pts = rng.standard_normal((int(rng.integers(2, 9)), n))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        w = rng.uniform(0.1, 1.0, pts.shape[0])
        code = WeightedCode(n, pts, w / w.sum())
        for moment in design_strength(code, 8).moments:
            assert moment >= -1e-12


def test_cube_cross_moments_and_strength():
    for n in (3, 4, 5, 6):
        report = design_strength(cube_crosspolytope(n), 8)
        for ell in range(1, 6):
            assert abs(report.moments[ell - 1]) < 1e-10
        assert abs(report.moments[5]) > 1e-3
        assert report.strength == 5
        # antipodal symmetry: all odd moments vanish
        for ell in (1, 3, 5, 7):
            assert abs(report.moments[ell - 1]) < 1e-12


def test_design_strengths():
    assert design_strength(pentakis_dodecahedron(), 12).strength == 9
    assert design_strength(regular_ngon(8), 10).strength == 7
    assert design_strength(cube_crosspolytope(2), 10).strength == 7


def test_random_code_strength_zero():
    rng = np.random.default_rng(41)
    pts = rng.standard_normal((5, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    w = rng.uniform(0.5, 1.5, 5)
    code = WeightedCode(3, pts, w / w.sum())
    assert design_strength(code, 6).strength == 0


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
def test_design_strength_rejects_invalid_tol(tol):
    # a NaN tolerance used to pass every moment (abs(M) > nan is false)
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        design_strength(cube_crosspolytope(3), 12, tol)
    zero = design_strength(cube_crosspolytope(3), 12, 0.0)  # zero is a valid tolerance
    assert zero.moments == design_strength(cube_crosspolytope(3), 12).moments
    assert zero.strength == next(i for i, m in enumerate(zero.moments) if m != 0.0)


def test_s_of_cube_cross():
    assert cube_crosspolytope(3).max_inner_product == pytest.approx(1 / math.sqrt(3), abs=1e-12)
    for n in (4, 5, 6, 7):
        assert cube_crosspolytope(n).max_inner_product == pytest.approx(1 - 2 / n, abs=1e-12)


def test_point_identity_pentakis():
    assert design_point_identity_check(pentakis_dodecahedron(), 9, 100) < 1e-9


def test_point_identity_constant():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((6, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    w = rng.uniform(0.5, 1.5, 6)
    code = WeightedCode(3, pts, w / w.sum())
    # constant polynomials always satisfy the identity: weights sum to 1
    coeffs = np.array([3.7])
    x = np.array([0.0, 0.0, 1.0])
    lhs = float(code.weights @ np.polynomial.polynomial.polyval(code.points @ x, coeffs))
    assert lhs == pytest.approx(3.7, rel=1e-14)


def test_point_identity_negative_control_beyond_strength():
    # degree 8 on the 8-gon (a 7-design): the identity fails generically
    code = regular_ngon(8)
    x = np.array([math.cos(0.3), math.sin(0.3)])
    lhs = float(code.weights @ gegenbauer_eval(2, 8, code.points @ x))
    assert abs(lhs) > 1e-3  # the mean of P_8 against the measure is 0


def test_sphere_quadrature_check():
    assert sphere_quadrature_check(cube_crosspolytope(3), 5, 50) < 1e-9
    assert sphere_quadrature_check(pentakis_dodecahedron(), 9, 50) < 1e-9


def test_sphere_quadrature_negative_control():
    # x_1^6 has degree 6 > 5, and the strength-5 cubature misses it
    code = cube_crosspolytope(3)
    node_sum = float(code.weights @ (code.points[:, 0] ** 6))
    exact = _surface_monomial_integral(3, (6, 0, 0))
    assert abs(node_sum - exact) > 1e-3


def test_surface_monomial_integrals():
    assert _surface_monomial_integral(3, (2, 0, 0)) == pytest.approx(1 / 3)
    assert _surface_monomial_integral(3, (1, 2, 0)) == 0.0
    assert _surface_monomial_integral(4, (2, 2, 0, 0)) == pytest.approx(1 / (4 * 6))
    assert _surface_monomial_integral(5, (4, 0, 0, 0, 0)) == pytest.approx(3 / (5 * 7))


def test_design_identity_pairwise():
    # sum_{i != j} w_i w_j f(x_i . x_j) = f_0 - f(1) S_W for deg f <= strength
    rng = np.random.default_rng(3)
    code = pentakis_dodecahedron()
    gram = code.gram()
    mask = ~np.eye(code.size, dtype=bool)
    for _ in range(50):
        coeffs = rng.standard_normal(10)  # degree 9
        vals = np.polynomial.polynomial.polyval(gram, coeffs)
        lhs = float(code.weights @ (vals * mask) @ code.weights)
        f0 = to_gegenbauer(coeffs, 3).coeffs[0]
        rhs = f0 - float(np.polynomial.polynomial.polyval(1.0, coeffs)) * code.s_w
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_build_config_names():
    assert build_config("pentakis_dodecahedron").size == 32
    assert build_config("cube_crosspolytope", 3).size == 14
    assert build_config("regular_ngon", 8).size == 8
    assert build_config("icosahedron").size == 12
    assert build_config("dodecahedron").size == 20
    assert build_config("cube", 4).size == 16
    assert build_config("crosspolytope", 5).size == 10
    assert build_config("twenty_four_cell").size == 24
    with pytest.raises(ValueError):
        build_config("octahedron")
    with pytest.raises(ValueError):
        build_config("cube")
    with pytest.raises(ValueError, match="'icosahedron' takes no parameter, got 3"):
        build_config("icosahedron", 3)
    with pytest.raises(ValueError, match="'cube' needs an integer parameter N >= 1, got 0"):
        build_config("cube", 0)


def test_twenty_four_cell_is_equal_weighted():
    code = build_config("twenty_four_cell")
    assert_allclose(code.weights, 1 / 24)
    assert code.n_w == pytest.approx(24.0, rel=1e-14)


def test_twenty_four_cell_is_the_union_of_cube_and_cross_polytope_in_four_dimensions():
    code, union = twenty_four_cell(), cube_crosspolytope(4)
    assert np.array_equal(code.points, union.points)
    assert np.array_equal(code.weights, union.weights)


def test_cube_points_equal_the_bitwise_sign_rows_bytewise():
    # row i holds the signs of i's bits, least significant first, as the
    # per-entry comprehension wrote them
    for n in range(2, 13):
        signs = np.array([[1 - 2 * ((i >> j) & 1) for j in range(n)] for i in range(2**n)], dtype=float)
        code = cube(n)
        assert code.points.dtype == signs.dtype and code.points.tobytes() == (signs / math.sqrt(n)).tobytes()
        assert code.weights.tobytes() == np.full(2**n, 1.0 / 2**n).tobytes()


def test_weights_of_cube_cross_n3():
    code = cube_crosspolytope(3)
    assert_allclose(code.weights[:6], 1 / 15)
    assert_allclose(code.weights[6:], 3 / 40)


def test_icosahedron_dodecahedron_inner_products():
    ico, dod = icosahedron(), dodecahedron()
    cross = np.abs(ico.points @ dod.points.T)
    assert_allclose(np.unique(np.round(cross, 9)), np.round([PENT_A, PENT_B], 9))


def test_empty_code_is_rejected_by_name():
    with pytest.raises(ValueError, match="at least one point"):
        WeightedCode(3, np.empty((0, 3)), np.empty(0))


@pytest.mark.parametrize("n", [1, 0])
def test_code_below_dimension_two_is_rejected(n):
    with pytest.raises(ValueError, match="dimension must be >= 2"):
        WeightedCode(n, np.ones((2, n)), np.full(2, 0.5))


def test_validation_errors():
    with pytest.raises(ValueError):
        WeightedCode(3, np.array([[1.0, 0.0, 0.0]]), np.array([0.5]))  # weight sum
    with pytest.raises(ValueError):
        WeightedCode(3, np.array([[1.0, 0.0, 0.1]]), np.array([1.0]))  # not unit
    with pytest.raises(ValueError):
        WeightedCode(
            3,
            np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
            np.array([0.5, 0.5]),
        )  # coincident


@pytest.mark.parametrize(
    "weights, message",
    [
        ([0.5, math.nan, 0.5], "weights must be finite"),
        ([math.inf, 0.5, 0.5], "weights must be finite"),
        ([0.5, -0.5, 1.0], "weights must be positive"),
        ([0.5, 0.0, 0.5], "weights must be positive"),
        ([0.3, 0.3, 0.3], "weights must sum to 1"),
        ([[0.25, 0.25], [0.25, 0.25]], re.escape("flat list of numbers, got an array of shape (2, 2)")),
        ([[1 / 3], [1 / 3], [1 / 3]], re.escape("flat list of numbers, got an array of shape (3, 1)")),
        (1.0, re.escape("flat list of numbers, got an array of shape ()")),
        ({"a": 0.5, "b": 0.5}, "flat list of numbers, got a dict that does not convert to floats"),
        (["a", "b", "c"], "flat list of numbers, got a list that does not convert to floats"),
        ([0.5, [0.25, 0.25]], "flat list of numbers, got a list that does not convert to floats"),
    ],
)
def test_weight_validation(weights, message):
    with pytest.raises(ValueError, match=message):
        check_weights(weights)
    with pytest.raises(ValueError, match=message):
        WeightedCode(3, np.eye(3), weights)


@pytest.mark.parametrize("points", [{"x": [1.0, 0.0, 0.0]}, [[1.0, 0.0, 0.0], [0.0, 1.0]], [["a", 0.0, 0.0]]])
def test_points_that_do_not_convert_to_floats_are_named(points):
    with pytest.raises(ValueError, match=r"points must be an N x n array, got a (dict|list) that does not convert"):
        WeightedCode(3, points, [1.0])


def test_with_equal_weights():
    eq = with_equal_weights(pentakis_dodecahedron())
    assert eq.n_w == pytest.approx(32.0, rel=1e-14)
    assert energy(eq, riesz(1)) == pytest.approx(0.8052, abs=5e-5)


def test_json_round_trip_exact():
    code = pentakis_dodecahedron()
    fields = {"n": code.n, "points": code.points.tolist(), "weights": code.weights.tolist()}
    for text in (json.dumps(fields), json.dumps({**fields, "name": "pentakis"})):  # a "name" key is ignored
        back = code_from_json(text)
        assert back.n == code.n
        assert np.array_equal(back.points, code.points)
        assert np.array_equal(back.weights, code.weights)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[[1.0, 0.0, 0.0]]", "must hold a JSON object, not a list"),
        ('"pentakis"', "must hold a JSON object, not a str"),
        ('{"n": 3.7, "points": [[1.0, 0.0, 0.0]], "weights": [1.0]}', "field 'n' must be an integer, got 3.7"),
        ('{"n": "3", "points": [[1.0, 0.0, 0.0]], "weights": [1.0]}', "field 'n' must be an integer, got '3'"),
        ('{"n": true, "points": [[1.0, 0.0, 0.0]], "weights": [1.0]}', "field 'n' must be an integer, got True"),
        ('{"points": [[1.0, 0.0, 0.0]], "weights": [1.0]}', "field 'n' must be an integer, got None"),
        ('{"n": 3}', "code field 'points' is missing"),
        ('{"n": 3, "points": [[1.0, 0.0, 0.0]]}', "code field 'weights' is missing"),
    ],
)
def test_code_from_json_rejects_malformed_payload(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        code_from_json(text)


def random_code(rng, size, n):
    points = rng.standard_normal((size, n))
    points /= np.linalg.norm(points, axis=1)[:, None]
    weights = rng.uniform(0.1, 1.0, size)
    return WeightedCode(n, points, weights / weights.sum())


def pairwise_distinct_reference(points):
    """The distinctness rule written out on the full N x N x n difference tensor."""
    dist = np.linalg.norm(points[:, None] - points[None, :], axis=2)
    return np.min(dist + 2.0 * np.eye(points.shape[0])) > 1e-9


def pair_code(theta):
    points = np.array([[1.0, 0.0, 0.0], [math.cos(theta), math.sin(theta), 0.0]])
    return WeightedCode(3, points, np.array([0.5, 0.5]))


def test_distinctness_threshold():
    with pytest.raises(ValueError, match="distinct"):
        pair_code(5e-10)
    assert pair_code(1e-8).size == 2
    points = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="distinct"):
        WeightedCode(3, points, np.full(3, 1 / 3))


def test_distinctness_matches_difference_tensor_rule():
    # clusters of points at distances straddling 1e-9, in several dimensions
    rng = np.random.default_rng(7)
    outcomes = set()
    for trial in range(60):
        n = 2 + trial % 5
        base = rng.standard_normal((4, n))
        offsets = rng.standard_normal((12, n)) * 10.0 ** rng.uniform(-10.5, -8, (12, 1))
        points = base[rng.integers(0, 4, 12)] + offsets
        points /= np.linalg.norm(points, axis=1)[:, None]
        expected = pairwise_distinct_reference(points)
        outcomes.add(expected)
        try:
            code = WeightedCode(n, points, np.full(12, 1 / 12))
        except ValueError as exc:
            assert "distinct" in str(exc)
            assert not expected
        else:
            assert expected
            assert np.array_equal(code.gram(), np.clip(points @ points.T, -1.0, 1.0))
    assert outcomes == {True, False}


def test_large_code_builds():
    assert random_code(np.random.default_rng(11), 3000, 3).size == 3000
    # the Gram matrix of the polygon alone would take 3.2 GB
    assert codes.cube(12).size == 4096
    assert codes.crosspolytope(500).size == 1000
    assert cube_crosspolytope(10).size == 1044
    assert regular_ngon(20000).size == 20000


def planted_pair_points(rng, size, n, distance):
    """Random unit vectors with row j moved to the given distance from row i."""
    points = rng.standard_normal((size, n))
    points /= np.linalg.norm(points, axis=1)[:, None]
    i, j = rng.choice(size, 2, replace=False)
    a = points[i]
    b = rng.standard_normal(n)
    b -= (b @ a) * a
    b /= np.linalg.norm(b)
    theta = 2.0 * math.asin(distance / 2.0)
    points[j] = math.cos(theta) * a + math.sin(theta) * b
    assert np.linalg.norm(points[i] - points[j]) == pytest.approx(distance, rel=1e-6)
    return points


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_planted_pair_in_a_large_code(n):
    rng = np.random.default_rng(53 + n)
    size = 3000
    weights = np.full(size, 1.0 / size)
    for _ in range(3):
        with pytest.raises(ValueError, match="distinct"):
            WeightedCode(n, planted_pair_points(rng, size, n, 5e-10), weights)
        assert WeightedCode(n, planted_pair_points(rng, size, n, 2e-9), weights).size == size


def test_distinctness_among_points_sharing_one_projection():
    # every point on one slice orthogonal to the projection axis: all pairs are
    # candidates, and a coincident pair far apart in sorted order is still found
    rng = np.random.default_rng(59)
    for n in (3, 4, 6):
        axis = codes._projection_axis(n)
        for planted in (False, True):
            free = rng.standard_normal((40, n))
            free -= (free @ axis)[:, None] * axis
            free /= np.linalg.norm(free, axis=1)[:, None]
            points = 0.6 * axis + 0.8 * free
            points /= np.linalg.norm(points, axis=1)[:, None]
            if planted:
                points[31] = points[2] + 3e-10 * free[5]
                points[31] /= np.linalg.norm(points[31])
            assert codes._has_coincident_pair(points) == (not pairwise_distinct_reference(points))
            assert codes._has_coincident_pair(points) == planted


def test_construction_memory_stays_below_the_gram_matrix():
    rng = np.random.default_rng(61)
    size, n = 3000, 5
    points = rng.standard_normal((size, n))
    points /= np.linalg.norm(points, axis=1)[:, None]
    weights = np.full(size, 1.0 / size)
    tracemalloc.start()
    try:
        WeightedCode(n, points, weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * size**2 / 4


def test_non_finite_points_rejected():
    points = np.array([[1.0, 0.0, 0.0], [np.nan, 0.0, 0.0]])
    with pytest.raises(ValueError, match="unit"):
        WeightedCode(3, points, np.array([0.5, 0.5]))


@pytest.mark.parametrize(
    "h",
    [riesz(1), riesz(2.5), gaussian(1.7), logarithmic(), fejes_toth(), shifted(riesz(1), -2.0)],
    ids=lambda h: h.label(),
)
def test_energy_equals_fsum_of_pair_terms(h):
    rng = np.random.default_rng(23)
    for size, n in ((2, 3), (40, 3), (150, 4), (260, 6)):
        code = random_code(rng, size, n)
        g, w = code.gram(), code.weights
        terms = []
        for i in range(size):
            terms.extend(2.0 * w[i] * w[i + 1 :] * np.atleast_1d(potential_eval(h, g[i, i + 1 :])))
        assert energy(code, h) == math.fsum(terms)


def test_energy_bundled_codes_to_the_bit():
    assert energy(pentakis_dodecahedron(), riesz(1)) == 0.8050318119233837
    assert energy(cube_crosspolytope(10), riesz(1)) == 0.7368426543856972


# energy of seeded random codes whose row blocks span several column
# tiles, recorded under the fixed numerics of the CLI pins; the codes'
# points are standard normal rows normalised, their weights uniform in
# [0.5, 1.5] normalised, drawn from np.random.default_rng(seed)
ENERGY_PINS = {
    (61, 1050, 8): {
        "riesz:1": 0.7519099861394989,
        "riesz:2": 0.5998984450196773,
        "gaussian:1": 0.3910186366134896,
        "log": -0.615999759890881,
        "fejes-toth": -1.388021442857592,
        "newton:4": 0.5998984450196773,
        "shift:-0.5:riesz:1": 0.2524268088479556,
    },
    (67, 560, 4): {
        "riesz:1": 0.8452341892465592,
        "riesz:2": 0.9715737574305512,
        "gaussian:1": 0.41444921898973075,
        "log": -0.5013477825173749,
        "fejes-toth": -1.3565476034857347,
        "newton:4": 0.9715737574305512,
        "shift:-0.5:riesz:1": 0.34619693250481515,
    },
}

# computes the energies of ENERGY_PINS's codes; its imports load numpy
PIN_RUNNER = """
import json, sys
import numpy as np
from spherelp.codes import WeightedCode, energy
from spherelp.potentials import parse_potential
got = []
for seed, size, n, specs in json.load(sys.stdin):
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((size, n))
    points /= np.linalg.norm(points, axis=1)[:, None]
    weights = rng.uniform(0.5, 1.5, size)
    code = WeightedCode(n, points, weights / weights.sum())
    got.append({spec: energy(code, parse_potential(spec)) for spec in specs})
json.dump(got, sys.stdout)
"""


def test_energy_of_multi_tile_codes_is_pinned_to_the_bit():
    payload = [[*key, list(pins)] for key, pins in ENERGY_PINS.items()]
    assert run_under_fixed_numerics(PIN_RUNNER, payload) == list(ENERGY_PINS.values())


def test_gram_rows_blocks_equal_the_clipped_product_bit_for_bit():
    rng = np.random.default_rng(59)
    examples = [pentakis_dodecahedron(), cube_crosspolytope(10), regular_ngon(7), pair_code(1e-8)]
    examples += [random_code(rng, size, n) for size, n in ((BLOCK_ROWS, 3), (BLOCK_ROWS + 1, 5), (560, 4), (1050, 8))]
    for code in examples:
        points, stops = code.points, []
        for start, stop, block in codes._gram_rows(code):
            want = np.clip(points[start:stop] @ points.T, -1.0, 1.0)
            assert block.shape == want.shape and block.tobytes() == want.tobytes()
            stops.append(stop)
        assert stops == list(range(BLOCK_ROWS, code.size, BLOCK_ROWS)) + [code.size]


def test_one_point_code():
    code = WeightedCode(4, np.array([[1.0, 0.0, 0.0, 0.0]]), np.array([1.0]))
    assert energy(code, riesz(1)) == 0.0
    for _ in range(2):
        with pytest.raises(ValueError, match="at least two points"):
            code.max_inner_product


def masked_max_inner_product(code):
    """The maximal inner product as the largest entry off the Gram diagonal."""
    return float(np.max(code.gram()[~np.eye(code.size, dtype=bool)]))


def test_max_inner_product_equals_masked_max_and_is_computed_once(monkeypatch):
    rng = np.random.default_rng(41)
    examples = [pentakis_dodecahedron(), cube_crosspolytope(10), regular_ngon(7), pair_code(1e-8)]
    examples += [random_code(rng, size, n) for size, n in ((2, 3), (3, 2), (90, 4), (400, 7))]
    calls = []
    gram_rows = codes._gram_rows
    monkeypatch.setattr(codes, "_gram_rows", lambda code: calls.append(code) or gram_rows(code))
    for code in examples:
        want = masked_max_inner_product(code)
        calls.clear()
        assert code.max_inner_product == want
        assert code.max_inner_product == want  # a second access must not stream the Gram matrix again
        assert len(calls) == 1


def fsum_outcome(values):
    try:
        return math.fsum(list(values))
    except (ValueError, OverflowError) as exc:
        return type(exc)


def exact_sum_outcome(values):
    try:
        return exact_sum([np.array(values, dtype=float)])
    except (ValueError, OverflowError) as exc:
        return type(exc)


def same_outcome(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or (a == b and math.copysign(1, a) == math.copysign(1, b))
    return a == b


EDGE_CASES = [
    [],
    [0.0],
    [-0.0, -0.0],
    [1.5, -1.5],
    [1e16, 1.0, -1e16],
    [0.1] * 10 + [-1.0],
    [1e300, 1e-300, -1e300, 3.0],
    [5e-324, 5e-324, -1e-310, 2.5e-308],
    [1.7e308, 1.7e308, -1.7e308],
    [1.7e308, 1e308],
    [np.inf, 1.0],
    [np.inf, -np.inf],
    [np.nan, 1.0],
]


@pytest.mark.parametrize("values", EDGE_CASES)
def test_exact_sum_edge_cases(values):
    assert same_outcome(exact_sum_outcome(values), fsum_outcome(values))


def test_exact_sum_random_arrays():
    rng = np.random.default_rng(3)
    for trial in range(300):
        size = int(rng.integers(1, 400))
        values = rng.standard_normal(size) * 2.0 ** rng.integers(-1074, 900, size).astype(float)
        if trial % 3 == 0:
            values = np.concatenate([values, -values[::-1]])  # exact cancellation
        elif trial % 3 == 1:
            values *= 2.0 ** -1000  # many subnormals
        assert same_outcome(exact_sum([values.copy()]), math.fsum(values.tolist()))


def accumulated_outcome(chunks):
    """``exact_sum`` over fresh copies of the chunks, or the error it raised."""
    try:
        return exact_sum(np.array(chunk, dtype=float) for chunk in chunks)
    except (ValueError, OverflowError) as exc:
        return type(exc)


@pytest.mark.parametrize("values", EDGE_CASES)
def test_accumulator_over_chunks_matches_fsum(values):
    want = fsum_outcome(values)
    for cut in range(len(values) + 1):
        assert same_outcome(accumulated_outcome([values[:cut], values[cut:]]), want)
    assert same_outcome(accumulated_outcome([[v] for v in values]), want)
    assert same_outcome(accumulated_outcome([[], values, []]), want)
    # after an extracted chunk, so non-finite and huge values arrive with a prefix
    prefix = [0.75, -3.0, 1e-310]
    assert same_outcome(accumulated_outcome([prefix, values]), fsum_outcome(prefix + values))


def extraction_levels(values):
    """The parts ``_exact_parts`` yields for one chunk, one per level; the
    ``bounded_extraction`` fixture fails an extraction that would not end."""
    x = np.array(values, dtype=float)
    return list(codes._exact_parts(x, x.max(), x.min(), np.empty(x.size)))


def test_extraction_ends_on_odd_multiples_of_the_least_subnormal():
    # sigma = 2**-1021 would round each such value half-to-even to q = 0
    rng = np.random.default_rng(17)
    for size in (1, 2, 7, 300):
        values = (2 * rng.integers(0, 2**20, size) + 1) * rng.choice([-1.0, 1.0], size) * 2.0**-1074
        assert len(extraction_levels(values)) == 1
        want = math.fsum(values.tolist())
        assert exact_sum([values.copy()]) == want
        assert accumulated_outcome(np.array_split(values, 3)) == want


def test_extraction_over_the_whole_exponent_range():
    rng = np.random.default_rng(19)
    for trial in range(40):
        size = int(rng.integers(1, 500))
        values = rng.uniform(1.0, 2.0, size) * 2.0 ** rng.integers(-1074, 960, size).astype(float)
        values = np.concatenate([values * rng.choice([-1.0, 1.0], size), [2.0**-1074, 2.0**959]])
        if trial % 2:
            values = np.concatenate([values, -rng.permutation(values)[: size // 2]])  # exact cancellation
        values = rng.permutation(values)
        want = math.fsum(values.tolist())
        assert math.fsum(extraction_levels(values)) == want
        cuts = np.sort(rng.integers(0, values.size + 1, 4))
        assert accumulated_outcome(np.split(values, cuts)) == want


def test_extraction_levels_on_energy_terms():
    # pair terms within a few binades of each other take two levels
    code = random_code(np.random.default_rng(23), 2 * BLOCK_ROWS + 1, 4)
    g, w = code.gram()[:BLOCK_ROWS, BLOCK_ROWS:], code.weights
    terms = np.multiply.outer(2.0 * w[:BLOCK_ROWS], w[BLOCK_ROWS:]) * potential_eval(riesz(1), g)
    assert len(extraction_levels(terms.ravel())) <= 2


def one_signed_chunk(size, span, sign):
    """size values of one sign whose largest magnitude lies in [0.5, 1) and
    whose smallest, an odd multiple of 2**(-span - 53), has ``frexp``
    exponent -span; the others leave as large a first-level remainder as
    that sign allows, so the remainders' sum is as wide as the chunk makes it."""
    k = (size + 1).bit_length()
    m = 2**k - 1 if sign > 0 else 2 ** (k - 1) - 1
    values = np.full(size, 0.5 + m * 2.0**-53)
    values[size // 2] = math.ldexp(2**52 + 1, -span - 53)
    return sign * values


def levels_and_parts(values, monkeypatch):
    """The extraction levels ``_exact_parts`` takes on one chunk, and its parts."""
    levels = []
    extraction_level = codes._extraction_level
    monkeypatch.setattr(codes, "_extraction_level", lambda *args: levels.append(1) or extraction_level(*args))
    parts = extraction_levels(values)
    monkeypatch.setattr(codes, "_extraction_level", extraction_level)
    return len(levels), parts


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
@pytest.mark.parametrize("scale", [1.0, 2.0**-1021, 2.0**-1022], ids=["unit", "top-normal", "top-subnormal"])
def test_two_part_rule_at_its_edges(sign, scale, monkeypatch):
    # sizes 2**k - 2 and 2**k - 1 on each side of a step in k; spans
    # e1 - emin = 53 - 2k take two parts, one binade more takes the loop
    for size in (2, 3, 14, 15, 126, 127, 4094, 4095):
        k = (size + 1).bit_length()
        for span, two_parts in ((53 - 2 * k, True), (54 - 2 * k, False)):
            values = one_signed_chunk(size, span, sign) * scale
            top, least = np.abs(values).max(), np.abs(values).min()
            assert math.frexp(top)[1] - math.frexp(least)[1] == span
            want = math.fsum(values.tolist())
            taken, parts = levels_and_parts(values, monkeypatch)
            if two_parts:
                assert (taken, len(parts)) == (1, 2)
            else:
                assert taken >= 2
            assert math.fsum(parts) == want
            assert exact_sum([values.copy()]) == want


def test_remainders_one_binade_past_the_bound_do_not_sum_exactly():
    # six values: k = 3, span 48 = 54 - 2k; five remainders of 7 * 2**-53 and
    # one of 2**-101 total 35 * 2**-53 + 2**-101, which needs 54 bits
    values = one_signed_chunk(6, 48, 1.0)
    remainders = values.copy()
    codes._extraction_level(remainders, values.max(), np.empty(values.size))
    total = sum(map(Fraction, remainders.tolist()))
    assert total == Fraction(35, 2**53) + Fraction(1, 2**101)
    # no double is that total, so no order of summation gets it
    assert Fraction(float(remainders.sum())) != total
    assert exact_sum([values.copy()]) == math.fsum(values.tolist())


@pytest.mark.parametrize(
    "values",
    [[0.0, 0.75, 1.5], [1.0, -0.0, 3.0], [-0.0, -0.5, -0.25], [-1.5, 0.0], [0.5, 0.0, 0.0, 2.0**-30]],
)
def test_one_signed_chunk_holding_a_zero_takes_the_loop(values, monkeypatch):
    values = np.array(values)
    taken, parts = levels_and_parts(values, monkeypatch)
    assert taken >= 2
    assert same_outcome(math.fsum(parts), math.fsum(values.tolist()))
    assert same_outcome(exact_sum([values.copy()]), math.fsum(values.tolist()))


def test_subnormal_chunk_below_the_floor_takes_one_part(monkeypatch):
    # sigma = 2**(e1 + k) <= 2**-1022 is floored, so q = x and no remainder is left
    for sign in (1.0, -1.0):
        values = sign * np.array([3.0, 5.0, 2.0**4 + 1.0, 7.0]) * 2.0**-1074
        taken, parts = levels_and_parts(values, monkeypatch)
        assert (taken, parts) == (1, [math.fsum(values.tolist())])


@pytest.mark.parametrize("spec, one_level", [("riesz:1", True), ("riesz:2", True), ("gaussian:1", True), ("log", False)])
def test_energy_tiles_of_one_signed_potentials_sum_in_two_parts(spec, one_level, monkeypatch):
    # the fast path: a positive tile within the span bound takes one
    # extraction level and two parts; log changes sign at t = 1/2
    rng = np.random.default_rng(61)
    points = rng.standard_normal((1050, 8))
    points /= np.linalg.norm(points, axis=1)[:, None]
    weights = rng.uniform(0.5, 1.5, 1050)
    code = WeightedCode(8, points, weights / weights.sum())
    chunks, exact_parts, extraction_level = [], codes._exact_parts, codes._extraction_level

    def counted_parts(x, *rest):
        chunks.append([0, 0])
        for part in exact_parts(x, *rest):
            chunks[-1][1] += 1
            yield part

    def counted_level(*args):
        chunks[-1][0] += 1
        return extraction_level(*args)

    monkeypatch.setattr(codes, "_exact_parts", counted_parts)
    monkeypatch.setattr(codes, "_extraction_level", counted_level)
    energy(code, parse_potential(spec))
    # 17 row blocks: 17 triangles and 16 + 15 + ... + 1 rectangle tiles of up to 4
    assert len(chunks) == 57
    if one_level:
        assert all(chunk == [1, 2] for chunk in chunks)
    else:
        assert any(levels >= 2 for levels, _ in chunks)


@pytest.mark.parametrize("edge", [-1, 0, 1], ids=["below", "at", "above"])
def test_accumulator_switches_to_raw_values_at_two_to_the_960(edge):
    huge = np.nextafter(2.0**960, [0.0, 2.0**960, np.inf][edge + 1])
    for chunks in (
        [[huge]],
        [[0.75, -3.0, 1e-310], [huge, 1e-300], [-huge, 2.5]],
        [[huge, -huge], [1e300, 5e-324]],
        [[-huge, huge * 0.5, 1.0], [huge * 0.5]],
        [[1.0], [huge] * 3, [-1e-320]],
    ):
        want = fsum_outcome([v for chunk in chunks for v in chunk])
        assert same_outcome(accumulated_outcome(chunks), want)


def test_accumulator_keeps_few_parts_over_many_chunks():
    rng = np.random.default_rng(31)
    values = rng.standard_normal(3000) * 2.0 ** rng.integers(-40, 40, 3000)
    pairs = np.column_stack([values, -values / 3])
    for stop in (1, 501, 1001, 1501, 2001, 2501, 3000):
        assert accumulated_outcome(pairs[:stop]) == math.fsum(pairs[:stop].ravel().tolist())
    # chunks just below 2**960, each extracted, whose parts reach past 2**960
    big = [1.75 * 2.0**959] * 2
    assert accumulated_outcome([big] * 2048) == math.fsum(big * 2048)


def test_accumulator_of_negative_zeros_matches_fsum():
    for chunks in ([[-0.0] * 5], [[-0.0], [-0.0, -0.0]], [[1.0, -1.0], [-0.0] * 3], [[-0.0] * 4, [5e-324]]):
        want = fsum_outcome([v for chunk in chunks for v in chunk])
        assert same_outcome(accumulated_outcome(chunks), want)


FIVE_POTENTIALS = [riesz(1), newton(4), gaussian(1.7), logarithmic(), fejes_toth()]

# code sizes at the edges of row blocks, then ones whose first block's
# rectangle has TILE_COLUMNS - 1, TILE_COLUMNS and TILE_COLUMNS + 1 columns,
# then one whose first block's rectangle spans three tiles
EDGE_SIZES = (1, 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1) + tuple(
    BLOCK_ROWS + TILE_COLUMNS + d for d in (-1, 0, 1)
) + (BLOCK_ROWS + 2 * TILE_COLUMNS + 1,)


@pytest.mark.parametrize("h", FIVE_POTENTIALS + [shifted(fejes_toth(), 1.5)], ids=lambda h: h.label())
def test_energy_equals_fsum_at_block_edges(h):
    rng = np.random.default_rng(29)
    for size in EDGE_SIZES:
        code = random_code(rng, size, 4)
        g, w = code.gram(), code.weights
        terms = []
        for i in range(size):
            terms.extend(2.0 * w[i] * w[i + 1 :] * np.atleast_1d(potential_eval(h, g[i, i + 1 :])))
        assert energy(code, h) == math.fsum(terms)


def test_energy_switches_to_raw_values_in_a_late_chunk(monkeypatch):
    size = 2 * BLOCK_ROWS + 1
    points = random_code(np.random.default_rng(53), size, 3).points
    # rows 100 and 101, 1e-6 apart, share the triangle chunk of the second block
    a, b = points[100], np.cross(points[100], [0.0, 0.0, 1.0])
    b /= np.linalg.norm(b)
    points[101] = math.cos(1e-6) * a + math.sin(1e-6) * b
    code, h = WeightedCode(3, points, np.full(size, 1.0 / size)), riesz(50)
    g, w = code.gram(), code.weights
    terms = [2.0 * w[i] * w[i + 1 :] * potential_eval(h, g[i, i + 1 :]) for i in range(size)]
    huge = [v for row in terms for v in row if v >= 2.0**960]
    assert len(huge) == 1 and math.isfinite(huge[0])
    extracted = []
    exact_parts = codes._exact_parts
    monkeypatch.setattr(codes, "_exact_parts", lambda x, *rest: extracted.append(x.size) or exact_parts(x, *rest))
    assert energy(code, h) == math.fsum(np.concatenate(terms).tolist())
    # the first block's triangle and rectangle are extracted; the rest is kept raw
    assert extracted == [BLOCK_ROWS * (BLOCK_ROWS - 1) // 2, BLOCK_ROWS * (size - BLOCK_ROWS)]


def test_coincident_pair_in_last_block_raises():
    size = 2 * BLOCK_ROWS + 1
    points = random_code(np.random.default_rng(37), size, 3).points
    # the last point 1e-8 from the one before: distinct, but their inner product rounds to 1
    a, b = points[-2], np.cross(points[-2], [0.0, 0.0, 1.0])
    b /= np.linalg.norm(b)
    points[-1] = math.cos(1e-8) * a + math.sin(1e-8) * b
    code = WeightedCode(3, points, np.full(size, 1.0 / size))
    with pytest.raises(ValueError, match="coincident points"):
        energy(code, riesz(1))
    assert energy(WeightedCode(3, points[:-1], np.full(size - 1, 1.0 / (size - 1))), riesz(1)) > 0


def test_coincident_pair_in_a_later_tile_raises():
    size = BLOCK_ROWS + 2 * TILE_COLUMNS + 1
    points = random_code(np.random.default_rng(73), size, 3).points
    # the first block's rectangle ends in a one-column third tile; rows 0 and 1
    # meet their near copies in that tile and in the middle of the second
    for row, col in ((0, size - 1), (1, BLOCK_ROWS + TILE_COLUMNS + 100)):
        a, b = points[row], np.cross(points[row], [0.0, 0.0, 1.0])
        b /= np.linalg.norm(b)
        near = points.copy()
        near[col] = math.cos(1e-8) * a + math.sin(1e-8) * b
        with pytest.raises(ValueError, match="coincident points"):
            energy(WeightedCode(3, near, np.full(size, 1.0 / size)), riesz(1))


def test_energy_clips_products_below_minus_one():
    # antipodal pairs of vectors 1e-12 longer than 1, as construction allows,
    # in random rows: their products fall below -1 in diagonal squares and tiles
    rng = np.random.default_rng(79)
    half = (BLOCK_ROWS + 2 * TILE_COLUMNS) // 2
    x = rng.standard_normal((half, 4))
    x *= (1.0 + 2.0**-40) / np.linalg.norm(x, axis=1)[:, None]
    order = rng.permutation(2 * half)
    points = np.concatenate([x, -x])[order]
    code, h = WeightedCode(4, points, np.full(2 * half, 1.0 / (2 * half))), logarithmic()
    raw = points @ points.T
    rows, cols = np.nonzero(np.triu(raw < -1.0))
    assert rows.size == half
    same_block = rows // BLOCK_ROWS == cols // BLOCK_ROWS
    assert same_block.any() and not same_block.all()
    g, w = code.gram(), code.weights
    terms = [2.0 * w[i] * w[i + 1 :] * potential_eval(h, g[i, i + 1 :]) for i in range(code.size)]
    unclipped = [2.0 * w[i] * w[i + 1 :] * potential_eval(h, raw[i, i + 1 :]) for i in range(code.size)]
    want = math.fsum(np.concatenate(terms).tolist())
    assert want != math.fsum(np.concatenate(unclipped).tolist())
    assert energy(code, h) == want


def test_energy_memory_stays_below_the_gram_matrix():
    code = random_code(np.random.default_rng(43), 3000, 3)
    tracemalloc.start()
    try:
        energy(code, riesz(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the row buffer plus six tile-sized arrays: the pair weight and h value
    # buffers, exact_sum's scratch, an extraction level's copy of a tile and
    # two as margin; the Gram matrix would take 72 MB, this bound 2.3 MB
    tile = 8 * BLOCK_ROWS * TILE_COLUMNS
    assert peak < 8 * BLOCK_ROWS * code.size + 6 * tile


def test_moments_over_row_blocks_match_the_full_table():
    rng = np.random.default_rng(47)
    for code in (cube_crosspolytope(7), random_code(rng, 2 * BLOCK_ROWS + 5, 5)):
        w = code.weights
        table = gegenbauer_table(code.n, 8, code.gram())
        want = [float(w @ table[ell] @ w) for ell in range(1, 9)]
        assert_allclose(design_strength(code, 8).moments, want, rtol=1e-12, atol=1e-15)
