import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import binom, eval_legendre, roots_jacobi

from spherelp.orthopoly import (
    GegenbauerSeries,
    JacobiSpec,
    MonomialPoly,
    from_gegenbauer,
    gegenbauer_eval,
    gegenbauer_monomial_table,
    gegenbauer_table,
    jacobi_eval,
    jacobi_largest_zero,
    jacobi_zeros,
    measure_moment,
    to_gegenbauer,
)


def gauss_mu_rule(n, points=64):
    """Probability-normalized Gauss-Jacobi rule for mu_n (oracle)."""
    x, w = roots_jacobi(points, (n - 3) / 2, (n - 3) / 2)
    return x, w / w.sum()


def jacobi_series_oracle(alpha, beta, k, t):
    """Hypergeometric series for the Jacobi polynomial, 1-at-1 scaling."""
    total = sum(
        binom(k + alpha, k - j) * binom(k + beta, j) * ((t - 1) / 2) ** j * ((t + 1) / 2) ** (k - j)
        for j in range(k + 1)
    )
    return total / binom(k + alpha, k)


def test_gegenbauer_degree_zero():
    assert gegenbauer_eval(5, 0, 0.37) == 1.0


def test_gegenbauer_value_at_one():
    assert gegenbauer_eval(4, 7, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_gegenbauer_legendre_oracle():
    # dimension 3 gives the Legendre polynomials
    assert gegenbauer_eval(3, 2, 0.5) == pytest.approx((3 * 0.25 - 1) / 2, abs=1e-15)
    t = np.linspace(-1, 1, 41)
    for i in range(11):
        assert_allclose(gegenbauer_eval(3, i, t), eval_legendre(i, t), atol=1e-13)


@pytest.mark.parametrize("n", range(2, 17))
def test_normalization_at_one(n):
    for i in range(21):
        assert abs(gegenbauer_eval(n, i, 1.0) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 5, 11])
def test_gegenbauer_eval_is_table_row(n):
    t = np.linspace(-1, 1, 37)
    for i in range(25):
        assert np.array_equal(gegenbauer_eval(n, i, t), gegenbauer_table(n, i, t)[i])
        for x in (-1.0, -0.3, 0.77, 1.0):
            value = gegenbauer_eval(n, i, x)
            assert isinstance(value, float)
            assert value == gegenbauer_table(n, i, x)[i]


def _gegenbauer_table_reference(n, imax, t):
    """Reference: the recurrence as one array expression per degree."""
    t = np.asarray(t, dtype=float)
    out = np.empty((imax + 1,) + t.shape)
    out[0] = 1.0
    if imax >= 1:
        out[1] = t
    for j in range(1, imax):
        out[j + 1] = ((2 * j + n - 2) * t * out[j] - j * out[j - 1]) / (j + n - 2)
    return out


@pytest.mark.parametrize("n", [2, 3, 8, 30])
def test_gegenbauer_table_matches_array_expression(n):
    # the scalar path runs on Python floats and the array path in place; both
    # do the reference's operations in its order, so the bits agree
    rng = np.random.default_rng(n)
    for imax in (0, 1, 2, 9, 25, 75):
        for t in (0.3, -1.0, 1.0, np.float64(-0.7), np.array(0.25), rng.uniform(-1, 1, 13),
                  rng.uniform(-1, 1, (3, 4)), np.linspace(-1, 0.999, 4500), np.empty(0)):
            got, ref = gegenbauer_table(n, imax, t), _gegenbauer_table_reference(n, imax, t)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), (imax, t)


@pytest.mark.parametrize("n", [2, 3, 8, 30])
def test_series_clenshaw_matches_table_product(n):
    rng = np.random.default_rng(n)
    t = np.linspace(-1.0, 1.0, 301)
    for degree in (0, 1, 2, 7, 25):
        coeffs = rng.standard_normal(degree + 1)
        series = GegenbauerSeries(n, coeffs)
        assert_allclose(series(t), coeffs @ gegenbauer_table(n, degree, t), rtol=0, atol=1e-13)
        assert float(series(0.4)) == pytest.approx(float(coeffs @ gegenbauer_table(n, degree, 0.4)), abs=1e-13)


def test_gegenbauer_domain_errors():
    with pytest.raises(ValueError):
        gegenbauer_eval(1, 2, 0.0)
    with pytest.raises(ValueError):
        gegenbauer_eval(3, -1, 0.0)


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_orthogonality(n):
    x, w = gauss_mu_rule(n)
    table = gegenbauer_table(n, 12, x)
    gram = (table * w) @ table.T
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < 1e-10


def test_positive_definiteness_witnesses():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        size = int(rng.integers(2, 9))
        pts = rng.standard_normal((size, n))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        gram = np.clip(pts @ pts.T, -1, 1)
        for ell in range(11):
            assert np.sum(gegenbauer_eval(n, ell, gram)) >= -1e-9


def test_jacobi_matches_gegenbauer_at_zero_offsets():
    t = np.linspace(-1, 1, 21)
    for n in (2, 3, 5):
        for k in (0, 1, 4, 9):
            assert_allclose(
                jacobi_eval(JacobiSpec(0, 0, n, k), t), gegenbauer_eval(n, k, t), atol=1e-12
            )


def test_jacobi_symmetric_degree_one_is_identity():
    for a in (0, 1):
        for n in (2, 4, 9):
            for t in (-0.8, 0.1, 0.6):
                assert jacobi_eval(JacobiSpec(a, a, n, 1), t) == pytest.approx(t, abs=1e-14)


def test_jacobi_series_oracle_example():
    spec = JacobiSpec(1, 0, 3, 2)
    got = jacobi_eval(spec, 0.2)
    want = jacobi_series_oracle(spec.alpha, spec.beta, 2, 0.2)
    assert got == pytest.approx(want, abs=1e-12)


def test_jacobi_series_oracle_random():
    rng = np.random.default_rng(3)
    for _ in range(30):
        spec = JacobiSpec(
            int(rng.integers(0, 2)), int(rng.integers(0, 2)), int(rng.integers(2, 9)),
            int(rng.integers(0, 9)),
        )
        t = float(rng.uniform(-1, 1))
        want = jacobi_series_oracle(spec.alpha, spec.beta, spec.k, t)
        assert jacobi_eval(spec, t) == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_jacobi_invalid_exponents():
    with pytest.raises(ValueError):
        JacobiSpec(-1, 0, 2, 3)  # alpha = -1.5


def test_largest_zero_conventions():
    assert jacobi_largest_zero(JacobiSpec(1, 1, 5, 0)) == -1.0
    with pytest.raises(ValueError):
        jacobi_largest_zero(JacobiSpec(1, 0, 5, 0))
    for n in (2, 3, 6):
        assert jacobi_largest_zero(JacobiSpec(1, 1, n, 1)) == pytest.approx(0.0, abs=1e-13)


def test_largest_zero_refined_and_rightmost():
    spec = JacobiSpec(1, 0, 3, 3)
    z = jacobi_largest_zero(spec)
    assert abs(jacobi_eval(spec, z)) < 1e-11
    # no sign change to the right of the zero
    grid = np.linspace(z + 1e-9, 1.0, 200)
    assert np.all(jacobi_eval(spec, grid) > 0)
    # bisection-style bracket from the tridiagonal eigenvalues contains it
    zeros = jacobi_zeros(spec)
    assert zeros[-2] < z <= zeros[-1] + 1e-10


def test_measure_moment_values():
    for n in (2, 3, 4, 8):
        assert measure_moment(n, 0) == 1.0
        assert measure_moment(n, 3) == 0.0
        assert measure_moment(n, 7) == 0.0
        assert measure_moment(n, 4) == pytest.approx(3 / (n * (n + 2)), rel=1e-14)


@pytest.mark.parametrize("n,j", [(3, 2), (3, 8), (4, 6), (5, 10), (8, 12)])
def test_measure_moment_quadrature_oracle(n, j):
    x, w = gauss_mu_rule(n)
    assert measure_moment(n, j) == pytest.approx(float(np.dot(w, x**j)), abs=1e-13)


def test_measure_moment_quad_oracle():
    # direct adaptive integration against the density, n >= 3
    n, j = 5, 6
    gamma = math.gamma(n / 2) / (math.sqrt(math.pi) * math.gamma((n - 1) / 2))
    val, _ = quad(lambda t: gamma * t**j * (1 - t * t) ** ((n - 3) / 2), -1, 1)
    assert measure_moment(n, j) == pytest.approx(val, abs=1e-12)


def test_to_gegenbauer_constant():
    series = to_gegenbauer(MonomialPoly((1.0,)), 6)
    assert series.coeffs == (1.0,)


def test_to_gegenbauer_legendre_inversion():
    series = to_gegenbauer(MonomialPoly((0.0, 0.0, 1.0)), 3)
    assert_allclose(series.coeffs, (1 / 3, 0.0, 2 / 3), atol=1e-15)


def test_from_gegenbauer_legendre():
    poly = from_gegenbauer(GegenbauerSeries(3, (0.0, 0.0, 1.0)))
    assert_allclose(poly.coeffs, (-0.5, 0.0, 1.5), atol=1e-15)


def test_zeroth_coefficient_is_measure_mean():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        coeffs = rng.standard_normal(int(rng.integers(1, 14)))
        series = to_gegenbauer(MonomialPoly(tuple(coeffs)), n)
        x, w = gauss_mu_rule(n)
        oracle = float(np.dot(w, np.polynomial.polynomial.polyval(x, coeffs)))
        assert series.coeffs[0] == pytest.approx(oracle, abs=1e-11)


def test_monomial_table_rows_are_cached_and_read_only():
    rows = gegenbauer_monomial_table(3, 6)
    again = gegenbauer_monomial_table(3, 6)
    assert isinstance(rows, tuple) and len(rows) == 7
    assert all(a is b for a, b in zip(rows, again))
    for row in rows:
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 1.0
    assert_allclose(rows[2], (-0.5, 0.0, 1.5), atol=1e-15)


def test_round_trip_random_degree_12():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        coeffs = rng.standard_normal(13)
        back = from_gegenbauer(to_gegenbauer(MonomialPoly(tuple(coeffs)), n))
        assert_allclose(back.coeffs, coeffs, rtol=1e-10, atol=1e-10)


def test_series_evaluation_matches_value_at_one():
    series = GegenbauerSeries(4, (0.3, -0.2, 0.5, 1.1))
    assert series.value_at_one() == pytest.approx(float(series(1.0)), rel=1e-13)


def test_degree_cap():
    with pytest.raises(ValueError):
        MonomialPoly((0.0,) * 66 + (1.0,))
