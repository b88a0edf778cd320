import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import eval_legendre, roots_jacobi

from oracles import clenshaw, measure_moment
from spherelp.orthopoly import (
    CACHED_DEGREE,
    SMALL_TABLE,
    GegenbauerSeries,
    from_gegenbauer,
    gegenbauer_eval,
    gegenbauer_table,
    to_gegenbauer,
    value_at_one,
)


def gauss_mu_rule(n, points=64):
    """Probability-normalized Gauss-Jacobi rule for mu_n (oracle)."""
    x, w = roots_jacobi(points, (n - 3) / 2, (n - 3) / 2)
    return x, w / w.sum()


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


# the Hermite slope rows tabulate dimension n + 2 as well
@pytest.mark.parametrize("n", [2, 3, 8, 30] + [n + 2 for n in (2, 3, 8, 30)])
def test_gegenbauer_table_matches_array_expression(n):
    # inputs of at most SMALL_TABLE points run on Python floats and larger
    # ones in place; both do the reference's operations in its order, so the
    # bits agree, and both return a C-ordered table, whose layout can change
    # the round-off of a later product such as table @ weights.  Degrees
    # above CACHED_DEGREE take their recurrence constants outside the cache
    rng = np.random.default_rng(n)
    limit = SMALL_TABLE
    assert CACHED_DEGREE < 90
    for imax in (0, 1, 2, 9, 25, 75, 90, 150):
        for t in (0.3, -1.0, 1.0, np.float64(-0.7), np.array(0.25), rng.uniform(-1, 1, 13),
                  rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, limit - 1), rng.uniform(-1, 1, limit),
                  rng.uniform(-1, 1, limit + 1), rng.uniform(-1, 1, (2, limit // 2)),
                  rng.uniform(-1, 1, (3, limit // 2)), np.linspace(-1, 0.999, 4500), np.empty(0)):
            got, ref = gegenbauer_table(n, imax, t), _gegenbauer_table_reference(n, imax, t)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), (imax, t)
            assert got.dtype == np.float64 and got.flags.c_contiguous, (imax, np.shape(t))


@pytest.mark.parametrize("n", [2, 3, 8, 30])
def test_series_clenshaw_matches_table_product(n):
    rng = np.random.default_rng(n)
    t = np.linspace(-1.0, 1.0, 301)
    for degree in (0, 1, 2, 7, 25):
        coeffs = rng.standard_normal(degree + 1)
        series = GegenbauerSeries(n, coeffs)
        assert_allclose(clenshaw(series, t), coeffs @ gegenbauer_table(n, degree, t), rtol=0, atol=1e-13)
        assert float(clenshaw(series, 0.4)) == pytest.approx(float(coeffs @ gegenbauer_table(n, degree, 0.4)), abs=1e-13)


def test_gegenbauer_domain_errors():
    with pytest.raises(ValueError):
        gegenbauer_eval(1, 2, 0.0)
    with pytest.raises(ValueError):
        gegenbauer_eval(3, -1, 0.0)


def test_table_beyond_physical_memory_raises_before_building(monkeypatch):
    # the memory figure is patched, so nothing large is allocated: at the
    # limit the table is built, one byte below it MemoryError is raised; the
    # float path counts 40 bytes per entry, the array path 8
    from spherelp import orthopoly

    assert orthopoly._physical_memory() > 0
    for points in (SMALL_TABLE, SMALL_TABLE + 1):
        t = np.linspace(-1.0, 1.0, points)
        size = 31 * points * (40 if points <= SMALL_TABLE else 8)
        monkeypatch.setattr(orthopoly, "_physical_memory", lambda: size)
        assert gegenbauer_table(3, 30, t).shape == (31, points)
        monkeypatch.setattr(orthopoly, "_physical_memory", lambda: size - 1)
        with pytest.raises(MemoryError, match=rf"^Unable to allocate .* GiB for an array with shape \(31, {points}\)"):
            gegenbauer_table(3, 30, t)


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
    series = to_gegenbauer((1.0,), 6)
    assert series.coeffs == (1.0,)


def test_to_gegenbauer_legendre_inversion():
    series = to_gegenbauer((0.0, 0.0, 1.0), 3)
    assert_allclose(series.coeffs, (1 / 3, 0.0, 2 / 3), atol=1e-15)


def test_from_gegenbauer_legendre():
    poly = from_gegenbauer(GegenbauerSeries(3, (0.0, 0.0, 1.0)))
    assert_allclose(poly, (-0.5, 0.0, 1.5), atol=1e-15)


def test_zeroth_coefficient_is_measure_mean():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        coeffs = rng.standard_normal(int(rng.integers(1, 14)))
        series = to_gegenbauer(coeffs, n)
        x, w = gauss_mu_rule(n)
        oracle = float(np.dot(w, np.polynomial.polynomial.polyval(x, coeffs)))
        assert series.coeffs[0] == pytest.approx(oracle, abs=1e-11)


def test_round_trip_random_degree_12():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        coeffs = rng.standard_normal(13)
        back = from_gegenbauer(to_gegenbauer(coeffs, n))
        assert_allclose(back, coeffs, rtol=1e-10, atol=1e-10)


def test_series_evaluation_matches_value_at_one():
    series = GegenbauerSeries(4, (0.3, -0.2, 0.5, 1.1))
    assert value_at_one(series.coeffs) == pytest.approx(float(clenshaw(series, 1.0)), rel=1e-13)


def test_value_at_one_adds_left_to_right():
    # 1 + 1e100 rounds to 1e100, so left to right the ones are lost; fsum,
    # and sum() from Python 3.12 on, would keep them and give 2
    coeffs = [1.0, 1e100, 1.0, -1e100]
    assert value_at_one(coeffs) == 0.0 and math.fsum(coeffs) == 2.0
    assert value_at_one(np.array(coeffs)) == 0.0
    # from 0.0, as sum() starts: a lone -0.0 gives 0.0
    assert math.copysign(1.0, value_at_one([-0.0])) == 1.0
