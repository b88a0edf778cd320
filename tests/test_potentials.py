import math

import numpy as np
import pytest

from spherelp.potentials import (
    classify,
    derivative_nonneg_from,
    fejes_toth,
    gaussian,
    logarithmic,
    newton,
    parse_potential,
    potential_derivative,
    potential_eval,
    riesz,
    shifted,
)

ALL_KINDS = [
    riesz(1.0),
    riesz(3.5),
    newton(2),
    newton(3),
    newton(5),
    gaussian(2.5),
    logarithmic(),
    fejes_toth(),
    shifted(fejes_toth(), 2.0),
]


def test_riesz_at_minus_one():
    assert potential_eval(riesz(1), -1.0) == pytest.approx(0.5, abs=1e-15)


def test_log_at_zero():
    assert potential_eval(logarithmic(), 0.0) == pytest.approx(-math.log(2), abs=1e-15)


def test_newton3_equals_riesz1():
    t = np.linspace(-1, 0.99, 57)
    np.testing.assert_allclose(potential_eval(newton(3), t), potential_eval(riesz(1), t), rtol=1e-15)


def test_fejes_value_and_derivative():
    assert potential_eval(fejes_toth(), -1.0) == pytest.approx(-2.0, abs=1e-15)
    assert potential_derivative(fejes_toth(), -1.0) == pytest.approx(0.5, abs=1e-15)


def test_riesz_derivative_at_zero():
    for alpha in (0.5, 1.0, 2.0, 4.5):
        want = alpha * 2.0 ** (-alpha / 2 - 1)
        assert potential_derivative(riesz(alpha), 0.0) == pytest.approx(want, rel=1e-14)


def test_gaussian_derivative():
    h = gaussian(2.0)
    t = np.linspace(-1, 0.9999, 11)
    np.testing.assert_allclose(potential_derivative(h, t), 2.0 * np.exp(-2.0 * (1 - t)), rtol=1e-14)


@pytest.mark.parametrize("h", ALL_KINDS, ids=lambda h: h.label())
def test_finite_difference_derivative(h):
    rng = np.random.default_rng(17)
    t = rng.uniform(-0.99, 0.9, 50)
    step = 1e-6
    fd = (potential_eval(h, t + step) - potential_eval(h, t - step)) / (2 * step)
    d = potential_derivative(h, t)
    assert np.all(np.abs(d - fd) < 1e-6 * (1.0 + np.abs(d)))


@pytest.mark.parametrize("h", ALL_KINDS, ids=lambda h: h.label())
def test_domain_error_at_one(h):
    with pytest.raises(ValueError):
        potential_eval(h, 1.0)
    with pytest.raises(ValueError):
        potential_derivative(h, 1.0)


@pytest.mark.parametrize("h", [riesz(1), newton(4), gaussian(1.0), logarithmic()], ids=lambda h: h.label())
def test_nondecreasing_on_grid(h):
    grid = np.linspace(-1, 0.999, 1000)
    values = potential_eval(h, grid)
    assert np.all(np.diff(values) >= 0)


def test_shift_equivariance_exact():
    base = riesz(2.0)
    h = shifted(base, 3.25)
    for t in (-1.0, -0.37, 0.9):
        assert potential_eval(h, t) == potential_eval(base, t) + 3.25
        assert potential_derivative(h, t) == potential_derivative(base, t)


def test_classify_riesz_strict():
    cls = classify(riesz(1))
    assert cls.absolutely_monotone and cls.strictly_absolutely_monotone
    assert cls.min_nonneg_derivative_order == 0


def test_classify_fejes_shift_only():
    cls = classify(fejes_toth())
    assert not cls.absolutely_monotone
    assert cls.min_nonneg_derivative_order == 1


def test_classify_shifted_fejes_absolute():
    cls = classify(shifted(fejes_toth(), 2.0))
    assert cls.absolutely_monotone
    assert cls.min_nonneg_derivative_order == 0


def test_classify_constant_not_strict():
    cls = classify(newton(2))
    assert cls.absolutely_monotone and not cls.strictly_absolutely_monotone


@pytest.mark.parametrize("h", ALL_KINDS + [shifted(riesz(2.0), -0.5)], ids=lambda h: h.label())
def test_classify_sampled_check_passes_for_builtin_kinds(h):
    cls = classify(h)
    assert cls.min_nonneg_derivative_order == (0 if derivative_nonneg_from(h, 0) else 1)


def test_classify_still_runs_the_sampled_check(monkeypatch):
    import spherelp.potentials as potentials

    monkeypatch.setattr(potentials, "potential_derivative", lambda h, t, order=1: -np.ones_like(t))
    with pytest.raises(RuntimeError, match="first derivative sampled negative"):
        classify(riesz(1))


def test_upper_bound_skips_the_sampled_check(monkeypatch):
    import spherelp.potentials as potentials
    from spherelp.bounds import uub

    def fail(*args):
        raise AssertionError("sampled check ran")

    monkeypatch.setattr(potentials, "_consistency_check", fail)
    report = uub(3, 30.0, 0.5, riesz(1))
    assert report.diagnostic("lambda_star_shortcut").ok


def test_derivative_nonneg_gates():
    assert derivative_nonneg_from(riesz(1), 0)
    assert derivative_nonneg_from(fejes_toth(), 1)
    assert not derivative_nonneg_from(fejes_toth(), 0)
    assert derivative_nonneg_from(logarithmic(), 1)
    assert not derivative_nonneg_from(logarithmic(), 0)
    assert not derivative_nonneg_from(shifted(fejes_toth(), 1.0), 0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        riesz(0.0)
    with pytest.raises(ValueError):
        gaussian(-1.0)
    with pytest.raises(ValueError):
        newton(1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "build", [riesz, gaussian, newton, lambda c: shifted(logarithmic(), c)], ids=["riesz", "gaussian", "newton", "shift"]
)
def test_nonfinite_parameters_are_rejected(build, bad):
    with pytest.raises(ValueError, match="parameter must be finite"):
        build(bad)


@pytest.mark.parametrize(
    "text,label",
    [
        ("riesz:1.0", "riesz:1"),
        ("gaussian:2.5", "gaussian:2.5"),
        ("log", "log"),
        ("fejes-toth", "fejes-toth"),
        ("shift:2.0:fejes-toth", "shift:2:fejes-toth"),
    ],
)
def test_parse_potential(text, label):
    assert parse_potential(text).label() == label


def test_parse_newton_needs_dimension():
    assert parse_potential("newton", n=4).param == 4
    with pytest.raises(ValueError):
        parse_potential("newton")
    with pytest.raises(ValueError):
        parse_potential("bogus:1")
