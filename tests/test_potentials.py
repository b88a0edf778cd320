import math
import re

import numpy as np
import pytest

from spherelp.potentials import (
    MAX_SHIFT_DEPTH,
    _gap_values,
    classify,
    derivative_nonneg_from,
    fejes_toth,
    gaussian,
    logarithmic,
    min_nonneg_derivative_order,
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


def test_domain_check_reads_every_point_past_a_nan():
    # the domain check takes one max below 1; a NaN max makes it compare
    # every point, so a NaN does not hide a t >= 1 next to it (and alone,
    # as before, gives NaN values rather than an error)
    h = riesz(1)
    for t in ([np.nan, 1.0], [1.0, np.nan], [0.2, np.nan, 0.3, 1.5]):
        with pytest.raises(ValueError, match="t >= 1"):
            potential_eval(h, np.array(t))
        with pytest.raises(ValueError, match="t >= 1"):
            potential_derivative(h, np.array(t))
    assert np.isnan(potential_eval(h, np.array([0.2, np.nan]))).tolist() == [False, True]
    for t in (np.empty(0), np.empty((3, 0))):
        assert potential_eval(h, t).shape == t.shape and potential_derivative(h, t).shape == t.shape


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
    assert classify(riesz(1)) is True
    assert min_nonneg_derivative_order(riesz(1)) == 0


def test_classify_fejes_shift_only():
    assert classify(fejes_toth()) is False
    assert min_nonneg_derivative_order(fejes_toth()) == 1


def test_classify_shifted_fejes_absolute():
    h = shifted(fejes_toth(), 2.0)
    assert classify(h) is True
    assert min_nonneg_derivative_order(h) == 0


def test_classify_constant_absolute():
    # a constant counts as absolutely monotone, though not strictly
    assert classify(newton(2)) is True
    assert min_nonneg_derivative_order(newton(2)) == 0


@pytest.mark.parametrize("h", ALL_KINDS + [shifted(riesz(2.0), -0.5)], ids=lambda h: h.label())
def test_classify_sampled_check_passes_for_builtin_kinds(h):
    # the closed-form claims against samples of h, h' and a central
    # difference of h' on a fixed grid
    order = min_nonneg_derivative_order(h)
    assert order == (0 if derivative_nonneg_from(h, 0) else 1)
    # the logarithmic kind is grouped with the absolutely monotone ones
    assert classify(h) is (order == 0 or h.kind == "logarithmic")
    grid = np.linspace(-1.0, 0.95, 40)
    tol = 1e-7
    assert (np.min(potential_eval(h, grid)) >= -tol) == (order == 0)
    assert np.min(potential_derivative(h, grid)) >= -tol
    inner = grid[(grid > -0.999) & (grid < 0.9)]
    step = 1e-4
    second = (potential_derivative(h, inner + step) - potential_derivative(h, inner - step)) / (2 * step)
    assert np.min(second) >= -1e-4 * (1.0 + np.max(np.abs(second)))


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


def test_label_parses_back_to_the_potential():
    # seeded parameters of every kind, most of them with more digits than :g prints
    rng = np.random.default_rng(43)
    for _ in range(300):
        a, c = 10.0 ** rng.uniform(-6, 6), float(rng.normal() * 10.0 ** rng.uniform(-6, 6))
        base = (riesz(a), gaussian(a), newton(int(rng.integers(2, 40))), logarithmic(), fejes_toth())[rng.integers(5)]
        for h in (base, shifted(base, c), shifted(shifted(base, c), a)):
            assert parse_potential(h.label()) == h, h
    assert riesz(1.23456789).label() == "riesz:1.23456789"
    assert shifted(riesz(1), 0.1234567).label() == "shift:0.1234567:riesz:1"
    assert [h.label() for h in (riesz(1), riesz(2.5), gaussian(1e-5))] == ["riesz:1", "riesz:2.5", "gaussian:1e-05"]


def test_parse_newton_needs_dimension():
    assert parse_potential("newton", n=4).param == 4
    with pytest.raises(ValueError):
        parse_potential("newton")
    with pytest.raises(ValueError):
        parse_potential("bogus:1")


@pytest.mark.parametrize(
    "spec, form, part",
    [
        ("riesz:", "riesz:A with a number A", ""),
        ("riesz:1:2", "riesz:A with a number A", "1:2"),
        ("gaussian:abc", "gaussian:A with a number A", "abc"),
        ("newton:x", "newton or newton:N with an integer N", "x"),
        ("newton:3.5", "newton or newton:N with an integer N", "3.5"),
        ("shift:abc:riesz:1", "shift:C:BASE with a number C", "abc"),
        ("shift:1:gaussian:", "gaussian:A with a number A", ""),
        ("log:2", "log with no parameter", "2"),
        ("shift:1:Fejes-Toth:x", "fejes-toth with no parameter", "x"),
    ],
)
def test_malformed_parameter_names_the_spec_and_its_form(spec, form, part):
    message = f"potential spec {spec!r} is malformed: expected {form}, got {part!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_potential(spec, n=3)


def test_shift_nesting_is_capped_below_the_recursion_limit():
    spec = "shift:1:" * MAX_SHIFT_DEPTH + "log"
    assert parse_potential(spec).label() == spec
    with pytest.raises(ValueError, match=rf"nests {MAX_SHIFT_DEPTH + 1} shift: levels, above the cap of {MAX_SHIFT_DEPTH}$"):
        parse_potential(" Shift :1:" + spec)


def out_of_place(h, t):
    """h at t by the module docstring's formulas, one new array per operation."""
    if h.kind == "riesz":
        return (2.0 * (1.0 - t)) ** (-h.param / 2.0)
    if h.kind == "newton":
        return (2.0 * (1.0 - t)) ** (1.0 - h.param / 2.0)
    if h.kind == "gaussian":
        return np.exp(-h.param * (1.0 - t))
    if h.kind == "logarithmic":
        return -np.log(2.0 * (1.0 - t))
    if h.kind == "fejes_toth":
        return -np.sqrt(2.0 * (1.0 - t))
    return out_of_place(h.base, t) + h.param


def out_of_place_slope(h, t):
    """h' at t by the closed forms of the module docstring differentiated, one new array per operation."""
    if h.kind == "riesz":
        return h.param * (2.0 * (1.0 - t)) ** (-h.param / 2.0 - 1.0)
    if h.kind == "newton":
        a = h.param - 2.0
        return a * (2.0 * (1.0 - t)) ** (-a / 2.0 - 1.0)
    if h.kind == "gaussian":
        return h.param * np.exp(-h.param * (1.0 - t))
    if h.kind == "logarithmic":
        return 1.0 / (1.0 - t)
    if h.kind == "fejes_toth":
        return 1.0 / np.sqrt(2.0 * (1.0 - t))
    return out_of_place_slope(h.base, t)


def inner_products():
    """A contiguous grid, a column slice of a 2-D block and a 0-d array, all below 1."""
    rng = np.random.default_rng(71)
    block = np.clip(rng.uniform(-1.2, 1.0, (64, 400)), -1.0, 0.999)
    return [np.linspace(-1.0, 0.999, 1001), block[:, 37:300], np.asarray(-0.3), np.asarray(0.95)]


# ** takes numpy's fast paths at exponents -1 (riesz:2, newton:4) and 0 (newton:2) for values,
# and at -1 (newton:2, then times 0) for slopes; riesz:2 and newton:4 have slope exponent -2
VALUE_KINDS = ALL_KINDS + [riesz(2.0), newton(4), shifted(shifted(gaussian(1.0), -0.5), 2.0)]


@pytest.mark.parametrize("h", VALUE_KINDS, ids=lambda h: h.label())
def test_values_into_a_buffer_equal_fresh_values_bit_for_bit(h):
    for t in inner_products():
        if not t.ndim:
            continue
        before = t.copy()
        want = _gap_values(h, np.subtract(1.0, t))
        # 1 - t in a view of a larger flat buffer, as energy passes its tiles
        out = np.full(t.size + 5, np.nan)[: t.size].reshape(t.shape)
        assert _gap_values(h, np.subtract(1.0, t, out=out)) is out
        assert out.tobytes() == want.tobytes()
        assert want.shape == t.shape
        assert t.tobytes() == before.tobytes()


@pytest.mark.parametrize("h", VALUE_KINDS, ids=lambda h: h.label())
def test_values_equal_the_closed_forms_out_of_place_bit_for_bit(h):
    for t in inner_products():
        got, want = _gap_values(h, np.subtract(1.0, t)), out_of_place(h, t)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("h", VALUE_KINDS, ids=lambda h: h.label())
def test_slopes_equal_the_closed_forms_out_of_place_bit_for_bit(h):
    for t in inner_products():
        got, want = _gap_values(h, np.subtract(1.0, t), slope=True), out_of_place_slope(h, t)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        public = potential_derivative(h, t)
        assert np.asarray(public).tobytes() == np.asarray(want).tobytes()
        assert type(public) is (float if not t.ndim else np.ndarray)
