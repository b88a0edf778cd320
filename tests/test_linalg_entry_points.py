"""The LAPACK calls of the bound paths against numpy's public functions.

``hermite_interpolant`` calls the gufunc behind ``np.linalg.solve`` and
``compute_weights`` and ``validity_interval`` the ones behind
``np.linalg.eigh`` and ``np.linalg.eigvalsh``, each under the wrapper's own
floating-point setting.  These tests hold them to the wrapper's bytes and
errors, so a numpy release that moves or changes those gufuncs fails here
by name.
"""

import warnings

import numpy as np
import pytest

import spherelp.bounds as bounds
import spherelp.quadrature as quadrature
from spherelp import _tables
from spherelp.hermite import hermite_interpolant, hermite_jet, hermite_operator
from spherelp.orthopoly import gegenbauer_table
from spherelp.potentials import riesz
from spherelp.quadrature import _tridiagonal, compute_weights, levenshtein_polynomial, solve_ulb_rule, validity_interval


def test_the_gufuncs_are_where_the_bound_paths_call_them():
    from numpy.linalg import _umath_linalg

    assert _umath_linalg.solve1.signature == "(m,m),(m)->(m)"
    assert _umath_linalg.eigh_lo.signature == "(m,m)->(m),(m,m)"
    assert _umath_linalg.eigvalsh_lo.signature == "(m,m)->(m)"
    assert "dd->d" in _umath_linalg.solve1.types and "d->dd" in _umath_linalg.eigh_lo.types
    assert "d->d" in _umath_linalg.eigvalsh_lo.types


def _same_solve(op, jet):
    """hermite_interpolant's coefficients against np.linalg.solve's, byte for byte, or the same failure."""
    try:
        want = np.linalg.solve(op.scaled, jet / op.row_scale)
    except np.linalg.LinAlgError:
        with pytest.raises(ValueError, match="^singular Hermite system on nodes "):
            hermite_interpolant(op, jet)
        return
    got = hermite_interpolant(op, jet)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_hermite_solve_matches_np_linalg_solve_on_a_seeded_sample():
    rng = np.random.default_rng(50)
    sizes = set()
    for _ in range(400):
        n, count = int(rng.integers(2, 40)), int(rng.integers(1, 14))
        points = np.unique(rng.uniform(-1.0, 0.999, count))
        doubled = slice(int(rng.integers(0, 2)), None if rng.random() < 0.5 else -1)
        size = points.size + points[doubled].size
        op = hermite_operator(points, doubled, n, gegenbauer_table(n, size - 1, points))
        _same_solve(op, rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 3))
        sizes.add(size)
    assert sizes == set(range(1, 27))


def test_hermite_solve_matches_np_linalg_solve_on_every_reproduce_certificate(monkeypatch):
    solves = []
    interpolant = bounds.hermite_interpolant

    def recorded(op, jet):
        solves.append((op, jet))
        return interpolant(op, jet)

    monkeypatch.setattr(bounds, "hermite_interpolant", recorded)
    bounds._ulb_setup.cache_clear()
    cells = _tables.reproduce("all")
    assert len(cells) == 109 and len(solves) == 20  # the cells that are bounds
    for op, jet in solves:
        _same_solve(op, jet)


def test_a_singular_hermite_system_is_named_without_a_warning():
    rule = solve_ulb_rule(4, 24.0)
    op = hermite_operator(rule.nodes, slice(rule.eps, None), 4, rule.table)
    singular = np.array(op.scaled)
    singular[1] = singular[0]  # two equal rows: an exact zero pivot
    op = type(op)(op.points, op.doubled, op.matrix, op.row_scale, singular)
    with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
        np.linalg.solve(op.scaled, np.ones(op.row_scale.size))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError) as info:
            hermite_interpolant(op, hermite_jet(riesz(1), op))
    assert str(info.value) == f"singular Hermite system on nodes {[float(a) for a in rule.nodes]}"
    assert caught == []


def test_eigensolves_match_np_linalg_on_a_seeded_sample(monkeypatch):
    # every Jacobi matrix compute_weights and validity_interval hand LAPACK,
    # k = 1..13 nodes, recorded and then solved by the public functions
    calls = []
    lapack = quadrature._umath_linalg

    def recorder(name):
        gufunc = getattr(lapack, name)

        def call(matrix, signature):
            out = gufunc(matrix, signature=signature)
            # copies, before compute_weights snaps the nodes in place
            calls.append((name, matrix.copy(), [a.copy() for a in (out if name == "eigh_lo" else (out,))]))
            return out

        return call

    for name in ("eigh_lo", "eigvalsh_lo"):
        monkeypatch.setattr(lapack, name, recorder(name))
    validity_interval.cache_clear()
    rng = np.random.default_rng(50)
    for _ in range(300):
        n, m = int(rng.integers(2, 40)), int(rng.integers(1, 26))
        lo, hi = validity_interval(n, m)
        levenshtein_polynomial(n, m, lo + rng.uniform(0.05, 0.95) * (hi - lo))
    monkeypatch.undo()
    validity_interval.cache_clear()
    assert {matrix.shape[0] for name, matrix, _ in calls if name == "eigh_lo"} == set(range(1, 14))
    for name, matrix, got in calls:
        want = np.linalg.eigh(matrix) if name == "eigh_lo" else (np.linalg.eigvalsh(matrix),)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want], (name, matrix.shape)


def test_a_nan_jacobi_matrix_raises_what_np_linalg_eigh_raises():
    with pytest.raises(np.linalg.LinAlgError) as public:
        np.linalg.eigh(_tridiagonal([np.nan] * 3, [0.5] * 2))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(np.linalg.LinAlgError) as info:
            compute_weights(3, 5, float("nan"), 30.0)
    assert type(info.value) is type(public.value) and str(info.value) == str(public.value) == "Eigenvalues did not converge"
    assert caught == []
