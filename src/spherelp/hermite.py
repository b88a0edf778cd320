"""Hermite interpolation at quadrature nodes in the Gegenbauer basis.

Certificate polynomials for both bound directions interpolate a potential
h at quadrature nodes: doubled nodes match h and h', simple nodes match
the value only.  The doubled nodes are contiguous, so a slice of the node
array names them: all but -1 for lower bounds, also all but s for upper
bounds.  The coefficients solve one square system in P_0..P_{T-1},
which depends on the nodes alone, so one row-scaled operator serves every
potential; they stay one float array, coefficient i on P_i, through the
checks.  Dominance of the interpolant over (or under) h is always
verified on a dense grid rather than assumed from the error formula: h is
evaluated once on the whole grid, and f is one product per column piece
of the grid's Gegenbauer table, so a piece shared by many grids is
tabulated once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isnan

import numpy as np
from numpy.linalg import _umath_linalg  # the LAPACK gufuncs numpy.linalg wraps

from .orthopoly import gegenbauer_table
from .potentials import Potential, potential_derivative, potential_eval

# the dominance grid's uniform steps 0..4000 and its offsets around each node
_STEPS = np.arange(4001.0)
_OFFSETS = np.linspace(-1e-3, 1e-3, 81)
_STEPS.flags.writeable = _OFFSETS.flags.writeable = False
DOMINANCE_TOL = 1e-9  # the largest violation verify_dominance lets pass


@dataclass(frozen=True)
class HermiteOperator:
    """The square system ``matrix`` taking Gegenbauer coefficients to the
    values at ``points`` and the slopes at ``doubled``, also held as
    ``scaled``, its rows divided by ``row_scale``; read-only, so one operator
    serves every potential on its nodes."""

    points: np.ndarray
    doubled: np.ndarray
    matrix: np.ndarray
    row_scale: np.ndarray
    scaled: np.ndarray


def hermite_operator(points, doubled: slice, n: int, values: np.ndarray) -> HermiteOperator:
    """The Hermite conditions on ``points``, with slopes at ``points[doubled]``,
    in the basis P_0..P_{T-1}.

    ``values`` holds ``gegenbauer_table(n, d, points)``, d >= T - 1, whose
    first T rows are the value rows.  Slope rows use P_j' = j (j + n - 2) /
    (n - 1) P_{j-1} of dimension n + 2.  Rows are scaled to unit max norm
    for the solve: slope rows grow like j^2, and unscaled pivoting loses up
    to 4x in accuracy at n = 30.  The points, a rule's nodes, are strictly ascending and below 1.
    ``matrix`` keeps the memory layout ``np.concatenate`` gives it, since the
    round-off of ``matrix @ coeffs`` in :func:`interpolation_residual`
    depends on that layout.
    """
    points = np.array(points, dtype=float)
    doubled = points[doubled]
    degree = points.size + doubled.size - 1
    slopes = np.zeros((doubled.size, degree + 1))
    if degree:
        slopes[:, 1:] = gegenbauer_table(n + 2, degree - 1, doubled).T * _slope_factors(n, degree)
    matrix = np.concatenate((values[: degree + 1].T, slopes))
    row_scale = abs(matrix).max(axis=1)
    scaled = matrix / row_scale[:, None]
    for array in (points, doubled, matrix, row_scale, scaled):
        array.flags.writeable = False
    return HermiteOperator(points, doubled, matrix, row_scale, scaled)


@lru_cache(maxsize=256)
def _slope_factors(n: int, degree: int) -> np.ndarray:
    """j (j + n - 2) / (n - 1) for j = 1..degree, read-only: P_j' over P_{j-1} of dimension n + 2."""
    j = np.arange(1, degree + 1)
    factors = j * (j + n - 2) / (n - 1)
    factors.flags.writeable = False
    return factors


def hermite_jet(h: Potential, op: HermiteOperator) -> np.ndarray:
    """h at the operator's points, then h' at its doubled nodes: its system's right-hand side."""
    return np.concatenate((potential_eval(h, op.points), potential_derivative(h, op.doubled)))


def hermite_interpolant(op: HermiteOperator, jet: np.ndarray) -> np.ndarray:
    """The coefficients c on P_0..P_{T-1} that interpolate ``jet`` (:func:`hermite_jet`)."""
    rhs = jet / op.row_scale  # under the caller's floating-point setting; only the solve runs under LAPACK's

    def singular(err, flag):
        raise ValueError(f"singular Hermite system on nodes {op.points.tolist()}")

    # LU with partial pivoting (LAPACK dgesv) on every call, by np.linalg.solve's gufunc under its
    # floating-point setting, in which LAPACK's failure calls the handler; an explicit inverse
    # would lose 5-100x in accuracy
    with np.errstate(call=singular, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return _umath_linalg.solve1(op.scaled, rhs, signature="dd->d")


def interpolation_residual(op: HermiteOperator, coeffs: np.ndarray, jet: np.ndarray) -> float:
    """The largest defect |A c - jet| of coefficients c, relative to max(1, |h|) at the nodes."""
    return float(abs(op.matrix @ coeffs - jet).max()) / max(1.0, float(abs(jet[: op.points.size]).max()))


def dominance_grid(lo: float, hi: float, nodes) -> np.ndarray:
    """Uniform 4001-point grid on [lo, hi], followed by 81 points within 1e-3
    of each interpolation node, clipped to [lo, hi], written into one array.

    The uniform part is np.linspace's own arithmetic, i * ((hi - lo) / 4000)
    + lo with the last point hi, and the offsets are ``np.linspace(-1e-3,
    1e-3, 81)``, so every point is that of the linspace expression to the
    bit.  The points are neither sorted nor deduplicated: the dominance check
    reads only their extreme.
    """
    nodes = np.asarray(nodes, dtype=float)
    grid = np.empty(_STEPS.size + _OFFSETS.size * nodes.size)
    uniform, local = grid[: _STEPS.size], grid[_STEPS.size :].reshape(nodes.size, _OFFSETS.size)
    np.multiply(_STEPS, (hi - lo) / (_STEPS.size - 1), out=uniform)
    uniform += lo
    uniform[-1] = hi
    np.add(nodes[:, None], _OFFSETS, out=local)
    np.maximum(local, lo, out=local)  # np.clip's bits, without its wrapper
    np.minimum(local, hi, out=local)
    return grid


def verify_dominance(coeffs: np.ndarray, h: Potential, direction: str, grid: np.ndarray, pieces) -> tuple[bool, float]:
    """Check f <= h ("below") or f >= h ("above") on the grid, for f the
    sum of ``coeffs[j] P_j``.

    ``grid`` is built by :func:`dominance_grid` and ``pieces`` are
    consecutive column blocks of its ``gegenbauer_table(n, d, grid)``, d at
    least the degree of f, so f on the grid is one product per piece, each
    subtracted in place from h on the whole grid.  Tolerates violations up
    to DOMINANCE_TOL.  Returns (ok, max_violation); a NaN anywhere in h - f
    fails the check with the violation NaN.
    """
    if direction not in ("below", "above"):
        raise ValueError("direction must be 'below' or 'above'")
    diff = potential_eval(h, grid)
    start = 0
    for piece in pieces:
        diff[start : start + piece.shape[1]] -= coeffs @ piece[: coeffs.size]
        start += piece.shape[1]
    if start != grid.size:
        raise ValueError(f"the table pieces cover {start} of the grid's {grid.size} points")
    extreme = -float(diff.min()) if direction == "below" else float(diff.max())
    # min and max propagate a NaN, which max(0.0, nan) would drop as 0.0
    violation = extreme if isnan(extreme) else max(0.0, extreme)
    return violation <= DOMINANCE_TOL, violation
