"""Hermite interpolation on node multisets in the Gegenbauer basis.

Certificate polynomials for both bound directions interpolate a potential
h at quadrature nodes: doubled nodes match h and h', simple nodes match
the value only.  The coefficients solve one square system in P_0..P_{T-1},
which depends on the nodes alone, so its factored operator serves every
potential.  Dominance of the interpolant over (or under) h is always
verified on a dense grid, as one product with the grid's Gegenbauer table,
rather than assumed from the error formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .orthopoly import GegenbauerSeries, gegenbauer_table
from .potentials import Potential, potential_derivative, potential_eval


@dataclass(frozen=True)
class NodeMultiset:
    """Strictly ascending nodes with multiplicities 1 or 2.

    Multiplicity 1 is allowed only at -1 (even-degree lower bound) or at
    the largest node (upper bound, where only the value is matched).
    """

    entries: tuple[tuple[float, int], ...]

    def __post_init__(self):
        nodes = [e[0] for e in self.entries]
        if any(b - a <= 0 for a, b in zip(nodes, nodes[1:])):
            raise ValueError("nodes must be strictly ascending")
        for node, mult in self.entries:
            if mult not in (1, 2):
                raise ValueError("multiplicities must be 1 or 2")
            if mult == 1 and node != -1.0 and node != nodes[-1]:
                raise ValueError("simple nodes allowed only at -1 or at the right endpoint")

    @property
    def total(self) -> int:
        return sum(m for _, m in self.entries)


def ulb_nodes(nodes, eps: int) -> NodeMultiset:
    """Lower-bound multiset: all nodes doubled, except -1 simple when eps = 1."""
    entries = [(float(a), 2) for a in nodes]
    if eps == 1:
        entries[0] = (entries[0][0], 1)
    return NodeMultiset(tuple(entries))


def uub_nodes(nodes, eps: int) -> NodeMultiset:
    """Upper-bound multiset: interior nodes doubled, s simple, -1 simple if present."""
    entries = [(float(a), 2) for a in nodes]
    entries[-1] = (entries[-1][0], 1)
    if eps == 1:
        entries[0] = (entries[0][0], 1)
    return NodeMultiset(tuple(entries))


@dataclass(frozen=True)
class InterpolantReport:
    """Hermite interpolant in the Gegenbauer basis.

    ``node_residual`` is the largest relative defect of the interpolation
    conditions.
    """

    gegenbauer: GegenbauerSeries
    node_residual: float


@dataclass(frozen=True)
class HermiteOperator:
    """The square system ``matrix`` taking coefficients to the values at
    ``points`` and the slopes at ``doubled``, held as the LU factors of its
    rows divided by ``row_scale``; read-only, so one operator serves every
    potential on its multiset."""

    points: np.ndarray
    doubled: np.ndarray
    matrix: np.ndarray
    row_scale: np.ndarray
    lu: np.ndarray
    pivots: np.ndarray


def hermite_operator(nodes: NodeMultiset, n: int, values: np.ndarray | None = None) -> HermiteOperator:
    """The Hermite conditions on the multiset in the basis P_0..P_{T-1}.

    Slope rows use P_j' = j (j + n - 2) / (n - 1) P_{j-1} of dimension n + 2.
    ``values`` may hold ``gegenbauer_table(n, d, points)``, d >= T - 1, if
    the caller has it.  Rows are scaled to unit max norm before the LU
    factorisation: slope rows grow like j^2, and unscaled pivoting loses up
    to 4x in accuracy at n = 30.
    """
    points = np.array([node for node, _ in nodes.entries])
    if np.any(points >= 1.0):
        raise ValueError("interpolation nodes must lie below 1")
    doubled = np.array([node for node, mult in nodes.entries if mult == 2])
    degree = nodes.total - 1
    j = np.arange(1, degree + 1)
    slopes = np.zeros((doubled.size, degree + 1))
    if degree:
        slopes[:, 1:] = gegenbauer_table(n + 2, degree - 1, doubled).T * (j * (j + n - 2) / (n - 1))
    if values is None:
        values = gegenbauer_table(n, degree, points)
    matrix = np.vstack((values[: degree + 1].T, slopes))
    row_scale = np.max(np.abs(matrix), axis=1)
    lu, pivots, info = lapack.dgetrf(matrix / row_scale[:, None])
    if info:
        raise ValueError(f"singular Hermite system on nodes {points.tolist()}")
    for array in (points, doubled, matrix, row_scale, lu, pivots):
        array.flags.writeable = False
    return HermiteOperator(points, doubled, matrix, row_scale, lu, pivots)


def hermite_interpolant(h: Potential, op: HermiteOperator, n: int) -> InterpolantReport:
    """Interpolate h on the operator's multiset: values everywhere, h' at
    doubled nodes.  The defect |A c - jet| is reported relative to max(1, |h|).
    """
    values = potential_eval(h, op.points)
    jet = np.concatenate((values, potential_derivative(h, op.doubled)))
    coeffs = lapack.dgetrs(op.lu, op.pivots, jet / op.row_scale)[0]
    residual = float(np.max(np.abs(op.matrix @ coeffs - jet))) / max(1.0, float(np.max(np.abs(values))))
    return InterpolantReport(GegenbauerSeries(n, coeffs), residual)


def dominance_grid(lo: float, hi: float, nodes) -> np.ndarray:
    """Uniform 4001-point grid on [lo, hi], refined by 81 points within 1e-3
    of each interpolation node."""
    local = np.clip(np.asarray(nodes, dtype=float)[:, None] + np.linspace(-1e-3, 1e-3, 81), lo, hi)
    return np.unique(np.concatenate((np.linspace(lo, hi, 4001), local.ravel())))


def verify_dominance(
    series: GegenbauerSeries, h: Potential, direction: str, grid: np.ndarray, table: np.ndarray
) -> tuple[bool, float]:
    """Check f <= h ("below") or f >= h ("above") on the grid.

    ``grid`` is built by :func:`dominance_grid` and ``table`` is its
    ``gegenbauer_table(n, d, grid)``, d at least the degree of f, so f on
    the grid is one product.  Tolerates violations up to 1e-9.  Returns
    (ok, max_violation).
    """
    if direction not in ("below", "above"):
        raise ValueError("direction must be 'below' or 'above'")
    diff = potential_eval(h, grid) - np.asarray(series.coeffs) @ table[: series.degree + 1]
    if direction == "below":
        violation = max(0.0, -float(np.min(diff)))
    else:
        violation = max(0.0, float(np.max(diff)))
    return violation <= 1e-9, violation
