"""Hermite interpolation on node multisets via Newton divided differences.

Certificate polynomials for both bound directions interpolate a potential
h at quadrature nodes: doubled nodes match h and h', simple nodes match
the value only.  Confluent divided differences consume the closed-form
first derivative; dominance of the interpolant over (or under) h is always
verified on a dense grid rather than assumed from the error formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .orthopoly import GegenbauerSeries, MonomialPoly, to_gegenbauer
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

    def expanded(self) -> list[float]:
        return [node for node, mult in self.entries for _ in range(mult)]


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
    """Hermite interpolant with both basis representations.

    ``node_residual`` is the largest relative defect of the interpolation
    conditions.
    """

    poly: MonomialPoly
    gegenbauer: GegenbauerSeries
    node_residual: float


def _newton_coefficients(z: np.ndarray, values: np.ndarray, derivs: dict[float, float]) -> np.ndarray:
    # One pass over Python floats per order: for the few dozen nodes a rule
    # has, it costs less than the NumPy calls an array form needs per order,
    # and double arithmetic gives the same bits either way.
    zs = z.tolist()
    table = values.astype(float).tolist()
    coeffs = [table[0]]
    for order in range(1, len(zs)):
        table = [
            derivs[a] if b == a else (t1 - t0) / (b - a)  # confluent pair: slot holds h'(node)
            for a, b, t0, t1 in zip(zs, zs[order:], table, table[1:])
        ]
        coeffs.append(table[0])
    return np.asarray(coeffs)


def _newton_to_monomial(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    out = np.array([coeffs[-1]])
    for c, zj in zip(coeffs[-2::-1], z[-2::-1]):
        out = np.concatenate(([0.0], out)) - zj * np.concatenate((out, [0.0]))
        out[0] += c
    return out


def hermite_interpolant(h: Potential, nodes: NodeMultiset, n: int) -> InterpolantReport:
    """Interpolate h on the multiset: values everywhere, h' at doubled nodes.

    Newton's divided-difference form on the expanded (confluent) node list;
    the result has degree <= total - 1.  Interpolation conditions are
    re-checked to 1e-10 relative.
    """
    pts = np.array([node for node, _ in nodes.entries])
    if np.any(pts >= 1.0):
        raise ValueError("interpolation nodes must lie below 1")
    z = np.asarray(nodes.expanded())
    values = potential_eval(h, z)
    derivs = {
        node: float(potential_derivative(h, node))
        for node, mult in nodes.entries
        if mult == 2
    }
    newton = _newton_coefficients(z, np.asarray(values), derivs)
    mono = _newton_to_monomial(newton, z)
    poly = MonomialPoly(tuple(mono))
    series = to_gegenbauer(poly, n)

    hvals = potential_eval(h, pts)
    scale = max(1.0, float(np.max(np.abs(hvals))))
    residual = float(np.max(np.abs(poly(pts) - hvals))) / scale
    if derivs:
        doubled = np.fromiter(derivs, float, len(derivs))
        slopes = np.fromiter(derivs.values(), float, len(derivs))
        residual = max(residual, float(np.max(np.abs(poly.derivative()(doubled) - slopes))) / scale)
    return InterpolantReport(poly, series, residual)


def dominance_grid(lo: float, hi: float, nodes, points: int = 4001) -> np.ndarray:
    """Uniform grid on [lo, hi] refined near the interpolation nodes."""
    local = np.clip(np.asarray(nodes, dtype=float)[:, None] + np.linspace(-1e-3, 1e-3, 81), lo, hi)
    return np.unique(np.concatenate((np.linspace(lo, hi, points), local.ravel())))


def verify_dominance(
    report: InterpolantReport,
    h: Potential,
    interval: tuple[float, float],
    direction: str,
    nodes=(),
    grid: np.ndarray | None = None,
) -> tuple[bool, float]:
    """Check f <= h ("below") or f >= h ("above") on the interval.

    Samples a 4001-point grid plus local refinement near the given nodes;
    tolerates violations up to 1e-9.  Returns (ok, max_violation).  A caller
    that checks many interpolants against one interval and node set may pass
    the grid, as built by :func:`dominance_grid`, instead of having it
    rebuilt on every call.
    """
    if direction not in ("below", "above"):
        raise ValueError("direction must be 'below' or 'above'")
    if grid is None:
        lo, hi = interval
        grid = dominance_grid(lo, min(hi, 1.0 - 1e-9), nodes)
    diff = potential_eval(h, grid) - report.poly(grid)
    if direction == "below":
        violation = max(0.0, -float(np.min(diff)))
    else:
        violation = max(0.0, float(np.max(diff)))
    return violation <= 1e-9, violation
