"""The universal lower bound against the linear program it solves.

The ULB at capacity N_W and degree m is the objective g_0 - g(1)/N_W of
one certificate g = sum_j g_j P_j with g_j >= 0 for j >= 1 and g <= h on
[-1, 1).  Any such certificate is feasible for the same program on a
finite grid, so the gridded LP, solved here by scipy's HiGHS, bounds the
ULB from above; a ULB above it would be no valid bound.  The Gegenbauer
polynomials come from scipy's Jacobi polynomials and the potentials from
their closed forms, so the oracle shares no code with the library.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.special import eval_jacobi

from oracles import six_hundred_cell
from spherelp.bounds import ulb
from spherelp.codes import energy
from spherelp.potentials import gaussian, logarithmic, newton, parse_potential, riesz
from spherelp.quadrature import dgs_bound

# 3000 uniform points of [-1, 0.999] and 40 more up to 1 - 1e-6
GRID = np.concatenate([np.linspace(-1.0, 0.999, 3000), np.linspace(0.999, 1 - 1e-6, 41)[1:]])


def closed_form(label: str, t: np.ndarray) -> np.ndarray:
    """h(t) of the potential labelled ``label``, from its closed form."""
    kind, _, param = label.partition(":")
    r = 2.0 * (1.0 - t)
    if kind == "riesz":
        return r ** (-float(param) / 2)
    if kind == "newton":
        return r ** (1 - int(param) / 2)
    if kind == "gaussian":
        return np.exp(-float(param) * (1.0 - t))
    assert kind == "log"
    return -np.log(r)


def gridded_lp(n: int, m: int, capacity: float, label: str) -> float:
    """max g_0 - sum_j g_j / N_W over g_0..g_m, g_j >= 0 for j >= 1, with
    sum_j g_j P_j <= h on GRID; P_j is the Jacobi polynomial
    P_j^(a, a), a = (n - 3)/2, divided by its value at 1."""
    a = (n - 3) / 2
    rows = np.array([eval_jacobi(j, a, a, GRID) / eval_jacobi(j, a, a, 1.0) for j in range(m + 1)])
    cost = np.full(m + 1, 1.0 / capacity)
    cost[0] -= 1.0
    bounds = [(None, None)] + [(0.0, None)] * m
    result = linprog(cost, A_ub=rows.T, b_ub=closed_form(label, GRID), bounds=bounds, method="highs")
    assert result.status == 0, (n, m, capacity, label, result.message)
    return -result.fun


def reproduce_cells():
    """The lower-bound cells of ``spherelp reproduce``: (n, capacity, h)."""
    yield 3, 735 / 23, riesz(1)  # the pentakis dodecahedron
    yield 3, 32.0, riesz(1)
    yield 3, 14.0, newton(3)
    for n in range(2, 8):  # table 3: the weighted quasi-polar codes
        yield n, n * (n + 2) ** 2 * 2**n / (n**3 + 2 ** (n + 1)), newton(n)


def sampled_cells():
    """One capacity per degree interval m in {3, 6, 9} of n in {3, 4, 8},
    in its middle 90% (seeded), under riesz:1, gaussian:1 and log in turn."""
    rng = np.random.default_rng(12)
    potentials = (riesz(1), gaussian(1), logarithmic())
    for i, (n, m) in enumerate((n, m) for n in (3, 4, 8) for m in (3, 6, 9)):
        low, high = dgs_bound(n, m), dgs_bound(n, m + 1)
        yield n, low + rng.uniform(0.05, 0.95) * (high - low), potentials[i % 3]


@pytest.mark.parametrize(
    "n, capacity, h",
    [*reproduce_cells(), *sampled_cells()],
    ids=lambda value: value.label() if hasattr(value, "label") else None,
)
def test_ulb_at_most_the_gridded_lp(n, capacity, h):
    report = ulb(n, capacity, h)
    assert report.feasible
    lp = gridded_lp(n, report.m, capacity, h.label())
    assert report.value <= lp + 1e-12 * max(1.0, abs(lp)), (report.value, lp)
    # the grid only relaxes dominance between its points: the LP is barely above
    assert math.isclose(report.value, lp, rel_tol=1e-6)


@pytest.mark.parametrize("spec", ["riesz:1", "log"])
def test_gridded_lp_of_degree_17_reaches_the_six_hundred_cell(spec):
    # the ULB (m = 11) lies about 4e-5 below the 600-cell's energy E; the LP
    # with degrees up to 17 closes that gap to the grid's relaxation, 1e-8
    h = parse_potential(spec, 4)
    e = energy(six_hundred_cell(), h)
    lp = gridded_lp(4, 17, 120.0, h.label())
    assert abs(lp - e) <= 1e-7 * abs(e), (lp, e)
    assert lp - ulb(4, 120.0, h).value > 1e-5
