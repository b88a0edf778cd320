"""Independent references the tests check the library against.

These are closed forms, evaluators and random-polynomial identities that
the library itself never needs: Clenshaw evaluation of a Gegenbauer
series, the moments of the inner-product measure mu_n, exact monomial
integrals over the sphere, the design and cubature residuals of a
weighted code, and the closed-form energies of the two flagship
configurations.  The test files import them as ``from oracles import ...``;
the module has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

from math import comb, fsum, sqrt

import numpy as np

from spherelp.codes import WeightedCode
from spherelp.orthopoly import GegenbauerSeries
from spherelp.potentials import Potential, potential_eval


def clenshaw(series: GegenbauerSeries, t):
    """Clenshaw's recurrence on (i + n - 2) P_{i+1} = (2i + n - 2) t P_i - i P_{i-1}."""
    t = np.asarray(t, dtype=float)
    n, c = series.n, series.coeffs
    y1 = y2 = np.zeros_like(t)  # b_{i+1}, b_{i+2}
    for i in range(series.degree, 0, -1):
        y1, y2 = c[i] + (2 * i + n - 2) / (i + n - 2) * t * y1 - (i + 1) / (i + n - 1) * y2, y1
    return c[0] + t * y1 - y2 / (n - 1)


def measure_moment(n: int, j: int) -> float:
    """Moment integral t^j dmu_n: zero for odd j, double-factorial ratio for even."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    if j < 0:
        raise ValueError("exponent must be >= 0")
    if j % 2 == 1:
        return 0.0
    v = 1.0
    for i in range(1, j // 2 + 1):
        v *= (2 * i - 1) / (n + 2 * i - 2)
    return v


def design_point_identity_check(
    code: WeightedCode, tau: int, trials: int, seed: int = 0
) -> float:
    """Max residual of sum_j w_j f(x . x_j) = f_0 over random f and random x.

    f ranges over random polynomials of degree <= tau, x over random unit
    vectors; f_0 is the mean of f against the inner-product measure, from
    the measure's moments.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        coeffs = rng.standard_normal(tau + 1)
        f0 = sum(c * measure_moment(code.n, j) for j, c in enumerate(coeffs))
        x = rng.standard_normal(code.n)
        x /= np.linalg.norm(x)
        inner = code.points @ x
        lhs = float(code.weights @ np.polynomial.polynomial.polyval(inner, coeffs))
        worst = max(worst, abs(lhs - f0))
    return worst


def _surface_monomial_integral(n: int, powers) -> float:
    """Exact integral of prod x_i**powers[i] over the unit sphere (probability
    surface measure): zero for any odd exponent, else a double-factorial ratio."""
    if any(p % 2 for p in powers):
        return 0.0
    total = sum(powers)
    num = 1.0
    for p in powers:
        for i in range(1, p, 2):
            num *= i
    den = 1.0
    for i in range(0, total, 2):
        den *= n + i
    return num / den


def sphere_quadrature_check(code: WeightedCode, tau: int, trials: int, seed: int = 0) -> float:
    """Max residual of the cubature identity on random n-variate polynomials.

    Compares the weighted node sum with the exact surface integral from
    closed-form monomial moments, for random sparse polynomials of total
    degree <= tau.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        residual = 0.0
        for _ in range(rng.integers(1, 6)):
            coeff = float(rng.standard_normal())
            powers = rng.multinomial(rng.integers(0, tau + 1), np.full(code.n, 1.0 / code.n))
            node_sum = float(code.weights @ np.prod(code.points**powers, axis=1))
            residual += coeff * (node_sum - _surface_monomial_integral(code.n, powers))
        worst = max(worst, abs(residual))
    return worst


def closed_form_energy(name: str, n: int | None, h: Potential) -> float:
    """Closed-form weighted energy of the two flagship configurations,
    written from their inner-product distributions."""

    def H(t):
        return float(potential_eval(h, t))

    if name == "pentakis_dodecahedron":
        a = sqrt(1 - 2 / sqrt(5)) / sqrt(3)
        b = sqrt(1 + 2 / sqrt(5)) / sqrt(3)
        w_i, w_d = 5 / 168, 9 / 280
        r5 = sqrt(5)
        return fsum(
            [
                12 * w_i**2 * (H(-1) + 5 * H(-1 / r5) + 5 * H(1 / r5)),
                120 * w_i * w_d * (H(a) + H(-a) + H(b) + H(-b)),
                20 * w_d**2 * (H(-1) + 6 * H(-1 / 3) + 6 * H(1 / 3) + 3 * H(-r5 / 3) + 3 * H(r5 / 3)),
            ]
        )
    if name == "cube_crosspolytope":
        if n is None:
            raise ValueError("cube_crosspolytope needs a dimension n")
        w_p = 1.0 / (2 * n + n * n)
        w_c = n * n / (2**n * (2 * n + n * n))
        rn = sqrt(n)
        terms = [
            2 * n * w_p**2 * (H(-1) + (2 * n - 2) * H(0)),
            2 ** (n + 1) * n * w_p * w_c * (H(1 / rn) + H(-1 / rn)),
        ]
        terms.extend(
            2**n * w_c**2 * comb(n, k) * H(-1 + 2 * k / n) for k in range(n)
        )
        return fsum(terms)
    raise ValueError(f"no closed-form energy for {name!r}")
