"""Weighted spherical codes: example configurations, energy, design checks.

A weighted code is a tuple of distinct unit vectors with positive weights
summing to 1.  The bundled configurations are the ones whose energies the
bounds are tested against: the pentakis dodecahedron (icosahedron plus
dodecahedron with dual weights) and the union of a cube with a
cross-polytope in n dimensions, plus the individual polytopes and regular
polygons.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple
from math import comb, fsum, sqrt

import numpy as np

from .orthopoly import gegenbauer_table, measure_moment
from .potentials import Potential, potential_eval

GOLDEN = (1 + sqrt(5)) / 2


def check_weights(weights) -> np.ndarray:
    """The weights as a float array, once they are finite, positive and sum to 1."""
    w = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    if abs(w.sum() - 1.0) > 1e-12:
        raise ValueError("weights must sum to 1")
    return w


@dataclass
class WeightedCode:
    """Distinct unit vectors with positive weights summing to 1.

    Two points count as distinct when their Euclidean distance exceeds 1e-9.
    Construction forms the Gram matrix once and uses only it plus the pairs
    it flags, so memory stays O(N^2): unit vectors (to 1e-12) at distance
    <= 1e-9 have inner product above 1 - 1e-11, so only pairs whose Gram
    entry exceeds 1 - 1e-6 can be coincident, and only those pairs have
    their distance measured directly.
    """

    n: int
    points: np.ndarray
    weights: np.ndarray
    name: str = ""

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != self.n:
            raise ValueError("points must be an N x n array")
        if self.weights.shape != (self.points.shape[0],):
            raise ValueError("one weight per point required")
        if not self.points.shape[0]:
            raise ValueError("a code needs at least one point")
        norms = np.linalg.norm(self.points, axis=1)
        if not np.max(np.abs(norms - 1.0)) <= 1e-12:
            raise ValueError("points must be unit vectors")
        check_weights(self.weights)
        gram = self.points @ self.points.T
        np.clip(gram, -1.0, 1.0, out=gram)
        i, j = np.divmod(np.flatnonzero(gram > 1.0 - 1e-6), gram.shape[0])
        i, j = i[i < j], j[i < j]
        if np.any(np.linalg.norm(self.points[i] - self.points[j], axis=1) <= 1e-9):
            raise ValueError("points must be pairwise distinct")
        self._gram = gram

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def s_w(self) -> float:
        """Sum of squared weights."""
        return float(np.dot(self.weights, self.weights))

    @property
    def n_w(self) -> float:
        """Effective cardinality 1 / sum of squared weights."""
        return 1.0 / self.s_w

    @cached_property
    def max_inner_product(self) -> float:
        if self.size < 2:
            raise ValueError("a code needs at least two points to have a maximal inner product")
        off = self._gram.copy()
        np.fill_diagonal(off, -np.inf)
        return float(off.max())

    def gram(self) -> np.ndarray:
        return self._gram.copy()


@dataclass(frozen=True)
class DesignCheckReport:
    strength: int
    moments: tuple[float, ...]
    tol: float


# frexp exponents of finite doubles run from -1073 (the least subnormal) to
# 1024; terms with |x| >= 2**960 (exponent above _HUGE_EXP) are not binned
_LEAST_EXP = -1073
_HUGE_EXP = 960
_BIN_SCALE = np.arange(_LEAST_EXP - 27, _HUGE_EXP - 26)
# terms per bin filling: below 2**26 keeps every bin total exact
_BIN_LIMIT = 2**26 - 1
# rows of the Gram matrix per block in energy and the moments: a block of a
# 1000-point code stays in a core's L2 cache, and codes of up to 64 points
# take one block, so their moments are one matrix product each
BLOCK_ROWS = 64


class ExactAccumulator:
    """Streaming correctly rounded sum: ``total()`` equals ``math.fsum`` of
    every value passed to ``add``, in order, bit for bit.

    Each term is split by ``frexp`` into mantissa * 2**e.  The mantissa,
    scaled by 2**27, splits into a signed integer part below 2**27 and a
    fraction on a 2**-26 grid.  Both parts are summed per exponent e with
    ``bincount`` into bins laid out against one fixed base that covers every
    double, so the bins of successive chunks simply add.  While a filling
    holds fewer than 2**26 terms every partial sum fits in 53 bits, so each
    bin total is exact; a full filling is flushed to its few scaled bin
    totals (exact parts) and binning starts again.  ``fsum`` of the parts
    gives the rounded sum.

    A chunk holding a non-finite value or one with |x| >= 2**960 (whose
    scaled bin totals could overflow) switches to keeping values as they
    come: the bins so far are flushed to exact parts and ``fsum`` then sees
    those parts followed by every later value.  That gives ``fsum``'s
    outcome on non-finite values, and its value or overflow on huge ones;
    only its intermediate-overflow check, which depends on how it split
    the earlier values, could judge a running sum at the very edge of the
    double range differently.
    """

    def __init__(self):
        self._whole = np.zeros(_BIN_SCALE.size)
        self._frac = np.zeros(_BIN_SCALE.size)
        self._binned = 0
        self._parts: list[float] = []
        self._raw = False

    def add(self, values) -> None:
        x = np.asarray(values, dtype=float).ravel()
        if x.size == 0:
            return
        if self._raw:
            self._parts.extend(x.tolist())
            return
        if not np.all(np.isfinite(x)):
            self._keep_raw(x)
            return
        frac, exp = np.frexp(x)
        if exp.max() > _HUGE_EXP:
            self._keep_raw(x)
            return
        exp -= _LEAST_EXP
        frac *= 2.0**27
        whole = np.floor(frac)
        frac -= whole
        start = 0
        while start < x.size:
            if self._binned == _BIN_LIMIT:
                self._flush()
            stop = min(x.size, start + _BIN_LIMIT - self._binned)
            self._whole += np.bincount(exp[start:stop], whole[start:stop], _BIN_SCALE.size)
            self._frac += np.bincount(exp[start:stop], frac[start:stop], _BIN_SCALE.size)
            self._binned += stop - start
            start = stop

    def _bin_parts(self) -> list[float]:
        parts = np.concatenate([np.ldexp(self._whole, _BIN_SCALE), np.ldexp(self._frac, _BIN_SCALE)])
        return parts[parts != 0.0].tolist()

    def _flush(self) -> None:
        self._parts.extend(self._bin_parts())
        self._whole[:] = 0.0
        self._frac[:] = 0.0
        self._binned = 0

    def _keep_raw(self, x: np.ndarray) -> None:
        self._flush()
        self._raw = True
        self._parts.extend(x.tolist())

    def total(self) -> float:
        """The correctly rounded sum so far; the accumulator stays usable."""
        return fsum(self._parts + self._bin_parts())


def exact_sum(values) -> float:
    """Correctly rounded sum of a float array, equal to ``math.fsum`` bit for
    bit: one chunk through :class:`ExactAccumulator`."""
    acc = ExactAccumulator()
    acc.add(values)
    return acc.total()


def _row_blocks(rows: int):
    """(start, stop) of consecutive blocks of BLOCK_ROWS rows covering range(rows)."""
    return ((start, min(start + BLOCK_ROWS, rows)) for start in range(0, rows, BLOCK_ROWS))


def energy(code: WeightedCode, h: Potential) -> float:
    """Weighted h-energy: sum over ordered distinct pairs of w_i w_j h(x_i . x_j).

    Works on the upper triangle of the Gram matrix, streamed in row blocks
    of BLOCK_ROWS rows: per block, the inner products above the diagonal,
    one call of h on them, terms (2 w_i) w_j h(x_i . x_j), and one
    :class:`ExactAccumulator` across all blocks, so the result equals
    ``math.fsum`` of the N(N-1)/2 terms and matches high-precision
    reference values to the last printed digit.  Working memory beyond the
    Gram matrix is O(BLOCK_ROWS N).  A one-point code has no pairs and
    energy 0.
    """
    size, w = code.size, code.weights
    acc = ExactAccumulator()
    # row k of a block starting at row r pairs with the columns r + 1 + c, c >= k
    upper = np.arange(size - 1) >= np.arange(min(BLOCK_ROWS, size))[:, None]
    for start, stop in _row_blocks(size - 1):
        mask = upper[: stop - start, : size - 1 - start]
        g = code._gram[start:stop, start + 1 :][mask]
        if g.max() >= 1.0 - 1e-15:
            raise ValueError("coincident points: energy would need h(1)")
        terms = (2.0 * w[start:stop, None] * w[start + 1 :])[mask]
        terms *= potential_eval(h, g)
        acc.add(terms)
    return acc.total()


def _moments(code: WeightedCode, tau: int) -> np.ndarray:
    """M_1, ..., M_tau, summed over row blocks of the Gram matrix so the
    Gegenbauer table never exceeds (tau + 1) x BLOCK_ROWS x N."""
    w = code.weights
    moments = np.zeros(tau)
    for start, stop in _row_blocks(code.size):
        table = gegenbauer_table(code.n, tau, code._gram[start:stop])
        moments += [w[start:stop] @ table[ell] @ w for ell in range(1, tau + 1)]
    return moments


def weighted_moment(code: WeightedCode, ell: int) -> float:
    """Moment M_ell: the full double sum of P_ell over the Gram matrix."""
    if ell < 1:
        raise ValueError("moment order must be >= 1")
    return float(_moments(code, ell)[-1])


def design_strength(code: WeightedCode, tau_max: int, tol: float = 1e-9) -> DesignCheckReport:
    """Largest tau <= tau_max with M_1, ..., M_tau all below tol."""
    if tau_max < 1:
        raise ValueError("tau_max must be >= 1")
    moments = tuple(float(m) for m in _moments(code, tau_max))
    strength = 0
    for value in moments:
        if abs(value) > tol:
            break
        strength += 1
    return DesignCheckReport(strength, moments, tol)


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


def _cyclic(v):
    v = list(v)
    return [tuple(v[i:] + v[:i]) for i in range(len(v))]


def icosahedron() -> WeightedCode:
    # oriented as the dual of :func:`dodecahedron` (vertices over its faces)
    pts = []
    for sa in (1.0, -1.0):
        for sb in (1.0, -1.0):
            pts.extend(_cyclic((0.0, sa * GOLDEN, sb)))
    arr = np.asarray(pts) / sqrt(1 + GOLDEN**2)
    return WeightedCode(3, arr, np.full(12, 1 / 12), "icosahedron")


def dodecahedron() -> WeightedCode:
    pts = [
        (sa, sb, sc)
        for sa in (1.0, -1.0)
        for sb in (1.0, -1.0)
        for sc in (1.0, -1.0)
    ]
    for sa in (1.0, -1.0):
        for sb in (1.0, -1.0):
            pts.extend(_cyclic((0.0, sa / GOLDEN, sb * GOLDEN)))
    arr = np.asarray(pts) / sqrt(3)
    return WeightedCode(3, arr, np.full(20, 1 / 20), "dodecahedron")


def cube(n: int) -> WeightedCode:
    pts = np.array([[1 - 2 * ((i >> j) & 1) for j in range(n)] for i in range(2**n)], dtype=float)
    return WeightedCode(n, pts / sqrt(n), np.full(2**n, 1.0 / 2**n), f"cube:{n}")


def crosspolytope(n: int) -> WeightedCode:
    pts = np.vstack([np.eye(n), -np.eye(n)])
    return WeightedCode(n, pts, np.full(2 * n, 1.0 / (2 * n)), f"crosspolytope:{n}")


def regular_ngon(count: int) -> WeightedCode:
    angles = 2 * np.pi * np.arange(count) / count
    pts = np.column_stack([np.cos(angles), np.sin(angles)])
    return WeightedCode(2, pts, np.full(count, 1.0 / count), f"ngon:{count}")


def pentakis_dodecahedron() -> WeightedCode:
    ico, dod = icosahedron(), dodecahedron()
    pts = np.vstack([ico.points, dod.points])
    weights = np.concatenate([np.full(12, 5 / 168), np.full(20, 9 / 280)])
    return WeightedCode(3, pts, weights, "pentakis_dodecahedron")


def cube_crosspolytope(n: int) -> WeightedCode:
    """Dual union: cross-polytope points at weight 1/(2n + n^2), cube points
    at weight n^2 / (2^n (2n + n^2)).  It is a weighted 5-design for n >= 3
    and the equi-weighted regular 8-gon for n = 2."""
    if n < 2:
        raise ValueError("cube_crosspolytope needs n >= 2")
    w_p = 1.0 / (2 * n + n * n)
    w_c = n * n / (2**n * (2 * n + n * n))
    pts = np.vstack([crosspolytope(n).points, cube(n).points])
    weights = np.concatenate([np.full(2 * n, w_p), np.full(2**n, w_c)])
    return WeightedCode(n, pts, weights, f"cube_crosspolytope:{n}")


def twenty_four_cell() -> WeightedCode:
    code = cube_crosspolytope(4)
    return WeightedCode(4, code.points, code.weights, "twenty_four_cell")


class ConfigEntry(NamedTuple):
    """A bundled configuration: its builder, its other CLI spellings (the
    short one first) and the name of the parameter it needs, "" if none."""

    build: Callable[..., WeightedCode]
    aliases: tuple[str, ...] = ()
    param: str = ""


CONFIGS = {
    "pentakis_dodecahedron": ConfigEntry(pentakis_dodecahedron, ("pentakis",)),
    "cube_crosspolytope": ConfigEntry(cube_crosspolytope, ("cube-cross",), "N"),
    "regular_ngon": ConfigEntry(regular_ngon, ("ngon",), "K"),
    "icosahedron": ConfigEntry(icosahedron),
    "dodecahedron": ConfigEntry(dodecahedron),
    "cube": ConfigEntry(cube, (), "N"),
    "crosspolytope": ConfigEntry(crosspolytope, ("cross",), "N"),
    "twenty_four_cell": ConfigEntry(twenty_four_cell, ("24-cell",)),
}
CONFIG_SPELLINGS = {
    spelling: name for name, entry in CONFIGS.items() for spelling in (name, *entry.aliases)
}


def _require_dim(n):
    if n is None:
        raise ValueError("this configuration needs a dimension or point-count parameter")
    return int(n)


def build_config(name: str, n: int | None = None) -> WeightedCode:
    """Construct a named configuration; n is the dimension (or the point
    count for regular polygons) and is ignored by the fixed ones."""
    try:
        entry = CONFIGS[name]
    except KeyError:
        raise ValueError(f"unknown configuration {name!r}") from None
    return entry.build(_require_dim(n)) if entry.param else entry.build()


def with_equal_weights(code: WeightedCode) -> WeightedCode:
    return WeightedCode(
        code.n,
        code.points,
        np.full(code.size, 1.0 / code.size),
        f"{code.name}:equal" if code.name else "",
    )


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
        n = _require_dim(n)
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


def code_to_json(code: WeightedCode) -> str:
    payload = {
        "n": code.n,
        "points": [[float(x) for x in p] for p in code.points],
        "weights": [float(w) for w in code.weights],
    }
    if code.name:
        payload["name"] = code.name
    return json.dumps(payload)


def code_from_json(text: str) -> WeightedCode:
    data = json.loads(text)
    return WeightedCode(
        int(data["n"]),
        np.asarray(data["points"], dtype=float),
        np.asarray(data["weights"], dtype=float),
        data.get("name", ""),
    )
