"""Weighted spherical codes: example configurations, energy, design strength.

A weighted code is a tuple of distinct unit vectors with positive weights
summing to 1.  The bundled configurations are the ones whose energies the
bounds are tested against: the pentakis dodecahedron (icosahedron plus
dodecahedron with dual weights) and the union of a cube with a
cross-polytope in n dimensions, plus the individual polytopes and regular
polygons.

No Gram matrix is stored: energy, moments and the maximal inner product
stream its rows in blocks of BLOCK_ROWS through one BLOCK_ROWS x N buffer
per call.  energy packs each block's triangle and tiles of up to
TILE_COLUMNS columns, in walk order, into two buffers of one full tile plus
one triangle, and sums them as one chunk whenever the next piece would not
fit: a 1050-point code takes 36 chunks and peaks at 1.08 MB of numpy
memory.  It reads its rows unclipped and writes each piece's 1 - g into
the value buffer: a chunk's minimum rejects coincident points, and only a
chunk whose maximum exceeds 2 is lowered to 2, as g clipped to -1.  Each
chunk's terms are summed exactly, a one-signed chunk whose magnitudes span
e1 - emin <= 53 - 2k binades (2**k > its size + 1) in two parts, the
first extraction level's and the plain sum of its remainders, and any
other chunk level by level.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple
from math import frexp, fsum, isfinite, ldexp, sqrt
from operator import index

import numpy as np

from .orthopoly import gegenbauer_table, integral_degree
from .potentials import Potential, _gap_values

GOLDEN = (1 + sqrt(5)) / 2


def _float_array(values, message: str) -> np.ndarray:
    """values as a float array, or a ValueError naming the field when numpy cannot convert them."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{message}, got a {type(values).__name__} that does not convert to floats") from None


def check_weights(weights) -> np.ndarray:
    """The weights as a 1-d float array, once they are finite, positive and sum to 1."""
    w = _float_array(weights, "weights must be a flat list of numbers")
    if w.ndim != 1:
        raise ValueError(f"weights must be a flat list of numbers, got an array of shape {w.shape}")
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
    Construction checks this on sorted projections (see
    :func:`_has_coincident_pair`) in O(N log N) time and O(N) memory, and
    stores no Gram matrix: energy, moments, the maximal inner product and
    :meth:`gram` read its rows in blocks from :func:`_gram_rows`.
    """

    n: int
    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension must be >= 2")
        self.points = _float_array(self.points, "points must be an N x n array")
        if self.points.ndim != 2 or self.points.shape[1] != self.n:
            raise ValueError("points must be an N x n array")
        if not self.points.shape[0]:
            raise ValueError("a code needs at least one point")
        self.weights = check_weights(self.weights)
        if self.weights.shape != (self.points.shape[0],):
            raise ValueError("one weight per point required")
        norms = np.linalg.norm(self.points, axis=1)
        if not np.max(np.abs(norms - 1.0)) <= 1e-12:
            raise ValueError("points must be unit vectors")
        if _has_coincident_pair(self.points):
            raise ValueError("points must be pairwise distinct")

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
        best = -np.inf
        for start, stop, block in _gram_rows(self):
            diagonal = np.arange(stop - start)
            block[diagonal, start + diagonal] = -np.inf
            best = max(best, block.max())
        return float(best)

    def gram(self) -> np.ndarray:
        out = np.empty((self.size, self.size))
        for start, stop, block in _gram_rows(self):
            out[start:stop] = block
        return out


@lru_cache(maxsize=16)
def _projection_axis(n: int) -> np.ndarray:
    """A fixed unit vector in R^n with seeded pseudo-random entries, so the
    symmetric bundled families (cubes, cross-polytopes, polygons) put no
    two distinct points at nearly one projection."""
    rng = random.Random(n)
    axis = np.array([rng.gauss(0.0, 1.0) for _ in range(n)])
    axis /= np.linalg.norm(axis)
    axis.flags.writeable = False
    return axis


def _has_coincident_pair(points: np.ndarray) -> bool:
    """Whether two rows lie within Euclidean distance 1e-9 of each other.

    Projecting onto a unit vector shrinks no distance, so two rows within
    1e-9 have projections within 1e-9 plus rounding, and only pairs whose
    projections lie within 2e-9 are candidates.  In sorted order the
    candidates at rank distance gap + 1 are a subset of those at gap, and
    each has its distance measured directly: O(N log N) time and O(N)
    memory unless many points share nearly one projection.
    """
    proj = points @ _projection_axis(points.shape[1])
    order = np.argsort(proj)
    proj = proj[order]
    live = np.arange(proj.size - 1)
    for gap in range(1, proj.size):
        live = live[proj[live + gap] - proj[live] <= 2e-9]
        if not live.size:
            break
        apart = points[order[live]] - points[order[live + gap]]
        if np.any(np.linalg.norm(apart, axis=1) <= 1e-9):
            return True
        live = live[live + gap + 1 < proj.size]
    return False


@dataclass(frozen=True)
class DesignCheckReport:
    strength: int
    moments: tuple[float, ...]


# chunks holding a value with |x| >= 2**960 (or a non-finite one) are kept
# raw: the sigma = 2**(e + k), k < 64, that extraction adds could overflow
_EXTRACT_LIMIT = 2.0**960
# rows of the Gram matrix per block from _gram_rows: a block of a
# 1000-point code stays in a core's L2 cache, and codes of up to 64 points
# take one block, so their moments are one matrix product each and their
# Gram matrix is the one product points @ points.T
BLOCK_ROWS = 64
# columns per tile in which energy walks a block's rectangle: its pair
# weights and h values, BLOCK_ROWS x TILE_COLUMNS each, take 128 KiB apiece
TILE_COLUMNS = 256


# the strict upper triangle of a BLOCK_ROWS square as (rows, columns) by
# column, (a, b) with a < b for b = 1, 2, ...: the triangle of a block of r
# rows is its first r(r - 1)/2 entries
_TRIANGLE = np.array(np.nonzero(np.tril(np.ones((BLOCK_ROWS, BLOCK_ROWS), dtype=bool), -1))[::-1])
_TRIANGLE.flags.writeable = False


def _extraction_level(x: np.ndarray, top: float, scratch: np.ndarray) -> tuple[float, float]:
    """One level of error-free extraction (Rump, Ogita and Oishi, SIAM J.
    Sci. Comput. 2008) on the finite chunk x, given top >= max |x| with
    0 < top < 2**960: (the exact sum of the q, sigma), with x overwritten
    by its remainders x - q and scratch the work buffer.

    With top < 2**e and 2**k > x.size + 1, q = (x + sigma) - sigma for
    sigma = 2**(e + k) is exact, and so are x - q and the sum of the q in
    any order; the remainders are at most 2**(e + k - 53) in magnitude, so
    each level takes at least 52 - k binades.  At sigma = 2**-1022, the floor, q = x: at 2**-1021 an odd multiple of
    2**-1074 would round to q = 0 for ever.
    """
    k = (x.size + 1).bit_length()
    sigma = ldexp(1.0, max(frexp(top)[1] + k, -1022))
    q = scratch[: x.size]
    np.add(x, sigma, out=q)
    q -= sigma
    x -= q
    return float(q.sum()), sigma


def _exact_parts(x: np.ndarray, hi: float, lo: float, scratch: np.ndarray):
    """Yield floats whose exact sum is that of the finite chunk x, given
    its largest and smallest values hi and lo with max(hi, -lo) < 2**960;
    x is overwritten, scratch is the work buffer.

    Two parts when the chunk is one-signed (lo > 0 or hi < 0, so it holds
    no zero) and its largest and smallest magnitudes have ``frexp``
    exponents e1 and emin with e1 - emin <= 53 - 2k, 2**k > x.size + 1:
    the sum of the first level's q, and x.sum() of its remainders.  Every
    value and every q is a multiple of u = 2**(emin - 53), so each
    remainder is too, and each is at most 2**(e1 + k - 53) in magnitude; a
    partial sum of at most 2**k - 1 of them is then a multiple of u (and
    of 2**-1074) below u * 2**(e1 - emin + 2k) <= u * 2**53, a double, so
    the sum is exact in any order.  Other chunks go on level by level,
    each on the remainders still nonzero, until none is left; a first
    level at the floor sigma = 2**-1022 leaves none.
    """
    top = max(hi, -lo)
    if not top:
        return
    least = lo if lo > 0 else -hi if hi < 0 else 0.0
    two_parts = least and frexp(top)[1] - frexp(least)[1] <= 53 - 2 * (x.size + 1).bit_length()
    part, sigma = _extraction_level(x, top, scratch)
    yield part
    # 0.0 at sigma = 2**-1022: 2**-1075 rounds to 0
    top = sigma * 2.0**-53
    if top and two_parts:
        yield float(x.sum())
        return
    while top:
        yield _extraction_level(x, top, scratch)[0]
        x = x[x != 0.0]
        top = max(x.max(), -x.min()) if x.size else 0.0


def exact_sum(chunks) -> float:
    """Correctly rounded sum of an iterable of 1-d float arrays, which it
    may overwrite: ``math.fsum`` of all their values, bit for bit.

    Each chunk becomes a few exact parts by :func:`_exact_parts`, in one
    scratch array grown to the largest chunk: two when it is one-signed
    and its magnitudes span e1 - emin <= 53 - 2k binades, 2**k > its size
    + 1 (the first extraction level's, and ``x.sum()`` of its remainders,
    exact in any order), else one per extraction level.  From the first
    chunk holding a non-finite value or one with |x| >= 2**960, values are
    kept as they come, after the parts so far.  That gives ``fsum``'s outcome on
    non-finite values, and its value or overflow on huge ones; only its
    intermediate-overflow check, which depends on how it split the earlier
    values, could judge a sum at the very edge of the double range differently.
    """
    parts, raw, scratch = [], False, np.empty(0)
    for x in chunks:
        if not raw:
            hi, lo = (x.max(), x.min()) if x.size else (0.0, 0.0)
            if max(hi, -lo) < _EXTRACT_LIMIT:  # false for NaN and infinities too
                if scratch.size < x.size:
                    scratch = np.empty(x.size)
                parts.extend(_exact_parts(x, hi, lo, scratch))
                continue
            raw = True
        parts.extend(x.tolist())
    return fsum(parts)


def _gram_rows(code: WeightedCode, clip: bool = True):
    """The Gram matrix, clipped to [-1, 1], as (start, stop, rows start..stop)
    for consecutive blocks of BLOCK_ROWS rows.  The only place Gram entries
    are computed.

    Each block is a view of one row buffer of min(BLOCK_ROWS, N) x N,
    allocated per call, which the next block overwrites, so a caller reads
    a block before it asks for the next.  Without clip the rows come as
    the matrix product gives them: :func:`energy` clips the entries it reads.
    """
    points = code.points
    rows = np.empty((min(BLOCK_ROWS, code.size), code.size))
    for start in range(0, code.size, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, code.size)
        block = np.matmul(points[start:stop], points.T, out=rows[: stop - start])
        if clip:
            np.clip(block, -1.0, 1.0, out=block)
        yield start, stop, block


def energy(code: WeightedCode, h: Potential) -> float:
    """Weighted h-energy: sum over ordered distinct pairs of w_i w_j h(x_i . x_j).

    Streams the upper triangle of the Gram matrix in row blocks from
    :func:`_gram_rows`: per block, the triangle above the diagonal of its
    square on the diagonal, read through :data:`_TRIANGLE`, then the
    rectangle to its right in tiles of at most TILE_COLUMNS columns.  Each
    piece's 1 - g and pair weights (2 w_i) w_j, one product each, go in walk
    order into a value and a pair buffer of one full tile plus one full
    triangle; when the next piece would not fit, and after the walk, the
    filled prefix is summed as one chunk.  1 - g is exact for g >= 1/2
    (Sterbenz), so a chunk's minimum rejects an inner product >= 1 - 1e-15
    (coincident points) exactly when g's maximum would; only when its
    maximum exceeds 2 are its entries lowered to 2, which by monotone
    rounding are the bits of 1 - max(g, -1): the Gram matrix clipped to
    [-1, 1].  h's closed form, unchecked, then works the chunk in place,
    under ``np.errstate(over="ignore")`` since an energy beyond the double
    range is inf, and :func:`exact_sum` gives ``math.fsum`` of the N(N-1)/2
    terms however they are chunked.  A one-point code has energy 0.
    """
    size, w, w2 = code.size, code.weights, 2.0 * code.weights
    # one tile plus one triangle, 18400 entries from N = 256 on: below
    # 2**15 - 1 like a tile alone, so a full chunk keeps a tile's span bound
    rows = min(BLOCK_ROWS, size)
    capacity = rows * min(TILE_COLUMNS, size) + rows * (rows - 1) // 2
    pair_buffer, value_buffer = np.empty(capacity), np.empty(capacity)
    upper_rows, upper_columns = _TRIANGLE
    # the triangle's entries as offsets into a block's rows from its first column
    offsets = upper_rows * size + upper_columns

    def chunk(fill):
        """The terms of the buffers' first fill entries, in the pair buffer."""
        gap, pair_weights = value_buffer[:fill], pair_buffer[:fill]
        # 1 - g is exact for g >= 1/2 (Sterbenz) and rounding is
        # monotone, so this holds exactly when g >= 1 - 1e-15
        if gap.min() <= 1.0 - (1.0 - 1e-15):
            raise ValueError("coincident points: energy would need h(1)")
        # min(fl(1 - g), 2) has the bits of 1 - max(g, -1)
        if gap.max() > 2.0:
            np.minimum(gap, 2.0, out=gap)
        pair_weights *= _gap_values(h, gap)
        return pair_weights

    def terms():
        fill = 0
        for start, stop, block in _gram_rows(code, clip=False):
            count = (stop - start) * (stop - start - 1) // 2
            if fill + count > capacity:
                yield chunk(fill)
                fill = 0
            gap, pair_weights = value_buffer[fill : fill + count], pair_buffer[fill : fill + count]
            np.take(block.reshape(-1)[start:], offsets[:count], out=gap)
            np.subtract(1.0, gap, out=gap)
            np.take(w2[start:], upper_rows[:count], out=pair_weights)
            pair_weights *= w[start:][upper_columns[:count]]
            fill += count
            for left in range(stop, size, TILE_COLUMNS):
                columns = slice(left, min(left + TILE_COLUMNS, size))
                shape = (stop - start, columns.stop - left)
                if fill + shape[0] * shape[1] > capacity:
                    yield chunk(fill)
                    fill = 0
                end = fill + shape[0] * shape[1]
                np.subtract(1.0, block[:, columns], out=value_buffer[fill:end].reshape(shape))
                np.einsum("i,j->ij", w2[start:stop], w[columns], out=pair_buffer[fill:end].reshape(shape))
                fill = end
        if fill:
            yield chunk(fill)

    with np.errstate(over="ignore"):
        return exact_sum(terms())


def _moments(code: WeightedCode, tau: int) -> np.ndarray:
    """M_1, ..., M_tau, summed over row blocks of the Gram matrix so the
    Gegenbauer table never exceeds (tau + 1) x BLOCK_ROWS x N."""
    w = code.weights
    moments = np.zeros(tau)
    for start, stop, block in _gram_rows(code):
        table = gegenbauer_table(code.n, tau, block)
        moments += [w[start:stop] @ table[ell] @ w for ell in range(1, tau + 1)]
        # freed before the next block's table is built, which then reuses its pages
        del table
    return moments


def design_strength(code: WeightedCode, tau_max: int, tol: float = 1e-9) -> DesignCheckReport:
    """Largest tau <= tau_max with M_1, ..., M_tau all below tol."""
    if (tau_max := integral_degree(tau_max, "tau_max")) < 1:
        raise ValueError("tau_max must be >= 1")
    if not (isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    moments = tuple(float(m) for m in _moments(code, tau_max))
    strength = 0
    for value in moments:
        if abs(value) > tol:
            break
        strength += 1
    return DesignCheckReport(strength, moments)


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
    return WeightedCode(3, arr, np.full(12, 1 / 12))


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
    return WeightedCode(3, arr, np.full(20, 1 / 20))


def cube(n: int) -> WeightedCode:
    # row i holds the signs of i's bits, least significant first
    pts = (1 - 2 * ((np.arange(2**n)[:, None] >> np.arange(n)) & 1)).astype(float)
    return WeightedCode(n, pts / sqrt(n), np.full(2**n, 1.0 / 2**n))


def crosspolytope(n: int) -> WeightedCode:
    pts = np.vstack([np.eye(n), -np.eye(n)])
    return WeightedCode(n, pts, np.full(2 * n, 1.0 / (2 * n)))


def regular_ngon(count: int) -> WeightedCode:
    angles = 2 * np.pi * np.arange(count) / count
    pts = np.column_stack([np.cos(angles), np.sin(angles)])
    return WeightedCode(2, pts, np.full(count, 1.0 / count))


def pentakis_dodecahedron() -> WeightedCode:
    ico, dod = icosahedron(), dodecahedron()
    pts = np.vstack([ico.points, dod.points])
    weights = np.concatenate([np.full(12, 5 / 168), np.full(20, 9 / 280)])
    return WeightedCode(3, pts, weights)


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
    return WeightedCode(n, pts, weights)


def twenty_four_cell() -> WeightedCode:
    return cube_crosspolytope(4)


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


def build_config(name: str, n: int | str | None = None) -> WeightedCode:
    """Construct a named configuration.  A fixed one takes no n; a
    parameterised one needs n, its dimension (or the point count of a
    regular polygon), an integer >= 1 given as an int or in decimal."""
    try:
        entry = CONFIGS[name]
    except KeyError:
        raise ValueError(f"unknown configuration {name!r}") from None
    if not entry.param:
        if n is not None:
            raise ValueError(f"configuration {name!r} takes no parameter, got {n!r}")
        return entry.build()
    try:
        value = int(n) if isinstance(n, str) else index(n)
    except (TypeError, ValueError):
        value = 0
    if value < 1:
        got = "" if n is None else f", got {n!r}"
        raise ValueError(f"configuration {name!r} needs an integer parameter {entry.param} >= 1{got}")
    return entry.build(value)


def with_equal_weights(code: WeightedCode) -> WeightedCode:
    return WeightedCode(code.n, code.points, np.full(code.size, 1.0 / code.size))


def code_from_json(text: str) -> WeightedCode:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"a code file must hold a JSON object, not a {type(data).__name__}")
    n = data.get("n")
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"code field 'n' must be an integer, got {n!r}")
    for key in ("points", "weights"):
        if key not in data:
            raise ValueError(f"code field '{key}' is missing")
    return WeightedCode(n, data["points"], data["weights"])
