"""Seeded inputs, the operation and the output checks of each workload.

Every workload is a list of whole rounds.  A round has the same shape on
every seed (which (n, m) cells, how many ops, which potentials), and the
seed only moves the continuous inputs inside their cells, so runs on
different seeds do the same kind and amount of work.  Inputs are made here,
outside the timed region, and handed to spherelp as plain numbers, arrays
and ``Potential`` objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import reference as ref

POTENTIALS = ("riesz:1", "riesz:2", "gaussian:1", "log", "fejes-toth")
SWEEP_DIMS = (3, 4, 5, 8)
MAX_DEGREE = 20
CODE_DIMS = (4, 5, 6, 7, 8)
CODES_PER_ROUND = 10
# n = 4 stays below D(4, 21) = 572 points, so that N_W keeps the degree <= 20
CODE_SIZES = {4: (250, 560), 5: (250, 1050), 6: (250, 1050), 7: (250, 1050), 8: (250, 1050)}
GOLDEN = 0.6180339887498949
BUNDLED_DIMS = (8, 9, 10)


@dataclass(frozen=True)
class UlbItem:
    n: int
    capacity: float
    label: str
    h: object


@dataclass(frozen=True)
class UubItem:
    design: bool
    n: int
    m: int
    s: float
    capacity: float
    label: str
    h: object


@dataclass(frozen=True)
class CodeItem:
    n: int
    points: np.ndarray | None  # None: the bundled cube_crosspolytope(n)
    weights: np.ndarray | None
    label: str
    h: object


def generate(spherelp, workload: str, seed: int, rounds: int) -> list:
    rng = np.random.default_rng(seed)
    potentials = {label: spherelp.parse_potential(label) for label in POTENTIALS}
    if workload == "ulb-sweep":
        return _ulb_sweep(rng, rounds, potentials)
    if workload == "uub-scan":
        return _uub_scan(rng, rounds, potentials)
    if workload == "code-energy":
        return _code_energy(rng, rounds, potentials)
    raise ValueError(f"unknown workload {workload!r}")


def _ulb_sweep(rng, rounds, potentials):
    """Per round one capacity inside every (n, m) degree interval, each run
    under all five potentials back to back: 4 of 5 ops reuse a rule."""
    items = []
    for _ in range(rounds):
        cells = [(n, m) for n in SWEEP_DIMS for m in range(1, MAX_DEGREE + 1)]
        for idx in rng.permutation(len(cells)):
            n, m = cells[idx]
            lo, hi = ref.dgs(n, m), ref.dgs(n, m + 1)
            capacity = float(lo + (0.02 + 0.96 * rng.random()) * (hi - lo))
            items.extend(UlbItem(n, capacity, label, potentials[label]) for label in POTENTIALS)
    return items


def _uub_scan(rng, rounds, potentials):
    """Per round two values of s inside every (n, m) validity interval, one
    for uub and one for design_uub at tau = m, shuffled, so no (n, s)
    repeats.  Each (n, m, kind) cell keeps its potential in every round.
    The capacity is 0.6..1 times N_1 = L_m(n, s)."""
    intervals = {(n, m): ref.validity_interval(n, m) for n in SWEEP_DIMS for m in range(1, MAX_DEGREE + 1)}
    cells = [(n, m, design) for n, m in intervals for design in (False, True)]
    items = []
    for _ in range(rounds):
        for idx in rng.permutation(len(cells)):
            n, m, design = cells[idx]
            lo, hi = intervals[n, m]
            s = float(lo + (0.05 + 0.9 * rng.random()) * (hi - lo))
            capacity = float(ref.levenshtein(n, m, s) * (0.6 + 0.4 * rng.random()))
            label = POTENTIALS[idx % len(POTENTIALS)]
            items.append(UubItem(design, n, m, s, capacity, label, potentials[label]))
    return items


def _code_energy(rng, rounds, potentials):
    """Random weighted codes plus the three bundled cross-polytope-and-cube
    unions, once per run at seeded positions.  The j-th random code has
    n = 4..8 by j mod 5, a potential by j // 5 mod 5 and a size spread over
    its range by the golden-ratio sequence, so every seed runs the same
    sizes; the seed draws the points and weights and the order in a round."""
    shapes = []
    for r in range(rounds):
        shapes.extend(r * CODES_PER_ROUND + i for i in rng.permutation(CODES_PER_ROUND))
    for k, n in enumerate(BUNDLED_DIMS):
        shapes.insert(int(rng.integers(len(shapes) + 1)), (n, POTENTIALS[k]))
    items = []
    for shape in shapes:
        if isinstance(shape, tuple):
            n, label = shape
            items.append(CodeItem(n, None, None, label, potentials[label]))
            continue
        n = CODE_DIMS[shape % len(CODE_DIMS)]
        label = POTENTIALS[shape // len(CODE_DIMS) % len(POTENTIALS)]
        lo, hi = CODE_SIZES[n]
        size = round(lo + (hi - lo) * (shape * GOLDEN % 1.0))
        x = rng.standard_normal((size, n))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        w = rng.uniform(0.5, 1.5, size)
        items.append(CodeItem(n, x, w / w.sum(), label, potentials[label]))
    return items


def run(spherelp, item):
    """The timed operation; everything it returns is checked afterwards."""
    if isinstance(item, UlbItem):
        return spherelp.ulb(item.n, item.capacity, item.h)
    if isinstance(item, UubItem):
        if item.design:
            return spherelp.design_uub(item.n, item.capacity, item.s, item.m, item.h)
        return spherelp.uub(item.n, item.capacity, item.s, item.h)
    if item.points is None:
        code = spherelp.codes.cube_crosspolytope(item.n)
    else:
        code = spherelp.WeightedCode(item.n, item.points, item.weights)
    return code, spherelp.energy(code, item.h), spherelp.ulb(item.n, code.n_w, item.h)


def feasible(item, out) -> bool:
    report = out[2] if isinstance(item, CodeItem) else out
    return bool(report.feasible)


def check(item, out, rng) -> list[str]:
    """Failure messages for one op's output (empty when every check passes)."""
    if isinstance(item, UlbItem):
        return ref.check_ulb(out, item.n, item.capacity, item.label, rng)
    if isinstance(item, UubItem):
        return ref.check_uub(out, item.n, item.m, item.capacity, item.s, item.label, rng, item.design)
    code, value, bound = out
    if item.points is None:
        points, weights, bundled = code.points, code.weights, item.n
    else:
        points, weights, bundled = item.points, item.weights, None
    problems = ref.check_energy(value, points, weights, item.label, bundled)
    n_w = 1.0 / float(np.dot(weights, weights))
    problems += ref.check_ulb(bound, item.n, n_w, item.label, rng)
    if not bound.value <= value:
        problems.append(f"ULB {bound.value!r} above the energy {value!r}")
    return problems
