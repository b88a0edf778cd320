"""Embedded reference values for the bundled example configurations.

Each cell stores a reference value together with its recorded precision;
lower bounds and real parameters were recorded truncated toward zero,
upper bounds rounded away from zero, so a regenerated cell matches when
it rounds or truncates to the recorded digits (half-ulp tolerance
otherwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds, codes
from .potentials import newton, riesz
from .quadrature import solve_ulb_rule

SQ5 = math.sqrt(5)
PENTAKIS_A = math.sqrt(1 - 2 / SQ5) / math.sqrt(3)
PENTAKIS_B = math.sqrt(1 + 2 / SQ5) / math.sqrt(3)
PENTAKIS_CAPACITY = 735 / 23


@dataclass(frozen=True)
class Cell:
    label: str
    computed: float
    printed: float
    decimals: int | None  # None: exact value, compared at 1e-9

    @property
    def ok(self) -> bool:
        return cell_matches(self.computed, self.printed, self.decimals)


def cell_matches(computed: float, printed: float, decimals: int | None) -> bool:
    if decimals is None:
        return abs(computed - printed) <= 1e-9
    ulp = 10.0**-decimals
    if abs(computed - printed) <= 0.5 * ulp + 1e-12:
        return True
    scaled = computed / ulp
    truncated = math.copysign(math.floor(abs(scaled)), scaled) * ulp
    rounded_up = math.ceil(scaled) * ulp
    return any(abs(cand - printed) <= 1e-9 for cand in (truncated, rounded_up))


def _qp_capacity(n: int) -> float:
    return n * (n + 2) ** 2 * 2**n / (n**3 + 2 ** (n + 1))


TABLE2_NODES = (-0.9412, -0.6741, -0.2109, 0.3281, 0.7793)
TABLE2_WEIGHTS = (0.0771, 0.1889, 0.2636, 0.2612, 0.1777)

# per row: n, printed N_W (value, decimals), nodes, weights, ULB, energy
TABLE3 = {
    2: {
        "n_w": (8.0, None),
        "nodes": ((-1.0, None), (-math.sqrt(2) / 2, None), (0.0, None), (math.sqrt(2) / 2, None)),
        "weights": ((0.125, None), (0.25, None), (0.25, None), (0.25, None)),
        "ulb": (0.875, None),
        "energy": (0.875, None),
    },
    3: {
        "n_w": (13.95, 2),
        "nodes": ((-0.8580, 4), (-0.2701, 4), (0.5225, 4)),
        "weights": ((0.1832, 4), (0.3832, 4), (0.3618, 4)),
        "ulb": (0.7058, 4),
        "energy": (0.7070, 4),
    },
    4: {
        "n_w": (24.0, None),
        "nodes": ((-0.8173, 4), (-0.2575, 4), (0.4749, 4)),
        "weights": ((0.1384, 4), (0.4339, 4), (0.3858, 4)),
        "ulb": (0.5781, 4),
        "energy": (0.5798, 4),
    },
    5: {
        "n_w": (41.48, 2),
        "nodes": ((-0.7428, 4), (-0.1910, 4), (0.4684, 4)),
        "weights": ((0.1424, 4), (0.4680, 4), (0.3653, 4)),
        "ulb": (0.4825, 4),
        "energy": (0.4901, 4),
    },
    6: {
        "n_w": (71.44, 2),
        "nodes": ((-0.6753, 4), (-0.1327, 4), (0.4705, 4)),
        "weights": ((0.1540, 4), (0.4996, 4), (0.3323, 4)),
        "ulb": (0.4074, 4),
        "energy": (0.4314, 4),
    },
    7: {
        "n_w": (121.16, 2),
        "nodes": ((-1.0, None), (-0.5936, 4), (-0.0772, 4), (0.4748, 4)),
        "weights": ((0.0022, 4), (0.1785, 4), (0.5165, 4), (0.2944, 4)),
        "ulb": (0.3462, 4),
        "energy": (0.3993, 4),
    },
}

# per row: s, degree used by the published computation, printed N_1, printed UUB
TABLE4 = {
    2: {"s": 1 / math.sqrt(2), "m": 7, "n1": (8.0, None), "uub": (0.875, None)},
    3: {"s": 1 / math.sqrt(3), "m": 5, "n1": (16.098, 3), "uub": (0.7357, 4)},
    4: {"s": 0.5, "m": 5, "n1": (26.0, None), "uub": (0.5988, 4)},
    5: {"s": 3 / 5, "m": 6, "n1": (81.351, 3), "uub": (0.708, 3)},
    6: {"s": 2 / 3, "m": 7, "n1": (289.561, 3), "uub": (1.0421, 4)},
    7: {"s": 5 / 7, "m": 8, "n1": (2228.146, 3), "uub": (1.9464, 4)},
}

# pentakis inner-product distribution: column values and per-type counts;
# the +-v columns carry the count for each sign separately
TABLE1_COLUMNS = (
    (-1.0, False),
    (1 / SQ5, True),
    (PENTAKIS_A, True),
    (PENTAKIS_B, True),
    (1 / 3, True),
    (SQ5 / 3, True),
)
TABLE1_COUNTS = {"I": (1, 5, 5, 5, 0, 0), "D": (1, 0, 3, 3, 6, 3)}


def reproduce_table1() -> list[Cell]:
    code = codes.pentakis_dodecahedron()
    gram = code.gram()
    cells = []
    for type_name, rows in (("I", range(12)), ("D", range(12, 32))):
        counts = None
        for i in rows:
            mine = []
            for value, signed in TABLE1_COLUMNS:
                hits = int(np.sum(np.abs(gram[i] - value) < 1e-9))
                if signed:
                    neg = int(np.sum(np.abs(gram[i] + value) < 1e-9))
                    hits = hits if hits == neg else -1  # sign classes must agree
                mine.append(hits)
            if counts is None:
                counts = mine
            elif counts != mine:
                counts = [-1] * len(mine)  # rows of one type must be identical
        for (value, _), got, want in zip(TABLE1_COLUMNS, counts, TABLE1_COUNTS[type_name]):
            cells.append(Cell(f"{type_name}@{value:+.4f}", float(got), float(want), None))
    return cells


def reproduce_table2() -> list[Cell]:
    rule = solve_ulb_rule(3, PENTAKIS_CAPACITY)
    cells = [
        Cell(f"alpha_{i}", float(a), p, 4)
        for i, (a, p) in enumerate(zip(rule.nodes, TABLE2_NODES))
    ]
    cells += [
        Cell(f"rho_{i}", float(w), p, 4)
        for i, (w, p) in enumerate(zip(rule.weights, TABLE2_WEIGHTS))
    ]
    return cells


def reproduce_table3() -> list[Cell]:
    cells = []
    for n, row in TABLE3.items():
        capacity = _qp_capacity(n)
        report = bounds.ulb(n, capacity, newton(n))
        code = codes.cube_crosspolytope(n)
        cells.append(Cell(f"n={n} N_W", capacity, *row["n_w"]))
        for i, (a, printed) in enumerate(zip(report.rule.nodes, row["nodes"])):
            cells.append(Cell(f"n={n} alpha_{i}", float(a), *printed))
        for i, (w, printed) in enumerate(zip(report.rule.weights, row["weights"])):
            cells.append(Cell(f"n={n} rho_{i}", float(w), *printed))
        cells.append(Cell(f"n={n} ULB", report.value, *row["ulb"]))
        cells.append(Cell(f"n={n} energy", codes.energy(code, newton(n)), *row["energy"]))
    return cells


def reproduce_table4() -> list[Cell]:
    cells = []
    for n, row in TABLE4.items():
        capacity = _qp_capacity(n)
        report = bounds.uub(n, capacity, row["s"], newton(n), m_override=row["m"])
        cells.append(Cell(f"n={n} N_1", report.rule.capacity, *row["n1"]))
        cells.append(Cell(f"n={n} UUB", report.value, *row["uub"]))
    return cells


EXAMPLE_DESIGN_UUB = (
    # label, n, capacity, s, degree, potential, printed, decimals
    ("design UUB pentakis", 3, PENTAKIS_CAPACITY, PENTAKIS_B, 9, riesz(1), 0.805816, 6),
    ("design UUB n=3", 3, _qp_capacity(3), 1 / math.sqrt(3), 5, newton(3), 0.70893, 5),
    ("design UUB n=4", 4, 24.0, 0.5, 5, newton(4), 0.58111, 5),
    ("design UUB n=5", 5, _qp_capacity(5), 3 / 5, 6, newton(5), 0.500221, 6),
)


def reproduce_examples() -> list[Cell]:
    pent = codes.pentakis_dodecahedron()
    cells = [
        Cell("pentakis energy", codes.energy(pent, riesz(1)), 0.8050318, 7),
        Cell("pentakis ULB", bounds.ulb(3, PENTAKIS_CAPACITY, riesz(1)).value, 0.804786, 6),
    ]
    upper = bounds.uub(3, PENTAKIS_CAPACITY, PENTAKIS_B, riesz(1))
    cells.append(Cell("pentakis UUB", upper.value, 0.8234054, 7))
    cells.append(Cell("pentakis lambda*", upper.lambda_star, 7.47994, 5))
    for i, (a, printed) in enumerate(
        zip(upper.rule.nodes, (-0.9247, -0.6213, -0.1493, 0.3703, 0.7946))
    ):
        cells.append(Cell(f"pentakis uub alpha_{i}", float(a), printed, 4))
    for label, n, capacity, s, degree, h, printed, decimals in EXAMPLE_DESIGN_UUB:
        report = bounds.design_uub(n, capacity, s, degree, h)
        cells.append(Cell(label, report.value, printed, decimals))
    cells.append(
        Cell(
            "equal-weight pentakis energy",
            codes.energy(codes.with_equal_weights(pent), riesz(1)),
            0.8052,
            4,
        )
    )
    cells.append(Cell("ULB(3,32)", bounds.ulb(3, 32.0, riesz(1)).value, 0.8049, 4))
    cells.append(
        Cell(
            "equal-weight cube+cross energy",
            codes.energy(codes.with_equal_weights(codes.cube_crosspolytope(3)), newton(3)),
            0.70757,
            5,
        )
    )
    cells.append(Cell("ULB(3,14)", bounds.ulb(3, 14.0, newton(3)).value, 0.70629, 5))
    return cells


TABLES = {
    "1": reproduce_table1,
    "2": reproduce_table2,
    "3": reproduce_table3,
    "4": reproduce_table4,
    "examples": reproduce_examples,
}


def reproduce(table: str) -> list[Cell]:
    if table == "all":
        return [cell for builder in TABLES.values() for cell in builder()]
    try:
        builder = TABLES[table]
    except KeyError:
        raise ValueError(f"unknown table {table!r}; choose from {sorted(TABLES)} or 'all'") from None
    return builder()
