"""Seeded outcome census of the four bounds, one line per outcome.

Two recipes, drawn in a fixed order:

* census: seed 12345, 1500 draws.  Each draw takes n from [2, 40), m
  from [1, 24), a capacity N in (D(n, m), D(n, m+1)) (just above the
  left end, just below the right end with 10^u, u in [-12, -3], or
  uniform in between), s uniform in the degree-m validity interval, and
  the next of six potentials.  It makes four calls: ulb(n, N, h),
  uub(n, 1e9, s, h), design_ulb(n, N, m, h) and design_uub(n, N, s, m, h).
* boundary: ulb(n, D(n, m)(1 + delta), riesz:1) for n in [2, 40),
  m in [2, 25] and delta in {1e-15, 1e-14, 1e-13}.

Each line is the outcome's key (its name ``recipe#index kind``, then
the inputs, floats as hex), a tab, then either ``raise Type: message``
or the report: feasible, value, lambda*, N_1, m, nodes, weights and
every diagnostic (name, ok, value, note), floats as hex.  Per-kind
counts go to stderr.

With spherelp importable (installed, or PYTHONPATH=src):

    python tests/census.py > outcomes.txt             # both recipes in full
    python tests/census.py --compare before.txt after.txt
    python tests/census.py --known run1.txt run2.txt ... > tests/data/census_known.txt

Which reports are infeasible depends in some cases on the BLAS kernel
(gates such as dominance_above decided at round-off at N >= 1e8), so
``--known`` takes full runs of one commit under several kernels, for
example OPENBLAS_CORETYPE=Prescott, Nehalem, Sandybridge, Haswell and
SkylakeX.  numpy's SIMD dispatch flips round-off outcomes as well: with
its AVX-512 targets off (NPY_DISABLE_CPU_FEATURES), a full run has
infeasible outcomes that runs differing only in the BLAS kernel do not.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections import Counter
from functools import partial

from spherelp.bounds import design_ulb, design_uub, ulb, uub
from spherelp.potentials import parse_potential
from spherelp.quadrature import dgs_bound, validity_interval

SEED = 12345
DRAWS = 1500
POTENTIALS = ("riesz:1", "gaussian:1", "log", "newton", "riesz:2.5", "shift:1.5:fejes-toth")
DELTAS = (1e-15, 1e-14, 1e-13)
ROUND_OFF = " at round-off"  # marks a known status that some runs give as feasible
KNOWN_HEADER = """\
# Census outcomes (tests/census.py, in full) that raise or are infeasible: name, a tab, then the status.
# Written by tests/census.py --known from full runs under five OpenBLAS kernels: a name fails in at
# least one run, and its status ends in "at round-off" where another run found it feasible.
# test_census.py fails on a failure in its slice not named here with its status, and on a name here
# whose outcome is now feasible unless it is at round-off.  The list only shrinks."""


def _hex(x) -> str:
    return "None" if x is None else float(x).hex()


def census_calls():
    """(key, call) for every call of the census recipe, in draw order."""
    rng = random.Random(SEED)
    for i in range(DRAWS):
        # every draw consumes the same six numbers, whatever it uses
        n = 2 + int(38 * rng.random())
        m = 1 + int(23 * rng.random())
        form, u, t, r = int(3 * rng.random()), -12 + 9 * rng.random(), rng.random(), rng.random()
        left, right = dgs_bound(n, m), dgs_bound(n, m + 1)
        capacity = (left * (1 + 10**u), right * (1 - 10**u), left + t * (right - left))[form]
        lo, hi = validity_interval(n, m)
        s = lo + r * (hi - lo)
        h = parse_potential(POTENTIALS[i % len(POTENTIALS)], n)
        where = f"census#{i}"
        nc, ns, label = _hex(capacity), _hex(s), h.label()
        yield f"{where} ulb n={n} capacity={nc} h={label}", partial(ulb, n, capacity, h)
        yield f"{where} uub n={n} capacity=1e9 s={ns} h={label}", partial(uub, n, 1e9, s, h)
        yield f"{where} design_ulb n={n} capacity={nc} tau={m} h={label}", partial(design_ulb, n, capacity, m, h)
        yield f"{where} design_uub n={n} capacity={nc} s={ns} tau={m} h={label}", partial(design_uub, n, capacity, s, m, h)


def boundary_calls():
    """(key, call) for every capacity of the boundary recipe."""
    h = parse_potential("riesz:1")
    cases = ((delta, n, m) for delta in DELTAS for n in range(2, 40) for m in range(2, 26))
    for i, (delta, n, m) in enumerate(cases):
        capacity = dgs_bound(n, m) * (1 + delta)
        key = f"boundary#{i} ulb n={n} m={m} delta={delta:g} capacity={_hex(capacity)} h={h.label()}"
        yield key, partial(ulb, n, capacity, h)


def outcome(call) -> str:
    """The outcome of one call as text: the raised error or the report, floats as hex."""
    try:
        report = call()
    except Exception as exc:  # noqa: BLE001 - every raise is an outcome to record
        return f"raise {type(exc).__name__}: " + " ".join(str(exc).split())
    rule = report.rule
    fields = [
        f"feasible={report.feasible}",
        f"value={_hex(report.value)}",
        f"lambda={_hex(report.lambda_star)}",
        f"n1={_hex(rule.capacity)}",
        f"m={report.m}",
        "nodes=" + ",".join(map(_hex, rule.nodes)),
        "weights=" + ",".join(map(_hex, rule.weights)),
    ]
    fields += [f"{c.name}={c.ok}:{_hex(c.value)}:{json.dumps(c.note)}" for c in report.diagnostics]
    return "\t".join(fields)


def outcomes(stride: int = 1):
    """(key, outcome) for every ``stride``-th call of the census, then of the boundary recipe."""
    for recipe in (census_calls(), boundary_calls()):
        for i, (key, call) in enumerate(recipe):
            if i % stride == 0:
                yield key, outcome(call)


def status(text: str) -> str:
    """``feasible``, ``infeasible`` or ``raise Type``."""
    if text.startswith("raise "):
        return text.split(":", 1)[0]
    return "feasible" if text.startswith("feasible=True") else "infeasible"


def name(key: str) -> str:
    """The outcome's name, ``recipe#index kind``: its inputs follow from the recipe."""
    return " ".join(key.split(" ", 2)[:2])


def _read(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("\t", 1) for line in fh if line.strip())


def known(paths) -> list[str]:
    """census_known.txt's lines from full runs of one commit: every name that fails in any run."""
    runs = [{name(key): status(text) for key, text in _read(path).items()} for path in paths]
    lines = [KNOWN_HEADER]
    for key in runs[0]:
        seen = {run[key] for run in runs}
        failures = seen - {"feasible"}
        if failures:
            (failure,) = failures  # the runs agree on how a name fails, if not on whether
            lines.append(f"{key}\t{failure}" + (ROUND_OFF if "feasible" in seen else ""))
    return lines


def compare(path_a: str, path_b: str) -> int:
    """Print every outcome that differs between two census files; 1 if any does."""
    a, b = _read(path_a), _read(path_b)
    keys = list(a) + [key for key in b if key not in a]
    differ = [key for key in keys if a.get(key) != b.get(key)]
    for key in differ:
        print(f"{key}\n  - {a.get(key)}\n  + {b.get(key)}")
    print(f"{len(differ)} of {len(keys)} outcomes differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="print the outcomes that differ")
    parser.add_argument("--known", nargs="+", metavar="RUN", help="print census_known.txt from full runs")
    args = parser.parse_args(argv)
    if args.known:
        print(*known(args.known), sep="\n")
        return 0
    if args.compare:
        return compare(*args.compare)
    counts = Counter()
    for key, text in outcomes():
        print(f"{key}\t{text}")
        recipe, kind = name(key).split(" ")
        counts[recipe.split("#")[0], kind, status(text)] += 1
    for (recipe, kind, what), count in sorted(counts.items()):
        print(f"{recipe} {kind}: {what} {count}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
