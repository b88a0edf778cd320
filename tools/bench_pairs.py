"""Alternating-pair comparison of two source trees on the perfbench workloads.

    python tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \
        --out BENCH_<n>_<name>.json [--pairs 10] [--seconds 15]

Each tree is a full checkout (its own ``perfbench/`` and ``src/``), for
example one made by ``git archive`` of each commit.  Pair i runs
``python3 perfbench/run.py --workload W --seed i --seconds S --trace 0`` in
both trees for every workload of ``BENCHMARK.json``, the parent first for odd i and the change first for even i, so
a slow spell of the host falls on both sides alike.  For every end-to-end
metric of ``BENCHMARK.json`` the output holds each side's median and
quartiles (inclusive method) over its runs, the change of the median in
percent, ``pairs_better`` (the pairs in which the change was better), a
``verdict`` and the raw runs.  The verdict is the first that holds of:

* ``gain``: the change is better in at least nine tenths of the pairs, and
  its median is better than the parent's by more than the parent's q3 - q1;
* ``worse``: its median is worse than the parent's by more than the
  metric's ``bound`` in ``BENCHMARK.json``, relative to the parent's median;
* ``unresolved``: the parent's q3 - q1 exceeds that bound times its median,
  and some run of the change is no better than some run of the parent;
* ``within bound``.

A run that fails stops the comparison with exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in ``tree``: its result line as a dict."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} in {tree} exited with {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(runs: dict[str, list[float]], better: str, bound: float) -> dict:
    """Medians, quartiles, the median's change, pairs_better and the verdict of two
    run lists in pair order, for a metric with this direction and regression bound."""
    out = {}
    for side in SIDES:
        values = runs[side]
        # a single run is its own quartiles
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        out[side] = {"median": statistics.median(values), "q1": q1, "q3": q3}
    parent, change = out["parent"]["median"], out["change"]["median"]
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(runs["parent"], runs["change"]))
    out["median_change_pct"] = round(100 * (change - parent) / parent, 1)
    out["pairs_better"] = f"{wins} of {len(runs['parent'])}"
    spread = out["parent"]["q3"] - out["parent"]["q1"]
    if 10 * wins >= 9 * len(runs["parent"]) and sign * (change - parent) > spread:
        out["verdict"] = "gain"
    elif sign * (parent - change) > bound * abs(parent):
        out["verdict"] = "worse"
    elif spread > bound * abs(parent) and min(sign * c for c in runs["change"]) <= max(sign * p for p in runs["parent"]):
        out["verdict"] = "unresolved"
    else:
        out["verdict"] = "within bound"
    return out


def compare(trees: dict[str, Path], workload: str, pairs: int, seconds: float, metrics: list[dict]) -> dict:
    results = {side: [] for side in SIDES}
    for seed in range(1, pairs + 1):
        order = SIDES if seed % 2 else SIDES[::-1]
        for side in order:
            results[side].append(run_once(trees[side], workload, seed, seconds))
            metric = results[side][-1]["metrics"]["ops_per_s"]["value"]
            print(f"{workload} seed {seed} {side}: ops_per_s {metric:.6g}", file=sys.stderr)
    out = {
        "seeds": list(range(1, pairs + 1)),
        "failed_ops": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "correct": {side: all(r["correct"] for r in results[side]) for side in SIDES},
        "metrics": {},
    }
    for metric in metrics:
        name = metric["name"]
        runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        out["metrics"][name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **summarise(runs, metric["better"], metric["bound"]),
            "parent_runs": runs["parent"],
            "change_runs": runs["change"],
        }
    return out


def host() -> str:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            model = next(line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"{os.cpu_count()}-CPU {model}, {platform.system()}, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}, BLAS held to one thread by the harness")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload; pair i uses seed i")
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--label", default="", help="what the change does, stored as 'change'")
    parser.add_argument("--parent-label", default="", help="the parent commit, stored as 'parent'")
    args = parser.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = {
        "change": args.label,
        "parent": args.parent_label,
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> --seconds {args.seconds:g} --trace 0",
        "protocol": (
            f"each side run from its own copy of the tree; {args.pairs} pairs per workload, pair i uses seed i "
            "for both sides; the side that runs first alternates (parent first for odd seeds); medians and "
            "quartiles (inclusive method) over the runs of each side; pairs_better counts the pairs in which "
            "the change was better; verdict as defined in tools/bench_pairs.py"
        ),
        "host": host(),
        "workloads": {},
    }
    try:
        for workload in (w["name"] for w in benchmark["workloads"]):
            report["workloads"][workload] = compare(trees, workload, args.pairs, args.seconds, benchmark["end_to_end"])
    except RuntimeError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, result in report["workloads"].items():
        for name, metric in result["metrics"].items():
            print(f"{workload:12} {name:12} parent {metric['parent']['median']:.6g} change "
                  f"{metric['change']['median']:.6g} ({metric['median_change_pct']:+}%) better in {metric['pairs_better']}: "
                  f"{metric['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
