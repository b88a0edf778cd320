"""spherelp benchmark: one workload per call, run from the repository root.

    python3 perfbench/run.py --workload ulb-sweep --seed 1 --seconds 15 --trace 0

Each workload runs closed-loop (one caller waiting for every result) in a
fresh worker process with BLAS held to one thread.  The op list is whole
rounds of seeded inputs, and ``--seconds`` fixes the number of rounds
through ``ROUNDS_PER_SECOND``, so the same seed and seconds always do the
same work; on the 2-vCPU host it was tuned on, an untraced run of
``--seconds 15`` takes 15-30 s of wall time.  The last line of stdout is one
JSON object: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ROUNDS_PER_SECOND = {"ulb-sweep": 0.4, "uub-scan": 1.0, "code-energy": 1.0}
SETUP_PROBES = 4  # set-up-only processes per run, besides the measured worker's own set-up
DEADLINE_S = 175


class WorkerError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _spawn(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion; its set-up is timed from just before the spawn."""
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {args} passed the {DEADLINE_S} s deadline") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise WorkerError(f"worker {args} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed)]
    if not trace:
        rounds = max(1, round(seconds * ROUNDS_PER_SECOND[workload]))
        setups = [_spawn(common + ["--mode", "setup"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        run = _spawn(common + ["--rounds", str(rounds), "--mode", "run"], deadline)
        setups.append(run["setup_s"])
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (run["ops_per_s"], "ops/s"),
            "op_p50_ms": (run["op_p50_ms"], "ms"),
            "op_p90_ms": (run["op_p90_ms"], "ms"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        }
        runs = [run]
        record = {"rounds": rounds, "setup_samples_s": setups, "run": run}
    else:
        # the untraced baseline and the traced pass share half the run each
        rounds = max(1, round(seconds * ROUNDS_PER_SECOND[workload] / 2))
        base = _spawn(common + ["--rounds", str(rounds), "--mode", "run"], deadline)
        traced = _spawn(common + ["--rounds", str(rounds), "--mode", "trace"], deadline)
        overhead_ms = traced["op_mean_ms"] - base["op_mean_ms"]
        metrics = tracing.layer_metrics(traced["trace"], traced["attempted"], traced["scale"], overhead_ms)
        runs = [base, traced]
        record = {"rounds": rounds, "base": base, "traced": traced}
    return {
        "correct": all(r["wrong"] == 0 for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "record": record,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS_PER_SECOND))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "spherelp" / "__init__.py").is_file():
        print(f"spherelp sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    record = result.pop("record")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps({**result, **record}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
