"""One workload in its own process: set up, run the seeded op list, check it.

Prints one JSON object.  ``ready`` is the CLOCK_MONOTONIC reading when
set-up (``import spherelp`` plus one fixed warm-up op) ended, so the parent
can measure set-up from its own clock before it started this process.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import json
import sys
import time


def _malloc_trim():
    """glibc's malloc_trim, or a no-op where the C library has none."""
    libc = ctypes.CDLL(ctypes.util.find_library("c"))
    trim = getattr(libc, "malloc_trim", None)
    if trim is None:
        return lambda: None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return lambda: trim(0)


def warm_up(spherelp, workload: str):
    """One fixed op per workload, on inputs that do not depend on the seed."""
    h = spherelp.riesz(1.0)
    if workload == "ulb-sweep":
        return spherelp.ulb(3, 735 / 23, h)
    if workload == "uub-scan":
        return spherelp.uub(3, 30.0, 0.7, h)
    code = spherelp.codes.cube_crosspolytope(4)
    return spherelp.energy(code, h), spherelp.ulb(4, code.n_w, h)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("ulb-sweep", "uub-scan", "code-energy"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    args = parser.parse_args()

    import spherelp

    warm_up(spherelp, args.workload)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    import resource

    import numpy as np

    import machine
    import tracing
    import workloads

    items = workloads.generate(spherelp, args.workload, args.seed, args.rounds)
    check_rng = np.random.default_rng([args.seed, 1])
    # code ops free tensors of tens of MB; returning freed heap to the OS
    # after each op makes peak_rss_mb the largest op's own footprint rather
    # than whatever earlier ops left behind (it moved by 10% between seeds)
    release_heap = _malloc_trim() if args.workload == "code-energy" else (lambda: None)
    tracer = tracing.Tracer() if args.mode == "trace" else None
    if tracer:
        tracer.install()
    durations = []
    # each op's reference sample is taken after the previous op's checks and
    # before any heap trim, so it runs in the heap state the checks left
    reference = [machine.reference_ns(args.workload)]
    failed = wrong = 0
    for i, item in enumerate(items):
        if tracer:
            tracer.op = i
        start = time.perf_counter_ns()
        try:
            out = workloads.run(spherelp, item)
        except Exception as exc:  # an op that raises is counted, not fatal
            durations.append(time.perf_counter_ns() - start)
            failed += 1
            print(f"op {i} {item!r:.200}: {type(exc).__name__}: {exc}", file=sys.stderr)
        else:
            durations.append(time.perf_counter_ns() - start)
            problems = workloads.check(item, out, check_rng)
            feasible = workloads.feasible(item, out)
            if problems or not feasible:
                failed += 1
                wrong += bool(feasible)
                print(f"op {i} {item!r:.200}: feasible={feasible} {problems}", file=sys.stderr)
            del out
        reference.append(machine.reference_ns(args.workload))
        release_heap()
    if tracer:
        tracer.uninstall()

    wall_ms = np.asarray(durations) / 1e6
    ms = wall_ms * machine.scales(args.workload, reference[:-1])
    result = {
        "ready": ready,
        "attempted": len(items),
        "failed": failed,
        "wrong": wrong,
        "wall_ops_per_s": len(items) / (wall_ms.sum() / 1e3),
        "scale": float(ms.sum() / wall_ms.sum()),
        "ops_per_s": len(items) / (ms.sum() / 1e3),
        "op_mean_ms": float(ms.mean()),
        "op_p50_ms": float(np.percentile(ms, 50)),
        "op_p90_ms": float(np.percentile(ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["trace"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
