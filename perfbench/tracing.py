"""Per-layer spans recorded from outside spherelp.

``Tracer.install`` replaces each public function named in ``WRAPPED`` with a
timing wrapper on every ``spherelp`` module attribute that holds the same
object; ``bounds`` and ``hermite`` import these names directly, so patching
the defining module alone would miss their calls.  A wrapper's self time is
its span's duration minus the time covered by the spans it encloses.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter_ns

import numpy as np

WRAPPED = {
    "bounds": ("ulb", "uub", "design_uub"),
    "quadrature": (
        "solve_ulb_rule",
        "select_degree_from_capacity",
        "select_degree_from_s",
        "levenshtein_function",
        "levenshtein_polynomial",
        "compute_weights",
        "exactness_residuals",
    ),
    "hermite": ("hermite_interpolant", "verify_dominance"),
    "orthopoly": ("to_gegenbauer", "from_gegenbauer", "gegenbauer_table", "gegenbauer_eval"),
    "potentials": ("potential_eval", "potential_derivative", "classify"),
    "codes": ("WeightedCode", "energy"),
}
NAMES = tuple(f"{module}.{fn}" for module, fns in WRAPPED.items() for fn in fns)
BOUNDS = ("bounds.ulb", "bounds.uub", "bounds.design_uub")
SPAN_OPS = 3  # ops whose individual spans are kept for the trace file


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.points = 0  # array elements passed to potential_eval
        self.dominance_points = 0  # of those, the ones verify_dominance passed
        self.pairs = 0  # N(N-1)/2 over energy calls
        self.op = 0
        self.spans = []  # (op, name, parent, start_ns, end_ns) for the first SPAN_OPS ops
        self._stack = []  # [name, ns covered by child spans]
        self._undo = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "spherelp"]
        for module_name, fns in WRAPPED.items():
            module = importlib.import_module(f"spherelp.{module_name}")
            for fn in fns:
                target = getattr(module, fn)
                wrapper = self._wrap(f"{module_name}.{fn}", target)
                for holder in modules:
                    for attr in [a for a, v in vars(holder).items() if v is target]:
                        self._undo.append((holder, attr, target))
                        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, target in reversed(self._undo):
            setattr(holder, attr, target)
        self._undo.clear()

    def _count(self, name: str, args) -> None:
        if name == "potentials.potential_eval":
            size = int(np.size(args[1]))
            self.points += size
            if self._stack and self._stack[-1][0] == "hermite.verify_dominance":
                self.dominance_points += size
        elif name == "codes.energy":
            size = args[0].size
            self.pairs += size * (size - 1) // 2

    def _wrap(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            self._count(name, args)
            frame = [name, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                self.calls[name] += 1
                self.self_ns[name] += end - start - frame[1]
                if stack:
                    stack[-1][1] += end - start
                if self.op < SPAN_OPS:
                    self.spans.append((self.op, name, stack[-1][0] if stack else None, start, end))

        return wrapper

    def summary(self) -> dict:
        """Raw totals, JSON-ready, for :func:`layer_metrics`."""
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "points": self.points,
            "dominance_points": self.dominance_points,
            "pairs": self.pairs,
            "spans": self.spans,
        }


def layer_metrics(summary: dict, ops: int, scale: float, overhead_ms: float) -> dict:
    """Per-op layer metrics, as {name: (value, unit)}, over ``ops`` traced ops;
    times are multiplied by the run's machine-speed ``scale``."""
    calls = Counter(summary["calls"])
    self_ns = Counter(summary["self_ns"])
    out = {}
    for name in NAMES:
        out[f"{name}.self_ms"] = (self_ns[name] * scale / 1e6 / ops, "ms")
        out[f"{name}.calls"] = (calls[name] / ops, "count")
    bounds = sum(calls[b] for b in BOUNDS)
    rules = calls["quadrature.solve_ulb_rule"] + calls["quadrature.levenshtein_polynomial"]
    energy_s = self_ns["codes.energy"] * scale / 1e9
    out["quadrature.rules_per_bound"] = (rules / bounds if bounds else 0.0, "ratio")
    out["hermite.dominance_points"] = (summary["dominance_points"] / ops, "count")
    out["potentials.points"] = (summary["points"] / ops, "count")
    out["codes.energy.pairs_per_s"] = (summary["pairs"] / energy_s if energy_s else 0.0, "1/s")
    out["trace.overhead_ms"] = (overhead_ms, "ms")
    return out
