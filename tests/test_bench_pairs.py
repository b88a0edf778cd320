import importlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load("bench_pairs", ROOT / "tools" / "bench_pairs.py")


def test_every_traced_name_resolves_to_a_callable():
    # the benchmark's trace mode wraps these spherelp functions by name, so a
    # library change that drops or renames one breaks the traced run
    tracing = _load("tracing", ROOT / "perfbench" / "tracing.py")
    missing = [
        f"spherelp.{module}.{name}"
        for module, names in tracing.WRAPPED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"spherelp.{module}"), name, None))
    ]
    assert not missing


def test_pair_summary_counts_wins_in_the_metric_direction():
    runs = {"parent": [10.0, 12.0, 11.0, 13.0], "change": [11.0, 11.5, 12.0, 14.0]}
    higher, lower = bench_pairs.summarise(runs, "higher", 0.2), bench_pairs.summarise(runs, "lower", 0.2)
    assert (higher["pairs_better"], lower["pairs_better"]) == ("3 of 4", "1 of 4")
    # inclusive quartiles of 10, 11, 12, 13 and of 11, 11.5, 12, 14
    assert higher["parent"] == {"median": 11.5, "q1": 10.75, "q3": 12.25}
    assert higher["change"] == {"median": 11.75, "q1": 11.375, "q3": 12.5}
    assert higher["median_change_pct"] == lower["median_change_pct"] == 2.2
    one = bench_pairs.summarise({"parent": [2.0], "change": [1.0]}, "lower", 0.2)
    assert one["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0} and one["pairs_better"] == "1 of 1"


def test_verdicts_of_stored_pair_runs():
    # choosing-metrics 6.5 and 8: a gain needs 9 of 10 pairs and a median shift
    # beyond the parent's IQR; an IQR wider than the bound leaves a metric unresolved
    bounds = {m["name"]: m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}

    def verdicts(path):
        workloads = json.loads((ROOT / path).read_text())["workloads"]
        return {
            (workload, name): bench_pairs.summarise(
                {"parent": m["parent_runs"], "change": m["change_runs"]}, m["better"], bounds[name]
            )["verdict"]
            for workload, result in workloads.items()
            for name, m in result["metrics"].items()
        }

    two_part = verdicts("BENCH_37_two_part_energy.json")
    gains = {("code-energy", name) for name in ("ops_per_s", "op_p50_ms", "op_p90_ms")}
    assert len(two_part) == 15
    assert two_part == {key: "gain" if key in gains else "within bound" for key in two_part}
    fixed_table = verdicts("BENCH_40_fixed_table_cache.json")
    assert fixed_table[("ulb-sweep", "op_p50_ms")] == fixed_table[("code-energy", "setup_s")] == "unresolved"


def test_verdict_edges():
    def verdict(parent, change, better="lower", bound=0.2):
        return bench_pairs.summarise({"parent": parent, "change": change}, better, bound)["verdict"]

    flat = [10.0] * 10
    # 9 of 10 pairs better, by more than the parent's (zero) spread
    assert verdict(flat, [9.0] * 9 + [11.0]) == "gain"
    assert verdict(flat, [9.0] * 8 + [11.0] * 2) == "within bound"
    assert verdict(flat, [12.5] * 10) == verdict(flat, [7.5] * 10, "higher") == "worse"
    wide = [6.0, 8.0, 10.0, 12.0, 14.0] * 2  # q3 - q1 = 4, 40% of the median
    assert verdict(wide, wide[::-1]) == verdict(wide, [5.0] * 5 + [15.0] * 5, "higher") == "unresolved"
    # every change run above every parent run, a median shift of 1 inside q3 - q1 = 3.75
    skewed = [5.0, 5.0, 5.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.5]
    assert verdict(skewed, [11.0] * 10, "higher", 0.3) == "within bound"
