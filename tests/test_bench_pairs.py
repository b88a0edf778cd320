import importlib
import importlib.util
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
    higher, lower = bench_pairs.summarise(runs, "higher"), bench_pairs.summarise(runs, "lower")
    assert (higher["pairs_better"], lower["pairs_better"]) == ("3 of 4", "1 of 4")
    # inclusive quartiles of 10, 11, 12, 13 and of 11, 11.5, 12, 14
    assert higher["parent"] == {"median": 11.5, "q1": 10.75, "q3": 12.25}
    assert higher["change"] == {"median": 11.75, "q1": 11.375, "q3": 12.5}
    assert higher["median_change_pct"] == lower["median_change_pct"] == 2.2
    one = bench_pairs.summarise({"parent": [2.0], "change": [1.0]}, "lower")
    assert one["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0} and one["pairs_better"] == "1 of 1"
