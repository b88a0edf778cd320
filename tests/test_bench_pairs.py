import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location("bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


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
