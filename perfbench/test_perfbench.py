"""Self-tests of the benchmark: every checker rejects a perturbed output, and
the traced run yields every named per-layer metric.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import reference as ref
import spherelp
import tracing
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def rng():
    return np.random.default_rng(7)


@pytest.fixture(scope="module")
def lower():
    return spherelp.ulb(3, 735 / 23, spherelp.riesz(1.0))


@pytest.fixture(scope="module")
def upper():
    s = 0.5 * sum(ref.validity_interval(4, 7))
    capacity = 0.8 * ref.levenshtein(4, 7, s)
    return spherelp.uub(4, capacity, s, spherelp.gaussian(1.0)), capacity, s


def with_weight(report, i, delta):
    weights = list(report.rule.weights)
    weights[i] += delta
    return replace(report, rule=replace(report.rule, weights=tuple(weights)))


def with_coeff(report, i, delta):
    coeffs = list(report.certificate.coeffs)
    coeffs[i] += delta
    return replace(report, certificate=replace(report.certificate, coeffs=tuple(coeffs)))


def test_ulb_checks_accept_the_program_output(lower):
    assert ref.check_ulb(lower, 3, 735 / 23, "riesz:1", rng()) == []


def test_rule_check_rejects_a_weight_off_by_1e_6(lower):
    assert ref.check_ulb(with_weight(lower, 2, 1e-6), 3, 735 / 23, "riesz:1", rng())


def test_value_check_rejects_a_value_off_by_1e_9_relative(lower):
    bad = replace(lower, value=lower.value * (1 + 1e-9))
    problems = ref.check_ulb(bad, 3, 735 / 23, "riesz:1", rng())
    assert any("sum rho_i h(alpha_i)" in p for p in problems)


def test_dominance_check_rejects_a_certificate_raised_by_1e_6(lower):
    coeffs = np.asarray(lower.certificate.coeffs)

    def check(c):
        return ref.check_dominance(3, c, "riesz:1", -1.0, 0.999, "below", lower.rule.nodes, rng())

    assert check(coeffs) == []
    assert check(coeffs + np.eye(coeffs.size)[0] * 1e-6)


def test_sign_check_rejects_a_negative_coefficient(lower):
    coeffs = np.asarray(lower.certificate.coeffs)
    assert ref.check_signs(coeffs, "below") == []
    assert ref.check_signs(coeffs - np.eye(coeffs.size)[3] * (coeffs[3] + 1e-6), "below")


def test_uub_checks_accept_and_reject(upper):
    report, capacity, s = upper
    args = (4, 7, capacity, s, "gaussian:1", rng(), False)
    assert ref.check_uub(report, *args) == []
    assert ref.check_uub(with_weight(report, 0, 1e-6), *args)
    assert ref.check_uub(with_coeff(report, 0, -1e-6), *args)
    moved = replace(report, rule=replace(report.rule, nodes=report.rule.nodes[:-1] + (s + 1e-12,)))
    assert any("largest node" in p for p in ref.check_uub(moved, *args))
    wrong_n1 = replace(report, rule=replace(report.rule, capacity=report.rule.capacity * (1 + 1e-8)))
    assert any("N_1" in p for p in ref.check_uub(wrong_n1, *args))


def test_energy_checks_reject_1e_9_relative():
    code = spherelp.codes.cube_crosspolytope(5)
    value = spherelp.energy(code, spherelp.riesz(2.0))
    assert ref.check_energy(value, code.points, code.weights, "riesz:2", 5) == []
    assert len(ref.check_energy(value * (1 + 1e-9), code.points, code.weights, "riesz:2", 5)) == 2


def test_code_op_check_rejects_a_ulb_above_the_energy():
    item = workloads.generate(spherelp, "code-energy", 3, 1)[0]
    code, value, bound = workloads.run(spherelp, item)
    assert workloads.check(item, (code, value, bound), rng()) == []
    problems = workloads.check(item, (code, value, replace(bound, value=value + 1.0)), rng())
    assert any("above the energy" in p for p in problems)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_ops_yield_every_per_layer_metric(workload):
    items = workloads.generate(spherelp, workload, 5, 1)[:12]
    original = spherelp.bounds.hermite_interpolant
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for item in items:
            workloads.run(spherelp, item)
    finally:
        tracer.uninstall()
    assert spherelp.bounds.hermite_interpolant is original
    metrics = tracing.layer_metrics(tracer.summary(), len(items), 1.0, 0.0)
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert {unit for _, unit in metrics.values()} <= {m["unit"] for m in BENCHMARK["per_layer"]}
    assert metrics["quadrature.rules_per_bound"][0] == 1.0
    assert metrics["hermite.verify_dominance.calls"][0] >= 1.0
    assert metrics["hermite.dominance_points"][0] > 4000
    reached = metrics["codes.energy.calls"][0] > 0
    assert reached == (workload == "code-energy")
    assert (metrics["potentials.classify.calls"][0] > 0) == (workload == "uub-scan")


def test_run_prints_every_end_to_end_metric():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "uub-scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 160
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ulb-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0 and out.stdout == ""
