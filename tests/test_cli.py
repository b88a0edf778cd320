import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from spherelp.cli import main
from spherelp.codes import code_to_json, cube_crosspolytope


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ulb_json(capsys):
    code, out, _ = run(capsys, "ulb", "--n", "3", "--capacity", "31.9565", "--potential", "riesz:1")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["value"] == pytest.approx(0.804786, abs=1e-4)
    assert payload["feasible"] is True
    assert len(payload["rule"]["nodes"]) == 5


def test_uub_config_pentakis(capsys):
    code, out, _ = run(capsys, "uub", "--n", "3", "--config", "pentakis", "--potential", "riesz:1")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(0.8234054, abs=1e-6)
    assert payload["lambda_star"] == pytest.approx(7.47994, abs=1e-4)


def test_capacity_guard_exit_code(capsys):
    code, out, err = run(capsys, "ulb", "--n", "3", "--capacity", "1.5", "--potential", "riesz:1")
    assert code == 1
    assert "capacity must exceed 2" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("ulb", "--n", "3", "--capacity", "nan", "--potential", "riesz:1"),
        ("uub", "--n", "3", "--capacity", "nan", "--s", "0.5", "--potential", "riesz:1"),
        ("design-uub", "--n", "3", "--capacity", "nan", "--s", "0.5", "--tau", "3", "--potential", "riesz:1"),
        ("test-functions", "--n", "3", "--capacity", "nan", "--jmax", "5"),
    ],
)
def test_nan_capacity_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "capacity must exceed 2" in err


@pytest.mark.parametrize("spec", ["riesz:nan", "riesz:inf", "gaussian:inf", "shift:nan:log"])
def test_nonfinite_potential_parameter_is_a_usage_error(capsys, spec):
    code, out, err = run(capsys, "ulb", "--n", "3", "--capacity", "31.9565", "--potential", spec)
    assert (code, out) == (1, "")
    assert "parameter must be finite" in err


def test_nan_weight_is_a_usage_error(tmp_path, capsys):
    wf = tmp_path / "weights.json"
    wf.write_text(json.dumps([0.5, float("nan"), 0.5]))
    code, out, err = run(capsys, "ulb", "--n", "3", "--weights-file", str(wf), "--potential", "riesz:1")
    assert (code, out) == (1, "")
    assert "weights must be finite" in err


def test_mutually_exclusive_sources(capsys):
    code, _, err = run(
        capsys, "ulb", "--n", "3", "--capacity", "10", "--config", "pentakis", "--potential", "riesz:1"
    )
    assert code == 1
    assert "exactly one" in err


def test_energy_command(capsys):
    code, out, _ = run(capsys, "energy", "--config", "pentakis", "--potential", "riesz:1")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(0.8050318, abs=1e-6)
    assert payload["size"] == 32


def test_design_check_command(capsys):
    code, out, _ = run(capsys, "design-check", "--config", "cube-cross:5")
    assert code == 0
    payload = json.loads(out)
    assert payload["strength"] == 5
    code, out, _ = run(capsys, "design-check", "--config", "pentakis")
    assert json.loads(out)["strength"] == 9


def test_design_bounds_commands(capsys):
    code, out, _ = run(
        capsys,
        "design-ulb", "--n", "3", "--capacity", "31.956521739130434", "--tau", "9",
        "--potential", "riesz:1",
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.804786, abs=1e-6)
    code, out, _ = run(
        capsys,
        "design-uub", "--config", "cube-cross:4", "--s", "0.5", "--tau", "5",
        "--potential", "newton",
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.58111, abs=1e-5)


def test_test_functions_command(capsys):
    code, out, _ = run(capsys, "test-functions", "--n", "3", "--capacity", "31.9565", "--jmax", "27")
    assert code == 0
    payload = json.loads(out)
    zero = [v for v in payload["values"] if v["j"] <= 9]
    assert all(v["class"] == "zero" for v in zero)
    assert payload["improvable"] is True
    code, _, err = run(capsys, "test-functions", "--n", "3", "--capacity", "31.9565", "--jmax", "0")
    assert code == 1


def test_uub_m_override_flag(capsys):
    code, out, _ = run(
        capsys,
        "uub", "--n", "3", "--capacity", "13.953488372093023", "--s", "0.5773502691896258",
        "--potential", "newton:3", "--m-override", "5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 5
    assert payload["value"] == pytest.approx(0.7357, abs=1e-4)


def test_reproduce_tables(capsys):
    for table in ("1", "2", "3", "4", "examples"):
        code, out, _ = run(capsys, "reproduce", "--table", table)
        assert code == 0, f"table {table} failed:\n{out}"
        assert "FAIL" not in out


def test_reproduce_all_runs_every_table(capsys):
    code, out, _ = run(capsys, "reproduce", "--table", "all", "--format", "json")
    assert code == 0
    cells = json.loads(out)["cells"]
    expected = []
    for table in ("1", "2", "3", "4", "examples"):
        _, one, _ = run(capsys, "reproduce", "--table", table, "--format", "json")
        expected += json.loads(one)["cells"]
    assert cells == expected and all(c["ok"] for c in cells)


def test_ulb_takes_n_from_the_config(capsys):
    code, out, _ = run(capsys, "ulb", "--config", "pentakis", "--potential", "riesz:1")
    assert code == 0
    assert (code, out) == run(capsys, "ulb", "--n", "3", "--config", "pentakis", "--potential", "riesz:1")[:2]
    code, out, err = run(capsys, "ulb", "--capacity", "10", "--potential", "riesz:1")
    assert (code, out) == (1, "") and "--n is required" in err


def test_reproduce_json_format(capsys):
    code, out, _ = run(capsys, "reproduce", "--table", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert len(payload["cells"]) == 10


def test_deterministic_output(capsys):
    args = ("ulb", "--n", "4", "--capacity", "24", "--potential", "newton:4")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_csv_rule_output(capsys):
    code, out, _ = run(
        capsys, "ulb", "--n", "3", "--capacity", "14", "--potential", "newton:3", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,alpha_i,rho_i"
    assert len(lines) == 4  # header + three nodes


def test_weights_file_and_code_file(tmp_path, capsys):
    weights = np.full(24, 1 / 24)
    wf = tmp_path / "weights.json"
    wf.write_text(json.dumps({"weights": list(weights)}))
    code, out, _ = run(capsys, "ulb", "--n", "4", "--weights-file", str(wf), "--potential", "newton:4")
    assert code == 0
    assert json.loads(out)["rule"]["capacity"] == pytest.approx(24.0)

    cf = tmp_path / "code.json"
    cf.write_text(code_to_json(cube_crosspolytope(3)))
    code, out, _ = run(capsys, "energy", "--config", str(cf), "--potential", "newton:3")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.7070, abs=1e-4)


def test_malformed_code_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "points": [[1.0, 0.0, 0.1]], "weights": [1.0]}))
    code, _, err = run(capsys, "energy", "--config", str(bad), "--potential", "riesz:1")
    assert code == 1
    assert "unit" in err


def test_energy_one_point_code(tmp_path, capsys):
    cf = tmp_path / "one.json"
    cf.write_text(json.dumps({"n": 4, "points": [[1.0, 0.0, 0.0, 0.0]], "weights": [1.0]}))
    code, out, _ = run(capsys, "energy", "--config", str(cf), "--potential", "riesz:1")
    assert code == 0
    payload = json.loads(out)
    assert payload["s"] is None
    assert payload["value"] == 0.0


def test_unknown_config(capsys):
    code, _, err = run(capsys, "energy", "--config", "hypercube-of-doom", "--potential", "riesz:1")
    assert code == 1


def test_usage_error_missing_command(capsys):
    assert run(capsys, "bogus-command")[0] == 1


def test_text_format(capsys):
    code, out, _ = run(
        capsys, "ulb", "--n", "3", "--capacity", "14", "--potential", "newton:3", "--format", "text"
    )
    assert code == 0
    assert "value = " in out


def test_readme_cli_examples_exit_zero(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command-line interface", 1)[1].split("```", 2)[1]
    commands = [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("spherelp ")]
    assert len(commands) >= 8
    for argv in commands:
        code, _, err = run(capsys, *argv[1:])
        assert code == 0, (argv, err)
