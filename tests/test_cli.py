import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spherelp import bounds
from spherelp.cli import main
from spherelp.codes import cube_crosspolytope
from spherelp.quadrature import QuadratureError, validity_interval


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _env_with_src():
    """The environment with this checkout's src first on PYTHONPATH, for subprocesses."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


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


# each bound checks its own capacity, as it does one from --weights-file or --config
_NAN_CAPACITY_ERRORS = {
    "ulb": "capacity must exceed 2",
    "uub": "capacity must be finite and positive, got nan",
    "design-uub": "capacity must be finite and positive, got nan",
    "test-functions": "capacity must exceed 2",
}


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
    assert _NAN_CAPACITY_ERRORS[argv[0]] in err


@pytest.mark.parametrize(
    "command",
    [("uub", "--n", "3", "--s", "0.5"), ("design-uub", "--n", "3", "--s", "0.5", "--tau", "5")],
    ids=lambda c: c[0],
)
def test_capacity_two_is_the_capacity_of_two_equal_weights(tmp_path, capsys, command):
    # N_W = 2 is a valid upper-bound capacity from either source, with the same output
    wf = tmp_path / "w.json"
    wf.write_text("[0.5, 0.5]")
    given = run(capsys, *command, "--capacity", "2", "--potential", "riesz:1")
    derived = run(capsys, *command, "--weights-file", str(wf), "--potential", "riesz:1")
    assert given == derived and given[0] == 0 and given[2] == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("ulb", "--n", "3", "--capacity", "inf", "--potential", "riesz:1"),
        ("design-ulb", "--n", "3", "--capacity", "inf", "--tau", "4", "--potential", "riesz:1"),
        ("test-functions", "--n", "3", "--capacity", "inf", "--jmax", "5"),
    ],
    ids=lambda argv: argv[0],
)
def test_infinite_capacity_of_a_lower_bound_is_named(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", "error: capacity must be finite, got inf\n")


@pytest.mark.parametrize("spec", ["riesz:nan", "riesz:inf", "gaussian:inf", "shift:nan:log"])
def test_nonfinite_potential_parameter_is_a_usage_error(capsys, spec):
    code, out, err = run(capsys, "ulb", "--n", "3", "--capacity", "31.9565", "--potential", spec)
    assert (code, out) == (1, "")
    assert "parameter must be finite" in err


def test_malformed_potential_parameter_is_a_usage_error(capsys):
    code, out, err = run(capsys, "ulb", "--n", "3", "--capacity", "30", "--potential", "riesz:")
    assert (code, out) == (1, "")
    assert err == "error: potential spec 'riesz:' is malformed: expected riesz:A with a number A, got ''\n"


def test_nan_weight_is_a_usage_error(tmp_path, capsys):
    wf = tmp_path / "weights.json"
    wf.write_text(json.dumps([0.5, float("nan"), 0.5]))
    code, out, err = run(capsys, "ulb", "--n", "3", "--weights-file", str(wf), "--potential", "riesz:1")
    assert (code, out) == (1, "")
    assert "weights must be finite" in err


@pytest.mark.parametrize(
    "payload, shape",
    [([[0.25, 0.25], [0.25, 0.25]], "(2, 2)"), ({"weights": [[0.5], [0.5]]}, "(2, 1)"), ({"weights": 1.0}, "()")],
    ids=["square", "column", "scalar"],
)
def test_weights_file_that_is_not_a_flat_list_is_a_usage_error(tmp_path, capsys, payload, shape):
    wf = tmp_path / "weights.json"
    wf.write_text(json.dumps(payload))
    code, out, err = run(capsys, "ulb", "--n", "3", "--weights-file", str(wf), "--potential", "riesz:1")
    assert (code, out) == (1, "")
    assert err == f"error: weights must be a flat list of numbers, got an array of shape {shape}\n"


def test_weights_file_that_does_not_convert_to_floats_is_a_usage_error(tmp_path, capsys):
    wf = tmp_path / "weights.json"
    wf.write_text(json.dumps({"weights": {"a": 0.5, "b": 0.5}}))
    code, out, err = run(capsys, "ulb", "--n", "3", "--weights-file", str(wf), "--potential", "riesz:1")
    assert (code, out) == (1, "")
    assert err == "error: weights must be a flat list of numbers, got a dict that does not convert to floats\n"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "field, message",
    [
        ("points", "points must be an N x n array, got a dict that does not convert to floats"),
        ("weights", "weights must be a flat list of numbers, got a dict that does not convert to floats"),
    ],
    ids=["points", "weights"],
)
def test_code_file_field_that_does_not_convert_to_floats_is_a_usage_error(tmp_path, capsys, field, message):
    fields = {"n": 3, "points": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "weights": [0.5, 0.5]}
    fields[field] = {"a": fields[field][0], "b": fields[field][1]}
    cf = tmp_path / "code.json"
    cf.write_text(json.dumps(fields))
    code, out, err = run(capsys, "energy", "--config", str(cf), "--potential", "riesz:1")
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"
    assert "Traceback" not in err


def test_mutually_exclusive_sources(capsys):
    code, _, err = run(
        capsys, "ulb", "--n", "3", "--capacity", "10", "--config", "pentakis", "--potential", "riesz:1"
    )
    assert code == 1
    assert "exactly one" in err


_ZERO_CAPACITY_COMMANDS = [
    ("ulb", "--n", "3"),
    ("uub", "--n", "3", "--s", "0.5"),
    ("design-ulb", "--n", "3", "--tau", "4"),
]


_ZERO_CAPACITY_ERRORS = {
    "ulb": "capacity must exceed 2",
    "uub": "capacity must be finite and positive, got 0.0",
    "design-ulb": "capacity 0.0 outside (D(3,4), D(3,5)] = (9, 12]",
}


@pytest.mark.parametrize("zero", ["0", "0.0"])
@pytest.mark.parametrize("command", _ZERO_CAPACITY_COMMANDS, ids=lambda c: c[0])
def test_zero_capacity_is_given_and_rejected(capsys, command, zero):
    # a zero capacity is a given option that fails its bound's check, not a missing one
    code, out, err = run(capsys, *command, "--capacity", zero, "--potential", "riesz:1")
    assert (code, out) == (1, "")
    assert _ZERO_CAPACITY_ERRORS[command[0]] in err


@pytest.mark.parametrize("command", _ZERO_CAPACITY_COMMANDS, ids=lambda c: c[0])
def test_zero_capacity_with_a_config_is_two_sources(capsys, command):
    code, out, err = run(capsys, *command, "--capacity", "0", "--config", "pentakis", "--potential", "riesz:1")
    assert (code, out) == (1, "")
    assert "exactly one of --capacity, --weights-file, --config is required" in err


def test_energy_command(capsys):
    code, out, _ = run(capsys, "energy", "--config", "pentakis", "--potential", "riesz:1")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(0.8050318, abs=1e-6)
    assert payload["size"] == 32


def strict_json(text):
    """text parsed as JSON proper: NaN, Infinity and -Infinity are refused."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


# riesz:10000 overflows the double range at these inner products
def test_json_writes_non_finite_values_as_null(capsys):
    energy = ("energy", "--config", "cube-cross:3", "--potential", "riesz:10000")
    code, out, _ = run(capsys, *energy)
    assert code == 0
    assert strict_json(out)["value"] is None
    assert run(capsys, *energy, "--format", "text")[1].splitlines()[-1] == "value = inf"
    lower = ("ulb", "--n", "3", "--capacity", "20", "--potential", "riesz:10000")
    code, out, _ = run(capsys, *lower)
    assert code == 2
    payload = strict_json(out)
    assert payload["value"] is None and payload["certificate"] == [None] * 7
    dominance = next(c for c in payload["diagnostics"] if c["name"] == "dominance_below")
    assert dominance == {"name": "dominance_below", "ok": False, "value": None, "note": ""}
    assert "value = nan" in run(capsys, *lower, "--format", "text")[1]


@pytest.mark.parametrize(
    "argv, exit_code, err",
    [
        (("energy", "--config", "cube-cross:3"), 0, ""),
        (("ulb", "--n", "3", "--capacity", "20"), 2, "infeasible: a certificate check failed\n"),
    ],
    ids=["energy", "ulb"],
)
def test_overflow_past_the_double_range_is_no_warning(argv, exit_code, err):
    # h and h' of riesz:10000 overflow to inf: the value is null, with no
    # warning on stderr, also where warnings are errors
    done = subprocess.run(
        [sys.executable, "-m", "spherelp.cli", *argv, "--potential", "riesz:10000"],
        capture_output=True, text=True, env=dict(_env_with_src(), PYTHONWARNINGS="error"), timeout=120,
    )
    assert done.returncode == exit_code
    assert strict_json(done.stdout)["value"] is None
    assert done.stderr.startswith(err) and "Warning" not in done.stderr


def test_design_check_command(capsys):
    code, out, _ = run(capsys, "design-check", "--config", "cube-cross:5")
    assert code == 0
    payload = json.loads(out)
    assert payload["strength"] == 5
    code, out, _ = run(capsys, "design-check", "--config", "pentakis")
    assert json.loads(out)["strength"] == 9


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9"])
def test_design_check_rejects_invalid_tol(capsys, tol):
    code, out, err = run(capsys, "design-check", "--config", "cube:3", f"--tol={tol}")
    assert code == 1 and out == ""
    assert err.startswith("error: tol must be finite and >= 0")


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


@pytest.mark.parametrize("m", [8, 15, 20, 25])
def test_uub_m_override_far_outside_validity_is_a_named_usage_error(capsys, m):
    # s = 0.7 lies well below each interval: the forced rule fails its node
    # checks, which is the caller's choice of degree, not a failed bound
    lo, hi = validity_interval(3, m)
    code, out, err = run(
        capsys,
        "uub", "--n", "3", "--capacity", "30", "--s", "0.7", "--potential", "riesz:1", "--m-override", str(m),
    )
    assert code == 1
    assert out == ""
    assert err.startswith(
        f"error: s = 0.7 lies outside the validity interval [{lo!r}, {hi!r}] of degree {m} for n = 3"
    )


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
    cube = cube_crosspolytope(3)
    cf.write_text(json.dumps({"n": cube.n, "points": cube.points.tolist(), "weights": cube.weights.tolist()}))
    code, out, _ = run(capsys, "energy", "--config", str(cf), "--potential", "newton:3")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.7070, abs=1e-4)


def test_malformed_code_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "points": [[1.0, 0.0, 0.1]], "weights": [1.0]}))
    code, _, err = run(capsys, "energy", "--config", str(bad), "--potential", "riesz:1")
    assert code == 1
    assert "unit" in err


@pytest.mark.parametrize(
    "payload, message",
    [
        ([[1.0, 0.0, 0.0]], "must hold a JSON object"),
        ({"n": 3.7, "points": [[1.0, 0.0, 0.0]], "weights": [1.0]}, "field 'n' must be an integer"),
        ({"n": 3}, "code field 'points' is missing"),
        ({"n": 3, "points": [[1.0, 0.0, 0.0]]}, "code field 'weights' is missing"),
    ],
    ids=["array", "fractional-n", "no-points", "no-weights"],
)
def test_code_file_of_wrong_shape_is_a_usage_error(tmp_path, capsys, payload, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, out, err = run(capsys, "energy", "--config", str(bad), "--potential", "riesz:1")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err


def test_weights_file_without_weights_field_is_a_usage_error(tmp_path, capsys):
    wf = tmp_path / "w.json"
    wf.write_text(json.dumps({"w": [0.5, 0.5]}))
    code, out, err = run(capsys, "ulb", "--n", "3", "--weights-file", str(wf), "--potential", "riesz:1")
    assert code == 1 and out == ""
    assert err == f"error: weights file {wf}: field 'weights' is missing\n"


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


@pytest.mark.parametrize(
    "spec, name",
    [
        ("icosahedron:7", "icosahedron"),
        ("pentakis:abc", "pentakis_dodecahedron"),
        ("ngon:0", "regular_ngon"),
        ("cross:0", "crosspolytope"),
        ("cube:-1", "cube"),
        ("cube:0", "cube"),
        ("cube:2.5", "cube"),
    ],
)
@pytest.mark.parametrize("command", [("energy", "--potential", "riesz:1"), ("design-check",)], ids=lambda c: c[0])
def test_bad_config_parameter_is_a_named_usage_error(capsys, spec, name, command):
    code, out, err = run(capsys, command[0], "--config", spec, *command[1:])
    assert (code, out) == (1, "")
    assert "Traceback" not in err and err.count("\n") == 1
    assert err.startswith(f"error: configuration '{name}' ") and repr(spec.partition(":")[2]) in err


SUBCOMMANDS = ("ulb", "uub", "design-ulb", "design-uub", "energy", "design-check", "test-functions", "reproduce")


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_every_subcommand_help_exits_zero(capsys, command):
    # a stray % in a help string fails only when the help is formatted
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: spherelp {command}")


@pytest.mark.parametrize(
    "argv",
    [
        ("energy", "--config", "pentakis", "--potential", "riesz:1", "--n", "99"),
        ("design-check", "--config", "pentakis", "--n", "3"),
        ("design-check", "--config", "pentakis", "--potential", "riesz:1"),
        ("test-functions", "--n", "3", "--capacity", "31.9565", "--jmax", "27", "--potential", "riesz:1"),
    ],
    ids=["energy-n", "design-check-n", "design-check-potential", "test-functions-potential"],
)
def test_options_no_handler_reads_are_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "unrecognized arguments" in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (("ulb", "--n", "3", "--capacity", "14"), "--potential"),
        (("uub", "--n", "3", "--capacity", "14", "--s", "0.5"), "--potential"),
        (("design-ulb", "--n", "3", "--capacity", "14", "--tau", "5"), "--potential"),
        (("design-uub", "--n", "3", "--capacity", "14", "--s", "0.5", "--tau", "5"), "--potential"),
        (("energy", "--config", "pentakis"), "--potential"),
        (("design-ulb", "--n", "3", "--capacity", "14", "--potential", "riesz:1"), "--tau"),
        (("design-uub", "--n", "3", "--capacity", "14", "--s", "0.5", "--potential", "riesz:1"), "--tau"),
        (("energy", "--potential", "riesz:1"), "--config"),
        (("design-check",), "--config"),
        (("test-functions", "--capacity", "14", "--jmax", "9"), "--n"),
        (("test-functions", "--n", "3", "--jmax", "9"), "--capacity"),
        (("test-functions", "--n", "3", "--capacity", "14"), "--jmax"),
    ],
)
def test_omitted_required_option_is_named(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: the following arguments are required: ") and option in err


_WITHOUT_N = "--n is required when no --config is given"
_WITHOUT_N_OR_S = "--n and --s are required when no --config is given"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("ulb",), _WITHOUT_N),
        (("design-ulb", "--tau", "5"), _WITHOUT_N),
        (("uub", "--s", "0.5"), _WITHOUT_N_OR_S),
        (("uub", "--n", "3"), _WITHOUT_N_OR_S),
        (("design-uub", "--s", "0.5", "--tau", "5"), _WITHOUT_N_OR_S),
        (("design-uub", "--n", "3", "--tau", "5"), _WITHOUT_N_OR_S),
    ],
    ids=["ulb-n", "design-ulb-n", "uub-n", "uub-s", "design-uub-n", "design-uub-s"],
)
def test_bound_command_without_a_config_names_what_it_lacks(capsys, argv, message):
    # the lower bounds need only n; the upper bounds need n and s
    code, out, err = run(capsys, *argv, "--capacity", "14", "--potential", "riesz:1")
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, option",
    [
        (("ulb", "--n", "3", "--cap", "14", "--potential", "riesz:1"), "--cap"),
        (("ulb", "--n", "3", "--capacity", "14", "--pot", "riesz:1"), "--pot"),
        (("ulb", "--n", "3", "--capacity", "14", "--potential", "riesz:1", "--form", "text"), "--form"),
        (("uub", "--n", "3", "--capacity", "14", "--s", "0.5", "--potential", "newton:3", "--m-over", "5"), "--m-over"),
        (("energy", "--conf", "pentakis", "--potential", "riesz:1"), "--conf"),
        (("design-check", "--config", "pentakis", "--t", "5"), "--t"),
        (("design-check", "--config", "pentakis", "--to", "1e-9"), "--to"),
        (("test-functions", "--n", "3", "--capacity", "14", "--jm", "9"), "--jm"),
        (("reproduce", "--tab", "2"), "--tab"),
    ],
)
def test_option_abbreviations_are_rejected(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and option in err


@pytest.mark.parametrize(
    "argv",
    [
        ("ulb", "--n", "3", "--capacity", "14", "--potential", "riesz:1", "--format", "text"),
        ("reproduce", "--table", "2"),
    ],
    ids=["ulb", "reproduce"],
)
def test_closed_stdout_is_not_an_error(argv):
    # the reader closes its end before the command writes anything
    with subprocess.Popen(
        [sys.executable, "-c", "import sys; from spherelp.cli import main; sys.exit(main())", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env_with_src(),
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
    assert err == b""


@pytest.mark.parametrize(
    "argv, message",
    [
        (("design-check", "--config", "{c1}"), "error: dimension must be >= 2"),
        (("uub", "--config", "{c1}", "--potential", "riesz:1"), "error: dimension must be >= 2"),
        (
            ("uub", "--n", "3", "--capacity", "30", "--s", "0.7", "--potential", "riesz:1", "--m-override", "30"),
            "error: degree 30 above cap 25",
        ),
        (
            ("design-uub", "--n", "3", "--capacity", "30", "--s", "0.7", "--potential", "riesz:1", "--tau", "26"),
            "error: degree 26 above cap 25",
        ),
        (
            ("design-ulb", "--n", "3", "--capacity", "200", "--tau", "26", "--potential", "riesz:1"),
            "error: degree 26 above cap 25",
        ),
        (("uub", "--n", "0", "--capacity", "30", "--s", "0.5", "--potential", "riesz:1"), "error: dimension must be >= 2"),
        (
            ("uub", "--n", "1", "--capacity", "30", "--s", "0.5", "--potential", "riesz:1", "--m-override", "3"),
            "error: dimension must be >= 2",
        ),
        (
            ("design-uub", "--n", "1", "--capacity", "30", "--s", "0.5", "--potential", "riesz:1", "--tau", "3"),
            "error: dimension must be >= 2",
        ),
        (
            ("uub", "--n", "3", "--capacity", "30", "--s", "0.5", "--potential", "riesz:1", "--m-override", "-1"),
            "error: degree must be >= 1",
        ),
        (
            ("uub", "--n", "3", "--capacity", "30", "--s", "0.5", "--potential", "riesz:1", "--m-override", "0"),
            "error: degree must be >= 1",
        ),
        (
            ("design-uub", "--n", "3", "--capacity", "30", "--s", "0.5", "--potential", "riesz:1", "--tau", "-1"),
            "error: degree must be >= 1",
        ),
        (("design-ulb", "--n", "3", "--capacity", "30", "--potential", "log", "--tau", "-1"), "error: degree must be >= 1"),
    ],
    ids=[
        "design-check-n1", "uub-n1", "uub-m-override", "design-uub-tau", "design-ulb-tau", "uub-n0", "uub-n1-m-override",
        "design-uub-n1", "uub-m-override-negative", "uub-m-override-zero", "design-uub-tau-negative",
        "design-ulb-tau-negative-log",
    ],
)
def test_out_of_range_dimension_or_degree_is_a_named_usage_error(tmp_path, argv, message):
    c1 = tmp_path / "c1.json"
    c1.write_text(json.dumps({"n": 1, "points": [[1.0], [-1.0]], "weights": [0.5, 0.5]}))
    done = subprocess.run(
        [sys.executable, "-m", "spherelp.cli", *(arg.format(c1=c1) for arg in argv)],
        capture_output=True, text=True, env=_env_with_src(), timeout=120,
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert message in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "argv, what, m",
    [
        (("uub", "--m-override", "25"), "degree", 25),
        (("design-uub", "--tau", "25"), "tau =", 25),
        (("design-uub", "--tau", "15"), "tau =", 15),
    ],
    ids=["uub-m-override-25", "design-uub-tau-25", "design-uub-tau-15"],
)
def test_s_far_outside_the_interval_of_the_degree_is_a_named_usage_error(capsys, argv, what, m):
    # the degree-m Levenshtein rule at s = 0.7 fails its node checks: the
    # caller's choice of degree or tau, not a failed bound
    lo, hi = validity_interval(3, m)
    command, *rest = argv
    code, out, err = run(
        capsys, command, "--n", "3", "--capacity", "30", "--s", "0.7", "--potential", "riesz:1", *rest
    )
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: s = 0.7 lies outside the validity interval [{lo!r}, {hi!r}] of {what} {m} for n = 3")


def test_design_uub_outside_the_interval_of_tau_runs_where_the_rule_builds(capsys):
    lo, hi = validity_interval(4, 5)
    assert hi < 0.6
    code, out, _ = run(
        capsys, "design-uub", "--config", "cube-cross:4", "--s", "0.6", "--tau", "5", "--potential", "riesz:1"
    )
    assert code == 0
    assert json.loads(out)["feasible"] is True


@pytest.mark.parametrize(
    "argv, command",
    [
        # moments up to 10**15: the Gegenbauer table alone would take 1.4 EiB
        (("design-check", "--config", "cube-cross:3", "--tau", str(10**15)), "design-check"),
        # 2**58 points: their bit patterns alone would take 2 EiB
        (("energy", "--config", "cube:58", "--potential", "riesz:1"), "energy"),
    ],
    ids=["design-check-tau", "energy-cube"],
)
def test_request_too_large_to_allocate_is_one_named_line(capsys, argv, command):
    # each request fails at its first allocation, beyond any 57-bit address space
    assert main(list(argv)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(rf"error: {command} ran out of memory: Unable to allocate [^\n]*\n", err)


@pytest.mark.parametrize(
    "argv, command",
    [
        # 5 nodes: Q_j tabulated on Python floats
        (("test-functions", "--n", "3", "--capacity", "31.9565", "--jmax", str(10**5)), "test-functions"),
        # one 3 x 3 Gram block: the moments tabulated on Python floats
        (("design-check", "--config", "ngon:3", "--tau", str(10**5)), "design-check"),
    ],
    ids=["test-functions-jmax", "design-check-ngon"],
)
def test_small_table_beyond_physical_memory_is_one_named_line(monkeypatch, capsys, argv, command):
    # a small table grows a Python list in steps too small to fail, so the size
    # is checked up front; with the memory figure patched to 4 MiB these 20 and
    # 36 MB tables exceed it, and no large table is built even without the check
    from spherelp import orthopoly

    monkeypatch.setattr(orthopoly, "_physical_memory", lambda: 4 * 2**20)
    assert main(list(argv)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(rf"error: {command} ran out of memory: Unable to allocate [^\n]*\n", err)


def test_deeply_nested_shift_spec_is_a_usage_error():
    # a spec nested past the cap is bad input named as such, not a RecursionError or a failed bound
    spec = "shift:1:" * 3000 + "log"
    done = subprocess.run(
        [sys.executable, "-m", "spherelp.cli", "ulb", "--n", "3", "--capacity", "14", "--potential", spec],
        capture_output=True, text=True, env=_env_with_src(), timeout=120,
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "error: potential spec nests 3000 shift: levels, above the cap of 100\n"


def test_failed_rule_exits_2(capsys, monkeypatch):
    # a rule that fails its own checks at an s inside its validity interval
    def failing(n, m, s):
        raise QuadratureError(f"nonpositive quadrature weight for (n={n}, m={m}, s={s:.12g}): weight 1 of 3 is -1e-17")

    monkeypatch.setattr(bounds, "levenshtein_polynomial", failing)
    code, out, err = run(capsys, "uub", "--n", "3", "--capacity", "10", "--s", "0.5", "--potential", "riesz:1")
    assert (code, out) == (2, "")
    assert err.startswith("error: nonpositive quadrature weight ") and err.count("\n") == 1


def test_uub_just_above_an_even_left_end_takes_the_lower_degree(capsys):
    # one ulp above lo(2, 16) the degree-16 rule's weight at -1 rounds to 0
    argv = ("--n", "2", "--capacity", "10", "--s", "0.9324722294043558", "--potential", "riesz:1")
    code, out, err = run(capsys, "uub", *argv)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["m"] == 15 and payload["feasible"] is True
    code, out, err = run(capsys, "uub", *argv, "--m-override", "16")
    assert (code, out) == (1, "")
    assert err == (
        f"error: s = 0.9324722294043558 lies just above {validity_interval(2, 16)[0]!r} = lo(16) = hi(15) for n = 2, "
        "where the degree-16 rule's weight at -1 vanishes: no degree-16 rule exists at this s; degree 15 bounds it\n"
    )


def test_uub_override_just_below_a_left_end_exits_1(capsys):
    # one ulp below lo(3, 4) the degree-4 rule's weight at -1 rounds to 0:
    # s lies outside the interval, so the failed rule is a usage error
    lo, hi = validity_interval(3, 4)
    s = repr(math.nextafter(lo, -1.0))
    code, out, err = run(
        capsys, "uub", "--n", "3", "--capacity", "10", "--s", s, "--m-override", "4", "--potential", "riesz:1"
    )
    assert (code, out) == (1, "")
    assert err.startswith(f"error: s = {s} lies outside the validity interval [{lo!r}, {hi!r}] of degree 4 for n = 3")
    assert "nonpositive quadrature weight" in err and err.count("\n") == 1


def test_uub_override_of_an_even_degree_at_its_left_end_exits_1(capsys):
    # at lo(4) = hi(3) no degree-4 rule exists: a usage error naming the degree that serves s
    argv = ("--n", "3", "--capacity", "10", "--s", "0.2898979485566356", "--potential", "riesz:1")
    code, out, err = run(capsys, "uub", *argv, "--m-override", "4")
    assert (code, out) == (1, "")
    assert err == (
        "error: s = 0.2898979485566356 is lo(4) = hi(3) for n = 3, where the degree-4 rule's weight at -1 "
        "vanishes: no degree-4 rule exists at this s; degree 3 bounds it\n"
    )
    code, out, err = run(capsys, "uub", *argv, "--m-override", "3")
    assert (code, err) == (0, "") and json.loads(out)["m"] == 3


def test_design_uub_at_the_left_end_of_an_even_tau_takes_the_lower_degree(capsys):
    # a 4-design is a 3-design: at lo(3, 4) = hi(3, 3) the degree-3 rule bounds it
    argv = ("--n", "3", "--capacity", "10", "--s", "0.2898979485566356", "--potential", "riesz:1")
    code, out, err = run(capsys, "design-uub", *argv, "--tau", "4")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["m"] == 3 and payload["feasible"] is True
    code, lower, _ = run(capsys, "design-uub", *argv, "--tau", "3")
    assert code == 0 and lower == out


_RUN_AND_LIST_SCIPY = """
import contextlib, io, json, sys
import spherelp
from spherelp.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv.split()) for argv in sys.argv[1:]]
print(json.dumps([
    codes,
    sorted(name for name in sys.modules if name.split(".")[0] == "scipy"),
    "numpy.ma" in sys.modules,
]))
"""


def test_bounds_and_energy_load_no_scipy():
    # start-up cost: scipy.linalg alone takes about half the time of a CLI
    # call; numpy is the only run-time dependency, and numpy.ma (which
    # np.unique imports on first use) adds 13-14 ms
    commands = [
        "ulb --n 3 --capacity 31.9565 --potential riesz:1",
        "uub --config pentakis --potential riesz:1",
        "energy --config pentakis --potential riesz:1",
        "energy --config cube-cross:10 --potential riesz:1",
        "design-ulb --n 3 --capacity 31.9565 --tau 9 --potential riesz:1",
        "design-uub --config cube-cross:4 --s 0.5 --tau 5 --potential newton",
        "design-check --config cube-cross:5",
        "test-functions --n 3 --capacity 31.9565 --jmax 27",
        "reproduce --table all",
    ]
    done = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST_SCIPY, *commands],
        capture_output=True, text=True, env=_env_with_src(), timeout=120, check=True,
    )
    codes, loaded, masked = json.loads(done.stdout)
    assert codes == [0] * len(commands)
    assert loaded == []
    assert not masked


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


def test_readme_library_quick_start_prints_commented_values(capsys):
    # each print line's comment gives the printed values, "..." marking a prefix
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.split("#", 1)[1].split() for line in block.splitlines() if line.startswith("print(")]
    assert len(expected) == 4
    exec(compile(block, "README.md", "exec"), {})
    printed = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert len(printed) == len(expected)
    for got, want in zip(printed, expected):
        assert len(got) == len(want), (got, want)
        for value, comment in zip(got, want):
            if comment.endswith("..."):
                assert value.startswith(comment[:-3]), (value, comment)
            else:
                assert value == comment, (value, comment)
