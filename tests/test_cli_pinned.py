"""CLI output pinned byte for byte against recorded runs.

``data/cli_expected.json`` maps each case name to the stdout and exit code
that ``spherelp`` produced for its argument list before the bound commands
were merged into one handler per direction.  The bound reports were
re-recorded when the certificates moved from divided differences to the
Gegenbauer-basis Hermite system; that changed only round-off: diagnostic
defects below 1e-15 and certificate digits below 1e-16 absolute.  They
were re-pinned once more when upper bounds moved to the lower bounds'
dominance check (one product with the grid's Gegenbauer table instead of
Clenshaw) and read ``nodes_touch`` from the node table: only the values
of ``dominance_above`` and ``nodes_touch`` moved, by at most 2.3e-16.
``design-uub`` reports are compared on parsed JSON instead: its value may
move in the last bits, and its diagnostics are matched by name.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from spherelp.cli import main

EXPECTED = Path(__file__).parent / "data" / "cli_expected.json"

CONFIG_SPELLINGS = (
    "pentakis",
    "pentakis_dodecahedron",
    "PENTAKIS",
    "cube-cross:3",
    "cube_crosspolytope:3",
    "ngon:5",
    "regular_ngon:5",
    "icosahedron",
    "dodecahedron",
    "cube:3",
    "cross:4",
    "crosspolytope:4",
    "24-cell",
    "twenty_four_cell",
)

CASES = {
    "ulb-json": ("ulb", "--n", "3", "--capacity", "31.9565", "--potential", "riesz:1"),
    "ulb-text": ("ulb", "--n", "3", "--capacity", "14", "--potential", "newton:3", "--format", "text"),
    "ulb-csv": ("ulb", "--n", "3", "--capacity", "14", "--potential", "newton:3", "--format", "csv"),
    "ulb-config": ("ulb", "--n", "3", "--config", "pentakis", "--potential", "gaussian:1"),
    "ulb-small-capacity": ("ulb", "--n", "3", "--capacity", "1.5", "--potential", "riesz:1"),
    "ulb-missing-n": ("ulb", "--capacity", "10", "--potential", "riesz:1"),
    "uub-json": ("uub", "--n", "3", "--capacity", "30", "--s", "0.7", "--potential", "riesz:1"),
    "uub-config": ("uub", "--n", "3", "--config", "pentakis", "--potential", "riesz:1"),
    "uub-text": ("uub", "--n", "4", "--capacity", "24", "--s", "0.5", "--potential", "gaussian:1", "--format", "text"),
    "uub-csv": ("uub", "--n", "4", "--capacity", "24", "--s", "0.5", "--potential", "log", "--format", "csv"),
    "uub-m-override": (
        "uub", "--n", "3", "--capacity", "13.953488372093023", "--s", "0.5773502691896258",
        "--potential", "newton:3", "--m-override", "5",
    ),
    "uub-m-override-text": (
        "uub", "--n", "3", "--capacity", "13.953488372093023", "--s", "0.5773502691896258",
        "--potential", "newton:3", "--m-override", "5", "--format", "text",
    ),
    "uub-missing-s": ("uub", "--n", "3", "--capacity", "30", "--potential", "riesz:1"),
    "design-ulb-json": (
        "design-ulb", "--n", "3", "--capacity", "31.956521739130434", "--tau", "9", "--potential", "riesz:1",
    ),
    "design-ulb-config": ("design-ulb", "--config", "cube-cross:4", "--tau", "5", "--potential", "newton"),
    "design-ulb-text": (
        "design-ulb", "--n", "3", "--capacity", "31.956521739130434", "--tau", "9",
        "--potential", "fejes-toth", "--format", "text",
    ),
    "design-ulb-outside": ("design-ulb", "--n", "3", "--capacity", "31.9565", "--tau", "7", "--potential", "riesz:1"),
    "energy-json": ("energy", "--config", "pentakis", "--potential", "riesz:1"),
    "energy-text": ("energy", "--config", "cube-cross:5", "--potential", "log", "--format", "text"),
    "energy-csv": ("energy", "--config", "icosahedron", "--potential", "gaussian:2", "--format", "csv"),
    "energy-unknown-config": ("energy", "--config", "hypercube-of-doom", "--potential", "riesz:1"),
    "energy-missing-parameter": ("energy", "--config", "cube", "--potential", "riesz:1"),
    "design-check-json": ("design-check", "--config", "cube-cross:5"),
    "design-check-text": ("design-check", "--config", "pentakis", "--format", "text"),
    "design-check-csv": ("design-check", "--config", "24-cell", "--tau", "8", "--format", "csv"),
    "test-functions-json": ("test-functions", "--n", "3", "--capacity", "31.9565", "--jmax", "27"),
    "test-functions-text": ("test-functions", "--n", "4", "--capacity", "24", "--jmax", "12", "--format", "text"),
    "test-functions-csv": ("test-functions", "--n", "3", "--capacity", "14", "--jmax", "9", "--format", "csv"),
    "test-functions-jmax-zero": ("test-functions", "--n", "3", "--capacity", "31.9565", "--jmax", "0"),
    **{
        f"config-{spelling}": ("energy", "--config", spelling, "--potential", "riesz:1")
        for spelling in CONFIG_SPELLINGS
    },
}

DESIGN_UUB_CASES = {
    "design-uub-config": ("design-uub", "--config", "cube-cross:4", "--s", "0.5", "--tau", "5", "--potential", "newton"),
    "design-uub-pentakis": ("design-uub", "--config", "pentakis", "--tau", "9", "--potential", "riesz:1"),
    "design-uub-outside": (
        "design-uub", "--n", "3", "--capacity", "13.953488372093023", "--s", "0.5773502691896258",
        "--tau", "4", "--potential", "newton:3",
    ),
}


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def test_recorded_cases_match_the_case_lists(expected):
    assert set(expected) == set(CASES) | set(DESIGN_UUB_CASES)
    for name, argv in {**CASES, **DESIGN_UUB_CASES}.items():
        assert expected[name]["argv"] == list(argv)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_byte_identical(name, expected):
    code, out = run(CASES[name])
    assert (code, out) == (expected[name]["exit"], expected[name]["stdout"])


@pytest.mark.parametrize("name", sorted(DESIGN_UUB_CASES))
def test_design_uub_output_matches_by_diagnostic_name(name, expected):
    code, out = run(DESIGN_UUB_CASES[name])
    want = expected[name]
    assert code == want["exit"]
    got, ref = json.loads(out), json.loads(want["stdout"])
    assert math.isclose(got.pop("value"), ref.pop("value"), rel_tol=1e-12)
    got_checks = {c.pop("name"): c for c in got.pop("diagnostics")}
    ref_checks = {c.pop("name"): c for c in ref.pop("diagnostics")}
    assert got_checks.keys() == ref_checks.keys()
    # the objective is taken in coefficient form, so the consistency gap
    # between its two forms moves in the last bits
    assert got_checks.pop("objective_consistency")["ok"] == ref_checks.pop("objective_consistency")["ok"]
    # the hypothesis note names D(n, m) and D(n, m + 1), as for uub
    got_hyp, ref_hyp = got_checks.pop("n1_interval_hypothesis"), ref_checks.pop("n1_interval_hypothesis")
    assert (got_hyp["ok"], got_hyp["value"]) == (ref_hyp["ok"], ref_hyp["value"])
    assert got_checks == ref_checks
    assert got == ref
