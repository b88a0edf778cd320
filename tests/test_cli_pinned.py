"""CLI output pinned byte for byte against recorded runs.

``data/cli_expected.json`` maps each case name to its argument list and
to the exit code and stdout that ``spherelp`` gave for it.  The last
printed digits of a bound depend on round-off, which the host's BLAS
kernel and numpy's SIMD dispatch decide.  So :func:`record` runs every
case in one child process whose numerics are fixed before numpy loads,
and the test compares each case's exit code and stdout with the file,
byte for byte.

After a deliberate change of output, re-record the file (with spherelp
importable: installed, or PYTHONPATH=src):

    python tests/test_cli_pinned.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__

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
    "design-uub-config": ("design-uub", "--config", "cube-cross:4", "--s", "0.5", "--tau", "5", "--potential", "newton"),
    "design-uub-pentakis": ("design-uub", "--config", "pentakis", "--tau", "9", "--potential", "riesz:1"),
    "design-uub-outside": (
        "design-uub", "--n", "3", "--capacity", "13.953488372093023", "--s", "0.5773502691896258",
        "--tau", "4", "--potential", "newton:3",
    ),
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
    "reproduce-all-json": ("reproduce", "--table", "all", "--format", "json"),
    **{
        f"config-{spelling}": ("energy", "--config", spelling, "--potential", "riesz:1")
        for spelling in CONFIG_SPELLINGS
    },
}

# the numerics of the recording process: an OpenBLAS kernel that every
# x86-64 CPU runs, one BLAS thread, and every numpy SIMD dispatch target off
FIXED_NUMERICS = {
    "OPENBLAS_CORETYPE": "Prescott",
    "OPENBLAS_NUM_THREADS": "1",
    "NPY_DISABLE_CPU_FEATURES": " ".join(__cpu_dispatch__),
}

# an x86-64 host without AVX-512, the usual AMD runner: its OpenBLAS kernel
# and numpy's dispatch without AVX-512 move the last printed digits
NON_AVX512_HOST = {
    "OPENBLAS_CORETYPE": "Haswell",
    "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
}

# runs each case through spherelp.cli.main; its imports load numpy
RECORDER = """
import contextlib, io, json, sys
from spherelp.cli import main
record = {}
for name, argv in json.load(sys.stdin).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    record[name] = {"argv": argv, "exit": code, "stdout": out.getvalue()}
json.dump(record, sys.stdout)
"""


def record(environ=os.environ) -> dict:
    """Every case's argv, exit code and stdout, from one child process.

    The child inherits ``environ`` without its numpy and OpenBLAS
    settings, which :data:`FIXED_NUMERICS` replaces.
    """
    env = {k: v for k, v in environ.items() if not k.startswith(("NPY_", "NUMPY_", "OPENBLAS_"))}
    child = subprocess.run(
        [sys.executable, "-c", RECORDER],
        input=json.dumps({name: list(argv) for name, argv in CASES.items()}),
        capture_output=True,
        text=True,
        env={**env, **FIXED_NUMERICS},
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def recorded():
    return record()


def test_recorded_cases_match_the_case_lists(expected):
    assert {name: case["argv"] for name, case in expected.items()} == {
        name: list(argv) for name, argv in CASES.items()
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_byte_identical(name, expected, recorded):
    got, want = recorded[name], expected[name]
    assert (got["exit"], got["stdout"]) == (want["exit"], want["stdout"])


def test_pins_do_not_read_the_host_numerics(expected):
    assert record({**os.environ, **NON_AVX512_HOST}) == expected


if __name__ == "__main__":
    EXPECTED.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
