"""Ratchet on the committed census: a seeded slice fails only where the known list says."""

from pathlib import Path

import census

KNOWN = Path(__file__).parent / "data" / "census_known.txt"
KNOWN_AT_MOST = 132  # the list may only shrink: lower this with every name removed
STRIDE = 7  # every 7th outcome of each recipe, about 1250 calls; 7 is prime to 4 calls a draw, so it reaches every kind


def _known() -> dict[str, str]:
    lines = KNOWN.read_text(encoding="utf-8").splitlines()
    return dict(line.split("\t") for line in lines if line and not line.startswith("#"))


def test_census_slice_fails_only_where_known():
    known = _known()
    assert len(known) <= KNOWN_AT_MOST
    unknown, mended = [], []
    for key, text in census.outcomes(STRIDE):
        name, status = census.name(key), census.status(text)
        entry = known.get(name, "")
        if status == "feasible":
            if entry and not entry.endswith(census.ROUND_OFF):
                mended.append(name)
        elif entry.removesuffix(census.ROUND_OFF) != status:
            unknown.append(f"{key}\t{text[:200]}")
    assert not unknown, "failures not in census_known.txt:\n" + "\n".join(unknown)
    assert not mended, "feasible now, so remove from census_known.txt: " + ", ".join(mended)


def test_compare_lists_only_the_outcomes_that_differ(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("census#0 ulb n=3\tfeasible=True\ncensus#1 ulb n=4\tfeasible=True\n")
    b.write_text("census#0 ulb n=3\tfeasible=True\ncensus#1 ulb n=4\tfeasible=False\n")
    assert census.compare(a, a) == 0
    assert capsys.readouterr().out == "0 of 2 outcomes differ\n"
    assert census.compare(a, b) == 1
    out = capsys.readouterr().out
    assert out == "census#1 ulb n=4\n  - feasible=True\n  + feasible=False\n1 of 2 outcomes differ\n"


def test_known_names_every_failure_and_marks_a_disagreement_at_round_off(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("census#0 ulb n=3\tfeasible=False\ncensus#0 uub n=3\traise ValueError: x\ncensus#1 ulb n=4\tfeasible=True\n")
    b.write_text("census#0 ulb n=3\tfeasible=True\ncensus#0 uub n=3\traise ValueError: y\ncensus#1 ulb n=4\tfeasible=True\n")
    assert census.known([a, b])[1:] == ["census#0 ulb\tinfeasible at round-off", "census#0 uub\traise ValueError"]
