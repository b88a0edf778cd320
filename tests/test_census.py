"""Ratchet on the committed census: a seeded slice fails only where the known list says,
and each of its reports comes back from its record alone."""

import json
from pathlib import Path

import census
from spherelp import bounds, quadrature
from spherelp.bounds import read_record

KNOWN = Path(__file__).parent / "data" / "census_known.txt"
KNOWN_AT_MOST = 132  # the list may only shrink: lower this with every name removed
STRIDE = 7  # every 7th outcome of each recipe, about 1250 calls; 7 is prime to 4 calls a draw, so it reaches every kind


def _known() -> dict[str, str]:
    lines = KNOWN.read_text(encoding="utf-8").splitlines()
    return dict(line.split("\t") for line in lines if line and not line.startswith("#"))


def _no_rule_solve(*args):
    raise AssertionError(f"a rule was solved while a report was read from its record: {args}")


def test_census_slice_fails_only_where_known(monkeypatch):
    known = _known()
    assert len(known) <= KNOWN_AT_MOST
    unknown, mended = [], []
    outcomes = list(census.outcomes(STRIDE))
    for key, text in outcomes:
        name, status = census.name(key), census.status(text)
        entry = known.get(name, "")
        if status == "feasible":
            if entry and not entry.endswith(census.ROUND_OFF):
                mended.append(name)
        elif entry.removesuffix(census.ROUND_OFF) != status:
            unknown.append(f"{key}\t{text[:200]}")
    assert not unknown, "failures not in census_known.txt:\n" + "\n".join(unknown)
    assert not mended, "feasible now, so remove from census_known.txt: " + ", ".join(mended)
    # every report, feasible or not, comes back bit for bit from its record, with no rule solved
    for module in (bounds, quadrature):
        for solve in ("solve_ulb_rule", "levenshtein_polynomial"):
            monkeypatch.setattr(module, solve, _no_rule_solve)
    reports = [(key, text.split("\t")) for key, text in outcomes if not text.startswith("raise ")]
    assert {json.loads(record)["kind"] for _, (record, _) in reports} == {"ulb", "uub", "design_ulb", "design_uub"}
    changed = [key for key, (record, verdict) in reports if census.verdict_text(read_record(record)) != verdict]
    assert not changed, "reports not rebuilt from their records:\n" + "\n".join(changed)


def _line(key, feasible=None, error=None):
    """A census line of ``key``: a raise, or a report whose verdict is only its feasible flag."""
    return f"{key}\traise {error}\n" if error else f'{key}\t{{"kind": "ulb"}}\t{{"feasible": {str(feasible).lower()}}}\n'


def test_compare_lists_only_the_outcomes_that_differ(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text(_line("census#0 ulb n=3", True) + _line("census#1 ulb n=4", True))
    b.write_text(_line("census#0 ulb n=3", True) + _line("census#1 ulb n=4", False))
    assert census.compare(a, a) == 0
    assert capsys.readouterr().out == "0 of 2 outcomes differ\n"
    assert census.compare(a, b) == 1
    out = capsys.readouterr().out
    assert out == "census#1 ulb n=4\n  feasible\n    - True\n    + False\n1 of 2 outcomes differ\n"


def test_known_names_every_failure_and_marks_a_disagreement_at_round_off(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text(
        _line("census#0 ulb n=3", False) + _line("census#0 uub n=3", error="ValueError: x") + _line("census#1 ulb n=4", True)
    )
    b.write_text(
        _line("census#0 ulb n=3", True) + _line("census#0 uub n=3", error="ValueError: y") + _line("census#1 ulb n=4", True)
    )
    assert census.known([a, b])[1:] == ["census#0 ulb\tinfeasible at round-off", "census#0 uub\traise ValueError"]
