"""Rerun the committed reference configs and compare them round by round.

Lists, integer awards and block hashes must match exactly.  Floats must
match to 1e-9 relative, with a 1e-15 absolute floor for values near zero:
a change that moves a float in its last bits passes, one that moves a
selection or a microtoken does not.  See ``reference_runs.py``.
"""

import copy
import json

import pytest

import reference_runs
from reference_runs import EXACT, PATH, record

REL_TOL = 1e-9
ABS_FLOOR = 1e-15

REFERENCE = json.loads(PATH.read_text(encoding="utf-8"))["runs"]


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= max(REL_TOL * abs(want), ABS_FLOOR)


@pytest.mark.parametrize("entry", REFERENCE, ids=lambda e: f"seed{e['config']['seed']}")
def test_reference_run_matches(entry):
    got = record(entry["config"])
    assert len(got) == len(entry["rounds"])
    for new, old in zip(got, entry["rounds"]):
        t = old["round"]
        for key in EXACT:
            assert new[key] == old[key], f"round {t}: {key}"
        for key in ("test_loss", "duality_gap"):
            assert _close(new[key], old[key]), f"round {t}: {key} {new[key]!r} != {old[key]!r}"
        assert new["contributions"].keys() == old["contributions"].keys(), f"round {t}"
        for c, want in old["contributions"].items():
            assert _close(new["contributions"][c], want), \
                f"round {t}: contribution of client {c} {new['contributions'][c]!r} != {want!r}"


def test_drift_reports_moved_floats_and_exact_mismatches_and_writes_nothing(monkeypatch,
                                                                            capsys):
    committed = {e["config"]["seed"]: e["rounds"] for e in REFERENCE}
    moved = REFERENCE[0]["config"]["seed"]

    def perturbed(overrides):
        rounds = copy.deepcopy(committed[overrides["seed"]])
        if overrides["seed"] == moved:
            rounds[0]["test_loss"] *= 1 + 2**-40
            rounds[-1]["selected"] = rounds[-1]["selected"][::-1] + [99]
        return rounds

    monkeypatch.setattr(reference_runs, "record", perturbed)
    before = PATH.read_bytes()
    reference_runs.main(["--drift"])
    out = capsys.readouterr().out.splitlines()
    assert PATH.read_bytes() == before
    loss = REFERENCE[0]["config"]["loss"]
    row = next(r for r in map(str.split, out) if r[:2] == ["test_loss", loss])
    assert float(row[2]) == pytest.approx(2**-40, rel=1e-2)
    assert f"seed {moved}" in " ".join(row[4:])
    assert "1 mismatches in exact fields" in " ".join(out)
    assert any(f"seed {moved}" in line and "selected" in line for line in out)
