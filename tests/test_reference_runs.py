"""Rerun the committed reference configs and compare them round by round.

Lists, integer awards and block hashes must match exactly.  Floats must
match to 1e-9 relative, with a 1e-15 absolute floor for values near zero
(``reference_runs.close``): a change that moves a float in its last bits
passes, one that moves a selection or a microtoken does not.  See
``reference_runs.py``.
"""

import copy
import json

import pytest

import reference_runs
from reference_runs import EXACT, PATH, close, record

REFERENCE = json.loads(PATH.read_text(encoding="utf-8"))["runs"]


@pytest.mark.parametrize("entry", REFERENCE, ids=lambda e: f"seed{e['config']['seed']}")
def test_reference_run_matches(entry):
    got = record(entry["config"])
    assert len(got) == len(entry["rounds"])
    for new, old in zip(got, entry["rounds"]):
        t = old["round"]
        for key in EXACT:
            assert new[key] == old[key], f"round {t}: {key}"
        for key in ("test_loss", "duality_gap"):
            assert close(new[key], old[key]), f"round {t}: {key} {new[key]!r} != {old[key]!r}"
        assert new["contributions"].keys() == old["contributions"].keys(), f"round {t}"
        for c, want in old["contributions"].items():
            assert close(new["contributions"][c], want), \
                f"round {t}: contribution of client {c} {new['contributions'][c]!r} != {want!r}"


def test_drift_reports_moved_floats_and_exact_mismatches_and_writes_nothing(monkeypatch,
                                                                            capsys):
    committed = {e["config"]["seed"]: e["rounds"] for e in REFERENCE}
    moved = REFERENCE[0]["config"]["seed"]
    change = {"rel": 2**-40, "reorder": True}

    def perturbed(overrides):
        rounds = copy.deepcopy(committed[overrides["seed"]])
        if overrides["seed"] == moved:
            rounds[0]["test_loss"] *= 1 + change["rel"]
            if change["reorder"]:
                rounds[-1]["selected"] = rounds[-1]["selected"][::-1] + [99]
        return rounds

    monkeypatch.setattr(reference_runs, "record", perturbed)
    before = PATH.read_bytes()
    assert reference_runs.main(["--drift"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert PATH.read_bytes() == before
    loss = REFERENCE[0]["config"]["loss"]
    row = next(r for r in map(str.split, out) if r[:2] == ["test_loss", loss])
    assert float(row[2]) == pytest.approx(2**-40, rel=1e-2)
    assert f"seed {moved}" in " ".join(row[4:])
    assert "0 floats outside" in " ".join(out)
    assert "1 mismatches in exact fields" in " ".join(out)
    assert any(f"seed {moved}" in line and "selected" in line for line in out)

    # a float moved in its last bits alone passes; one moved past 1e-9 does not
    change["reorder"] = False
    assert reference_runs.main(["--drift"]) == 0
    assert "0 mismatches in exact fields" in capsys.readouterr().out
    change["rel"] = 1e-6
    assert reference_runs.main(["--drift"]) == 1
    out = capsys.readouterr().out
    assert "1 floats outside 1e-09 relative" in out
    assert "0 mismatches in exact fields" in out
