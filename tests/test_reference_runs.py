"""Rerun the committed reference configs and compare them round by round.

Lists, integer awards and block hashes must match exactly.  Floats must
match to 1e-9 relative, with a 1e-15 absolute floor for values near zero:
a change that moves a float in its last bits passes, one that moves a
selection or a microtoken does not.  See ``reference_runs.py``.
"""

import json

import pytest

from reference_runs import PATH, record

REL_TOL = 1e-9
ABS_FLOOR = 1e-15
EXACT = ("round", "selected", "rejected", "flagged", "awards", "block_hash")

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
