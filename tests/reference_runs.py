"""Committed reference runs: what tiny configs select, pay and score, round by round.

``tests/data/reference_runs.json`` holds, for each config below, every
round's selected, rejected and flagged lists, its ledger transactions and
block hash, its test loss, duality gap and contributions.
``test_reference_runs.py`` reruns the configs and compares.  The property
tests check invariants and rerun identity; this check sees a drift that two
runs of the same code share, such as a changed selection.

Regenerate the file only for a change that is meant to alter results, and
name the cause where the change is described:

    PYTHONPATH=src python tests/reference_runs.py

To see how far the current code has drifted from the committed file without
writing anything, print each float field's largest relative and absolute
difference, by loss, and every mismatch in an exact field:

    PYTHONPATH=src python tests/reference_runs.py --drift

It exits 1 when an exact field mismatches or a float is outside the
tolerance ``test_reference_runs.py`` allows (see ``close``), and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from fedtoken.config import ExperimentConfig, validate
from fedtoken.harness import run

PATH = Path(__file__).resolve().parent / "data" / "reference_runs.json"

LOSSES = ("squared", "logistic")
POLICIES = ("fedtoken", "fedavg-all", "random-quota")
SCHEMES = ("iid", "label-shards", "dirichlet")
N_CONFIGS = 30
# fields of a round compared exactly, and the float fields (contributions is
# a dict of floats by client id)
EXACT = ("round", "selected", "rejected", "flagged", "awards", "block_hash")
FLOATS = ("test_loss", "duality_gap", "contributions")
# a float matches to 1e-9 relative, with a 1e-15 absolute floor for values
# near zero: a change that moves a float in its last bits passes, one that
# moves a selection or a microtoken does not
REL_TOL = 1e-9
ABS_FLOOR = 1e-15


def close(got: float, want: float) -> bool:
    return abs(got - want) <= max(REL_TOL * abs(want), ABS_FLOOR)


def config_overrides() -> list[dict]:
    """The configs as keyword overrides of ExperimentConfig.

    Each axis cycles with its own period, so that among the fedtoken runs
    every loss meets every partition scheme, pf and ep each meet mean and
    sum weighting, and eps 0 and 0.01, one and two local passes, and runs
    with and without poisoned clients all occur.
    """
    out = []
    for i in range(N_CONFIGS):
        out.append({
            "seed": 11 + i,
            "loss": LOSSES[i % 2],
            "aggregation": POLICIES[i // 2 % 3],
            "partition_scheme": SCHEMES[(i // 6 + i) % 3],
            "allocation": ("pf", "ep")[i // 6 % 2],
            "weighting": ("mean", "sum")[(i // 6 + i // 12) % 2],
            "eps": (0.0, 0.01)[(i // 2 + i) % 2],
            "local_passes": (1, 2)[i // 4 % 2],
            "poison_clients": [1, 4] if i % 5 < 3 else [],
            "n_samples": 120, "dim": 3, "separation": 1.5, "lam": 0.05,
            "n_clients": 8, "m_fraction": 0.75, "quota": 3, "rounds": 3,
            "delta": 3, "total_tokens": 30,
        })
    return out


def make_config(overrides: dict) -> ExperimentConfig:
    fields = dict(overrides, poison_clients=tuple(overrides["poison_clients"]))
    return validate(ExperimentConfig(**fields))


def record(overrides: dict) -> list[dict]:
    """One entry per round of the config's run."""
    result = run(make_config(overrides))
    rounds = []
    for m, block in zip(result.metrics, result.state.chain.blocks):
        rounds.append({
            "round": m.round,
            "selected": list(m.selected),
            "rejected": list(m.rejected),
            "flagged": list(m.flagged),
            "awards": [[tx.client_id, tx.kind, tx.amount_microtokens]
                       for tx in block.transactions],
            "block_hash": m.block_hash,
            "test_loss": m.test_loss,
            "duality_gap": m.duality_gap,
            "contributions": {str(c): v for c, v in sorted(m.contributions.items())},
        })
    return rounds


def regenerate() -> None:
    runs = [{"config": o, "rounds": record(o)} for o in config_overrides()]
    PATH.parent.mkdir(parents=True, exist_ok=True)
    PATH.write_text(json.dumps({"runs": runs}, indent=1, allow_nan=False) + "\n",
                    encoding="utf-8")


def _float_pairs(new: dict, old: dict, field: str):
    """(label, got, want) for each float of one field in a recorded round."""
    if field == "contributions":
        for c, want in old[field].items():
            yield f"client {c}", new[field].get(c, math.nan), want
    else:
        yield field, new[field], old[field]


def drift() -> tuple[list[str], bool]:
    """Report lines (per float field and loss the largest differences, then
    mismatches), and whether every field is within the test's tolerance."""
    reference = json.loads(PATH.read_text(encoding="utf-8"))["runs"]
    worst: dict[tuple[str, str], list] = {}
    mismatches = []
    outside = 0
    for entry in reference:
        overrides = entry["config"]
        where = f"seed {overrides['seed']} ({overrides['loss']}, {overrides['aggregation']})"
        got = record(overrides)
        if len(got) != len(entry["rounds"]):
            mismatches.append(f"{where}: {len(got)} rounds, committed "
                              f"{len(entry['rounds'])}")
        for new, old in zip(got, entry["rounds"]):
            at = f"{where} round {old['round']}"
            mismatches += [f"{at}: {key} {new[key]!r} != {old[key]!r}"
                           for key in EXACT if new[key] != old[key]]
            if new["contributions"].keys() != old["contributions"].keys():
                mismatches.append(f"{at}: contributions name clients "
                                  f"{sorted(new['contributions'])}, committed "
                                  f"{sorted(old['contributions'])}")
            for field in FLOATS:
                row = worst.setdefault((field, overrides["loss"]), [0.0, 0.0, "-"])
                for label, a, b in _float_pairs(new, old, field):
                    outside += not close(a, b)
                    diff = abs(a - b) if a == a else math.inf  # a NaN is unbounded drift
                    rel = diff / abs(b) if b else (math.inf if diff else 0.0)
                    if rel > row[0]:
                        row[2] = f"{at}, {label}"
                    row[0], row[1] = max(row[0], rel), max(row[1], diff)
    lines = [f"{'field':<14} {'loss':<9} {'max rel':>9} {'max abs':>9}  largest rel at"]
    lines += [f"{field:<14} {loss:<9} {rel:9.2e} {diff:9.2e}  {at}"
              for (field, loss), (rel, diff, at) in sorted(worst.items())]
    lines.append(f"{outside} floats outside {REL_TOL:g} relative "
                 f"(or {ABS_FLOOR:g} absolute)")
    lines.append(f"{len(mismatches)} mismatches in exact fields "
                 f"({', '.join(EXACT)})")
    return lines + mismatches, not (outside or mismatches)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--drift", action="store_true",
                        help="compare with the committed file, write nothing, "
                             "and exit 1 if the test would fail")
    if parser.parse_args(argv).drift:
        lines, ok = drift()
        print("\n".join(lines))
        return 0 if ok else 1
    regenerate()
    return 0


if __name__ == "__main__":
    sys.exit(main())
