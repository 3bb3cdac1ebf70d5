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
"""

from __future__ import annotations

import json
from pathlib import Path

from fedtoken.config import ExperimentConfig, validate
from fedtoken.harness import run

PATH = Path(__file__).resolve().parent / "data" / "reference_runs.json"

LOSSES = ("squared", "logistic")
POLICIES = ("fedtoken", "fedavg-all", "random-quota")
SCHEMES = ("iid", "label-shards", "dirichlet")
N_CONFIGS = 30


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


if __name__ == "__main__":
    regenerate()
