"""The benchmark's workloads: configs and inputs generated from a seed.

Each workload stresses different layers, so that a change to one layer
shows on the workload that exercises it and shows no move on the one that
bypasses it:

* ``shapley-logistic``: valuation-heavy. 40 players per round and 32
  permutations, so most coalitions are new and the utility cache rarely hits;
  the logistic ``mean_loss`` kernel does most of the work.
* ``poisoned-shards-squared``: the acceptance selection task at larger scale.
  Ten clients hold single-label shards and two holding the positive label flip
  theirs.
  The squared closed-form local solve dominates; valuation is small and hits
  its cache often, and the CSV parse exercises set-up.
* ``random-quota-long``: no valuation at all. 25 short rounds stress the
  logistic Newton solve, the per-sample duality-gap loop and per-round
  settlement and ledger appends; the budget runs out on the last round.

Inputs depend only on the seed: the program sees the generated config file
and, where one is used, the generated CSV.  The sizes keep one run under a
second on a shared core, so that forty or more runs fit in a 40-second
measurement: ``run_s`` takes each segment's fastest time over the runs, and
fewer runs leave host slowdowns in it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sections: dict[str, dict[str, object]]
    # small overrides, keyed "section.key", used by the self-test
    tiny: dict[str, object]
    csv_rows: int = 0
    csv_features: int = 0
    # label-flip poisoners, picked among clients whose shard is all positive
    poisoners: int = 0

    @property
    def values_updates(self) -> bool:
        """Whether the round policy runs the Shapley valuation."""
        return self.sections["run"]["aggregation"] == "fedtoken"


WORKLOADS = {w.name: w for w in (
    Workload(
        name="shapley-logistic",
        why="valuation-heavy: 40 players and 32 permutations per round, so few "
            "utility lookups hit the cache and the logistic loss kernel dominates",
        sections={
            "run": {"aggregation": "fedtoken"},
            "data": {"n_samples": 4000, "dim": 50, "test_fraction": 0.5},
            "learning": {"loss": "logistic"},
            "federation": {"n_clients": 40, "m_fraction": 1.0, "quota_ratio": 0.5,
                           "rounds": 3},
            "valuation": {"delta": 32, "eps": 0.0},
            "tokens": {"total_tokens": 1000},
        },
        tiny={"data.n_samples": 400, "data.dim": 5, "federation.n_clients": 8,
              "federation.rounds": 2, "valuation.delta": 4},
    ),
    Workload(
        name="poisoned-shards-squared",
        why="the acceptance selection task at scale: the squared closed-form local "
            "solve dominates, valuation reuses its cache, the CSV parse loads set-up",
        sections={
            "run": {"aggregation": "fedtoken"},
            "data": {"source": "csv", "test_fraction": 0.5,
                     "partition": "label-shards", "shards_k": 1},
            "learning": {"loss": "squared", "lambda": 0.02, "local_passes": 2},
            "federation": {"n_clients": 10, "m_fraction": 1.0, "quota": 5,
                           "rounds": 8},
            "valuation": {"delta": 32},
            "attack": {"flip_fraction": 1.0},
            "tokens": {"total_tokens": 100000},
        },
        tiny={"federation.rounds": 3, "valuation.delta": 4},
        csv_rows=4000,
        csv_features=19,
        poisoners=2,
    ),
    Workload(
        name="random-quota-long",
        why="no valuation: 25 rounds of logistic Newton solves, duality-gap loops "
            "and per-round settlement, so a valuation change must not move it",
        sections={
            "run": {"aggregation": "random-quota"},
            # 2000 training rows; the large test share keeps the final test
            # loss from swinging with the seed
            "data": {"n_samples": 8000, "dim": 20, "test_fraction": 0.75},
            "learning": {"loss": "logistic"},
            "federation": {"n_clients": 50, "m_fraction": 0.2, "rounds": 25},
            "tokens": {"total_tokens": 1000},
        },
        tiny={"data.n_samples": 400, "data.dim": 5, "federation.n_clients": 10,
              "federation.rounds": 5},
    ),
)}
