"""Deterministic federated-learning simulator with tokenized incentives.

Clients train a shared convex model through exact dual coordinate ascent;
each round the aggregator values the received updates with a truncated
Monte-Carlo Shapley estimate, enrolls the best ones under a quota, pays
contribution and participation tokens out of a fixed budget, and records
every award on an append-only hash-chained ledger.
"""

from .config import ConfigError, ExperimentConfig, load_config, save_config
from .data import (ClientPartition, Dataset, InfeasiblePartitionError,
                   PartitionScheme, load_csv, partition, poison_labels, save_csv,
                   synth_gaussian, train_test_split)
from .dual import (Cohort, CohortUpdate, GlobalModel, Hyperparams, LocalUpdate, commit,
                   duality_gap, local_solve)
from .harness import RunResult, build_simulation, missing_contributions, run, sweep
from .ledger import Block, Chain, LedgerFormatError, SequencingError, TokenTransaction
from .rng import RngStream
from .scheduler import (RoundMetrics, RoundPlan, SelectionResult, aggregate,
                        round_step, sample_cohort, select_top_q)
from .tokenomics import (AllocationPolicy, Budget, RoundAllocation, allocate_ep,
                         allocate_pf, participation_rewards, settle_round)
from .valuation import (ContributionVector, UtilityContext, draw_permutations,
                        efficiency_residual, tmc_shapley)

__version__ = "0.1.0"
