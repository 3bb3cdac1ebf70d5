"""Per-round orchestration: cohort sampling, selection, aggregation.

A round runs: sample a cohort, solve its members' local updates in one
lockstep cohort solve, value the updates (fedtoken policy only), pick at
most ``quota`` of them, fold the chosen deltas into the global model with
step weight nu, commit the matching dual steps, settle tokens, and append
the round's block.  Clients that were not selected discard their step,
which keeps the global model and the dual vector in exact correspondence.
A delta-blind policy selects before the solve, so only the clients it keeps
are solved; the whole cohort is still charged an upload.

The reduction over selected deltas runs in ascending client-id order so
floating-point sums are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from . import tokenomics
from .data import ClientPartition, Dataset
from .dual import (Cohort, GlobalModel, Hyperparams, commit, duality_gap, local_solve,
                   upload_size)
from .ledger import Chain
from .losses import mean_loss
from .rng import RngStream
from .tokenomics import AllocationPolicy, Budget
from .valuation import (ContributionVector, UtilityContext, draw_permutations,
                        efficiency_residual, tmc_shapley)

FEDTOKEN = "fedtoken"
FEDAVG_ALL = "fedavg-all"
RANDOM_QUOTA = "random-quota"


class BudgetExhausted(RuntimeError):
    """Raised when a round is attempted after the budget ran out."""


@dataclass(frozen=True)
class RoundPlan:
    round: int
    cohort: tuple[int, ...]
    quota: int

    def __post_init__(self):
        if len(set(self.cohort)) != len(self.cohort):
            raise ValueError("cohort ids must be unique")
        if not 1 <= self.quota <= len(self.cohort):
            raise ValueError("quota must be in [1, cohort size]")


@dataclass(frozen=True)
class SelectionResult:
    selected: tuple[int, ...]
    rejected: tuple[int, ...]
    flagged_non_contributing: tuple[int, ...]


@dataclass
class RoundMetrics:
    round: int
    policy: str
    test_accuracy: float
    test_loss: float
    duality_gap: float
    contributions: dict[int, float]
    efficiency_residual: float | None  # None when valuation was skipped
    selected: tuple[int, ...]
    rejected: tuple[int, ...]
    flagged: tuple[int, ...]
    tokens_contribution: int
    tokens_participation: int
    budget_remaining: int
    uploaded_bytes: int
    committed_bytes: int
    utility_queries: int
    utility_evaluations: int
    block_hash: str

    def to_record(self) -> dict:
        rec = dict(self.__dict__)
        rec["record"] = "round"
        rec["contributions"] = {str(k): v for k, v in sorted(self.contributions.items())}
        rec["selected"] = list(self.selected)
        rec["rejected"] = list(self.rejected)
        rec["flagged"] = list(self.flagged)
        return rec


@dataclass
class SimulationState:
    effective_train: Dataset  # the training split; poisoned clients' labels are flipped
    test: Dataset             # the held-out split that valuation and metrics score on
    partitions: list[ClientPartition]  # partitions[c]: client c's rows of effective_train
    model: GlobalModel
    alpha: np.ndarray         # one dual coordinate per training row
    budget: Budget
    chain: Chain
    round: int = 0
    uploaded_bytes: int = 0
    committed_bytes: int = 0
    utility_queries: int = 0  # summed over the finished rounds


def ceil_share(fraction: float, n: int) -> int:
    """``max(1, ceil(fraction * n))``: the cohort size and the quota a ratio gives.

    The ceiling is taken on the decimal that ``fraction`` prints as, the
    value the config file writes, as ``tokenomics`` takes ``zeta``: the
    float product can land just above a whole number (``0.55 * 100`` is
    55.00000000000001).
    """
    num, den = Fraction(str(fraction)).as_integer_ratio()
    return max(1, -(-num * n // den))


def sample_cohort(n_clients: int, m_fraction: float, round_index: int,
                  stream: RngStream) -> tuple[int, ...]:
    """Uniform cohort of ``ceil_share(m_fraction, n_clients)`` distinct ids, keyed by round."""
    if not 0.0 < m_fraction <= 1.0:
        raise ValueError("m_fraction must be in (0, 1]")
    size = ceil_share(m_fraction, n_clients)
    gen = stream.scoped(round=round_index, client=0, purpose="cohort").generator()
    ids = gen.choice(n_clients, size=size, replace=False)
    return tuple(sorted(int(c) for c in ids))


def select_top_q(u: ContributionVector, quota: int) -> SelectionResult:
    """Top-quota clients by contribution, flagging everyone without u > 0.

    A NaN contribution is flagged too.  Ties break toward the lower client
    id; the selected list is ordered by descending contribution.
    """
    if quota < 1:
        raise ValueError("quota must be >= 1")
    flagged = tuple(sorted(c for c, val in u.u.items() if not val > 0.0))
    positive = sorted((c for c, val in u.u.items() if val > 0.0),
                      key=lambda c: (-u.u[c], c))
    return SelectionResult(
        selected=tuple(positive[:quota]),
        rejected=tuple(positive[quota:]),
        flagged_non_contributing=flagged,
    )


def aggregate(phi_t: np.ndarray, selection: SelectionResult,
              deltas: dict[int, np.ndarray], nu: float) -> np.ndarray:
    """phi + nu * sum of selected deltas; an empty selection is a no-op."""
    phi = np.array(phi_t, dtype=np.float64)
    for c in sorted(selection.selected):
        phi += nu * deltas[c]
    return phi


def _resolve_nu(cfg, n: int) -> float:
    """Step weight for ``n`` selected updates: ``1/n`` under ``nu = auto``."""
    if cfg.nu == "auto":
        return 1.0 / max(n, 1)
    return float(cfg.nu)


def _test_metrics(model: np.ndarray, test: Dataset, loss: str) -> tuple[float, float]:
    """Accuracy and mean loss from one product of the test set with the model.

    The loss is taken on the scores as a one-column matrix with weight 1.0:
    ``1.0 * s`` is ``s``, so it has the bits of
    ``mean_loss(loss, model, test.features, test.labels)``.
    """
    scores = test.features @ model
    accuracy = np.count_nonzero((scores > 0.0) == (test.labels > 0.0)) / len(scores)
    return accuracy, mean_loss(loss, np.ones(1), scores[:, None], test.labels)


# A selector picks the round's aggregated clients from the state, the config,
# the RoundPlan, the cohort's deltas (None for a delta-blind policy) and the
# run's root RngStream.  It returns the selection, the contributions that
# allocation pays by (or None), the efficiency residual (or None) and the
# utility context whose query counts the round reports (or None).

def _select_fedtoken(state, cfg, plan, deltas, root):
    ctx = UtilityContext(state.model.phi, deltas, state.test, cfg.loss,
                         weighting=cfg.weighting, nu=_resolve_nu(cfg, plan.quota))
    gen = root.scoped(round=plan.round, client=0, purpose="shapley-perms").generator()
    u = tmc_shapley(ctx, plan.cohort, draw_permutations(gen, plan.cohort, cfg.delta),
                    cfg.eps)
    return select_top_q(u, plan.quota), u.u, efficiency_residual(u, ctx, plan.cohort), ctx


def _select_fedavg_all(state, cfg, plan, deltas, root):
    return SelectionResult(selected=plan.cohort, rejected=(),
                           flagged_non_contributing=()), None, None, None


def _select_random_quota(state, cfg, plan, deltas, root):
    gen = root.scoped(round=plan.round, client=0, purpose="random-quota").generator()
    picked = gen.choice(len(plan.cohort), size=plan.quota, replace=False)
    chosen = tuple(sorted(plan.cohort[int(i)] for i in picked))
    rest = tuple(c for c in plan.cohort if c not in chosen)
    return SelectionResult(selected=chosen, rejected=rest,
                           flagged_non_contributing=()), None, None, None


class Policy(NamedTuple):
    select: Callable
    reads_deltas: bool  # if not, select runs before the solve, on the cohort alone


POLICIES = {
    FEDTOKEN: Policy(_select_fedtoken, reads_deltas=True),
    FEDAVG_ALL: Policy(_select_fedavg_all, reads_deltas=False),
    RANDOM_QUOTA: Policy(_select_random_quota, reads_deltas=False),
}
AGGREGATION_POLICIES = tuple(POLICIES)


def round_step(state: SimulationState, cfg) -> RoundMetrics:
    """Execute one full round and advance the state in place.

    An exception raised inside the round gets a ``failed_phase`` attribute
    naming the phase it was raised in: ``local-solve``, ``valuation``,
    ``aggregate``, ``settle`` or ``evaluate``.
    """
    if state.budget.exhausted:
        raise BudgetExhausted(f"budget exhausted after round {state.round}")
    if state.round >= cfg.rounds:
        raise RuntimeError("round horizon already reached")
    t = state.round + 1
    phase = "local-solve"
    try:
        root = RngStream(cfg.seed)
        cohort = sample_cohort(cfg.n_clients, cfg.m_fraction, t, root)
        plan = RoundPlan(round=t, cohort=cohort, quota=cfg.resolved_quota)
        hyper = Hyperparams(lam=cfg.lam, local_passes=cfg.local_passes)
        rule = POLICIES[cfg.aggregation]

        phase = "valuation"
        early = None if rule.reads_deltas else rule.select(state, cfg, plan, None, root)
        phase = "local-solve"
        to_solve = cohort if early is None else early[0].selected
        updates = local_solve(Cohort(tuple(state.partitions[c] for c in to_solve)),
                              state.effective_train, state.alpha, state.model, cfg.loss,
                              hyper, root.scoped(round=t, purpose="local-solve")).updates
        state.uploaded_bytes += len(cohort) * upload_size(state.effective_train.d)
        deltas = {c: upd.delta_phi for c, upd in updates.items()}

        phase = "valuation"
        selection, u, residual, ctx = early or rule.select(state, cfg, plan, deltas, root)
        phase = "aggregate"
        nu_round = _resolve_nu(cfg, len(selection.selected))
        phi_next = aggregate(state.model.phi, selection, deltas, nu_round)
        for c in selection.selected:
            commit(state.alpha, state.partitions[c].sample_indices, updates[c].rho, nu_round)
        state.committed_bytes += len(selection.selected) * upload_size(state.effective_train.d)
        state.model = GlobalModel(phi_next)
        state.round = t

        phase = "settle"
        policy = AllocationPolicy(cfg.allocation, cfg.zeta, cfg.participation_for_selected)
        allocation, state.budget = tokenomics.settle_round(state.budget, policy, u, selection, t)
        block = state.chain.append_block(t, allocation)

        phase = "evaluate"
        accuracy, test_loss = _test_metrics(phi_next, state.test, cfg.loss)
        gap = duality_gap(state.alpha, state.effective_train, cfg.loss, cfg.lam)
    except Exception as err:
        err.failed_phase = phase
        raise
    queries = ctx.queries if ctx is not None else 0
    state.utility_queries += queries
    return RoundMetrics(
        round=t,
        policy=cfg.aggregation,
        test_accuracy=accuracy,
        test_loss=test_loss,
        duality_gap=gap,
        contributions=dict(u or {}),
        efficiency_residual=residual,
        selected=selection.selected,
        rejected=selection.rejected,
        flagged=selection.flagged_non_contributing,
        tokens_contribution=sum(allocation.contribution_awards.values()),
        tokens_participation=sum(allocation.participation_awards.values()),
        budget_remaining=state.budget.remaining,
        uploaded_bytes=state.uploaded_bytes,
        committed_bytes=state.committed_bytes,
        utility_queries=queries,
        utility_evaluations=ctx.evaluations if ctx is not None else 0,
        block_hash=block.block_hash.hex(),
    )
