"""Per-round orchestration: cohort sampling, selection, aggregation.

A round samples a cohort, then runs its policy's ordered table of phases in
``POLICIES``: solve the local updates in one lockstep cohort solve, select at
most ``quota`` clients (by TMC-Shapley value under the fedtoken policy, and
before the solve under the delta-blind baselines, which solve only the
clients they keep but charge the whole cohort an upload), fold the chosen
deltas into the global model with step weight nu and commit the matching
dual steps, settle tokens and append the round's block, and evaluate.
Clients that were not selected discard their step, which keeps the global
model and the dual vector in exact correspondence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from . import tokenomics
from .data import ClientPartition, Dataset
from .dual import (Cohort, GlobalModel, Hyperparams, commit, duality_gap, local_solve,
                   upload_size)
from .ledger import Chain
from .losses import mean_loss
from .rng import RngStream
from .valuation import (ContributionVector, UtilityContext, draw_permutations,
                        efficiency_residual, tmc_shapley)

FEDTOKEN = "fedtoken"
FEDAVG_ALL = "fedavg-all"
RANDOM_QUOTA = "random-quota"


class BudgetExhausted(RuntimeError):
    """Raised when a round is attempted after the budget ran out."""


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
    remaining: int            # microtokens of the budget left to issue
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


# A phase takes the state, the config and the round's namespace ``r``, which
# round_step starts (see there); it reads what earlier phases put in ``r``.

def _local_solve(state, cfg, r):
    """Solve the cohort's local updates: only the clients a selection already keeps."""
    solving = r.cohort if r.selection is None else r.selection.selected
    hyper = Hyperparams(lam=cfg.lam, local_passes=cfg.local_passes)
    r.updates = local_solve(Cohort(tuple(state.partitions[c] for c in solving)),
                            state.effective_train, state.alpha, state.model, cfg.loss,
                            hyper, r.root.scoped(round=r.t, purpose="local-solve")).updates
    state.uploaded_bytes += len(r.cohort) * upload_size(state.effective_train.d)
    r.deltas = {c: upd.delta_phi for c, upd in r.updates.items()}


def _value_and_select_top_q(state, cfg, r):
    """TMC-Shapley contributions of the cohort's deltas; select the top quota."""
    ctx = UtilityContext(state.model.phi, r.deltas, state.test, cfg.loss,
                         weighting=cfg.weighting, nu=_resolve_nu(cfg, cfg.resolved_quota))
    gen = r.root.scoped(round=r.t, client=0, purpose="shapley-perms").generator()
    u = tmc_shapley(ctx, r.cohort, draw_permutations(gen, r.cohort, cfg.delta), cfg.eps)
    r.selection = select_top_q(u, cfg.resolved_quota)
    r.u, r.residual = u.u, efficiency_residual(u, ctx, r.cohort)
    r.queries, r.evaluations = ctx.queries, ctx.evaluations


def _select_all(state, cfg, r):
    r.selection = SelectionResult(selected=r.cohort, rejected=(), flagged_non_contributing=())


def _select_random_quota(state, cfg, r):
    gen = r.root.scoped(round=r.t, client=0, purpose="random-quota").generator()
    picked = gen.choice(len(r.cohort), size=cfg.resolved_quota, replace=False)
    chosen = tuple(sorted(r.cohort[int(i)] for i in picked))
    rest = tuple(c for c in r.cohort if c not in chosen)
    r.selection = SelectionResult(selected=chosen, rejected=rest, flagged_non_contributing=())


def _aggregate(state, cfg, r):
    """Fold the selected deltas into the model and their steps into alpha."""
    selected = r.selection.selected
    nu_round = _resolve_nu(cfg, len(selected))
    phi_next = aggregate(state.model.phi, r.selection, r.deltas, nu_round)
    for c in selected:
        commit(state.alpha, state.partitions[c].sample_indices, r.updates[c].rho, nu_round)
    state.committed_bytes += len(selected) * upload_size(state.effective_train.d)
    state.model = GlobalModel(phi_next)
    state.round = r.t


def _settle(state, cfg, r):
    r.allocation, state.remaining = tokenomics.settle_round(cfg, state.remaining, r.u,
                                                            r.selection, r.t)
    r.block = state.chain.append_block(r.t, r.allocation)


def _evaluate(state, cfg, r):
    r.accuracy, r.test_loss = _test_metrics(state.model.phi, state.test, cfg.loss)
    r.gap = duality_gap(state.alpha, state.effective_train, cfg.loss, cfg.lam)


_AFTER_SELECTION = (("aggregate", _aggregate), ("settle", _settle), ("evaluate", _evaluate))

# policy -> its round's (phase name, phase) pairs, in the order they run
POLICIES = {
    FEDTOKEN: (("local-solve", _local_solve), ("valuation", _value_and_select_top_q),
               *_AFTER_SELECTION),
    FEDAVG_ALL: (("valuation", _select_all), ("local-solve", _local_solve),
                 *_AFTER_SELECTION),
    RANDOM_QUOTA: (("valuation", _select_random_quota), ("local-solve", _local_solve),
                   *_AFTER_SELECTION),
}
AGGREGATION_POLICIES = tuple(POLICIES)


def round_step(state: SimulationState, cfg) -> RoundMetrics:
    """Execute one full round and advance the state in place.

    An exception raised inside the round gets a ``failed_phase`` attribute
    naming the phase of ``POLICIES[cfg.aggregation]`` it was raised in;
    sampling the cohort counts as ``local-solve``.
    """
    if state.remaining == 0:
        raise BudgetExhausted(f"budget exhausted after round {state.round}")
    if state.round >= cfg.rounds:
        raise RuntimeError("round horizon already reached")
    t = state.round + 1
    phase = "local-solve"
    try:
        root = RngStream(cfg.seed)
        r = SimpleNamespace(t=t, root=root,
                            cohort=sample_cohort(cfg.n_clients, cfg.m_fraction, t, root),
                            selection=None, u=None, residual=None, queries=0, evaluations=0)
        for phase, run_phase in POLICIES[cfg.aggregation]:
            run_phase(state, cfg, r)
    except Exception as err:
        err.failed_phase = phase
        raise
    state.utility_queries += r.queries
    return RoundMetrics(
        round=t,
        policy=cfg.aggregation,
        test_accuracy=r.accuracy,
        test_loss=r.test_loss,
        duality_gap=r.gap,
        contributions=dict(r.u or {}),
        efficiency_residual=r.residual,
        selected=r.selection.selected,
        rejected=r.selection.rejected,
        flagged=r.selection.flagged_non_contributing,
        tokens_contribution=sum(r.allocation.contribution_awards.values()),
        tokens_participation=sum(r.allocation.participation_awards.values()),
        budget_remaining=state.remaining,
        uploaded_bytes=state.uploaded_bytes,
        committed_bytes=state.committed_bytes,
        utility_queries=r.queries,
        utility_evaluations=r.evaluations,
        block_hash=r.block.block_hash.hex(),
    )
