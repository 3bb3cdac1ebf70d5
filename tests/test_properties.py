"""Property tests over random small valid configs.

Each drawn config is stepped round by round, checking the invariants the
paper's design rests on (among them a verifying hash chain, tokens
conserved to the microtoken and Shapley efficiency within the truncation
tolerance), and is then run twice to disk to check that the
artifacts are byte-identical.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtoken import losses
from fedtoken.config import ExperimentConfig, validate
from fedtoken.dual import phi_of_alpha
from fedtoken.harness import build_simulation, run
from fedtoken.rng import RngStream
from fedtoken.scheduler import AGGREGATION_POLICIES, ceil_share, round_step, sample_cohort

ARTIFACTS = ("metrics.jsonl", "ledger.ftlg", "model.bin")


@st.composite
def small_configs(draw):
    n_clients = draw(st.integers(1, 6))
    m_fraction = draw(st.sampled_from([0.5, 0.75, 1.0]))
    cohort = ceil_share(m_fraction, n_clients)
    poison = draw(st.sets(st.integers(0, n_clients - 1), max_size=2))
    return validate(ExperimentConfig(
        seed=draw(st.integers(0, 2**31)),
        aggregation=draw(st.sampled_from(AGGREGATION_POLICIES)),
        n_samples=draw(st.integers(8 * n_clients + 8, 120)),
        dim=draw(st.integers(1, 4)),
        separation=draw(st.sampled_from([0.5, 3.0])),
        partition_scheme=draw(st.sampled_from(["iid", "label-shards", "dirichlet"])),
        loss=draw(st.sampled_from(losses.LOSS_KINDS)),
        lam=draw(st.sampled_from([0.005, 0.05, 0.5])),
        nu=draw(st.sampled_from(["auto", 0.5, 1.0])),
        local_passes=draw(st.integers(1, 3)),
        n_clients=n_clients,
        m_fraction=m_fraction,
        quota=draw(st.integers(1, cohort)),
        rounds=draw(st.integers(1, 5)),
        delta=draw(st.integers(1, 4)),
        eps=draw(st.sampled_from([0.0, 0.01, 0.1])),
        poison_clients=tuple(sorted(poison)),
        total_tokens=draw(st.integers(1, 50)),
    ))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(cfg=small_configs())
def test_round_invariants_and_byte_identical_reruns(cfg):
    state = build_simulation(cfg)
    labels = state.effective_train.labels
    for _ in range(cfg.rounds):
        m = round_step(state, cfg)
        rebuilt = phi_of_alpha(state.alpha, state.effective_train, cfg.lam)
        scale = max(np.linalg.norm(rebuilt), 1e-12)
        assert np.linalg.norm(state.model.phi - rebuilt) / scale < 1e-10
        if cfg.loss == losses.LOGISTIC:
            # commits may leave rounding dust, which the conjugate tolerates to 1e-12
            assert np.all(state.alpha * labels >= -1e-12)
            assert np.all(state.alpha * labels <= 1.0 + 1e-12)
        cohort = sample_cohort(cfg.n_clients, cfg.m_fraction, m.round, RngStream(cfg.seed))
        groups = (m.selected, m.rejected, m.flagged)
        assert sorted(c for g in groups for c in g) == list(cohort)
        if m.efficiency_residual is not None:
            # a permutation truncated within eps of the grand coalition's value
            # misses at most eps of it; an untruncated one telescopes exactly
            assert abs(m.efficiency_residual) <= cfg.eps + 1e-9
        assert state.chain.verify() is None
        issued = state.budget.total_microtokens - state.budget.remaining
        assert sum(state.chain.balances().values()) == state.chain.total_issued() == issued
        if state.budget.exhausted:
            break

    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a", Path(tmp) / "b"
        run(cfg, first)
        run(cfg, second)
        for name in ARTIFACTS:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
