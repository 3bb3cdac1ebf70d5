"""Property tests over random small valid configs.

Each drawn config is stepped round by round, checking the invariants the
paper's design rests on (among them a verifying hash chain, tokens
conserved to the microtoken and Shapley efficiency within the truncation
tolerance), and is then run twice to disk to check that the
artifacts are byte-identical.  Another property runs small configs end to
end and checks every recorded round against ``oracles.oracle_run``.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtoken import losses
from fedtoken.config import ExperimentConfig, validate
from fedtoken.dual import phi_of_alpha
from fedtoken.harness import build_simulation, read_metrics, run
from fedtoken.ledger import MAX_AMOUNT, iter_blocks
from fedtoken.rng import RngStream
from fedtoken.scheduler import AGGREGATION_POLICIES, ceil_share, round_step, sample_cohort
from oracles import oracle_run
from reference_runs import close

ARTIFACTS = ("metrics.jsonl", "ledger.ftlg", "model.bin")


@st.composite
def small_configs(draw, aggregation, loss):
    n_clients = draw(st.integers(1, 6))
    m_fraction = draw(st.sampled_from([0.5, 0.75, 1.0]))
    cohort = ceil_share(m_fraction, n_clients)
    poison = draw(st.sets(st.integers(0, n_clients - 1), max_size=2))
    return validate(ExperimentConfig(
        seed=draw(st.integers(0, 2**31)),
        aggregation=aggregation,
        n_samples=draw(st.integers(8 * n_clients + 8, 120)),
        dim=draw(st.integers(1, 4)),
        separation=draw(st.sampled_from([0.5, 3.0])),
        partition_scheme=draw(st.sampled_from(["iid", "label-shards", "dirichlet"])),
        loss=loss,
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


@pytest.mark.parametrize("loss", losses.LOSS_KINDS)
@pytest.mark.parametrize("aggregation", AGGREGATION_POLICIES)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_round_invariants_and_byte_identical_reruns(aggregation, loss, data):
    cfg = data.draw(small_configs(aggregation, loss))
    state = build_simulation(cfg)
    labels = state.effective_train.labels
    blocks = []  # each round's block, as the ledger file holds them
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
        blocks.append(state.chain.head)
        issued = cfg.total_microtokens - state.remaining
        assert sum(state.chain.balances().values()) == issued
        assert sum(tx.amount_microtokens for b in blocks for tx in b.transactions) == issued
        if state.remaining == 0:
            break

    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a", Path(tmp) / "b"
        run(cfg, first)
        run(cfg, second)
        for name in ARTIFACTS:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        # the run's ledger file holds the blocks the stepped rounds made, and verifies
        assert list(iter_blocks(first / "ledger.ftlg")) == blocks


@st.composite
def oracle_configs(draw, aggregation, loss):
    n_clients = draw(st.integers(2, 5))
    m_fraction = draw(st.sampled_from([0.6, 1.0]))
    rounds = draw(st.integers(1, 3))
    # every [tokens] key: the widest total, a pool down to one microtoken and
    # set-asides up to twice the round's pool, so that the pool clips them
    total_tokens = draw(st.one_of(st.integers(1, 20), st.just(MAX_AMOUNT // 10**6)))
    per_round = draw(st.none() | st.integers(1, total_tokens * 10**6))
    pool = per_round or total_tokens * 10**6 // rounds
    return validate(ExperimentConfig(
        seed=draw(st.integers(0, 2**31)),
        aggregation=aggregation,
        n_samples=draw(st.integers(8 * n_clients + 8, 80)),
        dim=draw(st.integers(1, 3)),
        partition_scheme=draw(st.sampled_from(["iid", "label-shards", "dirichlet"])),
        loss=loss,
        lam=draw(st.sampled_from([0.05, 0.5])),
        nu=draw(st.sampled_from(["auto", 0.5])),
        local_passes=draw(st.sampled_from([1, 2])),
        n_clients=n_clients,
        m_fraction=m_fraction,
        quota=draw(st.integers(1, ceil_share(m_fraction, n_clients))),
        rounds=rounds,
        delta=draw(st.integers(1, 3)),
        eps=draw(st.sampled_from([0.0, 0.05])),
        weighting=draw(st.sampled_from(["mean", "sum"])),
        allocation=draw(st.sampled_from(["pf", "ep"])),
        zeta=draw(st.sampled_from([0.1, 0.5, 0.7, 0.999999])),
        participation_for_selected=draw(st.booleans()),
        per_round_microtokens=per_round,
        participation_base_microtokens=draw(st.none() | st.integers(0, 2 * pool)
                                            | st.integers(pool // 2, 2 * pool)),
        poison_clients=tuple(sorted(draw(st.sets(st.integers(0, n_clients - 1), max_size=1)))),
        total_tokens=total_tokens,
    ))


@pytest.mark.parametrize("loss", losses.LOSS_KINDS)
@pytest.mark.parametrize("aggregation", AGGREGATION_POLICIES)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_round_matches_the_plain_reference_run(aggregation, loss, data):
    cfg = data.draw(oracle_configs(aggregation, loss))
    with tempfile.TemporaryDirectory() as tmp:
        run(cfg, tmp)
        got = list(read_metrics(Path(tmp) / "metrics.jsonl"))[:-1]
    for g in got:  # the record's JSON keys and lists, as the program's ints and tuples
        g["contributions"] = {int(c): v for c, v in g["contributions"].items()}
        for field in ("selected", "rejected", "flagged"):
            g[field] = tuple(g[field])
    want = oracle_run(cfg, [g["contributions"] or None for g in got])
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for field in ("round", "selected", "rejected", "flagged", "block_hash",
                      "utility_queries"):
            assert g[field] == w[field], (g["round"], field)
        for field in ("test_loss", "duality_gap"):
            assert close(g[field], w[field]), (g["round"], field)
        assert sorted(g["contributions"]) == sorted(w["contributions"])
        for c, v in w["contributions"].items():
            assert close(g["contributions"][c], v), (g["round"], c)
