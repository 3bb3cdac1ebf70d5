import numpy as np
import pytest

from fedtoken.config import ExperimentConfig, validate, with_overrides
from fedtoken.dual import phi_of_alpha
from fedtoken.harness import build_simulation
from fedtoken.rng import RngStream
from fedtoken.scheduler import (FEDAVG_ALL, FEDTOKEN, RANDOM_QUOTA, RoundPlan,
                                SelectionResult, aggregate, round_step,
                                sample_cohort, select_top_q)
from fedtoken.valuation import ContributionVector


def make_cfg(**overrides):
    base = dict(seed=3, n_clients=8, m_fraction=1.0, quota=4, rounds=6,
                n_samples=160, dim=4, separation=3.0, lam=0.05,
                loss="logistic", delta=4, eps=0.0, total_tokens=1000,
                partition_scheme="iid", local_passes=1)
    base.update(overrides)
    return validate(ExperimentConfig(**base))


def _cv(u):
    return ContributionVector(u=u, permutations_used=1)


def test_cohort_size_and_determinism():
    stream = RngStream(5)
    cohort = sample_cohort(100, 0.1, 1, stream)
    assert len(cohort) == 10 == len(set(cohort))
    assert cohort == sample_cohort(100, 0.1, 1, RngStream(5))
    assert cohort != sample_cohort(100, 0.1, 2, stream)


def test_full_fraction_takes_everyone():
    assert sample_cohort(7, 1.0, 3, RngStream(0)) == tuple(range(7))


def test_select_top_q_orders_and_flags():
    sel = select_top_q(_cv({0: 0.3, 1: 0.1, 2: -0.2}), quota=2)
    assert sel.selected == (0, 1)
    assert sel.flagged_non_contributing == (2,)
    assert sel.rejected == ()


def test_select_top_q_all_nonpositive():
    sel = select_top_q(_cv({0: -1.0, 1: 0.0, 2: -0.5}), quota=3)
    assert sel.selected == ()
    assert set(sel.flagged_non_contributing) == {0, 1, 2}


def test_select_top_q_flags_nan_contributions():
    sel = select_top_q(_cv({0: 0.3, 1: float("nan"), 2: -0.2, 3: 0.1}), quota=1)
    assert sel.selected == (0,)
    assert sel.rejected == (3,)
    assert sel.flagged_non_contributing == (1, 2)


def test_select_top_q_tie_breaks_to_lower_id():
    sel = select_top_q(_cv({7: 0.5, 3: 0.5}), quota=1)
    assert sel.selected == (3,)
    assert sel.rejected == (7,)


def test_aggregate_single_and_mean():
    phi = np.array([1.0, 2.0])
    delta = np.array([0.5, -1.0])
    one = aggregate(phi, SelectionResult((0,), (), ()), {0: delta}, nu=1.0)
    assert np.array_equal(one, phi + delta)
    two = aggregate(phi, SelectionResult((0, 1), (), ()),
                    {0: delta, 1: delta.copy()}, nu=0.5)
    assert np.allclose(two, phi + delta)
    empty = aggregate(phi, SelectionResult((), (), (0,)), {0: delta}, nu=1.0)
    assert np.array_equal(empty, phi)


def test_aggregate_matches_plain_average():
    gen = np.random.Generator(np.random.PCG64(2))
    deltas = {c: gen.standard_normal(3) for c in range(5)}
    phi = gen.standard_normal(3)
    got = aggregate(phi, SelectionResult(tuple(range(5)), (), ()), deltas, nu=1.0 / 5)
    direct = phi + sum(deltas[c] for c in range(5)) / 5.0
    assert np.allclose(got, direct, atol=1e-15)


def _run_rounds(cfg, n):
    state = build_simulation(cfg)
    metrics = [round_step(state, cfg) for _ in range(n)]
    return state, metrics


def test_round_plan_validation():
    with pytest.raises(ValueError):
        RoundPlan(1, (0, 0, 1), 2)
    with pytest.raises(ValueError):
        RoundPlan(1, (0, 1), 3)


def test_phi_alpha_consistency_across_policies():
    cfg = make_cfg(rounds=9)
    state = build_simulation(cfg)
    policies = [FEDTOKEN, FEDAVG_ALL, RANDOM_QUOTA] * 3
    for policy in policies:
        stepped = with_overrides(cfg, aggregation=policy)
        round_step(state, stepped)
        rebuilt = phi_of_alpha(state.alpha, state.effective_train, cfg.lam)
        scale = max(np.linalg.norm(rebuilt), 1e-12)
        assert np.linalg.norm(state.model.phi - rebuilt) / scale < 1e-10


def test_quota_bound_holds_every_round():
    cfg = make_cfg(quota=2, rounds=5)
    state, metrics = _run_rounds(cfg, 5)
    for m in metrics:
        assert len(m.selected) <= 2


def test_infinite_eps_freezes_the_model():
    cfg = make_cfg(eps=float("inf"), rounds=3)
    state, metrics = _run_rounds(cfg, 3)
    assert np.array_equal(state.model.phi, np.zeros(cfg.dim))
    for m in metrics:
        assert m.selected == ()
        assert set(m.flagged) == set(range(cfg.n_clients))
        assert m.tokens_contribution == 0 and m.tokens_participation == 0


def test_fedtoken_equals_fedavg_when_quota_covers_everyone():
    # sum weighting keeps every helpful delta's marginal positive from the
    # zero model, so the all-positive premise holds in the early rounds
    cfg_ft = make_cfg(seed=12, quota=8, nu=1.0 / 8, separation=5.0, rounds=3,
                      weighting="sum")
    cfg_fa = with_overrides(cfg_ft, aggregation=FEDAVG_ALL)
    st_ft = build_simulation(cfg_ft)
    st_fa = build_simulation(cfg_fa)
    compared = 0
    for _ in range(3):
        m_ft = round_step(st_ft, cfg_ft)
        round_step(st_fa, cfg_fa)
        if any(v <= 0 for v in m_ft.contributions.values()):
            break
        assert np.array_equal(st_ft.model.phi, st_fa.model.phi)
        compared += 1
    assert compared >= 1


def test_fully_flipped_client_is_usually_flagged():
    cfg = make_cfg(seed=21, n_clients=6, quota=3, rounds=8,
                   poison_clients=(0,), flip_fraction=1.0, delta=6,
                   separation=4.0)
    state, metrics = _run_rounds(cfg, 8)
    flagged_rounds = sum(1 for m in metrics if 0 in m.flagged)
    assert flagged_rounds >= 5
    selected_rounds = sum(1 for m in metrics if 0 in m.selected)
    assert selected_rounds == 0


def test_random_quota_is_deterministic_and_valuation_free():
    cfg = make_cfg(aggregation=RANDOM_QUOTA, rounds=4)
    _, metrics_a = _run_rounds(cfg, 4)
    _, metrics_b = _run_rounds(cfg, 4)
    for a, b in zip(metrics_a, metrics_b):
        assert a.selected == b.selected
        assert a.contributions == {} and a.utility_queries == 0
        assert len(a.selected) == cfg.resolved_quota


def test_bytes_accounting_counts_cohort_and_selected():
    cfg = make_cfg(rounds=3, quota=2)
    state, metrics = _run_rounds(cfg, 3)
    per_upload = 8 * cfg.dim + 64
    assert metrics[-1].uploaded_bytes == 3 * cfg.n_clients * per_upload
    expected_committed = sum(len(m.selected) for m in metrics) * per_upload
    assert metrics[-1].committed_bytes == expected_committed


def test_gap_is_nonincreasing_under_fedavg():
    cfg = make_cfg(aggregation=FEDAVG_ALL, rounds=10, loss="squared", lam=0.1)
    _, metrics = _run_rounds(cfg, 10)
    gaps = [m.duality_gap for m in metrics]
    for earlier, later in zip(gaps, gaps[1:]):
        assert later <= earlier + 1e-8
