from hypothesis import given, settings
from hypothesis import strategies as st

from fedtoken.config import ExperimentConfig, validate
from fedtoken.ledger import MAX_AMOUNT
from fedtoken.scheduler import SelectionResult
from fedtoken.tokenomics import _discounted, allocate_ep, allocate_pf, settle_round

from oracles import fraction_allocate_pf, fraction_discounted

M = 10**6
# NaN is left out: select_top_q never selects a NaN contribution
WEIGHTS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300,
                                     -1e300, -1.0, 1.0, 0.1, 1 / 3]),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.floats(-1.0, 1e3))
POOLS = st.one_of(st.integers(0, 1000), st.integers(0, MAX_AMOUNT))


def _cfg(allocation="pf", for_selected=False, per_round=100 * M, p0=M, **tokens):
    """A valid config with these ``[tokens]`` settings; 1000 tokens unless ``tokens`` says."""
    return validate(ExperimentConfig(seed=0, allocation=allocation,
                                     participation_for_selected=for_selected,
                                     per_round_microtokens=per_round,
                                     participation_base_microtokens=p0, **tokens))


def _participation(sel, t, cfg=None):
    cfg = cfg or _cfg()
    return settle_round(cfg, cfg.total_microtokens, None, sel, t)[0].participation_awards


def _selection(selected=(), rejected=(), flagged=()):
    return SelectionResult(selected=tuple(selected), rejected=tuple(rejected),
                           flagged_non_contributing=tuple(flagged))


def test_pf_proportional_split():
    shares = allocate_pf({0: 2.0, 1: 1.0, 2: 1.0}, 100 * M)
    assert shares == {0: 50 * M, 1: 25 * M, 2: 25 * M}


def test_pf_clips_negative_contributions():
    assert allocate_pf({0: 1.0, 1: -5.0}, 10 * M) == {0: 10 * M, 1: 0}


def test_pf_largest_remainder():
    assert allocate_pf({0: 1.0, 1: 1.0, 2: 1.0}, 10) == {0: 4, 1: 3, 2: 3}


def test_pf_all_nonpositive_issues_nothing():
    assert allocate_pf({0: -1.0, 1: 0.0}, 5 * M) == {0: 0, 1: 0}


@settings(max_examples=60, deadline=None)
@given(weights=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=8),
       pool=st.integers(0, 10**9))
def test_pf_conserves_and_is_ratio_fair(weights, pool):
    u = {i: w for i, w in enumerate(weights)}
    shares = allocate_pf(u, pool)
    assert sum(shares.values()) == (pool if sum(weights) > 0 else 0)
    total = sum(weights)
    if total > 0 and pool > 0:
        for i, w in u.items():
            assert abs(shares[i] / pool - w / total) <= 1.0 / pool


@settings(max_examples=40, deadline=None)
@given(weights=st.lists(st.integers(0, 1000), min_size=1, max_size=6),
       pool=st.integers(1, 10**7), power=st.integers(-3, 6))
def test_pf_shares_are_scale_invariant(weights, pool, power):
    # power-of-two scalings are exact in floats, so the rule must not move
    u = {i: float(w) for i, w in enumerate(weights)}
    scaled = {i: float(w) * 2.0**power for i, w in enumerate(weights)}
    assert allocate_pf(u, pool) == allocate_pf(scaled, pool)


@settings(max_examples=300, deadline=None)
@given(u=st.dictionaries(st.integers(0, 60), WEIGHTS, max_size=12), pool=POOLS)
def test_pf_integer_split_equals_the_fraction_split(u, pool):
    # the same shares, in the same order, as exact rational quotas give
    assert list(allocate_pf(u, pool).items()) == list(fraction_allocate_pf(u, pool).items())


def test_pf_integer_split_on_extreme_scales():
    for u in ({0: 5e-324, 1: 1e300, 2: 1.0}, {0: 5e-324, 1: 5e-324, 2: 1e-300},
              {3: 1e300, 1: 1e300, 2: -1e300}):
        for pool in (0, 1, 2, 7, 10**6, MAX_AMOUNT):
            assert allocate_pf(u, pool) == fraction_allocate_pf(u, pool)


@settings(max_examples=300, deadline=None)
@given(p0=POOLS, zeta=st.one_of(st.sampled_from([0.7, 0.1, 0.9, 0.999999, 5e-324]),
                                st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
       t=st.integers(0, 200))
def test_discount_on_integers_equals_the_fraction_discount(p0, zeta, t):
    assert _discounted(p0, zeta, t) == fraction_discounted(p0, zeta, t)


def test_ep_equal_split():
    assert allocate_ep([3, 1, 2, 0], 100 * M) == {0: 25 * M, 1: 25 * M, 2: 25 * M, 3: 25 * M}


def test_ep_remainder_to_lowest_ids():
    assert allocate_ep([5, 2, 9], 10) == {2: 4, 5: 3, 9: 3}


def test_ep_single_client_takes_the_pool():
    assert allocate_ep([4], 7 * M) == {4: 7 * M}


def test_ep_empty_selection():
    assert allocate_ep([], 5 * M) == {}


def test_ep_equals_pf_for_equal_contributions():
    ids = [2, 5, 7]
    for pool in (10, 99, 10**6 + 1):
        pf = allocate_pf({i: 3.5 for i in ids}, pool)
        ep = allocate_ep(ids, pool)
        assert pf == ep


def test_participation_discount_at_round_three():
    sel = _selection(selected=(0,), rejected=(1,))
    awards = _participation(sel, 3)
    assert awards[1] == 343000
    assert awards[0] == 0


def test_participation_first_round_is_undiscounted():
    sel = _selection(selected=(0,), rejected=(1,))
    awards = _participation(sel, 1)
    assert awards[1] == M


def test_flagged_clients_get_nothing():
    sel = _selection(selected=(0,), rejected=(1,), flagged=(2,))
    for t in (1, 2, 5):
        awards = _participation(sel, t)
        assert awards[2] == 0


def test_selected_participation_is_a_policy_switch():
    sel = _selection(selected=(0,), rejected=(1,))
    on = _participation(sel, 4, _cfg(for_selected=True))
    assert on[0] == M  # undiscounted for selected clients
    off = _participation(sel, 4, _cfg(for_selected=False))
    assert off[0] == 0


def test_participation_decays_monotonically():
    sel = _selection(selected=(0,), rejected=(1,))
    previous = None
    for t in range(1, 12):
        award = _participation(sel, t)[1]
        if previous is not None:
            assert award <= previous
        previous = award


def test_settle_round_worked_example():
    sel = _selection(selected=(0, 1), rejected=(2, 3))
    allocation, after = settle_round(_cfg(p0=10 * M), 10**9, {0: 3.0, 1: 1.0}, sel, 1)
    assert sum(allocation.participation_awards.values()) == 20 * M
    assert allocation.contribution_awards == {0: 60 * M, 1: 20 * M}
    assert allocation.total_issued == 100 * M
    assert after == 10**9 - 100 * M


def test_settle_round_with_nothing_remaining():
    allocation, after = settle_round(_cfg(per_round=50, p0=1), 0, {0: 1.0},
                                     _selection(selected=(0,)), 1)
    assert allocation.total_issued == 0
    assert after == 0


def test_budget_exhausts_on_schedule():
    # 1000 tokens at 50 tokens per fully spent round runs dry at round 20
    cfg = _cfg(allocation="ep", per_round=50 * M, p0=0, total_tokens=1000)
    remaining = cfg.total_microtokens
    sel = _selection(selected=(0, 1))
    t = 0
    while remaining != 0:
        t += 1
        allocation, remaining = settle_round(cfg, remaining, None, sel, t)
        assert allocation.total_issued == 50 * M
    assert t == 20


def test_equal_pay_policy_used_for_baseline_rounds():
    allocation, _ = settle_round(_cfg(per_round=90, p0=0), 10**9, None,
                                 _selection(selected=(0, 1, 2)), 1)
    assert allocation.contribution_awards == {0: 30, 1: 30, 2: 30}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_settlement_sequences_conserve_the_budget(seed):
    import numpy as np
    gen = np.random.Generator(np.random.PCG64(seed))
    total = int(gen.integers(1, 10**6))
    per_round = int(gen.integers(1, max(total // 2, 2)))
    # the config's 1-token total (10**6 microtokens) only bounds per_round
    cfg = _cfg(allocation="pf" if gen.random() < 0.5 else "ep", per_round=per_round,
               p0=int(gen.integers(0, per_round + 1)), total_tokens=1)
    remaining, issued = total, 0
    for t in range(1, 15):
        if remaining == 0:
            break
        ids = list(range(int(gen.integers(1, 6))))
        u = {i: float(gen.normal()) for i in ids}
        positive = [i for i in ids if u[i] > 0]
        sel = _selection(selected=positive[:2], rejected=positive[2:],
                         flagged=[i for i in ids if u[i] <= 0])
        allocation, remaining = settle_round(cfg, remaining, u, sel, t)
        issued += allocation.total_issued
        assert allocation.total_issued <= per_round
    assert issued == total - remaining
    assert remaining >= 0
