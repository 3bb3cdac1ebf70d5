import math
from itertools import combinations

import numpy as np
import pytest

from fedtoken import losses
from fedtoken.data import Dataset
from fedtoken.rng import RngStream
from fedtoken.valuation import (GameUtility, OracleSizeError,
                                PermutationPlan, UtilityContext,
                                all_permutations_plan, efficiency_residual,
                                exact_shapley, tmc_shapley)


def _test_set(seed=0, n=40, d=3):
    gen = np.random.Generator(np.random.PCG64(seed))
    labels = np.array([1.0, -1.0] * (n // 2))
    feats = gen.standard_normal((n, d)) + 0.8 * labels[:, None] * np.array([1.0, 0.0, 0.0])
    return Dataset(feats, labels)


def _model_ctx(deltas, weighting="mean", nu=1.0, seed=0):
    test = _test_set(seed)
    phi_t = np.zeros(test.d)
    return UtilityContext(phi_t, deltas, test, losses.LOGISTIC,
                          weighting=weighting, nu=nu)


def _table_game(m, seed, empty_zero=True):
    gen = np.random.Generator(np.random.PCG64(seed))
    players = tuple(range(m))
    table = {}
    for k in range(m + 1):
        for combo in combinations(players, k):
            table[frozenset(combo)] = float(gen.normal())
    if empty_zero:
        table[frozenset()] = 0.0
    return players, GameUtility(lambda s: table[s])


def test_empty_subset_scores_zero_with_default_reference():
    ctx = _model_ctx({0: np.array([0.5, 0.0, 0.0])})
    assert ctx.value(frozenset()) == 0.0


def test_all_zero_deltas_score_zero_everywhere():
    zeros = {c: np.zeros(3) for c in range(3)}
    ctx = _model_ctx(zeros)
    for k in range(4):
        for combo in combinations(range(3), k):
            assert ctx.value(frozenset(combo)) == pytest.approx(0.0, abs=1e-15)


def test_helpful_delta_beats_zero_delta():
    test = _test_set(3)
    # a step toward the separating direction helps, a zero step does not
    helpful = np.array([1.0, 0.0, 0.0])
    ctx = UtilityContext(np.zeros(3), {0: helpful, 1: np.zeros(3)}, test,
                         losses.LOGISTIC)
    assert ctx.value(frozenset({0})) > ctx.value(frozenset({1}))


def test_converged_local_solve_produces_positive_utility():
    from fedtoken.data import ClientPartition, synth_gaussian
    from fedtoken.dual import DualState, GlobalModel, Hyperparams, local_solve
    train = synth_gaussian(60, 3, 3.0, RngStream(2, purpose="synth-data"))
    test = synth_gaussian(60, 3, 3.0, RngStream(3, purpose="synth-data"))
    part = ClientPartition(0, tuple(range(60)))
    upd = local_solve(part, train, DualState(0, {}), GlobalModel(np.zeros(3), 0),
                      losses.LOGISTIC, Hyperparams(lam=0.05, local_passes=30),
                      RngStream(4, purpose="local-solve"))
    ctx = UtilityContext(np.zeros(3), {0: upd.delta_phi, 1: np.zeros(3)},
                         test, losses.LOGISTIC)
    assert ctx.value(frozenset({0})) > ctx.value(frozenset({1})) == 0.0


def test_unknown_client_is_a_lookup_error():
    ctx = _model_ctx({0: np.zeros(3)})
    with pytest.raises(LookupError):
        ctx.value(frozenset({7}))


def _five_client_deltas(seed=21):
    # ids equal mod 8 share a hash slot, so a frozenset of them iterates in
    # the order its members were added, not in sorted order
    gen = np.random.Generator(np.random.PCG64(seed))
    return {c: 0.5 * gen.standard_normal(3) for c in (1, 9, 17, 25, 33)}


@pytest.mark.parametrize("loss", losses.LOSS_KINDS)
@pytest.mark.parametrize("weighting,nu", [("mean", 1.0), ("sum", 0.3)])
def test_value_matches_the_explicit_candidate_model(loss, weighting, nu):
    test = _test_set(4)
    phi_t = np.array([0.2, -0.1, 0.05])
    deltas = _five_client_deltas()
    ctx = UtilityContext(phi_t, deltas, test, loss, weighting=weighting, nu=nu)
    v_ref = losses.mean_loss(loss, phi_t, test.features, test.labels)
    for k in range(len(deltas) + 1):
        for combo in combinations(sorted(deltas), k):
            model = phi_t
            if combo:
                scale = 1.0 / k if weighting == "mean" else nu
                model = phi_t + scale * sum(deltas[c] for c in combo)
            expected = v_ref - losses.mean_loss(loss, model, test.features, test.labels)
            assert abs(ctx.value(frozenset(combo)) - expected) <= 1e-12


def test_subset_values_do_not_depend_on_the_permutation_that_reached_them():
    deltas = _five_client_deltas()
    players = tuple(sorted(deltas))
    test = _test_set(5)
    ctxs = [UtilityContext(np.zeros(3), deltas, test, losses.LOGISTIC) for _ in range(2)]
    for ctx, seed in zip(ctxs, (1, 2)):
        plan = PermutationPlan(delta=30, eps=0.0, stream=RngStream(seed, purpose="perms"))
        tmc_shapley(ctx, players, plan)
    for k in range(len(players) + 1):
        for combo in combinations(players, k):
            a = ctxs[0].value(frozenset(combo))
            b = ctxs[1].value(frozenset(combo))
            assert a.hex() == b.hex(), combo


def test_exact_shapley_singleton():
    players, game = _table_game(1, seed=5)
    result = exact_shapley(game, players)
    expected = game.value({0}) - game.value(frozenset())
    assert result.u[0] == pytest.approx(expected, abs=1e-12)


def test_exact_shapley_two_player_formula():
    players, game = _table_game(2, seed=6)
    result = exact_shapley(game, players)
    v = game.value
    expected0 = 0.5 * (v({0}) - v(frozenset())) + 0.5 * (v({0, 1}) - v({1}))
    assert result.u[0] == pytest.approx(expected0, abs=1e-12)


def test_exact_shapley_recovers_additive_games():
    gen = np.random.Generator(np.random.PCG64(17))
    coeffs = {c: float(gen.normal()) for c in range(5)}
    game = GameUtility(lambda s: sum(coeffs[c] for c in s))
    result = exact_shapley(game, tuple(range(5)))
    for c in range(5):
        assert result.u[c] == pytest.approx(coeffs[c], abs=1e-9)


def test_exact_shapley_size_limit():
    game = GameUtility(lambda s: float(len(s)))
    with pytest.raises(OracleSizeError):
        exact_shapley(game, tuple(range(11)))


def test_symmetry_of_identical_deltas():
    delta = np.array([0.4, -0.2, 0.1])
    ctx = _model_ctx({0: delta.copy(), 1: delta.copy(), 2: np.array([0.1, 0.0, 0.0])})
    result = exact_shapley(ctx, (0, 1, 2))
    assert result.u[0] == pytest.approx(result.u[1], abs=1e-9)


def test_null_player_is_exact_in_sum_form():
    deltas = {0: np.array([0.5, 0.1, 0.0]), 1: np.zeros(3),
              2: np.array([-0.2, 0.3, 0.0])}
    ctx = _model_ctx(deltas, weighting="sum", nu=0.5)
    result = exact_shapley(ctx, (0, 1, 2))
    assert result.u[1] == pytest.approx(0.0, abs=1e-12)


def test_efficiency_residual_is_tiny_in_exact_mode():
    for seed in range(6):
        players, game = _table_game(4, seed=seed)
        result = exact_shapley(game, players)
        assert abs(efficiency_residual(result, game, players)) <= 1e-9


def test_tmc_with_infinite_eps_gives_all_zeros():
    players, game = _table_game(4, seed=30)
    plan = PermutationPlan(delta=8, eps=math.inf, stream=RngStream(1, purpose="perms"))
    result = tmc_shapley(game, players, plan)
    assert all(v == 0.0 for v in result.u.values())


def test_tmc_full_enumeration_matches_exact():
    for m in (2, 3, 4, 5):
        players, game = _table_game(m, seed=40 + m)
        exact = exact_shapley(game, players)
        approx = tmc_shapley(game, players, all_permutations_plan(players, eps=0.0))
        for p in players:
            assert approx.u[p] == pytest.approx(exact.u[p], abs=1e-9)
        assert abs(efficiency_residual(approx, game, players)) <= 1e-9


def test_tmc_sampled_is_close_to_exact():
    deltas = {c: np.array([0.3 * (c + 1), 0.05 * c, 0.0]) for c in range(4)}
    deltas[3] = np.array([-0.5, 0.2, 0.0])
    ctx = _model_ctx(deltas)
    exact = exact_shapley(ctx, tuple(range(4)))
    plan = PermutationPlan(delta=5000, eps=0.0, stream=RngStream(9, purpose="perms"))
    approx = tmc_shapley(ctx, tuple(range(4)), plan)
    values = [ctx.value(frozenset(s)) for k in range(5)
              for s in combinations(range(4), k)]
    spread = max(values) - min(values)
    for c in range(4):
        assert abs(approx.u[c] - exact.u[c]) <= 0.05 * spread


def test_tmc_symmetric_deltas_get_equal_values_under_enumeration():
    delta = np.array([0.25, -0.1, 0.05])
    deltas = {c: delta.copy() for c in range(4)}
    ctx = _model_ctx(deltas)
    result = tmc_shapley(ctx, tuple(range(4)), all_permutations_plan(range(4)))
    vals = list(result.u.values())
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], abs=1e-12)


def test_tmc_is_deterministic_given_the_stream():
    players, game_a = _table_game(5, seed=77)
    _, game_b = _table_game(5, seed=77)
    plan = PermutationPlan(delta=20, eps=0.01, stream=RngStream(4, purpose="perms"))
    a = tmc_shapley(game_a, players, plan)
    b = tmc_shapley(game_b, players, plan)
    assert a.u == b.u


def test_truncation_dominance_in_query_counts():
    players, _ = _table_game(5, seed=88)
    counts = {}
    for eps in (0.0, 0.2, 1.0, math.inf):
        _, game = _table_game(5, seed=88)
        plan = PermutationPlan(delta=30, eps=eps, stream=RngStream(2, purpose="perms"))
        tmc_shapley(game, players, plan)
        counts[eps] = game.queries
    assert counts[0.0] >= counts[0.2] >= counts[1.0] >= counts[math.inf]


def test_aggressive_truncation_breaks_efficiency():
    players, game = _table_game(4, seed=91)
    plan = PermutationPlan(delta=12, eps=10.0, stream=RngStream(3, purpose="perms"))
    result = tmc_shapley(game, players, plan)
    assert abs(efficiency_residual(result, game, players)) > 1e-6


def test_cache_shares_work_across_permutations():
    players, game = _table_game(4, seed=95)
    plan = all_permutations_plan(players)
    tmc_shapley(game, players, plan)
    assert game.evaluations <= 2 ** 4
    assert game.queries > game.evaluations


def test_padding_with_null_players_dilutes_the_mean_value():
    # exact-null pads keep the total fixed, so the per-member mean shrinks
    base = {0: np.array([0.6, 0.0, 0.0]), 1: np.array([0.3, 0.1, 0.0]),
            2: np.array([0.2, -0.05, 0.0])}
    means = []
    for pads in range(4):
        deltas = dict(base)
        for k in range(pads):
            deltas[10 + k] = np.zeros(3)
        ctx = _model_ctx(deltas, weighting="sum", nu=0.4)
        result = exact_shapley(ctx, tuple(sorted(deltas)))
        means.append(np.mean(list(result.u.values())))
    assert all(means[i + 1] <= means[i] + 1e-12 for i in range(3))


def test_permutation_plan_validation():
    with pytest.raises(ValueError):
        PermutationPlan(delta=0, eps=0.0, stream=RngStream(1))
    with pytest.raises(ValueError):
        PermutationPlan(delta=2, eps=-1.0, stream=RngStream(1))
    with pytest.raises(ValueError):
        PermutationPlan(delta=2, eps=0.0)
