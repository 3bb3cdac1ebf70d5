import math
from itertools import combinations, permutations

import numpy as np
import pytest

from fedtoken import data, losses, valuation
from fedtoken.data import Dataset
from fedtoken.rng import RngStream
from fedtoken.valuation import (UtilityContext, draw_permutations, efficiency_residual,
                                tmc_shapley)
from oracles import GameUtility, OracleSizeError, exact_shapley, scalar_fisher_yates


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


def _sampled(seed, players, count):
    """``count`` permutations of ``players`` drawn from a test stream."""
    return draw_permutations(RngStream(seed, purpose="perms").generator(), tuple(players),
                             count)


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
    # v_ref is scored the way every subset is, not by a direct test-set pass
    for loss in losses.LOSS_KINDS:
        ctx = UtilityContext(np.zeros(3), {0: np.array([0.5, 0.0, 0.0])}, _test_set(0), loss)
        assert ctx.value(0) == 0.0, loss


def test_all_zero_deltas_score_zero_everywhere():
    zeros = {c: np.zeros(3) for c in range(3)}
    ctx = _model_ctx(zeros)
    for k in range(4):
        for combo in combinations(range(3), k):
            assert ctx.value(ctx.mask(combo)) == pytest.approx(0.0, abs=1e-15)


def test_helpful_delta_beats_zero_delta():
    test = _test_set(3)
    # a step toward the separating direction helps, a zero step does not
    helpful = np.array([1.0, 0.0, 0.0])
    ctx = UtilityContext(np.zeros(3), {0: helpful, 1: np.zeros(3)}, test,
                         losses.LOGISTIC)
    assert ctx.value(ctx.bit(0)) > ctx.value(ctx.bit(1))


def test_converged_local_solve_produces_positive_utility():
    from fedtoken.data import ClientPartition, synth_gaussian
    from fedtoken.dual import Cohort, GlobalModel, Hyperparams, local_solve
    train = synth_gaussian(60, 3, 3.0, RngStream(2, purpose="synth-data"))
    test = synth_gaussian(60, 3, 3.0, RngStream(3, purpose="synth-data"))
    part = ClientPartition(0, tuple(range(60)))
    upd = local_solve(Cohort((part,)), train, np.zeros(60), GlobalModel(np.zeros(3)),
                      losses.LOGISTIC, Hyperparams(lam=0.05, local_passes=30),
                      RngStream(4, purpose="local-solve")).updates[0]
    ctx = UtilityContext(np.zeros(3), {0: upd.delta_phi, 1: np.zeros(3)},
                         test, losses.LOGISTIC)
    assert ctx.value(ctx.bit(0)) > ctx.value(ctx.bit(1)) == 0.0


def test_unknown_client_is_a_lookup_error():
    ctx = _model_ctx({0: np.zeros(3)})
    with pytest.raises(LookupError):
        ctx.mask({7})


def test_unknown_id_in_explicit_permutations_is_a_lookup_error():
    ctx = _model_ctx({0: np.zeros(3), 1: np.zeros(3)})
    with pytest.raises(LookupError):
        tmc_shapley(ctx, (0, 1), [(0, 7, 1)], 0.0)


def test_mask_beyond_the_known_clients_is_a_lookup_error():
    # five clients own bits 0 to 4; a failed query leaves the running sums
    # and both counters intact
    ctx, fresh = (_model_ctx(_five_client_deltas()) for _ in range(2))
    ctx.value(0b11)
    for key in (1 << 5, 0b100011, -1):
        with pytest.raises(LookupError):
            ctx.value(key)
    assert (ctx.queries, ctx.evaluations) == (1, 1)
    for key in (0b111, 0b1):
        assert ctx.value(key).hex() == fresh.value(key).hex()


def test_a_numpy_integer_mask_scores_as_the_int_mask():
    # from mask 0b11, mask 0b11100 changes more bits than it sets, so the
    # running sums restart from zero before they add its rows
    ctx, fresh = (_model_ctx(_five_client_deltas()) for _ in range(2))
    ctx.value(0b11)
    assert ctx.value(np.int64(0b11100)).hex() == fresh.value(0b11100).hex()
    for key in (0b111, 0b1):
        assert ctx.value(key).hex() == fresh.value(key).hex()
    with pytest.raises(TypeError):
        ctx.value(5.0)
    assert (ctx.queries, ctx.evaluations) == (4, 4)


@pytest.mark.parametrize("make", [lambda: _model_ctx(_five_client_deltas()),
                                  lambda: GameUtility(lambda s: float(sum(s)))],
                         ids=["context", "game"])
def test_a_float_key_raises_before_and_after_its_mask_is_cached(make):
    # 3.0 hashes and compares equal to 3, so a lookup before the type
    # check would find mask 3's entry once it is cached
    ctx = make()
    ctx.mask(_five_client_deltas())  # the game numbers its ids on first sight
    with pytest.raises(TypeError):
        ctx.value(3.0)
    assert (ctx.queries, ctx.evaluations) == (0, 0)
    ctx.value(3)
    for key in (3.0, np.float64(3.0)):
        with pytest.raises(TypeError):
            ctx.value(key)
    assert (ctx.queries, ctx.evaluations) == (1, 1)


@pytest.mark.parametrize("make", [lambda: _model_ctx(_five_client_deltas()),
                                  lambda: GameUtility(lambda s: float(sum(s)) ** 0.5)],
                         ids=["context", "game"])
def test_mask_and_id_queries_share_one_cache_entry(make):
    ctx = make()
    ids = (9, 25, 33)
    key = ctx.bit(9) | ctx.bit(25) | ctx.bit(33)
    assert key.bit_count() == 3
    by_bits = ctx.value(key)
    assert (ctx.queries, ctx.evaluations) == (1, 1)
    # any iterable of ids, in any order and with repeats, masks to the same key
    for members in (ids, frozenset(ids), [33, 9, 25, 9]):
        assert ctx.mask(members) == key
        assert ctx.value(ctx.mask(members)).hex() == by_bits.hex()
    assert (ctx.queries, ctx.evaluations) == (4, 1)
    # a query takes the mask only: ids in its place count nothing
    for members in (frozenset(ids), [33, 9, 25], ids):
        with pytest.raises(TypeError):
            ctx.value(members)
    assert (ctx.queries, ctx.evaluations) == (4, 1)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 40, 100])
@pytest.mark.parametrize("count", [1, 32])
def test_batched_permutation_draw_matches_one_draw_per_swap(n, count):
    # pins the numpy behaviour the batched draw relies on: an array of bounds
    # yields the indices, and leaves the stream, as scalar draws do
    items = tuple(range(100, 100 + n))
    for seed in range(50):
        gen_a = np.random.Generator(np.random.PCG64(seed))
        gen_b = np.random.Generator(np.random.PCG64(seed))
        batched = draw_permutations(gen_a, items, count)
        scalar = [scalar_fisher_yates(gen_b, items) for _ in range(count)]
        assert batched == scalar, (seed, n, count)
        assert gen_a.bit_generator.state == gen_b.bit_generator.state, (seed, n, count)


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
            assert abs(ctx.value(ctx.mask(combo)) - expected) <= 1e-12


def test_subset_values_do_not_depend_on_the_permutation_that_reached_them():
    deltas = _five_client_deltas()
    players = tuple(sorted(deltas))
    test = _test_set(5)
    for loss in losses.LOSS_KINDS:
        ctxs = [UtilityContext(np.zeros(3), deltas, test, loss) for _ in range(2)]
        for ctx, seed in zip(ctxs, (1, 2)):
            tmc_shapley(ctx, players, _sampled(seed, players, 30), 0.0)
        for k in range(len(players) + 1):
            for combo in combinations(players, k):
                a, b = (ctx.value(ctx.mask(combo)) for ctx in ctxs)
                assert a.hex() == b.hex(), (loss, combo)


def _check_every_subset_against_its_candidate_model(loss, n_test, m, d, weighting, nu):
    gen = np.random.Generator(np.random.PCG64(13))
    labels = np.array([1.0, -1.0] * (n_test // 2))
    test = Dataset(gen.standard_normal((n_test, d)) + 0.8 * labels[:, None], labels)
    phi_t = 0.1 * gen.standard_normal(d)
    deltas = {c: 0.3 * gen.standard_normal(d) for c in range(m)}
    ctx = UtilityContext(phi_t, deltas, test, loss, weighting=weighting, nu=nu)
    v_ref = losses.mean_loss(loss, phi_t, test.features, test.labels)
    for key in gen.permutation(1 << m).tolist():
        members = [c for c in range(m) if key >> c & 1]
        scale = nu if weighting == "sum" else 1.0 / max(len(members), 1)
        model = phi_t + scale * sum((deltas[c] for c in members), np.zeros(d))
        expected = v_ref - losses.mean_loss(loss, model, test.features, test.labels)
        assert abs(ctx.value(key) - expected) <= 1e-12, members


@pytest.mark.parametrize("n_test,m,d", [(2000, 10, 20), (4, 10, 3), (4, 10, 8),
                                         (300, 10, 5)],
                         ids=["tall", "fewer-rows-than-clients",
                              "fewer-rows-than-columns", "part-block"])
@pytest.mark.parametrize("weighting,nu", [("mean", 1.0), ("sum", 0.3)])
def test_squared_value_on_the_compressed_test_set_matches_the_candidate_model(
        n_test, m, d, weighting, nu):
    # a squared context scores every subset on the test set's triangular
    # factor, min(n_test, d + 1) rows, not n_test
    _check_every_subset_against_its_candidate_model(losses.SQUARED, n_test, m, d,
                                                    weighting, nu)


def test_squared_contexts_on_one_test_set_share_one_factor(monkeypatch):
    builds = []
    real = data.streamed_r_factor

    def counted(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(data, "streamed_r_factor", counted)
    test = _test_set(4)
    gen = np.random.Generator(np.random.PCG64(4))
    UtilityContext(np.zeros(3), {c: gen.standard_normal(3) for c in range(4)}, test,
                   losses.LOGISTIC)
    assert builds == []
    for round_ in range(2):
        deltas = {c: gen.standard_normal(3) for c in range(3 + round_)}
        UtilityContext(gen.standard_normal(3), deltas, test, losses.SQUARED)
    factor = test.triangular_factor
    assert test.triangular_factor is factor
    assert len(builds) == 1
    assert not factor.flags.writeable


@pytest.mark.parametrize("weighting,nu", [("mean", 1.0), ("sum", 0.3)])
def test_logistic_value_on_the_folded_margins_matches_the_candidate_model(weighting, nu):
    # a logistic context scores the candidate's margins, the labels folded
    # into its score columns when it is built
    _check_every_subset_against_its_candidate_model(losses.LOGISTIC, 2000, 10, 20,
                                                    weighting, nu)


@pytest.mark.parametrize("eps", [0.0, 0.05])
def test_each_utility_evaluation_makes_one_mean_loss_call(monkeypatch, eps):
    # the benchmark's tracer counts evaluations as the mean_loss calls made
    # inside UtilityContext.value; the one extra call scores v_ref
    calls = []
    real = losses.mean_loss

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(valuation.losses, "mean_loss", counted)
    gen = np.random.Generator(np.random.PCG64(12))
    deltas = {c: 0.5 * gen.standard_normal(3) for c in range(6)}
    ctx = _model_ctx(deltas)
    tmc_shapley(ctx, tuple(range(6)), _sampled(6, range(6), 12), eps)
    assert ctx.queries > ctx.evaluations > 0
    assert len(calls) == ctx.evaluations + 1


def _scaled_deltas(case):
    gen = np.random.Generator(np.random.PCG64(31))
    raw = [gen.standard_normal(3) for _ in range(6)]
    if case == "zero":
        scales = [0.0] * 6
    elif case == "tiny":
        # the finer of the two grids falls below 2**-1074 and is clamped
        scales = [1e-300 * (1 + c) for c in range(6)]
    else:
        # on the coarse grid alone the smallest clients' scores round away
        scales = list(np.logspace(-8, 8, 6))
    return {c: s * r for c, (s, r) in enumerate(zip(scales, raw))}


@pytest.mark.parametrize("loss", losses.LOSS_KINDS)
@pytest.mark.parametrize("case", ["zero", "tiny", "wide"])
def test_snapped_scores_give_path_independent_exact_subset_values(loss, case):
    # the suite turns a RuntimeWarning into a failure (pyproject.toml)
    deltas = _scaled_deltas(case)
    players = tuple(sorted(deltas))
    subsets = [s for k in range(len(players) + 1) for s in combinations(players, k)]
    test = _test_set(6)
    phi_t = np.array([0.2, -0.1, 0.05])

    def context():
        return UtilityContext(phi_t, deltas, test, loss)

    gen = np.random.Generator(np.random.PCG64(8))
    filled = []
    for _ in range(30):
        ctx = context()
        perm = tuple(int(p) for p in gen.permutation(players))
        tmc_shapley(ctx, players, [perm], 0.0)
        for i in gen.permutation(len(subsets)):
            ctx.value(ctx.mask(subsets[i]))
        filled.append(ctx)
    ctx = context()
    exact_shapley(ctx, players)
    filled.append(ctx)

    v_ref = losses.mean_loss(loss, phi_t, test.features, test.labels)
    for s in subsets:
        values = {ctx.value(ctx.mask(s)).hex() for ctx in filled}
        assert len(values) == 1, (s, values)
        v = float.fromhex(values.pop())
        model = phi_t + (1.0 / len(s)) * sum(deltas[c] for c in s) if s else phi_t
        expected = v_ref - losses.mean_loss(loss, model, test.features, test.labels)
        assert abs(v - expected) <= 1e-12 * max(1.0, abs(expected)), s
        if case == "zero":
            assert v == 0.0


def test_exact_shapley_singleton():
    players, game = _table_game(1, seed=5)
    result = exact_shapley(game, players)
    expected = game.value(game.bit(0)) - game.value(0)
    assert result.u[0] == pytest.approx(expected, abs=1e-12)


def test_exact_shapley_two_player_formula():
    players, game = _table_game(2, seed=6)
    result = exact_shapley(game, players)
    v = game.value
    b0, b1 = game.bit(0), game.bit(1)
    expected0 = 0.5 * (v(b0) - v(0)) + 0.5 * (v(b0 | b1) - v(b1))
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
    result = tmc_shapley(game, players, _sampled(1, players, 8), math.inf)
    assert all(v == 0.0 for v in result.u.values())


def test_tmc_full_enumeration_matches_exact():
    for m in (2, 3, 4, 5):
        players, game = _table_game(m, seed=40 + m)
        exact = exact_shapley(game, players)
        approx = tmc_shapley(game, players, permutations(players), 0.0)
        assert approx.permutations_used == math.factorial(m)
        for p in players:
            assert approx.u[p] == pytest.approx(exact.u[p], abs=1e-9)
        assert abs(efficiency_residual(approx, game, players)) <= 1e-9


def test_tmc_sampled_is_close_to_exact():
    deltas = {c: np.array([0.3 * (c + 1), 0.05 * c, 0.0]) for c in range(4)}
    deltas[3] = np.array([-0.5, 0.2, 0.0])
    ctx = _model_ctx(deltas)
    exact = exact_shapley(ctx, tuple(range(4)))
    approx = tmc_shapley(ctx, tuple(range(4)), _sampled(9, range(4), 5000), 0.0)
    values = [ctx.value(ctx.mask(s)) for k in range(5) for s in combinations(range(4), k)]
    spread = max(values) - min(values)
    for c in range(4):
        assert abs(approx.u[c] - exact.u[c]) <= 0.05 * spread


def test_tmc_symmetric_deltas_get_equal_values_under_enumeration():
    delta = np.array([0.25, -0.1, 0.05])
    deltas = {c: delta.copy() for c in range(4)}
    ctx = _model_ctx(deltas)
    result = tmc_shapley(ctx, tuple(range(4)), permutations(range(4)), 0.0)
    vals = list(result.u.values())
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], abs=1e-12)


def test_tmc_is_deterministic_given_the_stream():
    players, game_a = _table_game(5, seed=77)
    _, game_b = _table_game(5, seed=77)
    a = tmc_shapley(game_a, players, _sampled(4, players, 20), 0.01)
    b = tmc_shapley(game_b, players, _sampled(4, players, 20), 0.01)
    assert a.u == b.u


def test_truncation_dominance_in_query_counts():
    players, _ = _table_game(5, seed=88)
    counts = {}
    for eps in (0.0, 0.2, 1.0, math.inf):
        _, game = _table_game(5, seed=88)
        tmc_shapley(game, players, _sampled(2, players, 30), eps)
        counts[eps] = game.queries
    assert counts[0.0] >= counts[0.2] >= counts[1.0] >= counts[math.inf]


def test_aggressive_truncation_breaks_efficiency():
    players, game = _table_game(4, seed=91)
    result = tmc_shapley(game, players, _sampled(3, players, 12), 10.0)
    assert abs(efficiency_residual(result, game, players)) > 1e-6


def test_cache_shares_work_across_permutations():
    players, game = _table_game(4, seed=95)
    tmc_shapley(game, players, permutations(players), 0.0)
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
