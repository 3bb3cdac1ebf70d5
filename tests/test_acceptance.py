"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see both the per-test
verdicts and the printed evidence lines.  The selection-efficacy scenario
(criteria 6, 7, 11) shares one run matrix via a session fixture.
"""

import math
import time
from itertools import combinations, permutations

import numpy as np
import pytest

from fedtoken import losses
from fedtoken.config import ExperimentConfig, validate, with_overrides
from fedtoken.data import (Dataset, PartitionScheme, load_csv, partition,
                           save_csv, synth_gaussian, train_test_split)
from fedtoken.dual import phi_of_alpha
from fedtoken.harness import build_simulation, run, sweep
from fedtoken.ledger import Chain, verify_file
from fedtoken.rng import RngStream
from fedtoken.scheduler import FEDAVG_ALL, FEDTOKEN, RANDOM_QUOTA, round_step
from fedtoken.tokenomics import (AllocationPolicy, allocate_ep, allocate_pf,
                                 participation_rewards)
from fedtoken.valuation import UtilityContext, efficiency_residual, tmc_shapley
from oracles import GameUtility, exact_shapley

SELECTION_SEEDS = (100, 101, 102, 103, 104)
NEVER = 41  # sentinel: one past the 40-round horizon


def _table_game(m, seed):
    gen = np.random.Generator(np.random.PCG64(seed))
    players = tuple(range(m))
    table = {frozenset(): 0.0}
    for k in range(1, m + 1):
        for combo in combinations(players, k):
            table[frozenset(combo)] = float(gen.normal())
    return players, GameUtility(lambda s: table[s])


def _selection_cfg(seed, policy, csv_path, poison):
    return validate(ExperimentConfig(
        seed=seed, n_clients=10, m_fraction=1.0, quota=5, rounds=40,
        data_source="csv", csv_path=str(csv_path), test_fraction=0.5,
        loss="squared", lam=0.02, nu="auto", aggregation=policy,
        partition_scheme="label-shards", shards_k=1, local_passes=2,
        poison_clients=poison, flip_fraction=1.0, delta=4, eps=0.0,
        total_tokens=100000, target_accuracy=0.7,
    ))


def _write_intercept_task(seed, directory):
    """Two-cluster task with a constant feature, so label flips can shift
    the learned decision boundary instead of merely rescaling it."""
    base = synth_gaussian(2000, 4, 2.0, RngStream(seed, purpose="synth-data"))
    full = Dataset(np.hstack([base.features, np.ones((len(base), 1))]), base.labels)
    path = directory / f"task-{seed}.csv"
    save_csv(full, path)
    return path


def _same_label_poison_pair(seed, csv_path):
    # pick the two lowest-id clients holding positive-label shards, mirroring
    # the harness's data pipeline exactly
    full = load_csv(csv_path)
    train, _ = train_test_split(full, 0.5, RngStream(seed, purpose="train-test-split"))
    parts = partition(train, 10, PartitionScheme("label-shards", seed=seed, shards_k=1))
    pure_positive = [p.client_id for p in parts
                     if np.all(train.labels[list(p.sample_indices)] > 0)]
    return tuple(pure_positive[:2])


@pytest.fixture(scope="session")
def selection_matrix(tmp_path_factory):
    """Per-seed results of fedtoken vs both baselines on the poisoned task."""
    start = time.time()
    directory = tmp_path_factory.mktemp("selection")
    matrix = {}
    for seed in SELECTION_SEEDS:
        csv_path = _write_intercept_task(seed, directory)
        poison = _same_label_poison_pair(seed, csv_path)
        assert len(poison) == 2
        per_policy = {}
        for policy in (FEDTOKEN, RANDOM_QUOTA, FEDAVG_ALL):
            res = run(_selection_cfg(seed, policy, csv_path, poison))
            rounds_to = res.summary["rounds_to_target_accuracy"]
            per_policy[policy] = {
                "rounds_to_target": rounds_to if rounds_to is not None else NEVER,
                "result": res,
                "poison": poison,
            }
        matrix[seed] = per_policy
    matrix["build_seconds"] = time.time() - start
    return matrix


def test_criterion_01_shapley_oracle_equivalence():
    start = time.time()
    worst = 0.0
    for m in range(2, 7):
        for game_index in range(20):
            players, game = _table_game(m, seed=1000 * m + game_index)
            exact = exact_shapley(game, players)
            approx = tmc_shapley(game, players, permutations(players), 0.0)
            for p in players:
                worst = max(worst, abs(approx.u[p] - exact.u[p]))
    elapsed = time.time() - start
    assert worst <= 1e-9
    assert elapsed < 10.0
    print(f"PASS criterion 1: oracle equivalence, max deviation {worst:.2e}, "
          f"{elapsed:.2f}s")


def test_criterion_02_shapley_axioms():
    worst_residual = 0.0
    for seed in range(10):
        players, game = _table_game(5, seed=2000 + seed)
        result = exact_shapley(game, players)
        worst_residual = max(worst_residual,
                             abs(efficiency_residual(result, game, players)))
    assert worst_residual <= 1e-9

    gen = np.random.Generator(np.random.PCG64(7))
    coeffs = {c: float(gen.normal()) for c in range(6)}
    additive = GameUtility(lambda s: sum(coeffs[c] for c in s))
    recovered = exact_shapley(additive, tuple(range(6)))
    additive_err = max(abs(recovered.u[c] - coeffs[c]) for c in range(6))
    assert additive_err <= 1e-9

    delta = np.array([0.4, -0.1, 0.2])
    test_set = synth_gaussian(40, 3, 2.0, RngStream(5, purpose="synth-data"))
    ctx = UtilityContext(np.zeros(3), {0: delta.copy(), 1: delta.copy(),
                                       2: np.array([0.05, 0.0, 0.0])},
                         test_set, losses.LOGISTIC)
    sym = exact_shapley(ctx, (0, 1, 2))
    sym_err = abs(sym.u[0] - sym.u[1])
    assert sym_err <= 1e-9
    print(f"PASS criterion 2: efficiency {worst_residual:.2e}, additive "
          f"{additive_err:.2e}, symmetry {sym_err:.2e}")


def test_criterion_03_convex_convergence():
    start = time.time()
    single = validate(ExperimentConfig(
        seed=1, n_clients=1, m_fraction=1.0, quota=1, rounds=200,
        n_samples=67, dim=5, separation=3.0, test_fraction=0.25,
        loss="squared", lam=0.1, nu=1.0, aggregation=FEDAVG_ALL,
        partition_scheme="iid", total_tokens=1000))
    res_single = run(single)
    assert len(res_single.state.effective_train) == 50
    single_round = next((m.round for m in res_single.metrics
                         if m.duality_gap < 1e-6), None)
    assert single_round is not None and single_round <= 200

    federated = with_overrides(single, n_clients=10, quota=5, nu="auto",
                               rounds=500, total_tokens=10000)
    res_fed = run(federated)
    fed_round = next((m.round for m in res_fed.metrics
                      if m.duality_gap < 1e-3), None)
    assert fed_round is not None and fed_round <= 500
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"PASS criterion 3: N=1 gap<1e-6 at round {single_round}, N=10 "
          f"gap<1e-3 at round {fed_round}, {elapsed:.1f}s")


def test_criterion_04_dual_primal_consistency():
    cfg = validate(ExperimentConfig(
        seed=3, n_clients=8, m_fraction=1.0, quota=4, rounds=51,
        n_samples=160, dim=4, separation=3.0, lam=0.05, loss="logistic",
        delta=4, eps=0.0, total_tokens=100000, partition_scheme="iid"))
    state = build_simulation(cfg)
    worst = 0.0
    for i in range(50):
        policy = (FEDTOKEN, FEDAVG_ALL, RANDOM_QUOTA)[i % 3]
        round_step(state, with_overrides(cfg, aggregation=policy))
        rebuilt = phi_of_alpha(state.alpha, state.effective_train, cfg.lam)
        scale = max(np.linalg.norm(rebuilt), 1e-12)
        worst = max(worst, float(np.linalg.norm(state.model.phi - rebuilt)) / scale)
    assert worst < 1e-10
    print(f"PASS criterion 4: worst relative model/dual drift {worst:.2e} "
          f"over 50 mixed-policy rounds")


def test_criterion_05_quota_inflation_undervalues_contributions():
    test_set = synth_gaussian(40, 3, 1.6, RngStream(0, purpose="synth-data"))
    helpful = np.array([0.8, 0.0, 0.0])
    base = {c: helpful.copy() for c in range(3)}

    # the fixed 3-player game is non-malicious: every marginal is >= 0
    ctx0 = UtilityContext(np.zeros(3), dict(base), test_set, losses.LOGISTIC,
                          weighting="mean")
    for order in permutations(range(3)):
        prev, prefix = ctx0.value(frozenset()), set()
        for p in order:
            prefix.add(p)
            value = ctx0.value(frozenset(prefix))
            assert value - prev >= -1e-15
            prev = value

    coalition_means = []
    for pads in range(4):
        deltas = dict(base)
        for k in range(pads):
            deltas[10 + k] = np.zeros(3)
        ctx = UtilityContext(np.zeros(3), deltas, test_set, losses.LOGISTIC,
                             weighting="mean")
        values = exact_shapley(ctx, tuple(sorted(deltas)))
        coalition_means.append(float(np.mean(list(values.u.values()))))
    assert all(coalition_means[i + 1] <= coalition_means[i] + 1e-12 for i in range(3))
    assert coalition_means[3] < coalition_means[0] - 1e-9

    # axiomatic form: exact-null padding leaves each original value alone,
    # so the per-member average still shrinks as 1/q
    sum_means = []
    originals = None
    for pads in range(4):
        deltas = dict(base)
        for k in range(pads):
            deltas[10 + k] = np.zeros(3)
        ctx = UtilityContext(np.zeros(3), deltas, test_set, losses.LOGISTIC,
                             weighting="sum", nu=0.3)
        values = exact_shapley(ctx, tuple(sorted(deltas)))
        if originals is None:
            originals = [values.u[c] for c in range(3)]
        else:
            for c in range(3):
                assert values.u[c] == pytest.approx(originals[c], abs=1e-9)
        sum_means.append(float(np.mean(list(values.u.values()))))
    assert all(sum_means[i + 1] < sum_means[i] for i in range(3))
    means = ", ".join(f"{m:.4f}" for m in coalition_means)
    print(f"PASS criterion 5: coalition mean value falls with padding [{means}]")


def test_criterion_06_selection_efficacy(selection_matrix):
    wins_vs_random = wins_vs_fedavg = 0
    rows = []
    for seed in SELECTION_SEEDS:
        per = selection_matrix[seed]
        ft = per[FEDTOKEN]["rounds_to_target"]
        rq = per[RANDOM_QUOTA]["rounds_to_target"]
        fa = per[FEDAVG_ALL]["rounds_to_target"]
        wins_vs_random += ft < rq
        wins_vs_fedavg += ft < fa
        rows.append((seed, ft, rq, fa))
    mean_ft = np.mean([r[1] for r in rows])
    mean_rq = np.mean([r[2] for r in rows])
    mean_fa = np.mean([r[3] for r in rows])
    assert mean_ft <= mean_rq
    assert mean_ft <= mean_fa
    assert wins_vs_random >= 4
    assert wins_vs_fedavg >= 4
    assert selection_matrix["build_seconds"] < 300.0
    print(f"PASS criterion 6: mean rounds-to-70% fedtoken {mean_ft:.1f} vs "
          f"random-quota {mean_rq:.1f} vs fedavg-all {mean_fa:.1f}; strict wins "
          f"{wins_vs_random}/5 and {wins_vs_fedavg}/5 "
          f"({selection_matrix['build_seconds']:.1f}s for the 15-run matrix)")


def test_criterion_07_poisoner_starvation(selection_matrix):
    worst_rate = 1.0
    worst_flagged = 1.0
    for seed in SELECTION_SEEDS:
        entry = selection_matrix[seed][FEDTOKEN]
        res = entry["result"]
        poisoned = set(entry["poison"])
        starved = flagged = total = 0
        for m in res.metrics:
            total += 1  # m_fraction = 1.0: every client is in every cohort
            paid = {tx.client_id for tx in res.state.chain.query_round(m.round)}
            if not (poisoned & paid):
                starved += 1
            if poisoned <= set(m.flagged):
                flagged += 1
        worst_rate = min(worst_rate, starved / total)
        worst_flagged = min(worst_flagged, flagged / total)
    assert worst_rate >= 0.8
    assert worst_flagged > 0.5  # flagged in the majority of rounds, every seed
    print(f"PASS criterion 7: poisoned clients unpaid in >= {worst_rate:.0%} and "
          f"flagged in >= {worst_flagged:.0%} of their cohort rounds (worst seed)")


def test_criterion_08_token_conservation_and_fairness(tmp_path):
    cfg = validate(ExperimentConfig(
        seed=9, n_clients=8, m_fraction=1.0, quota=4, rounds=12,
        n_samples=160, dim=4, separation=3.0, lam=0.05, loss="logistic",
        delta=3, total_tokens=700, partition_scheme="iid"))
    res = run(cfg, tmp_path)
    chain = Chain.load(tmp_path / "ledger.ftlg")
    assert sum(chain.balances().values()) == \
        cfg.total_microtokens - res.state.budget.remaining

    gen = np.random.Generator(np.random.PCG64(4)
                              )
    for _ in range(50):
        weights = {i: float(gen.uniform(0, 5)) for i in range(int(gen.integers(1, 7)))}
        pool = int(gen.integers(1, 10**8))
        shares = allocate_pf(weights, pool)
        total_w = sum(max(w, 0.0) for w in weights.values())
        if total_w > 0:
            for i, w in weights.items():
                assert abs(shares[i] - pool * max(w, 0.0) / total_w) <= 1.0
        ep = allocate_ep(list(weights), pool)
        assert max(ep.values()) - min(ep.values()) <= 1

    policy = AllocationPolicy("pf", 0.7)
    sel = type("S", (), {"selected": (0,), "rejected": (1,),
                         "flagged_non_contributing": ()})()
    award = participation_rewards((0, 1), sel, 3, policy, 10**6)[1]
    assert award == math.floor(10**6 * 0.343) == 343000
    print("PASS criterion 8: ledger conservation exact, PF within 1 microtoken, "
          "EP within 1, decay(t=3, zeta=0.7) = 343000")


@pytest.fixture(scope="session")
def exhaustion_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("exhaustion")
    cfg = validate(ExperimentConfig(
        seed=2, n_clients=10, m_fraction=1.0, quota=5, rounds=30,
        n_samples=200, dim=4, separation=3.0, lam=0.05, loss="logistic",
        aggregation=FEDAVG_ALL, partition_scheme="iid",
        total_tokens=1000, per_round_microtokens=50 * 10**6))
    return run(cfg, out), out


def test_criterion_09_budget_exhaustion(exhaustion_run):
    res, out = exhaustion_run
    assert res.summary["stop_reason"] == "budget-exhausted"
    assert res.summary["rounds_executed"] == 20
    assert res.state.budget.remaining == 0
    bad, blocks = verify_file(out / "ledger.ftlg")
    assert bad is None and blocks == 20
    print("PASS criterion 9: 1000-token budget at 50/round exhausts at round 20 "
          "with a verified ledger")


def test_criterion_10_ledger_integrity(exhaustion_run, tmp_path):
    res, out = exhaustion_run
    source = (out / "ledger.ftlg").read_bytes()
    bad, _ = verify_file(out / "ledger.ftlg")
    assert bad is None

    rerun_dir = tmp_path / "rerun"
    run(res.config, rerun_dir)
    assert (rerun_dir / "ledger.ftlg").read_bytes() == source

    sizes = [len(b.to_bytes()) for b in res.state.chain.blocks]
    starts = np.cumsum([6] + sizes).tolist()
    target = tmp_path / "mutated.ftlg"
    gen = np.random.Generator(np.random.PCG64(31))
    for _ in range(1000):
        bit = int(gen.integers(0, len(source) * 8))
        mutated = bytearray(source)
        mutated[bit // 8] ^= 1 << (bit % 8)
        target.write_bytes(bytes(mutated))
        detected, _ = verify_file(target)
        assert detected is not None
        byte_pos = bit // 8
        if byte_pos < 6:
            assert detected == 0
        else:
            expected = max(k for k in range(len(sizes)) if starts[k] <= byte_pos)
            assert detected == expected
    print("PASS criterion 10: 1000/1000 single-bit mutations detected at the "
          "correct block; untampered file verifies; reruns byte-identical")


def test_criterion_11_overhead_direction(selection_matrix):
    wins = 0
    details = []
    for seed in SELECTION_SEEDS:
        per = selection_matrix[seed]
        ft = per[FEDTOKEN]["result"]
        fa = per[FEDAVG_ALL]["result"]

        def bytes_to_target(res):
            for m in res.metrics:
                if m.test_accuracy >= res.config.target_accuracy:
                    return m.committed_bytes
            return None  # never reached: costs at least the whole run

        ft_bytes = bytes_to_target(ft)
        fa_bytes = bytes_to_target(fa)
        assert ft_bytes is not None
        fa_cost = fa_bytes if fa_bytes is not None else fa.state.committed_bytes
        wins += ft_bytes < fa_cost
        details.append(f"{seed}:{ft_bytes}<{fa_cost}")
    assert wins >= 4
    print(f"PASS criterion 11: committed bytes to 70% lower under fedtoken in "
          f"{wins}/5 seeds ({'; '.join(details)})")


def test_criterion_12_delta_sweep(tmp_path):
    cfg = validate(ExperimentConfig(
        seed=6, n_clients=10, m_fraction=1.0, quota=5, rounds=10,
        n_samples=200, dim=4, separation=2.0, lam=0.05, loss="logistic",
        delta=1, eps=0.0, total_tokens=100000, partition_scheme="iid"))
    rows = sweep(cfg, "delta", [1, 2, 3, 4], tmp_path)
    queries = [r["utility_queries"] for r in rows]
    diffs = [b - a for a, b in zip(queries, queries[1:])]
    assert all(d == diffs[0] > 0 for d in diffs)  # exactly affine in delta

    finals = {d: [] for d in (1, 2, 3, 4)}
    for seed in range(5):
        seeded = with_overrides(cfg, seed=200 + seed)
        for row in sweep(seeded, "delta", [1, 2, 3, 4]):
            finals[int(row["value"])].append(row["final_test_accuracy"])
    means = {d: float(np.mean(v)) for d, v in finals.items()}
    trend = ", ".join(f"delta={d}: {means[d]:.3f}" for d in sorted(means))
    print(f"PASS criterion 12: utility evaluations affine in delta "
          f"(step {diffs[0]}); mean final accuracy over 5 seeds ({trend})")
