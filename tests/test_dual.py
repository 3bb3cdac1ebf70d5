import math

import numpy as np
import pytest

from fedtoken import losses
from fedtoken.data import (ClientPartition, Dataset, PartitionScheme, partition,
                           synth_gaussian)
from fedtoken.dual import (SQUARED_BLOCK, Cohort, GlobalModel, Hyperparams, _solve_logistic,
                           commit, duality_gap, load_model, local_solve, phi_of_alpha,
                           save_model, upload_size)
from fedtoken.rng import RngStream
from oracles import (coordinate_value, dual_objective, feasible_interval, is_feasible,
                     local_gain, logit_residual, primal_objective, reference_solve_logistic,
                     scalar_local_solve)


def solve_one(part, *args):
    """The local solve of a one-client cohort."""
    return local_solve(Cohort((part,)), *args).updates[part.client_id]


def _full_partition(ds):
    return ClientPartition(0, tuple(range(len(ds))))


def _ridge_solution(ds, lam):
    X, y = ds.features, ds.labels
    D = len(ds)
    return np.linalg.solve(X.T @ X / D + lam * np.eye(ds.d), X.T @ y / D)


def _random_feasible_state(ds, loss, seed):
    gen = np.random.Generator(np.random.PCG64(seed))
    alpha = np.zeros(len(ds))
    for i in range(len(ds)):
        lo, hi = feasible_interval(loss, float(ds.labels[i]))
        if loss == losses.SQUARED:
            alpha[i] = float(gen.normal(scale=0.5))
        else:
            alpha[i] = float(lo + (hi - lo) * gen.random())
    return alpha


def test_dual_objective_is_zero_at_origin(gaussian_60x4):
    zero = np.zeros(len(gaussian_60x4))
    for loss in losses.LOSS_KINDS:
        assert dual_objective(zero, gaussian_60x4, loss, 0.1) == 0.0


def test_dual_objective_single_sample_closed_form():
    # one sample, squared loss, alpha = y: value is y^2/2 - |x|^2 y^2 / (2 lam)
    ds = Dataset(np.array([[0.5]]), np.array([1.0]))
    lam = 0.5
    got = dual_objective(np.array([1.0]), ds, losses.SQUARED, lam)
    expected = 0.5 - 0.25 / (2.0 * lam)
    assert got == pytest.approx(expected, abs=1e-12)
    assert expected == 0.25


def test_regularizer_term_is_quadratic_in_alpha(gaussian_60x4):
    state = _random_feasible_state(gaussian_60x4, losses.SQUARED, 3)
    doubled = 2 * state
    lam = 0.2
    phi1 = phi_of_alpha(state, gaussian_60x4, lam)
    phi2 = phi_of_alpha(doubled, gaussian_60x4, lam)
    assert np.allclose(phi2, 2 * phi1)
    g1 = lam * 0.5 * phi1 @ phi1
    g2 = lam * 0.5 * phi2 @ phi2
    assert g2 == pytest.approx(4 * g1)


def test_primal_objective_at_zero_model(gaussian_60x4):
    w = np.zeros(gaussian_60x4.d)
    assert primal_objective(w, gaussian_60x4, losses.SQUARED, 0.3) == pytest.approx(0.5)
    assert primal_objective(w, gaussian_60x4, losses.LOGISTIC, 0.3) == pytest.approx(np.log(2))


def test_gap_at_zero_alpha_squared_loss(gaussian_60x4):
    gap = duality_gap(np.zeros(len(gaussian_60x4)), gaussian_60x4, losses.SQUARED, 0.7)
    assert gap == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("loss", losses.LOSS_KINDS)
def test_weak_duality_for_random_feasible_states(gaussian_60x4, loss):
    for seed in range(12):
        state = _random_feasible_state(gaussian_60x4, loss, seed)
        gap = duality_gap(state, gaussian_60x4, loss, 0.05)
        assert gap >= -1e-9


@pytest.mark.parametrize("loss", losses.LOSS_KINDS)
def test_gap_is_primal_minus_dual_to_the_bit(gaussian_60x4, loss):
    for seed in range(6):
        alpha = _random_feasible_state(gaussian_60x4, loss, seed)
        for lam in (1e-3, 0.05, 2.0):
            w = phi_of_alpha(alpha, gaussian_60x4, lam)
            want = (primal_objective(w, gaussian_60x4, loss, lam)
                    - dual_objective(alpha, gaussian_60x4, loss, lam))
            assert duality_gap(alpha, gaussian_60x4, loss, lam) == want


def test_logistic_scalar_derivative_matches_finite_difference():
    gen = np.random.Generator(np.random.PCG64(123))
    h = 1e-6
    checked = 0
    while checked < 100:
        y = 1.0 if gen.random() < 0.5 else -1.0
        alpha = float(gen.uniform(0.05, 0.95)) * y
        lo, hi = feasible_interval(losses.LOGISTIC, y)
        r = float(gen.uniform(lo - alpha + h * 4, hi - alpha - h * 4))
        base = float(gen.normal())
        qcoef = float(gen.uniform(0.0, 5.0))
        # the derivative in r is -y * F(t) at t = logit((alpha + r) * y)
        s = (alpha + r) * y
        c = y * base - qcoef * alpha * y
        deriv = -y * logit_residual(math.log(s) - math.log1p(-s), qcoef, c)[0]
        up = coordinate_value(losses.LOGISTIC, alpha, y, r + h, base, qcoef)
        down = coordinate_value(losses.LOGISTIC, alpha, y, r - h, base, qcoef)
        fd = (up - down) / (2 * h)
        assert deriv == pytest.approx(fd, rel=1e-4, abs=1e-7)
        checked += 1


@pytest.mark.parametrize("loss", losses.LOSS_KINDS)
def test_local_solve_never_decreases_the_local_objective(gaussian_60x4, loss):
    part = _full_partition(gaussian_60x4)
    model = GlobalModel(np.linspace(-0.5, 0.5, gaussian_60x4.d))
    hyper = Hyperparams(lam=0.1, local_passes=1)
    for seed in range(5):
        alpha = _random_feasible_state(gaussian_60x4, loss, 40 + seed)
        # keep phi consistent not required for the gain inequality itself
        upd = solve_one(part, gaussian_60x4, alpha, model, loss, hyper,
                        RngStream(seed, purpose="local-solve"))
        gain = local_gain(part, gaussian_60x4, alpha, model, loss, 0.1, upd.rho)
        assert gain >= -1e-12


def test_single_client_squared_reaches_ridge_solution():
    ds = synth_gaussian(50, 5, 3.0, RngStream(100, purpose="synth-data"))
    lam = 0.1
    part = _full_partition(ds)
    alpha = np.zeros(len(ds))
    model = GlobalModel(np.zeros(ds.d))
    hyper = Hyperparams(lam=lam, local_passes=1)
    for t in range(200):
        upd = solve_one(part, ds, alpha, model, losses.SQUARED, hyper,
                        RngStream(1, round=t, purpose="local-solve"))
        commit(alpha, part.sample_indices, upd.rho, 1.0)
        model = GlobalModel(model.phi + upd.delta_phi)
    w_star = _ridge_solution(ds, lam)
    assert np.max(np.abs(model.phi - w_star)) < 1e-6
    assert duality_gap(alpha, ds, losses.SQUARED, lam) < 1e-6


def test_local_solve_is_stationary_at_the_optimum():
    ds = synth_gaussian(40, 3, 3.0, RngStream(8, purpose="synth-data"))
    lam = 0.2
    part = _full_partition(ds)
    alpha = np.zeros(len(ds))
    model = GlobalModel(np.zeros(ds.d))
    solve_hyper = Hyperparams(lam=lam, local_passes=400)
    upd = solve_one(part, ds, alpha, model, losses.SQUARED, solve_hyper,
                    RngStream(2, purpose="local-solve"))
    commit(alpha, part.sample_indices, upd.rho, 1.0)
    model = GlobalModel(model.phi + upd.delta_phi)
    again = solve_one(part, ds, alpha, model, losses.SQUARED,
                      Hyperparams(lam=lam, local_passes=1),
                      RngStream(3, purpose="local-solve"))
    assert np.linalg.norm(again.delta_phi) <= 1e-8


def test_delta_phi_matches_rho_exactly(gaussian_60x4):
    part = ClientPartition(0, tuple(range(0, 30)))
    hyper = Hyperparams(lam=0.05, local_passes=2)
    upd = solve_one(part, gaussian_60x4, np.zeros(len(gaussian_60x4)),
                    GlobalModel(np.zeros(gaussian_60x4.d)), losses.LOGISTIC,
                    hyper, RngStream(5, purpose="local-solve"))
    rho_vec = np.zeros(len(gaussian_60x4))
    rho_vec[part.sample_indices] = upd.rho
    expected = gaussian_60x4.features.T @ rho_vec / (0.05 * len(gaussian_60x4))
    scale = max(np.linalg.norm(expected), 1e-30)
    assert np.linalg.norm(upd.delta_phi - expected) / scale < 1e-12


def test_logistic_commits_stay_feasible(gaussian_60x4):
    part = _full_partition(gaussian_60x4)
    alpha = np.zeros(len(gaussian_60x4))
    model = GlobalModel(np.zeros(gaussian_60x4.d))
    hyper = Hyperparams(lam=0.05, local_passes=1)
    for t in range(20):
        upd = solve_one(part, gaussian_60x4, alpha, model, losses.LOGISTIC,
                        hyper, RngStream(6, round=t, purpose="local-solve"))
        commit(alpha, part.sample_indices, upd.rho, 0.8)
        model = GlobalModel(model.phi + 0.8 * upd.delta_phi)
    assert is_feasible(losses.LOGISTIC, alpha, gaussian_60x4.labels)


def test_zero_feature_rows_take_the_separable_optimum():
    ds = Dataset(np.zeros((4, 2)), np.array([1.0, -1.0, 1.0, -1.0]))
    part = _full_partition(ds)
    model = GlobalModel(np.zeros(2))
    hyper = Hyperparams(lam=1.0, local_passes=1)
    upd_sq = solve_one(part, ds, np.zeros(4), model, losses.SQUARED, hyper,
                       RngStream(1, purpose="local-solve"))
    assert upd_sq.rho.tolist() == [1.0, -1.0, 1.0, -1.0]
    upd_lg = solve_one(part, ds, np.zeros(4), model, losses.LOGISTIC, hyper,
                       RngStream(1, purpose="local-solve"))
    assert upd_lg.rho.tolist() == [0.5, -0.5, 0.5, -0.5]


def _ragged_cohort():
    """Dirichlet partitions of a set with zero-feature rows: sizes 0, 1, 1, 5, ..., 21."""
    base = synth_gaussian(60, 3, 2.0, RngStream(4, purpose="synth-data"))
    features = base.features.copy()
    features[::7] = 0.0
    ds = Dataset(features, base.labels)
    parts = partition(ds, 8, PartitionScheme("dirichlet", seed=0, dirichlet_beta=0.2))
    sizes = sorted(len(p) for p in parts)
    assert sizes[:3] == [0, 1, 1] and sizes[-1] > 2 * sizes[-4]
    return ds, Cohort(tuple(parts))


@pytest.mark.parametrize("passes", (1, 3))
@pytest.mark.parametrize("loss", losses.LOSS_KINDS)
def test_cohort_solve_matches_the_scalar_loop_client_by_client(loss, passes):
    ds, cohort = _ragged_cohort()
    alpha = _random_feasible_state(ds, loss, 17)
    model = GlobalModel(np.linspace(-0.4, 0.4, ds.d))
    hyper = Hyperparams(lam=0.05, local_passes=passes)
    stream = RngStream(9, round=3, purpose="local-solve")
    solved = local_solve(cohort, ds, alpha, model, loss, hyper, stream)
    assert list(solved.updates) == [p.client_id for p in cohort.partitions]
    assert solved.upload_bytes == len(cohort.partitions) * upload_size(ds.d)
    for part in cohort.partitions:
        want = scalar_local_solve(part, ds, alpha, model, loss, hyper,
                                  stream.scoped(client=part.client_id))
        got = solved.updates[part.client_id]
        for field in ("rho", "delta_phi"):
            g, w = getattr(got, field), getattr(want, field)
            assert g.shape == w.shape
            assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w), (part.client_id, field)


def _block_edge_cohort():
    """Clients of 0, 1, B-1, B, B+1 and 3B+5 rows, B = SQUARED_BLOCK, some rows all zero."""
    B = SQUARED_BLOCK
    sizes = (0, 1, B - 1, B, B + 1, 3 * B + 5)
    base = synth_gaussian(sum(sizes), 4, 2.0, RngStream(8, purpose="synth-data"))
    features = base.features.copy()
    features[::5] = 0.0
    ds = Dataset(features, base.labels)
    rows = np.random.Generator(np.random.PCG64(3)).permutation(len(ds))
    cuts = np.cumsum((0, *sizes))
    parts = tuple(ClientPartition(c, rows[lo:hi]) for c, (lo, hi)
                  in enumerate(zip(cuts, cuts[1:])))
    return ds, Cohort(parts)


@pytest.mark.parametrize("passes", (1, 3))
@pytest.mark.parametrize("lam", (1e-4, 0.05, 10.0))
def test_squared_blocks_match_the_scalar_loop_across_block_edges(lam, passes):
    ds, cohort = _block_edge_cohort()
    alpha = _random_feasible_state(ds, losses.SQUARED, 23)
    model = GlobalModel(np.linspace(-0.4, 0.4, ds.d))
    hyper = Hyperparams(lam=lam, local_passes=passes)
    stream = RngStream(5, round=2, purpose="local-solve")
    solved = local_solve(cohort, ds, alpha, model, losses.SQUARED, hyper, stream)
    for part in cohort.partitions:
        want = scalar_local_solve(part, ds, alpha, model, losses.SQUARED, hyper,
                                  stream.scoped(client=part.client_id))
        got = solved.updates[part.client_id]
        for field in ("rho", "delta_phi"):
            g, w = getattr(got, field), getattr(want, field)
            assert g.shape == w.shape
            assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w), (part.client_id, field)


@pytest.mark.parametrize("passes", (1, 3))
@pytest.mark.parametrize("loss", losses.LOSS_KINDS)
@pytest.mark.parametrize("make_cohort", (_ragged_cohort, _block_edge_cohort))
def test_a_sub_cohort_solves_each_client_as_the_whole_cohort_does(make_cohort, loss, passes):
    # a delta-blind policy solves only the clients it keeps, so a client's
    # update must not depend on who else is solved.  Logistic steps are per
    # client, so they are bit-equal.  A squared pass runs in blocks up to the
    # cohort's largest client: the block width follows it, which regroups
    # the batched matmul's sums, so they agree to rounding
    ds, cohort = make_cohort()
    alpha = _random_feasible_state(ds, loss, 29)
    model = GlobalModel(np.linspace(-0.4, 0.4, ds.d))
    hyper = Hyperparams(lam=0.05, local_passes=passes)
    stream = RngStream(7, round=4, purpose="local-solve")
    whole = local_solve(cohort, ds, alpha, model, loss, hyper, stream).updates
    gen = np.random.Generator(np.random.PCG64(passes))
    subsets = [cohort.partitions[:1], cohort.partitions[-2:], cohort.partitions[::2]]
    subsets += [tuple(cohort.partitions[i] for i in sorted(gen.choice(
        len(cohort.partitions), size=k, replace=False))) for k in (2, 3, 4, 5)]
    for sub in subsets:
        solved = local_solve(Cohort(sub), ds, alpha, model, loss, hyper, stream)
        assert list(solved.updates) == [p.client_id for p in sub]
        for c, got in solved.updates.items():
            for field in ("rho", "delta_phi"):
                g, w = getattr(got, field), getattr(whole[c], field)
                if loss == losses.LOGISTIC:
                    assert g.tobytes() == w.tobytes(), (c, field)
                else:
                    assert np.linalg.norm(g - w) <= 1e-15 * np.linalg.norm(w), (c, field)


def test_cohort_length_counts_its_rows():
    ds, cohort = _ragged_cohort()
    assert len(cohort) == len(ds)
    assert len(Cohort(cohort.partitions[:2])) == 6 and len(Cohort(())) == 0


def test_commit_arithmetic():
    rows, rho = np.array([10]), np.array([0.4])
    for nu, expected in ((0.0, 0.2), (0.5, 0.4), (1.0, 0.6)):
        alpha = np.zeros(11)
        alpha[10] = 0.2
        commit(alpha, rows, rho, nu)
        assert alpha[10] == pytest.approx(expected)


def test_upload_size():
    assert upload_size(5) == 8 * 5 + 64


def test_model_snapshot_round_trip(tmp_path):
    phi = np.array([1.5, -2.25, 0.0, 1e-12])
    path = tmp_path / "model.bin"
    save_model(path, phi)
    blob = path.read_bytes()
    assert blob[:4] == b"FTMD" and len(blob) == 16 + 8 * 4
    assert np.array_equal(load_model(path), phi)


@pytest.mark.parametrize("size", (0, 4, 8, 15))
def test_a_snapshot_shorter_than_its_header_is_truncated(tmp_path, size):
    path = tmp_path / "model.bin"
    save_model(path, np.array([1.5, -2.25]))
    path.write_bytes(path.read_bytes()[:size])
    with pytest.raises(ValueError, match="model snapshot truncated"):
        load_model(path)


def test_a_snapshot_with_a_wrong_magic_is_refused(tmp_path):
    path = tmp_path / "model.bin"
    save_model(path, np.array([1.5, -2.25]))
    path.write_bytes(b"FTMX" + path.read_bytes()[4:])
    with pytest.raises(ValueError, match="not a model snapshot file"):
        load_model(path)


@pytest.mark.parametrize("field, value", (
    ("lam", float("nan")), ("lam", float("inf")), ("lam", 0.0), ("lam", -1.0),
    ("local_passes", 1.5), ("local_passes", 0),
))
def test_hyperparams_reject_what_config_rejects(field, value):
    kwargs = {"lam": 0.1, "local_passes": 1, field: value}
    with pytest.raises(ValueError, match=field):
        Hyperparams(**kwargs)


def test_commits_of_disjoint_clients_fill_one_alpha(gaussian_60x4):
    vec = np.zeros(len(gaussian_60x4))
    commit(vec, np.array([0, 2]), np.array([1.0, -0.5]), 1.0)
    commit(vec, np.array([5]), np.array([0.25]), 1.0)
    assert vec[0] == 1.0 and vec[2] == -0.5 and vec[5] == 0.25
    assert np.count_nonzero(vec) == 3


def test_commit_matches_the_scalar_merge_bit_for_bit():
    gen = np.random.Generator(np.random.PCG64(9))
    alpha = gen.normal(size=50)
    rows = np.sort(gen.choice(50, size=20, replace=False))
    rho, nu = gen.normal(size=20), 0.37
    expected = alpha.copy()
    for i, r in zip(rows.tolist(), rho.tolist()):
        expected[i] = expected[i] + nu * r
    commit(alpha, rows, rho, nu)
    assert alpha.tobytes() == expected.tobytes()


def _bisect_logit_root(alpha, y, base, qcoef):
    c = y * base - qcoef * alpha * y
    lo, hi = -c - qcoef, -c
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if logit_residual(mid, qcoef, c)[0] > 0.0:
            hi = mid
        else:
            lo = mid
    return logit_residual(0.5 * (lo + hi), qcoef, c)[2] * y - alpha


def test_logistic_coordinate_solve_matches_bisection():
    gen = np.random.Generator(np.random.PCG64(31))
    for _ in range(500):
        y = 1.0 if gen.random() < 0.5 else -1.0
        alpha = float(gen.uniform(0.0, 1.0)) * y
        base = float(gen.normal(scale=20.0))
        qcoef = float(gen.uniform(0.0, 50.0))
        r = _solve_logistic(alpha, y, base, qcoef)
        assert -1e-15 <= (alpha + r) * y <= 1.0 + 1e-15
        assert r == pytest.approx(_bisect_logit_root(alpha, y, base, qcoef),
                                  rel=1e-12, abs=1e-13)


def test_logistic_coordinate_solve_is_bitwise_the_reference_solver():
    gen = np.random.Generator(np.random.PCG64(41))
    cases = {"zero": 0, "tiny": 0, "bound": 0}
    for _ in range(10_000):
        y = 1.0 if gen.random() < 0.5 else -1.0
        pick = gen.random()
        # alpha at either end of its interval, or inside it
        alpha = 0.0 if pick < 0.15 else y if pick < 0.3 else float(gen.uniform(0.0, 1.0)) * y
        cases["bound"] += pick < 0.3
        pick = gen.random()
        if pick < 0.1:
            qcoef, base = 0.0, 0.0
            cases["zero"] += 1
        else:
            qcoef = 10.0 ** float(gen.uniform(-300, -8)) if pick < 0.3 else \
                float(gen.uniform(0.0, 50.0))
            cases["tiny"] += pick < 0.3
            # |c| = |y * base - q * alpha * y| reaches 1e3
            base = float(gen.normal()) * 10.0 ** float(gen.uniform(-3, 3))
        got = _solve_logistic(alpha, y, base, qcoef)
        want = reference_solve_logistic(alpha, y, base, qcoef)
        assert got.hex() == want.hex(), (alpha, y, base, qcoef)
    assert min(cases.values()) > 500, cases
