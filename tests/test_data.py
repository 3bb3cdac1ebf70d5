import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtoken.data import (ClientPartition, Dataset, InfeasiblePartitionError,
                           PartitionScheme, load_csv, partition, poison_labels,
                           save_csv, synth_gaussian, train_test_split)
from fedtoken.rng import RngStream


def _make_dataset(n, seed=0):
    gen = np.random.Generator(np.random.PCG64(seed))
    labels = np.where(gen.random(n) < 0.5, -1.0, 1.0)
    if np.all(labels == labels[0]):  # keep both classes present
        labels[0] = -labels[0]
    return Dataset(gen.standard_normal((n, 3)), labels)


def _assert_disjoint_cover(parts, n):
    seen = [i for p in parts for i in p.sample_indices]
    assert len(seen) == len(set(seen)) == n
    assert set(seen) == set(range(n))


def test_iid_balanced_split():
    ds = _make_dataset(100)
    parts = partition(ds, 10, PartitionScheme("iid", seed=3))
    assert [len(p) for p in parts] == [10] * 10
    _assert_disjoint_cover(parts, 100)


def test_single_client_gets_everything():
    ds = _make_dataset(17)
    for kind in ("iid", "label-shards", "dirichlet"):
        parts = partition(ds, 1, PartitionScheme(kind, seed=5))
        assert parts[0].sample_indices == tuple(range(17))


def test_label_shards_one_gives_pure_clients(two_class_200):
    parts = partition(two_class_200, 4, PartitionScheme("label-shards", seed=9, shards_k=1))
    _assert_disjoint_cover(parts, 200)
    for p in parts:
        labels = {float(two_class_200.labels[i]) for i in p.sample_indices}
        assert len(labels) == 1


def test_too_many_clients_is_infeasible():
    ds = _make_dataset(5)
    with pytest.raises(InfeasiblePartitionError):
        partition(ds, 6, PartitionScheme("iid", seed=1))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), n_clients=st.integers(2, 8),
       kind=st.sampled_from(["iid", "label-shards", "dirichlet"]),
       k=st.integers(1, 3))
def test_every_scheme_is_a_disjoint_cover(seed, n_clients, kind, k):
    ds = _make_dataset(64, seed=seed % 97)
    scheme = PartitionScheme(kind, seed=seed, shards_k=k, dirichlet_beta=0.5)
    parts = partition(ds, n_clients, scheme)
    _assert_disjoint_cover(parts, 64)
    if kind == "label-shards":
        for p in parts:
            distinct = {float(ds.labels[i]) for i in p.sample_indices}
            assert len(distinct) <= k


def test_partition_is_deterministic(two_class_200):
    scheme = PartitionScheme("dirichlet", seed=21, dirichlet_beta=0.3)
    first = partition(two_class_200, 6, scheme)
    second = partition(two_class_200, 6, scheme)
    assert [p.sample_indices for p in first] == [p.sample_indices for p in second]


def test_poison_zero_and_full_flip(two_class_200):
    part = ClientPartition(0, tuple(range(10)))
    stream = RngStream(2, client=0, purpose="poison")
    same = poison_labels(part, two_class_200, 0.0, stream)
    assert np.array_equal(same.labels, two_class_200.labels)
    flipped = poison_labels(part, two_class_200, 1.0, stream)
    assert np.array_equal(flipped.labels[:10], -two_class_200.labels[:10])
    assert np.array_equal(flipped.labels[10:], two_class_200.labels[10:])
    # original untouched
    assert np.array_equal(two_class_200.labels[:10], np.array([1.0, -1.0] * 5))


def test_poison_half_flips_exactly_and_reproducibly(two_class_200):
    part = ClientPartition(0, tuple(range(10)))
    stream = RngStream(77, client=0, purpose="poison")
    a = poison_labels(part, two_class_200, 0.5, stream)
    b = poison_labels(part, two_class_200, 0.5, stream)
    flipped_a = {i for i in range(200) if a.labels[i] != two_class_200.labels[i]}
    flipped_b = {i for i in range(200) if b.labels[i] != two_class_200.labels[i]}
    assert flipped_a == flipped_b
    assert len(flipped_a) == 5
    assert flipped_a <= set(range(10))


def test_synth_two_points_are_balanced():
    ds = synth_gaussian(2, 1, 1.0, RngStream(4, purpose="synth-data"))
    assert sorted(ds.labels) == [-1.0, 1.0]


def test_synth_wide_separation_is_linearly_separable():
    ds = synth_gaussian(80, 3, 10.0, RngStream(12, purpose="synth-data"))
    pos = ds.features[ds.labels > 0].mean(axis=0)
    neg = ds.features[ds.labels < 0].mean(axis=0)
    w = pos - neg
    b = -0.5 * (pos + neg) @ w
    preds = np.where(ds.features @ w + b > 0, 1.0, -1.0)
    assert np.array_equal(preds, ds.labels)


def test_synth_is_deterministic():
    a = synth_gaussian(30, 2, 2.0, RngStream(9, purpose="synth-data"))
    b = synth_gaussian(30, 2, 2.0, RngStream(9, purpose="synth-data"))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_train_test_split_partitions_the_data(gaussian_60x4):
    train, test = train_test_split(gaussian_60x4, 0.25, RngStream(3, purpose="split"))
    assert len(train) == 45 and len(test) == 15
    stacked = np.vstack([train.features, test.features])
    assert sorted(map(tuple, stacked)) == sorted(map(tuple, gaussian_60x4.features))


def test_csv_round_trip(tmp_path, gaussian_60x4):
    path = tmp_path / "data.csv"
    save_csv(gaussian_60x4, path)
    back = load_csv(path)
    assert np.array_equal(back.features, gaussian_60x4.features)
    assert np.array_equal(back.labels, gaussian_60x4.labels)


def test_csv_header_flag(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("label,f0\n+1,0.5\n-1,-0.25\n", encoding="utf-8")
    ds = load_csv(path, header=True)
    assert list(ds.labels) == [1.0, -1.0]
    assert ds.features.tolist() == [[0.5], [-0.25]]


def test_dataset_rejects_bad_labels():
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([0.5, 1.0]))


def test_dataset_rejects_non_finite_features(tmp_path):
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.array([[0.5, bad], [1.0, 0.0]]), np.array([1.0, -1.0]))
    path = tmp_path / "nan.csv"
    path.write_text("+1,0.5,nan\n-1,0.75,0.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="finite"):
        load_csv(path)


def test_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("+1,0.5,0.25\n-1,0.75\n", encoding="utf-8")
    with pytest.raises(ValueError, match="column"):
        load_csv(path)


def test_csv_rejects_rows_without_features(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("+1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="label plus features"):
        load_csv(path)


def test_csv_rejects_non_binary_labels(tmp_path):
    path = tmp_path / "badlabel.csv"
    path.write_text("0,1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="labels"):
        load_csv(path)
