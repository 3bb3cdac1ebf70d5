import gzip
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtoken import data
from fedtoken.data import (ClientPartition, Dataset, InfeasiblePartitionError,
                           PartitionScheme, load_csv, partition, poison_labels,
                           save_csv, synth_gaussian, train_test_split)
from fedtoken.rng import RngStream
from oracles import csv_table


def _make_dataset(n, seed=0):
    gen = np.random.Generator(np.random.PCG64(seed))
    labels = np.where(gen.random(n) < 0.5, -1.0, 1.0)
    if np.all(labels == labels[0]):  # keep both classes present
        labels[0] = -labels[0]
    return Dataset(gen.standard_normal((n, 3)), labels)


def _assert_disjoint_cover(parts, n):
    for p in parts:
        rows = p.sample_indices
        assert rows.dtype == np.intp and not rows.flags.writeable
        assert np.all(rows[1:] > rows[:-1])
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
        assert parts[0].sample_indices.tolist() == list(range(17))


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
    assert [p.sample_indices.tolist() for p in first] == [p.sample_indices.tolist() for p in second]


def test_partition_copies_the_callers_rows():
    rows = np.array([7, 2, 5])
    part = ClientPartition(3, rows)
    assert rows.flags.writeable
    rows[0] = 0
    assert part.sample_indices.tolist() == [7, 2, 5]
    with pytest.raises(ValueError, match="unique"):
        ClientPartition(3, np.array([4, 1, 4]))


@pytest.mark.parametrize("beta", (float("nan"), float("inf"), 0.0, -1.0))
def test_partition_scheme_rejects_a_dirichlet_beta_config_rejects(beta):
    with pytest.raises(ValueError, match="dirichlet_beta"):
        PartitionScheme("dirichlet", seed=0, dirichlet_beta=beta)


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


def test_poison_floors_the_decimal_fraction():
    # the float products land just below a whole number: 28.999..., 56.999...
    assert 0.29 * 100 < 29 and 0.57 * 100 < 57
    ds = _make_dataset(400, seed=3)
    for fraction, rows, want in ((0.29, 100, 29), (0.57, 100, 57), (0.5, 7, 3), (1.0, 9, 9)):
        part = ClientPartition(0, tuple(range(rows)))
        poisoned = poison_labels(part, ds, fraction, RngStream(5, client=0, purpose="poison"))
        assert np.count_nonzero(poisoned.labels != ds.labels) == want, (fraction, rows)
    for k in range(0, 101):
        for rows in (1, 3, 50, 100, 257):
            part = ClientPartition(0, tuple(range(rows)))
            poisoned = poison_labels(part, ds, k / 100, RngStream(1, purpose="poison"))
            assert np.count_nonzero(poisoned.labels != ds.labels) == k * rows // 100, (k, rows)


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
    with pytest.raises(ValueError, match="column") as err:
        load_csv(path)
    assert str(err.value) == f"{path}:2: 2 columns, expected 3 as on the first row"
    # the first ragged line is named, ahead of a bad cell further down
    path.write_text("+1,0.5\n-1,0.75\n+1,0.5,0.25\n-1,abc\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":3: 3 columns, expected 2 as on the first row"):
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


def _csv_outcome(load):
    """What loading gives: the dataset's shape and bits, or the error's type and text.

    A warning fails the test: loading warns of nothing.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = load()
    except ValueError as err:  # UnicodeDecodeError is a ValueError
        return type(err).__name__, str(err)
    return ds.features.shape, ds.features.tobytes(), ds.labels.tobytes()


def _load_by_line_loop(path, header):
    """The dataset of the reference loop's table, as ``load_csv`` should give it."""
    table = csv_table(path, header)
    return Dataset(table[:, 1:], table[:, 0])


# file bytes, header flag, outcome, and whether np.loadtxt parses the file.
# An outcome is the label-and-features table the file loads to, or the full
# text of the error it raises with {path} for the file.
CSV_CASES = {
    "crlf": (b"+1,0.5,-2\r\n-1,0.25,3e-5\r\n", False,
             [[1, 0.5, -2], [-1, 0.25, 3e-5]], True),
    "header": (b"label,f0\n+1,0.5\n-1,-0.25\n", True, [[1, 0.5], [-1, -0.25]], True),
    "header-only": (b"label,f0\n", True, "{path}: no rows", False),
    "single-row": (b"-1,0.1,2e3", False, [[-1, 0.1, 2000]], True),
    "blank-line": (b"+1,0.5\n\n-1,0.25\n", False,
                   "{path}:2: expected label plus features", False),
    "two-trailing-newlines": (b"+1,0.5\n-1,0.25\n\n", False,
                              "{path}:3: expected label plus features", False),
    "whitespace-line": (b"+1,0.5\n \t\n-1,0.25\n", False,
                        "{path}:2: expected label plus features", False),
    "comment-line": (b"# label,f0\n+1,0.5\n", False,
                     "{path}:1: could not convert string to float: '# label'", False),
    "trailing-comma": (b"+1,0.5,\n", False,
                       "{path}:1: could not convert string to float: ''", False),
    "one-column-row": (b"+1,0.5\n-1\n", False,
                       "{path}:2: expected label plus features", False),
    "one-column-file": (b"+1\n-1\n", False, "{path}:1: expected label plus features", False),
    "blank-file": (b"\n", False, "{path}:1: expected label plus features", False),
    "underscore": (b"+1,1_0\n-1,0.25\n", False, [[1, 10], [-1, 0.25]], False),
    "nan": (b"+1,0.5\n-1,nan\n", False, "features must be finite", True),
    "inf": (b"+1,inf\n-1,0.25\n", False, "features must be finite", True),
    "non-utf8": (b"+1,0.5\n-1,\xff\n", False, "{path}:2: not UTF-8 (byte 0xff)", None),
    # the header is line 1, as the data lines are numbered after it
    "non-utf8-header": (b"label,f\xe90\n+1,0.5\n", True, "{path}:1: not UTF-8 (byte 0xe9)",
                        None),
    # a lone \r inside a line belongs to its cell; np.loadtxt rejects it
    "lone-cr": (b"+1,0.5\r-1,0.25\n\n", False,
                "{path}:1: could not convert string to float: '0.5\\r-1'", False),
    # np.loadtxt strips the ASCII separators \x1c-\x1f as blank space
    "separator": (b"+1,\x1c0.5\n", False,
                  "{path}:1: could not convert string to float: '\\x1c0.5'", False),
    # float() strips a lone \r that ends the file, or one ahead of a CRLF
    "cr-at-end": (b"+1,0.5\n-1,0.25\r", False, [[1, 0.5], [-1, 0.25]], True),
    "cr-before-crlf": (b"+1,0.5\r\r\n-1,0.25\r\n", False, [[1, 0.5], [-1, 0.25]], False),
}


@pytest.mark.parametrize("raw, header, expected, fast", CSV_CASES.values(),
                         ids=CSV_CASES.keys())
def test_csv_loads_as_the_line_loop_does(tmp_path, monkeypatch, raw, header, expected,
                                         fast):
    path = tmp_path / "data.csv"
    path.write_bytes(raw)
    got = _csv_outcome(lambda: load_csv(path, header=header))
    assert got == _csv_outcome(lambda: _load_by_line_loop(path, header))
    if isinstance(expected, str):
        assert got[1] == expected.format(path=path)
    else:
        table = np.array(expected, dtype=np.float64)
        assert got == (table[:, 1:].shape, table[:, 1:].tobytes(), table[:, 0].tobytes())
    if fast is not None:
        assert (data._table_from_loadtxt(path, header) is not None) == fast
    if fast:
        # a file np.loadtxt reads never reaches the line loop
        monkeypatch.setattr(data, "_table_from_lines", None)
        assert _csv_outcome(lambda: load_csv(path, header=header)) == got


@pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e", "\x1f"])
def test_csv_sends_each_ascii_separator_to_the_line_loop(tmp_path, sep):
    path = tmp_path / "data.csv"
    path.write_bytes(f"+1,0.5\n-1,{sep}0.25\n".encode())
    assert data._table_from_loadtxt(path, False) is None
    got = _csv_outcome(lambda: load_csv(path))
    assert got == _csv_outcome(lambda: _load_by_line_loop(path, False))
    assert got[1] == f"{path}:2: could not convert string to float: {sep + '0.25'!r}"


def test_csv_reads_a_compressed_name_as_plain_text(tmp_path):
    # np.loadtxt given a path would decompress it by its suffix
    path = tmp_path / "data.csv.gz"
    path.write_bytes(gzip.compress(b"+1,0.5\n-1,0.25\n"))
    with pytest.raises(ValueError) as err:
        load_csv(path)
    assert str(err.value) == f"{path}:1: not UTF-8 (byte 0x8b)"
    path.write_bytes(b"+1,0.5\n-1,0.25\n")
    assert data._table_from_loadtxt(path, False).tolist() == [[1, 0.5], [-1, 0.25]]


@pytest.mark.parametrize("last_row", ["", "+1" + ",1_0" * 19 + "\n"],
                         ids=["loadtxt", "line-loop"])
def test_csv_load_holds_no_copy_of_the_file(tmp_path, last_row):
    path = tmp_path / "big.csv"
    gen = np.random.Generator(np.random.PCG64(5))
    save_csv(Dataset(gen.standard_normal((20_000, 19)),
                     np.where(gen.random(20_000) < 0.5, -1.0, 1.0)), path)
    # np.loadtxt rejects 1_0, so that file is parsed by the line loop
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(last_row)
    tracemalloc.start()
    try:
        ds = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = ds.features.nbytes + ds.labels.nbytes
    assert peak <= 2 * table_bytes


CSV_CELLS = ("+1", "-1", "0.5", "-2.5e-3", "1e999", "4.9406564584124654e-324", "nan",
             "-Infinity", "1_0", "\u0661", "", " ", " 7\t", "\xa08", "#", "0x1", "1 2",
             "\r", "\x1c1", "\x0b9")


# two float draws to one odd cell, so that some files are well formed
CSV_CELL = st.one_of(st.floats().map(repr), st.floats().map(repr), st.sampled_from(CSV_CELLS))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.lists(CSV_CELL, min_size=1, max_size=4),
                          st.sampled_from(["\n", "\n", "\r\n", "\r", "\n\n", ""])),
                max_size=4),
       st.booleans())
def test_csv_load_matches_the_line_loop_on_any_text(tmp_path_factory, rows, header):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_text("".join(",".join(cells) + end for cells, end in rows),
                    encoding="utf-8", newline="")
    assert (_csv_outcome(lambda: load_csv(path, header=header))
            == _csv_outcome(lambda: _load_by_line_loop(path, header)))


@pytest.mark.parametrize("n,d", [(4, 8), (256, 3), (300, 5), (1000, 7), (2 * 256, 1)])
def test_streamed_triangular_factor_keeps_every_norm_of_the_table(n, d):
    gen = np.random.Generator(np.random.PCG64(n + d))
    ds = Dataset(gen.standard_normal((n, d)), np.where(gen.random(n) < 0.5, -1.0, 1.0))
    table = np.column_stack((ds.features, ds.labels))
    direct = np.linalg.qr(table, mode="r")
    stream = ds.triangular_factor
    assert stream.shape == direct.shape == (min(n, d + 1), d + 1)
    for u in gen.standard_normal((20, d + 1)):
        expected = np.linalg.norm(direct @ u)
        assert abs(np.linalg.norm(stream @ u) - expected) <= 1e-12 * expected
        assert abs(np.linalg.norm(table @ u) - expected) <= 1e-12 * expected
