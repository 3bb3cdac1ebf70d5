"""Datasets, client partitions, poisoning transforms, and synthetic data.

Labels are binary {-1.0, +1.0}.  A :class:`Dataset` stores features as an
``(n, d)`` float64 array and labels as an ``(n,)`` float64 array; all
operations here are pure functions of their inputs and streams, so any
two runs with the same seeds produce identical partitions and views.
"""

from __future__ import annotations

import math
import warnings
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np

from .rng import RngStream

VALID_SCHEMES = ("iid", "label-shards", "dirichlet")
# rows folded into the triangular factor at a time
FACTOR_BLOCK = 256


class InfeasiblePartitionError(ValueError):
    """Requested partition cannot satisfy disjoint-cover constraints."""


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n, d)
    labels: np.ndarray    # (n,), values in {-1.0, +1.0}

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] == 0:
            raise ValueError("dataset must contain at least one sample")
        if not np.all(np.isfinite(features)):
            raise ValueError("features must be finite")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must be a vector matching the sample count")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @cached_property
    def triangular_factor(self) -> np.ndarray:
        """``streamed_r_factor`` of this dataset, built on first use and kept."""
        return streamed_r_factor(self.features, self.labels)

    def with_labels(self, labels: np.ndarray) -> "Dataset":
        return Dataset(self.features, labels)

    def take(self, indices: np.ndarray) -> "Dataset":
        indices = np.asarray(indices, dtype=np.intp)
        return Dataset(self.features[indices], self.labels[indices])


@dataclass(frozen=True, eq=False)
class ClientPartition:
    client_id: int
    # the client's rows of the dataset: a read-only intp copy, in the caller's order
    sample_indices: np.ndarray

    def __post_init__(self):
        rows = np.array(self.sample_indices, dtype=np.intp)
        # not np.unique: with no return_* flag, its first call imports numpy.ma (8-11 ms)
        if len(set(rows.tolist())) != rows.shape[0]:
            raise ValueError("partition indices must be unique")
        rows.flags.writeable = False
        object.__setattr__(self, "sample_indices", rows)

    def __len__(self) -> int:
        return self.sample_indices.shape[0]


@dataclass(frozen=True)
class PartitionScheme:
    kind: str
    seed: int
    shards_k: int = 2
    dirichlet_beta: float = 0.5

    def __post_init__(self):
        if self.kind not in VALID_SCHEMES:
            raise ValueError(f"unknown partition scheme {self.kind!r}")
        if self.shards_k < 1:
            raise ValueError("shards_k must be >= 1")
        # written to reject NaN, which every comparison rejects
        if not 0.0 < self.dirichlet_beta < math.inf:
            raise ValueError("dirichlet_beta must be a finite number > 0, "
                             f"not {self.dirichlet_beta!r}")


def streamed_r_factor(features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """``R`` of ``[features | labels] = Q R``: read-only, min(n, d + 1) x (d + 1).

    ``|R @ v| == |[features | labels] @ v|`` for every ``v``, so a quadratic
    form in the samples can be taken on ``R``'s few rows.  The rows are
    folded into the factor so far ``FACTOR_BLOCK`` at a time (a sequential
    TSQR), so no copy of the whole table is made.
    """
    r = np.empty((0, features.shape[1] + 1))
    for start in range(0, len(labels), FACTOR_BLOCK):
        rows = slice(start, start + FACTOR_BLOCK)
        block = np.column_stack((features[rows], labels[rows]))
        r = np.linalg.qr(np.vstack((r, block)), mode="r")
    r.flags.writeable = False
    return r


def _partition_iid(n: int, n_clients: int, gen: np.random.Generator) -> list[np.ndarray]:
    # array_split gives the first n % n_clients chunks one row more
    return [np.sort(chunk) for chunk in np.array_split(gen.permutation(n), n_clients)]


def _partition_label_shards(labels: np.ndarray, n_clients: int, k: int,
                            gen: np.random.Generator) -> list[np.ndarray]:
    # Shards are carved within a single label so that a client holding k
    # shards sees at most k distinct labels.
    values, counts = np.unique(labels, return_counts=True)
    n_shards = n_clients * k
    if n_shards < len(values):
        raise InfeasiblePartitionError(
            f"label-shards({k}) with {n_clients} clients cannot cover {len(values)} labels")
    shard_counts = _proportional_counts(counts.tolist(), n_shards)
    shards: list[np.ndarray] = []
    for v, n_label_shards in zip(values, shard_counts):
        shards.extend(np.array_split(gen.permutation(np.flatnonzero(labels == v)),
                                     n_label_shards))
    order = gen.permutation(len(shards))
    return [np.sort(np.concatenate([shards[s] for s in order[c * k:(c + 1) * k]]))
            for c in range(n_clients)]


def _proportional_counts(sizes: list[int], total_parts: int) -> list[int]:
    """Split total_parts across groups proportionally to sizes, >= 1 each."""
    n = sum(sizes)
    quotas = [total_parts * s / n for s in sizes]
    counts = [1] * len(sizes)
    for _ in range(total_parts - len(sizes)):
        i = max(range(len(sizes)), key=lambda j: (quotas[j] - counts[j], -j))
        counts[i] += 1
    return counts


def _partition_dirichlet(labels: np.ndarray, n_clients: int, beta: float,
                         gen: np.random.Generator) -> list[np.ndarray]:
    pieces: list[list[np.ndarray]] = []  # pieces[v][c]: client c's rows of label v
    for v in sorted(set(labels.tolist())):
        idx = gen.permutation(np.flatnonzero(labels == v))
        props = gen.dirichlet(np.full(n_clients, beta))
        cuts = np.floor(np.cumsum(props) * idx.shape[0]).astype(int)
        # the cuts never decrease; the last client takes the rest of the label
        pieces.append(np.split(idx, cuts[:-1]))
    return [np.sort(np.concatenate(part)) for part in zip(*pieces)]


def partition(dataset: Dataset, n_clients: int, scheme: PartitionScheme) -> list[ClientPartition]:
    """Split the dataset's indices into disjoint per-client partitions.

    The union of partitions always covers every index exactly once.  With a
    single client every scheme degenerates to the identity partition.
    """
    if n_clients < 1:
        raise InfeasiblePartitionError("need at least one client")
    if n_clients > len(dataset):
        raise InfeasiblePartitionError(
            f"cannot split {len(dataset)} samples across {n_clients} clients")
    if n_clients == 1:
        return [ClientPartition(0, np.arange(len(dataset)))]
    gen = RngStream(scheme.seed, purpose=f"partition-{scheme.kind}").generator()
    if scheme.kind == "iid":
        parts = _partition_iid(len(dataset), n_clients, gen)
    elif scheme.kind == "label-shards":
        parts = _partition_label_shards(dataset.labels, n_clients, scheme.shards_k, gen)
    else:
        parts = _partition_dirichlet(dataset.labels, n_clients, scheme.dirichlet_beta, gen)
    return [ClientPartition(c, p) for c, p in enumerate(parts)]


def poison_labels(part: ClientPartition, dataset: Dataset, flip_fraction: float,
                  stream: RngStream) -> Dataset:
    """Return a copy of the dataset with some of the partition's labels negated.

    Exactly ``floor(flip_fraction * len(part))`` labels are flipped, chosen
    uniformly by the stream; the input dataset is left untouched.  As in
    ``scheduler.ceil_share``, the floor is taken on the decimal the config
    writes: ``0.29 * 100`` is 28.999999999999996.
    """
    if not 0.0 <= flip_fraction <= 1.0:
        raise ValueError("flip_fraction must be in [0, 1]")
    num, den = Fraction(str(flip_fraction)).as_integer_ratio()
    n_flip = num * len(part) // den
    labels = dataset.labels.copy()
    if n_flip > 0:
        gen = stream.generator()
        chosen = gen.choice(len(part), size=n_flip, replace=False)
        flip_idx = part.sample_indices[np.sort(chosen)]
        labels[flip_idx] = -labels[flip_idx]
    return dataset.with_labels(labels)


def synth_gaussian(n: int, d: int, separation: float, stream: RngStream) -> Dataset:
    """Two spherical Gaussian clusters with means `separation` apart.

    Labels are balanced to within one sample; the positive class gets the
    extra point when n is odd.
    """
    if n < 2:
        raise ValueError("need at least two samples")
    if d < 1:
        raise ValueError("need at least one dimension")
    if separation <= 0:
        raise ValueError("separation must be > 0")
    gen = stream.generator()
    n_pos = (n + 1) // 2
    mean = np.zeros(d)
    mean[0] = separation / 2.0
    features = gen.standard_normal((n, d))
    features[:n_pos] += mean
    features[n_pos:] -= mean
    labels = np.concatenate([np.ones(n_pos), -np.ones(n - n_pos)])
    return Dataset(features, labels)


def split_sizes(n: int, test_fraction: float) -> tuple[int, int]:
    """(train, test) row counts of a split of n rows; both are >= 1 for n >= 2."""
    n_test = min(max(int(round(test_fraction * n)), 1), n - 1)
    return n - n_test, n_test


def train_test_split(dataset: Dataset, test_fraction: float,
                     stream: RngStream) -> tuple[Dataset, Dataset]:
    """Seeded shuffle split; both sides are non-empty."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    n = len(dataset)
    n_test = split_sizes(n, test_fraction)[1]
    order = stream.generator().permutation(n)
    return dataset.take(np.sort(order[n_test:])), dataset.take(np.sort(order[:n_test]))


def load_csv(path: str | Path, header: bool = False) -> Dataset:
    """Read `label,feature...` rows; the label column holds -1 or +1 literals.

    Each ``\\n``-ended line is one row: a CRLF line's ``\\r`` is blank space
    to its last cell, and a lone ``\\r`` belongs to its cell.  The file is
    read as UTF-8 whatever its name, so a compressed file is not
    decompressed.  Both parsers take the file's lines one at a time, and
    neither holds a copy of its text.  numpy's C reader parses the file; one
    that it reads differently goes through :func:`_table_from_lines`, which
    gives the same table or raises an error that names the first faulty
    ``path:line``.
    """
    table = _table_from_loadtxt(path, header)
    if table is None:
        table = _table_from_lines(path, header)
    return Dataset(table[:, 1:], table[:, 0])


def _read_utf8(path: str | Path) -> str:
    """The file's text, decoded once; a byte that is not UTF-8 is named by its line.

    Lines are counted at ``\\n``, ``\\r`` and ``\\r\\n``, as a file opened in
    text mode numbers them.
    """
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as err:
        head = raw[:err.start]
        breaks = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise ValueError(f"{path}:{breaks + 1}: not UTF-8 (byte 0x{raw[err.start]:02x})") from None


def _table_from_loadtxt(path: str | Path, header: bool) -> np.ndarray | None:
    """The file parsed by ``np.loadtxt``, or None where it may differ from the loop.

    ``loadtxt`` is given the file's lines split at ``\\n`` only, as the loop
    splits them, not the path, which it would decompress by its suffix or
    fetch as a URL.  It raises on a ``\\r`` inside a line, and a line holding
    an ASCII separator (``\\x1c``-``\\x1f``), which ``loadtxt`` strips as blank
    space and ``float()`` rejects, raises here.  It skips blank lines, where
    the loop raises, so a table is kept only with one row per data line.  A
    cell ``float()`` takes and ``loadtxt`` does not (``1_0``, non-ASCII
    digits), or a byte that is not UTF-8, raises too and goes to the loop.
    """
    lines = 0

    def counted(fh):
        nonlocal lines
        for line in fh:
            # four `in` tests scan about 5x as fast as any() over a generator
            if "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line:
                raise ValueError("ASCII separator")
            lines += 1
            yield line

    try:
        with open(path, encoding="utf-8", newline="\n") as fh, warnings.catch_warnings():
            # lines that are all blank give "input contained no data"
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(counted(fh), delimiter=",", dtype=np.float64, ndmin=2,
                               comments=None, skiprows=int(header))
    except ValueError:
        return None
    if table.shape[0] != lines - header or table.shape[1] < 2:
        return None
    return table


def _table_from_lines(path: str | Path, header: bool) -> np.ndarray:
    """The file's ``\\n``-split lines parsed one by one with ``float()``.

    Each line is decoded on its own, so the first faulty line is named,
    whether it holds a byte that is not UTF-8 or a bad cell.
    """
    values = array("d")
    width = 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as err:
                raise ValueError(f"{path}:{lineno}: not UTF-8 "
                                 f"(byte 0x{raw[err.start]:02x})") from None
            if header and lineno == 1:
                continue
            cells = line.removesuffix("\n").split(",")
            if len(cells) < 2:
                raise ValueError(f"{path}:{lineno}: expected label plus features")
            try:
                values.extend(map(float, cells))
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: {err}") from None
            width = width or len(cells)
            if len(cells) != width:
                raise ValueError(f"{path}:{lineno}: {len(cells)} columns, expected "
                                 f"{width} as on the first row")
    if not values:
        raise ValueError(f"{path}: no rows")
    return np.frombuffer(values, dtype=np.float64).reshape(-1, width)


def save_csv(dataset: Dataset, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(len(dataset)):
            label = int(dataset.labels[i])
            feats = ",".join(repr(float(v)) for v in dataset.features[i])
            fh.write(f"{label:+d},{feats}\n")
