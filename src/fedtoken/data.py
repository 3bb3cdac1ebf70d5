"""Datasets, client partitions, poisoning transforms, and synthetic data.

Labels are binary {-1.0, +1.0}.  A :class:`Dataset` stores features as an
``(n, d)`` float64 array and labels as an ``(n,)`` float64 array; all
operations here are pure functions of their inputs and streams, so any
two runs with the same seeds produce identical partitions and views.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .rng import RngStream

VALID_SCHEMES = ("iid", "label-shards", "dirichlet")


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

    def with_labels(self, labels: np.ndarray) -> "Dataset":
        return Dataset(self.features, labels)

    def take(self, indices: np.ndarray) -> "Dataset":
        indices = np.asarray(indices, dtype=np.intp)
        return Dataset(self.features[indices], self.labels[indices])


@dataclass(frozen=True)
class ClientPartition:
    client_id: int
    sample_indices: tuple[int, ...]
    # the same indices as an intp array, built once for fancy indexing
    rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.sample_indices)) != len(self.sample_indices):
            raise ValueError("partition indices must be unique")
        object.__setattr__(self, "rows", np.asarray(self.sample_indices, dtype=np.intp))

    def __len__(self) -> int:
        return len(self.sample_indices)


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
        if self.dirichlet_beta <= 0:
            raise ValueError("dirichlet_beta must be > 0")


def _even_chunk_sizes(total: int, parts: int) -> list[int]:
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def _partition_iid(n: int, n_clients: int, gen: np.random.Generator) -> list[list[int]]:
    order = gen.permutation(n)
    sizes = _even_chunk_sizes(n, n_clients)
    out, pos = [], 0
    for size in sizes:
        out.append(np.sort(order[pos:pos + size]).tolist())
        pos += size
    return out

def _partition_label_shards(labels: np.ndarray, n_clients: int, k: int,
                            gen: np.random.Generator) -> list[list[int]]:
    # Shards are carved within a single label so that a client holding k
    # shards sees at most k distinct labels.
    values = sorted(float(v) for v in np.unique(labels))
    n = labels.shape[0]
    n_shards = n_clients * k
    if n_shards < len(values):
        raise InfeasiblePartitionError(
            f"label-shards({k}) with {n_clients} clients cannot cover {len(values)} labels")
    counts = {v: int(np.sum(labels == v)) for v in values}
    shard_counts = _proportional_counts([counts[v] for v in values], n_shards)
    shards: list[list[int]] = []
    for v, n_label_shards in zip(values, shard_counts):
        idx = np.flatnonzero(labels == v)
        idx = idx[gen.permutation(idx.shape[0])]
        pos = 0
        for size in _even_chunk_sizes(idx.shape[0], n_label_shards):
            shards.append([int(i) for i in idx[pos:pos + size]])
            pos += size
    order = gen.permutation(len(shards))
    out = []
    for c in range(n_clients):
        merged: list[int] = []
        for s in order[c * k:(c + 1) * k]:
            merged.extend(shards[s])
        out.append(sorted(merged))
    return out


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
                         gen: np.random.Generator) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(n_clients)]
    for v in sorted(float(v) for v in np.unique(labels)):
        idx = np.flatnonzero(labels == v)
        idx = idx[gen.permutation(idx.shape[0])]
        props = gen.dirichlet(np.full(n_clients, beta))
        cuts = np.floor(np.cumsum(props) * idx.shape[0]).astype(int)
        cuts[-1] = idx.shape[0]
        pos = 0
        for c in range(n_clients):
            out[c].extend(int(i) for i in idx[pos:cuts[c]])
            pos = cuts[c]
    return [sorted(part) for part in out]


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
        return [ClientPartition(0, tuple(range(len(dataset))))]
    gen = RngStream(scheme.seed, purpose=f"partition-{scheme.kind}").generator()
    if scheme.kind == "iid":
        parts = _partition_iid(len(dataset), n_clients, gen)
    elif scheme.kind == "label-shards":
        parts = _partition_label_shards(dataset.labels, n_clients, scheme.shards_k, gen)
    else:
        parts = _partition_dirichlet(dataset.labels, n_clients, scheme.dirichlet_beta, gen)
    return [ClientPartition(c, tuple(p)) for c, p in enumerate(parts)]


def poison_labels(part: ClientPartition, dataset: Dataset, flip_fraction: float,
                  stream: RngStream) -> Dataset:
    """Return a copy of the dataset with some of the partition's labels negated.

    Exactly ``floor(flip_fraction * len(part))`` labels are flipped, chosen
    uniformly by the stream; the input dataset is left untouched.
    """
    if not 0.0 <= flip_fraction <= 1.0:
        raise ValueError("flip_fraction must be in [0, 1]")
    n_flip = int(flip_fraction * len(part))
    labels = dataset.labels.copy()
    if n_flip > 0:
        gen = stream.generator()
        chosen = gen.choice(len(part), size=n_flip, replace=False)
        flip_idx = part.rows[np.sort(chosen)]
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
    """Read `label,feature...` rows; the label column holds -1 or +1 literals."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if header and lines:
        lines = lines[1:]
    for lineno, line in enumerate(lines, start=2 if header else 1):
        cells = line.split(",")
        if len(cells) < 2:
            raise ValueError(f"{path}:{lineno}: expected label plus features")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from None
    if not rows:
        raise ValueError(f"{path}: no rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: rows have inconsistent column counts")
    arr = np.asarray(rows, dtype=np.float64)
    return Dataset(arr[:, 1:], arr[:, 0])


def save_csv(dataset: Dataset, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(len(dataset)):
            label = int(dataset.labels[i])
            feats = ",".join(repr(float(v)) for v in dataset.features[i])
            fh.write(f"{label:+d},{feats}\n")
