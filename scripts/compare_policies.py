#!/usr/bin/env python3
"""Selection-efficacy comparison on a poisoned non-iid task.

Builds a two-cluster dataset with a constant intercept feature, partitions
it into single-label shards, flips all labels of two same-class clients,
and races fedtoken against random-quota and fedavg-all on rounds (and
committed bytes) to a target test accuracy, over several seeds.

Usage:
    python scripts/compare_policies.py [--seeds 100,101,102,103,104] [--out DIR]
"""

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fedtoken.config import ExperimentConfig, validate
from fedtoken.data import (Dataset, PartitionScheme, load_csv, partition,
                           save_csv, synth_gaussian, train_test_split)
from fedtoken.harness import run
from fedtoken.rng import RngStream

POLICIES = ("fedtoken", "random-quota", "fedavg-all")


def write_task(seed: int, directory: Path) -> Path:
    base = synth_gaussian(2000, 4, 2.0, RngStream(seed, purpose="synth-data"))
    full = Dataset(np.hstack([base.features, np.ones((len(base), 1))]), base.labels)
    path = directory / f"task-{seed}.csv"
    save_csv(full, path)
    return path


def same_label_poison_pair(seed: int, csv_path: Path) -> tuple[int, ...]:
    full = load_csv(csv_path)
    train, _ = train_test_split(full, 0.5, RngStream(seed, purpose="train-test-split"))
    parts = partition(train, 10, PartitionScheme("label-shards", seed=seed, shards_k=1))
    pure_positive = [p.client_id for p in parts
                     if np.all(train.labels[p.sample_indices] > 0)]
    return tuple(pure_positive[:2])


def build_config(seed: int, policy: str, csv_path: Path, poison) -> ExperimentConfig:
    return validate(ExperimentConfig(
        seed=seed, n_clients=10, m_fraction=1.0, quota=5, rounds=40,
        data_source="csv", csv_path=str(csv_path), test_fraction=0.5,
        loss="squared", lam=0.02, nu="auto", aggregation=policy,
        partition_scheme="label-shards", shards_k=1, local_passes=2,
        poison_clients=poison, flip_fraction=1.0, delta=4, eps=0.0,
        total_tokens=100000, target_accuracy=0.7,
    ))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="100,101,102,103,104")
    parser.add_argument("--out", default=None, help="write per-run artifacts here")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    out = Path(args.out) if args.out else None
    workdir = Path(tempfile.mkdtemp(prefix="fedtoken-compare-"))

    header = f"{'seed':>6}  {'poisoned':>10}" + "".join(f"  {p:>14}" for p in POLICIES)
    print(header)
    print("-" * len(header))
    totals = {p: [] for p in POLICIES}
    for seed in seeds:
        csv_path = write_task(seed, workdir)
        poison = same_label_poison_pair(seed, csv_path)
        cells = []
        for policy in POLICIES:
            cfg = build_config(seed, policy, csv_path, poison)
            sub = out / f"seed-{seed}" / policy if out else None
            res = run(cfg, sub)
            rounds_to = res.summary["rounds_to_target_accuracy"]
            totals[policy].append(rounds_to if rounds_to is not None else cfg.rounds + 1)
            cells.append("never" if rounds_to is None else str(rounds_to))
        print(f"{seed:>6}  {str(poison):>10}" + "".join(f"  {c:>14}" for c in cells))
    print("-" * len(header))
    means = "".join(f"  {np.mean(totals[p]):>14.1f}" for p in POLICIES)
    print(f"{'mean':>6}  {'':>10}{means}   (rounds to 70% accuracy; never = horizon + 1)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
