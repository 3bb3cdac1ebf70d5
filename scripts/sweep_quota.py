#!/usr/bin/env python3
"""Quota-ratio sweep: how the enrolment cap shapes accuracy and spend.

Runs the default synthetic task at several |Q|/|M| ratios and prints the
comparison table (final accuracy, rounds to target, tokens, bytes).

Usage:
    python scripts/sweep_quota.py [--ratios 0.2,0.4,0.6,0.8,1.0] [--seed 7]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fedtoken.config import ExperimentConfig, validate
from fedtoken.harness import SWEEP_COLUMNS, sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ratios", default="0.2,0.4,0.6,0.8,1.0")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    cfg = validate(ExperimentConfig(
        seed=args.seed, n_clients=20, m_fraction=0.5, rounds=args.rounds,
        n_samples=600, dim=5, separation=2.0, lam=0.02, loss="logistic",
        delta=4, eps=0.0, total_tokens=100000, partition_scheme="label-shards",
        shards_k=2, target_accuracy=0.7,
    ))
    ratios = [float(r) for r in args.ratios.split(",")]
    rows = sweep(cfg, "quota_ratio", ratios, args.out)
    print("  ".join(f"{c:>26}" for c in SWEEP_COLUMNS))
    for row in rows:
        print("  ".join(f"{str(row[c]):>26}" for c in SWEEP_COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
