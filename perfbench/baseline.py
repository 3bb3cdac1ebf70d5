"""Repeat the benchmark over many seeds and record medians, spreads and the traced split.

Run from the root of a checkout:

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/BASELINE.json
    python3 perfbench/baseline.py --seeds 11-20 --against perfbench/BASELINE.json

For each workload it runs ``run.py`` once per seed, untraced, in a fresh
process, and records for every end-to-end metric the median of the per-seed
values and their spread: the distance between the first and third quartile
as a share of the median.  It then makes one traced run per workload and
records the per-layer metrics, the largest layer and the tracing overhead.
With ``--against`` it also says, per workload and metric, whether the new
median is worse than the recorded one by more than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def invoke(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: no result\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(median),
            "n": len(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-10")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()
    previous = json.loads(args.against.read_text(encoding="utf-8")) if args.against else None

    report = {"seeds": args.seeds, "run_seconds": SPEC["run_seconds"], "workloads": {}}
    worse = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in args.seeds:
            details, result = invoke(workload, seed, trace=0)
            attempted += result["attempted"]
            failed += result["failed"]
            report["env"] = details["env"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, result["correct"],
                  {k: round(v["value"], 5) for k, v in result["metrics"].items()}, flush=True)
        details, traced = invoke(workload, args.seeds[0], trace=1)
        entry = {
            "runs_attempted": attempted,
            "runs_failed": failed + traced["failed"],
            "end_to_end": {name: spread(v) for name, v in values.items()},
            "traced_seed": args.seeds[0],
            "largest_layer": details.get("largest_layer"),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        report["workloads"][workload] = entry
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = entry["end_to_end"][name]
            line = f"{workload:24} {name:18} median {stats['median']:<12.6g} " \
                   f"spread {stats['spread']:.4f} (bound {bound})"
            if previous:
                old = previous["workloads"][workload]["end_to_end"][name]["median"]
                change = (stats["median"] - old) / abs(old)
                if metric["better"] == "higher":
                    change = -change
                line += f"  worse by {change:+.4f} than before"
                if change > bound:
                    worse.append(f"{workload} {name}")
            print(line, flush=True)
        print(f"{workload:24} largest layer {entry['largest_layer']}, "
              f"runs failed {entry['runs_failed']} of {attempted + traced['attempted']}",
              flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if worse:
        print("worse than before by more than the bound:", ", ".join(worse))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
