"""fedtoken benchmark: three round-mix workloads, run-level metrics, per-module split.

Run from the root of a checkout:

    python3 perfbench/run.py --workload shapley-logistic --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Each run of the program is a fresh process, forked by the run server
``perfbench/child.py``, that drives ``fedtoken.harness.run`` on a config
(and, for one workload, a CSV) generated here from ``--seed``.  Runs go one
at a time with ``OPENBLAS_NUM_THREADS=1`` and ``OMP_NUM_THREADS=1`` and
repeat for ``--seconds`` (at least three times); each is checked, and the
benchmark reports medians over the runs, except for the two times:

* ``setup_s`` is the median over the runs of each run's fastest of several
  set-ups;
* ``run_s`` lines up the runs' segments (the stretches between calls into
  the program's modules, see ``tracer.mark_calls``) and adds up the fastest
  time of each segment.  Every run of one seed does the same work in
  each segment, while the shared host slows a core by up to half for spells
  of a tenth of a second to a few seconds; a segment's fastest time leaves
  those spells out once enough runs are made, so the workloads are sized
  for some thirty or more runs in 40 seconds.  The plain median of the
  runs' wall times is ``run_wall_s`` in the details.

``--trace 0`` reports the end-to-end metrics listed in ``BENCHMARK.json``,
untraced.  ``--trace 1`` spends half the time on untraced runs and half on
traced ones, and reports the per-layer metrics: medians over the traced runs,
plus the tracing overhead (traced minus untraced median wall time of the
run, which host noise can make negative).  A layer that a workload never reaches
reports 0 on it, as valuation does on ``random-quota-long``: that is the
workload's "no move" prediction, so the metric stays rather than drops out.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the spreads, sample counts, environment and any failures.  A run fails
if its process exits non-zero, if a check in ``checks.py`` fails, or if its
artifact digests or work counts differ from the first run's.  Inputs,
artifacts and spans of the latest invocation stay in ``perfbench/.work``.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# poisoners are picked with the program's own split and partition
sys.path.insert(0, str(ROOT / "src"))
CONFIG_FILE = "config.ini"
CSV_FILE = "task.csv"
TINY_CSV_ROWS = 2000

MIN_REPEATS = 3
# an invocation must end within 180 s: start no run that would likely end
# after this many seconds, and stop one that does
TIME_LIMIT_S = 165
CSV_SEPARATION = 2.0
# layers whose share of a traced run says what a workload is for
TOP_LAYERS = ("valuation.s", "dual.local_solve.s", "dual.duality_gap.s",
              "losses.mean_loss.eval_s", "tokenomics.settle_round.s",
              "ledger.append_to_file.s", "harness.build_simulation.s")


def write_csv(path: Path, rows: int, features: int, seed: int) -> None:
    """Two Gaussian classes a fixed distance apart plus a constant intercept column."""
    gen = np.random.default_rng([seed, rows, features])
    labels = np.where(np.arange(rows) < (rows + 1) // 2, 1.0, -1.0)
    x = gen.standard_normal((rows, features))
    x[:, 0] += labels * CSV_SEPARATION / 2.0
    table = np.column_stack([labels, x, np.ones(rows)])
    np.savetxt(path, table, fmt="%.17g", delimiter=",")


def same_label_clients(sections: dict, count: int) -> list[int]:
    """The lowest-id clients whose shard holds only positive labels.

    Uses the program's own split and partition, as the acceptance test does,
    so that every seed poisons the same kind of clients.
    """
    from fedtoken.data import PartitionScheme, load_csv, partition, train_test_split
    from fedtoken.rng import RngStream
    data, seed = sections["data"], sections["run"]["seed"]
    train, _ = train_test_split(load_csv(data["csv_path"]), data["test_fraction"],
                                RngStream(seed, purpose="train-test-split"))
    parts = partition(train, sections["federation"]["n_clients"],
                      PartitionScheme("label-shards", seed=seed, shards_k=data["shards_k"]))
    pure = [p.client_id for p in parts if np.all(train.labels[list(p.sample_indices)] > 0)]
    if len(pure) < count:
        raise SystemExit(f"only {len(pure)} clients hold a single positive shard")
    return pure[:count]


def prepare(workload: workloads.Workload, seed: int, run_dir: Path,
            tiny: bool = False) -> tuple[Path, dict]:
    """Write the workload's config (and CSV) for this seed; return it and the expectations."""
    sections = {name: dict(keys) for name, keys in workload.sections.items()}
    sections["run"]["seed"] = seed
    for dotted, value in (workload.tiny if tiny else {}).items():
        section, key = dotted.split(".")
        sections[section][key] = value
    if workload.csv_rows:
        csv_path = run_dir / CSV_FILE
        rows = TINY_CSV_ROWS if tiny else workload.csv_rows
        write_csv(csv_path, rows, workload.csv_features, seed)
        sections["data"]["csv_path"] = str(csv_path)
    if workload.poisoners:
        sections["attack"]["poison_clients"] = ",".join(
            map(str, same_label_clients(sections, workload.poisoners)))
    config_path = run_dir / CONFIG_FILE
    config_path.write_text("".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items()) + "\n"
        for name, keys in sections.items()), encoding="utf-8")
    fed = sections["federation"]
    expect = {
        "total_microtokens": sections["tokens"]["total_tokens"] * 10**6,
        "cohort_size": max(1, math.ceil(fed["m_fraction"] * fed["n_clients"])),
        "n_clients": fed["n_clients"],
        "valuation": workload.values_updates,
    }
    return config_path, expect


class Runner:
    """Sends runs one at a time to a ``child.py`` server, which forks a process for each.

    Use it as a context manager: leaving it stops the server and waits for it.
    """

    def __init__(self, config_path: Path, expect: dict, run_dir: Path, started: float):
        self.config_path = config_path
        self.expect = expect
        self.run_dir = run_dir
        self.started = started
        self.runs: list[dict] = []
        self.longest = 0.0
        self.log_path = run_dir / "child.log"
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=str(ROOT / "src"))
        with open(self.log_path, "w") as log:
            # its own session, so that one signal stops the server and the run it forked
            self.server = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "child.py")], cwd=ROOT, env=env,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log, text=True,
                start_new_session=True)

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.server.stdin.close()  # the server ends when its input does
        except BrokenPipeError:
            pass
        try:
            self.server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.kill()
        self.server.stdout.close()

    def kill(self) -> None:
        """Stop the server and any run it forked, and wait until all have ended."""
        try:
            os.killpg(self.server.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.server.wait()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(self.server.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)

    def log_tail(self) -> str:
        lines = self.log_path.read_text(encoding="utf-8", errors="replace").strip()
        return (lines.splitlines() or ["no output"])[-1]

    def run_once(self, traced: bool) -> None:
        index = len(self.runs)
        result_path = self.run_dir / f"run-{index}.json"
        request = {"config_path": str(self.config_path),
                   "out": str(self.run_dir / f"run-{index}"),
                   "result_path": str(result_path), "expect": self.expect, "trace": traced}
        began = time.monotonic()
        timeout = max(1.0, TIME_LIMIT_S - (began - self.started))
        try:
            self.server.stdin.write(json.dumps(request) + "\n")
            self.server.stdin.flush()
            ready, _, _ = select.select([self.server.stdout], [], [], timeout)
            reply = self.server.stdout.readline() if ready else None
        except BrokenPipeError:
            reply = ""
        if reply is None:
            self.kill()
            run = {"failures": [f"run {index} was stopped after {timeout:.0f} s"]}
        elif not reply:
            run = {"failures": [f"run {index}: the run server ended: {self.log_tail()}"]}
        elif (code := json.loads(reply)["exit"]) != 0:
            run = {"failures": [f"run {index} exited {code}: {self.log_tail()}"]}
        else:
            run = json.loads(result_path.read_text(encoding="utf-8"))
        self.longest = max(self.longest, time.monotonic() - began)
        run["traced"] = traced
        self.runs.append(run)

    def repeat(self, traced: bool, seconds: float) -> None:
        """At least MIN_REPEATS runs, then more while the next one should end in time."""
        began = time.monotonic()
        done = 0
        while True:
            elapsed = time.monotonic() - began
            if done >= MIN_REPEATS and elapsed + elapsed / done > seconds:
                break
            if done and time.monotonic() - self.started + self.longest > TIME_LIMIT_S:
                break
            self.run_once(traced)
            done += 1
            if self.server.poll() is not None:
                break


def compare_runs(reference: dict, run: dict) -> list[str]:
    """Failures where a run's artifact digests or work counts differ from the reference's."""
    failures = [f"{name} digest differs from the first run"
                for name, digest in run["digests"].items()
                if digest != reference["digests"][name]]
    failures += [f"count {name} = {value} differs from the first run's "
                 f"{reference['counts'][name]}"
                 for name, value in run["counts"].items()
                 if value != reference["counts"].get(name, value)]
    return failures


def fastest_segments(segments: list[list[float]]) -> float | None:
    """Sum over segment positions of the fastest run's time of that segment.

    None when the runs were cut into different numbers of segments.
    """
    if len({len(s) for s in segments}) != 1:
        return None
    return sum(map(min, zip(*segments)))


def stats(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def measure(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload; return the result object and the details behind it."""
    started = time.monotonic()
    WORK_DIR.mkdir(exist_ok=True)
    with open(WORK_DIR / "lock", "w") as lock:
        # one invocation at a time: runs must not share the machine
        fcntl.flock(lock, fcntl.LOCK_EX)
        run_dir = WORK_DIR / "current"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir()
        config_path, expect = prepare(workloads.WORKLOADS[name], seed, run_dir, tiny)
        with Runner(config_path, expect, run_dir, started) as runner:
            runner.repeat(traced=False, seconds=seconds / 2 if trace else seconds)
            if trace:
                runner.repeat(traced=True, seconds=seconds / 2)

    runs = runner.runs
    good = [r for r in runs if not r["failures"]]
    if good:
        # traced runs add counts the untraced ones lack; each count's first value rules
        reference = {"digests": good[0]["digests"], "counts": {}}
        for run in good:
            for key, value in run["counts"].items():
                reference["counts"].setdefault(key, value)
        for run in good:
            run["failures"] += compare_runs(reference, run)
    failures = [f for r in runs for f in r["failures"]]
    untraced = [r for r in runs if not r["failures"] and not r["traced"]]
    traced = [r for r in runs if not r["failures"] and r["traced"]]

    details = {"workload": name, "seed": seed, "trace": int(trace), "runs": len(runs),
               "runs_failed": sum(1 for r in runs if r["failures"]) / len(runs),
               "failures": failures, "env": runs[0].get("env")}
    values: dict[str, list[float]] = {}
    if untraced:
        for key in ("setup_s", "peak_rss_mb", "final_test_loss", "final_gap_root4"):
            values[key] = [r[key] for r in untraced]
        values["run_wall_s"] = [r["run_s"] for r in untraced]
        fastest = fastest_segments([r["run_segments"] for r in untraced])
        if fastest is None:
            failures.append("runs of one seed differ in their number of segments")
        else:
            values["run_s"] = [fastest]
    if traced:
        for key in traced[0]["layers"]:
            values[key] = [r["layers"][key] for r in traced]
        if untraced:
            untraced_run_s = statistics.median(r["run_s"] for r in untraced)
            values["trace.overhead_s"] = [r["run_s"] - untraced_run_s for r in traced]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    details["stats"] = {name: stats(values[name])
                        for name in [m["name"] for m in wanted] + ["run_wall_s"]
                        if name in values}
    metrics = {m["name"]: {"value": details["stats"][m["name"]]["median"], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    layers = {key: metrics[key]["value"] for key in TOP_LAYERS if key in metrics}
    if layers:
        details["largest_layer"] = max(layers, key=layers.get)
    if len(metrics) != len(wanted):
        failures.append("some metrics could not be measured")
    result = {"correct": not failures, "attempted": len(runs),
              "failed": sum(1 for r in runs if r["failures"]), "metrics": metrics}
    return result, details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "fedtoken" / "harness.py").is_file():
        print(f"error: no fedtoken sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(details))
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        result, details = measure(name, args.seed, args.seconds, bool(args.trace))
        for metric, m in result["metrics"].items():
            s = details["stats"][metric]
            print(f"{name:24} {metric:36} {m['value']:<14.6g} {m['unit']:11} "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")
            total["metrics"][f"{name}.{metric}"] = m
        print(f"{name:24} {'runs_failed':36} {details['runs_failed']:<14.6g} share")
        for failure in details["failures"]:
            print(f"{name:24} FAILED {failure}")
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
