"""The benchmark's run server: forks one fresh process per run of the program.

Started once per invocation by ``run.py``, from the root of the checkout,
with ``PYTHONPATH`` pointing at its ``src`` and one BLAS thread.  It imports
numpy and fedtoken once, then reads run requests, one JSON line each, from
standard input.  For each it forks a process that loads the config, runs,
checks and writes one JSON result, and it answers with one line holding that
process's exit code.  Forking spares each run the interpreter start and the
imports, which the run's metrics leave out anyway, so that more runs fit in
the measured time.  The server ends when its standard input closes.

A run times ``config.load_config`` plus ``harness.build_simulation`` as
set-up and the rest of ``harness.run`` as the run.  The run is cut into
segments at each call into a name the tracer knows (``tracer.mark_calls``),
so that ``run.py`` can line up the same segment of every run.  An untraced
run then sets up again, SETUP_REPEATS times in all, and reports its fastest
set-up.  A traced run instead records spans around the calls into each
module and adds the per-layer split.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import fedtoken
from fedtoken import config, harness

if not Path(fedtoken.__file__).resolve().is_relative_to(Path("src").resolve()):
    raise SystemExit(f"fedtoken imported from {fedtoken.__file__}, not ./src")

import checks  # noqa: E402  (needs the fedtoken of ./src)
import tracer as tracing  # noqa: E402

SETUP_REPEATS = 3


def peak_rss_mb() -> float:
    """Peak resident memory of this process, read from VmHWM.

    A forked process starts its VmHWM at its own resident size, so the
    server's memory counts only as far as the run process maps it.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def environment() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_once(config_path: str, out: str, result_path: str, expect: dict,
             trace: bool) -> None:
    """One run of the program on ``config_path``; writes its result to ``result_path``."""
    out_dir, result_file = Path(out), Path(result_path)
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()

    build_seconds = []
    build_ends = []
    build = harness.build_simulation

    def timed_build(cfg):
        start = time.perf_counter()
        try:
            return build(cfg)
        finally:
            build_ends.append(time.perf_counter())
            build_seconds.append(build_ends[-1] - start)

    marks = []
    if tracer is None:
        tracing.mark_calls(marks)
    harness.build_simulation = timed_build
    start = time.perf_counter()
    cfg = config.load_config(config_path)
    loaded = time.perf_counter()
    outcome = harness.run(cfg, out_dir)
    end = time.perf_counter()
    peak_mb = peak_rss_mb()
    setups = [loaded - start + build_seconds[0]]
    while tracer is None and len(setups) < SETUP_REPEATS:
        again = time.perf_counter()
        build(config.load_config(config_path))
        setups.append(time.perf_counter() - again)
    bounds = [build_ends[0], *(t for t in marks if build_ends[0] < t < end), end]

    failures, summary, counts = checks.check_run(out_dir, expect)
    gap = summary.get("final_duality_gap")
    result = {
        "setup_s": min(setups),
        "run_s": end - build_ends[0],
        # the stretches between the end of set-up, each call into a traced
        # name and the end of the run
        "run_segments": [b - a for a, b in zip(bounds, bounds[1:])],
        "peak_rss_mb": peak_mb,
        "final_test_loss": summary.get("final_test_loss"),
        # a relative bound b on the fourth root lets the gap itself grow by
        # (1 + b) ** 4 on every workload; the root damps the gap's spread
        # across seeds, wider than any allowed bound, fourfold
        "final_gap_root4": gap ** 0.25 if not failures else None,
        "failures": failures,
        "digests": checks.digests(out_dir),
        "counts": counts,
        "env": environment(),
    }
    if tracer is not None:
        tracer.write(result_file.with_suffix(".spans.jsonl"))
    if tracer is not None and counts:
        layers, trace_failures = tracing.layer_metrics(
            tracer, counts, outcome.state.test.features.shape)
        result["layers"] = layers
        result["failures"] += trace_failures
        result["counts"]["dual.coordinate_steps"] = layers["dual.coordinate_steps"]
    result_file.write_text(json.dumps(result), encoding="utf-8")


def serve() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        pid = os.fork()
        if pid == 0:
            # standard output carries the server's replies only
            os.dup2(2, 1)
            code = 1
            try:
                run_once(**request)
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                sys.stderr.flush()
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        print(json.dumps({"exit": os.waitstatus_to_exitcode(status)}), flush=True)


if __name__ == "__main__":
    serve()
