"""The benchmark's tracer wraps program names by owner and attribute.

A refactor that renames or drops one of them, or changes what a wrapped
call's arguments and result report, would only surface in a traced
benchmark run; these checks make it fail the test suite instead.
"""

import inspect
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from fedtoken import losses, rng
from fedtoken.config import ExperimentConfig, load_config, validate
from fedtoken.dual import upload_size
from fedtoken.harness import build_simulation, read_metrics, run

# imported read-only: no bytecode is written next to the benchmark's files, and
# sys.path is restored, as run.py adds the program's source directory to it
PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
saved_path = list(sys.path)
sys.path.insert(0, PERFBENCH)
sys.dont_write_bytecode, write_bytecode = True, sys.dont_write_bytecode
try:
    import run as bench_run
    import tracer
finally:
    sys.path[:] = saved_path
    sys.dont_write_bytecode = write_bytecode


def test_every_traced_name_resolves():
    missing = []
    for owner, attr, _ in tracer.TARGETS:
        try:
            inspect.getattr_static(owner, attr)
        except AttributeError:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    assert missing == []


def _installed_tracer(monkeypatch):
    # setting each name to itself lets monkeypatch restore it after install wraps it
    for owner, attr, _ in tracer.TARGETS:
        monkeypatch.setattr(owner, attr, inspect.getattr_static(owner, attr))
    monkeypatch.setattr(rng.RngStream, "generator",
                        inspect.getattr_static(rng.RngStream, "generator"))
    recorder = tracer.Tracer()
    recorder.install()
    return recorder


def test_tracer_counts_the_local_solve_work(monkeypatch, tmp_path):
    recorder = _installed_tracer(monkeypatch)
    cfg = validate(ExperimentConfig(seed=3, n_samples=80, dim=3, n_clients=6,
                                    m_fraction=0.5, rounds=2, local_passes=2,
                                    partition_scheme="dirichlet", dirichlet_beta=0.3))
    result = run(cfg, tmp_path)

    parts = result.state.partitions
    cohorts = [set(m["selected"]) | set(m["rejected"]) | set(m["flagged"])
               for m in list(read_metrics(tmp_path / "metrics.jsonl"))[:-1]]
    assert len(cohorts) == 2 and recorder.missing == []
    assert sum(span[0] == "dual.local_solve" for span in recorder.spans) == len(cohorts)
    assert recorder.counts["dual.coordinate_steps"] == \
        sum(len(parts[c]) for cohort in cohorts for c in cohort) * cfg.local_passes
    assert recorder.counts["dual.upload_bytes"] == \
        sum(len(cohort) for cohort in cohorts) * upload_size(cfg.dim)


def test_tracer_counts_the_valuation_work(monkeypatch, tmp_path):
    # every TMC query is a UtilityContext.value call, and every cache miss
    # makes exactly one mean_loss call inside it, whichever scorer the loss picks
    recorder = _installed_tracer(monkeypatch)
    spans = recorder.spans
    for loss in losses.LOSS_KINDS:
        first = len(spans)
        cfg = validate(ExperimentConfig(seed=5, n_samples=120, dim=4, n_clients=8,
                                        m_fraction=0.75, rounds=2, aggregation="fedtoken",
                                        delta=6, eps=0.01, loss=loss))
        run(cfg, tmp_path / loss)
        rounds = list(read_metrics(tmp_path / loss / "metrics.jsonl"))[:-1]

        in_value = {i for i in range(first, len(spans))
                    if spans[i][0] == "valuation.UtilityContext.value"}
        kernel_calls = sum(span[0] == tracer.MEAN_LOSS and span[3] in in_value
                           for span in spans[first:])
        queries = sum(m["utility_queries"] for m in rounds)
        evaluations = sum(m["utility_evaluations"] for m in rounds)
        assert len(rounds) == 2 and recorder.missing == [], loss
        assert queries > evaluations > 0, loss
        assert len(in_value) == queries, loss
        assert kernel_calls == evaluations, loss


def test_benchmark_poisons_the_first_clients_whose_shards_hold_only_positive_labels(
        tmp_path):
    # prepare picks the poisoners from the program's own partitions
    workload = bench_run.workloads.WORKLOADS["poisoned-shards-squared"]
    config_path, _ = bench_run.prepare(workload, 2, tmp_path, tiny=True)
    cfg = load_config(config_path)
    clean = build_simulation(replace(cfg, poison_clients=()))
    labels = clean.effective_train.labels
    pure = [p.client_id for p in clean.partitions if np.all(labels[p.sample_indices] > 0)]
    assert len(cfg.poison_clients) == 2
    assert cfg.poison_clients == tuple(pure[:2])
