"""Self-test of the benchmark: tiny workloads, metric names and units, the checks.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Every workload runs at a tiny size, traced and untraced, and must pass its
checks and report every metric of ``BENCHMARK.json`` with its unit.  A ledger
with one flipped byte, a run with a mismatched digest and a tracer that
lost track of the program's calls must each be reported as failures, and
``run_s`` must add up each segment's fastest time.  Exits non-zero on the
first test that fails.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # puts the checkout's src on the path, which checks needs
import checks
import tracer as tracing
import workloads

SEED = 3


def test_spec_matches_workloads() -> None:
    spec = run.SPEC
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "metric names repeat"
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])


def test_tiny_workloads() -> None:
    """Each workload at a tiny size passes its checks and prints every metric."""
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result, details = run.measure(name, SEED, seconds=0, trace=trace, tiny=True)
            assert result["correct"] and result["failed"] == 0, details["failures"]
            wanted = run.SPEC["per_layer" if trace else "end_to_end"]
            assert [(m, v["unit"]) for m, v in result["metrics"].items()] == \
                [(m["name"], m["unit"]) for m in wanted]
            for metric, value in result["metrics"].items():
                print(f"  {name:24} {metric:36} {value['value']:<12.6g} {value['unit']}")
            if trace:
                queries = result["metrics"]["valuation.utility_queries"]["value"]
                assert (queries > 0) == workloads.WORKLOADS[name].values_updates


def _last_result(index: int) -> dict:
    """Result of a run left in the work directory by the latest measure."""
    path = run.WORK_DIR / "current" / f"run-{index}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def test_flipped_ledger_byte_fails() -> None:
    scratch = run.WORK_DIR / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    run.measure("random-quota-long", SEED, seconds=0, trace=False, tiny=True)
    _, expect = run.prepare(workloads.WORKLOADS["random-quota-long"], SEED, scratch, tiny=True)
    copy = scratch / "artifacts"
    shutil.copytree(run.WORK_DIR / "current" / "run-0", copy)
    failures, _, _ = checks.check_run(copy, expect)
    assert not failures, failures
    ledger_path = copy / "ledger.ftlg"
    blob = bytearray(ledger_path.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    ledger_path.write_bytes(bytes(blob))
    failures, _, _ = checks.check_run(copy, expect)
    assert any("ledger" in f for f in failures), failures


def test_mismatched_digest_fails() -> None:
    reference, other = _last_result(0), _last_result(1)
    assert run.compare_runs(reference, other) == []
    other["digests"]["model.bin"] = "0" * 64
    assert any("model.bin" in f for f in run.compare_runs(reference, other))
    other["counts"]["ledger.bytes_written"] += 1
    assert any("ledger.bytes_written" in f for f in run.compare_runs(reference, other))


def test_fastest_segments() -> None:
    """run_s adds up each segment's fastest time, and needs runs cut alike."""
    assert run.fastest_segments([[1.0, 5.0, 2.0], [3.0, 1.0, 2.5]]) == 4.0
    assert run.fastest_segments([[1.0, 2.0], [1.0, 2.0, 3.0]]) is None


def test_tracer_disagreement_fails() -> None:
    """A wrapped name that is gone, or spans that miss the program's work, fail a run."""
    tracer = tracing.Tracer()  # not installed, so it records no span
    tracer.missing.append("fedtoken.scheduler.local_solve")
    counts = {"valuation.utility_queries": 4, "valuation.utility_evaluations": 3,
              "tokenomics.microtokens_issued": 0, "scheduler.rounds": 0,
              "ledger.bytes_written": 0}
    _, failures = tracing.layer_metrics(tracer, counts, (10, 2))
    assert any("local_solve" in f for f in failures), failures
    assert any("valuation.utility_evaluations" in f for f in failures), failures


def main() -> int:
    tests = [test_spec_matches_workloads, test_tiny_workloads,
             test_flipped_ledger_byte_fails, test_mismatched_digest_fails,
             test_fastest_segments, test_tracer_disagreement_fails]
    for test in tests:
        print(test.__name__)
        test()
        print("  ok")
    shutil.rmtree(run.WORK_DIR / "selftest", ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
