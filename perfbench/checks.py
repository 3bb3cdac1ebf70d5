"""Correctness checks on one run's artifacts.

The checks return failure messages instead of raising, so that a broken run
is counted in ``failed`` and the benchmark still reports the rest.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from fedtoken import ledger

DIGESTED = ("metrics.jsonl", "ledger.ftlg", "model.bin")
MAX_EFFICIENCY_RESIDUAL = 1e-9


def _reject_constant(name):
    raise ValueError(f"bare {name} is not JSON")


def read_strict_jsonl(path: Path) -> list[dict]:
    """Parse JSON lines, refusing NaN and Infinity literals."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line, parse_constant=_reject_constant) for line in fh if line.strip()]


def digests(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in DIGESTED}


def check_run(out_dir: Path, expect: dict) -> tuple[list[str], dict, dict]:
    """Check one run's artifacts against the paper's invariants.

    ``expect`` holds what the benchmark put into the config: ``total_microtokens``,
    ``cohort_size``, ``n_clients`` and ``valuation`` (whether the policy values
    updates).  Returns the failures, the run's summary record and its counts.
    """
    failures: list[str] = []
    try:
        records = read_strict_jsonl(out_dir / "metrics.jsonl")
    except ValueError as err:
        return [f"metrics.jsonl is not strict JSON: {err}"], {}, {}
    rounds = [r for r in records if r.get("record") == "round"]
    summary = records[-1] if records else {}
    if summary.get("record") != "summary" or len(rounds) != len(records) - 1:
        return ["metrics.jsonl does not end in exactly one summary record"], {}, {}
    if json.loads((out_dir / "summary.json").read_text(encoding="utf-8")) != summary:
        failures.append("summary.json differs from the summary record")
    if [r["round"] for r in rounds] != list(range(1, len(rounds) + 1)) \
            or summary["rounds_executed"] != len(rounds):
        failures.append("round records are not numbered 1..rounds_executed")

    bad, blocks = ledger.verify_file(out_dir / "ledger.ftlg")
    if bad is not None:
        failures.append(f"ledger verification fails at block {bad}")
    if blocks != summary["rounds_executed"]:
        failures.append(f"ledger has {blocks} blocks for {summary['rounds_executed']} rounds")

    issued = summary["tokens_issued_microtokens"]
    if issued + summary["budget_remaining_microtokens"] != expect["total_microtokens"]:
        failures.append("issued + remaining tokens differ from the budget")
    if sum(r["tokens_contribution"] + r["tokens_participation"] for r in rounds) != issued:
        failures.append("per-round token awards do not sum to the tokens issued")
    if bad is None and sum(ledger.Chain.load(out_dir / "ledger.ftlg").balances().values()) \
            != issued:
        failures.append("ledger balances do not sum to the tokens issued")

    for r in rounds:
        groups = [set(r["selected"]), set(r["rejected"]), set(r["flagged"])]
        cohort = set().union(*groups)
        if sum(map(len, groups)) != len(cohort) or len(cohort) != expect["cohort_size"] \
                or not all(0 <= c < expect["n_clients"] for c in cohort):
            failures.append(f"round {r['round']}: selected, rejected and flagged "
                            "do not partition the cohort")
        residual = r["efficiency_residual"]
        if expect["valuation"] != (residual is not None) or \
                (residual is not None and abs(residual) > MAX_EFFICIENCY_RESIDUAL):
            failures.append(f"round {r['round']}: efficiency residual {residual}")
    for key in ("final_test_loss", "final_duality_gap"):
        if not isinstance(summary[key], float) or not math.isfinite(summary[key]) \
                or summary[key] <= 0.0:
            failures.append(f"{key} is {summary[key]!r}, not a positive number")

    counts = {
        "valuation.utility_queries": sum(r["utility_queries"] for r in rounds),
        "valuation.utility_evaluations": sum(r["utility_evaluations"] for r in rounds),
        "scheduler.rounds": len(rounds),
        "ledger.bytes_written": (out_dir / "ledger.ftlg").stat().st_size,
        "tokenomics.microtokens_issued": issued,
    }
    return failures, summary, counts

