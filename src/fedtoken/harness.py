"""End-to-end run driver: build state, loop rounds, emit artifacts.

A run writes four files into the output directory:

* ``metrics.jsonl``  - one JSON record per executed round plus a final
  summary record (sorted keys, so identical configs produce identical bytes)
* ``ledger.ftlg``    - the hash-chained token ledger, written block by block
  through one unbuffered handle, so each round's block is in the file when
  the round ends; a run with no block leaves the 6-byte header alone
* ``model.bin``      - final model snapshot
* ``summary.json``   - the summary record on its own, for convenience

Sweeps re-run the same config while varying one axis, each value in its
own subdirectory, and return a comparison table.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import ledger as ledger_mod
from . import scheduler, tokenomics
from .config import ConfigError, ExperimentConfig, with_overrides
from .data import Dataset, load_csv, partition, PartitionScheme, poison_labels, \
    synth_gaussian, train_test_split
from .dual import GlobalModel, save_model
from .losses import LOGISTIC
from .rng import RngStream
from .scheduler import RoundMetrics, SimulationState

# axis -> (the type its config field holds, the config overrides for a value)
SWEEP_AXES = {
    "quota_ratio": (float, lambda v: {"quota": None, "quota_ratio": v}),
    "delta": (int, lambda v: {"delta": v}),
    "budget": (int, lambda v: {"total_tokens": v, "per_round_microtokens": None}),
}
# one sweep row's fields after "axis": the value, then per-run totals
SWEEP_COLUMNS = ("value", "rounds_executed", "stop_reason", "rounds_to_target_accuracy",
                 "final_test_accuracy", "tokens_issued_microtokens",
                 "uploaded_bytes", "committed_bytes", "utility_queries")

METRICS_FILE = "metrics.jsonl"
LEDGER_FILE = "ledger.ftlg"
MODEL_FILE = "model.bin"
SUMMARY_FILE = "summary.json"


@dataclass
class RunResult:
    """A finished run; its rounds are in its artifacts, not here."""
    config: ExperimentConfig
    summary: dict
    state: SimulationState


def _load_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.data_source == "csv":
        try:
            return load_csv(cfg.csv_path, header=cfg.csv_header)
        except ValueError as err:
            # a missing or unreadable file is an OSError and stays a runtime error
            raise ConfigError(f"data.csv_path: {err}") from err
    stream = RngStream(cfg.seed, purpose="synth-data")
    return synth_gaussian(cfg.n_samples, cfg.dim, cfg.separation, stream)


def build_simulation(cfg: ExperimentConfig) -> SimulationState:
    full = _load_dataset(cfg)
    train, test = train_test_split(full, cfg.test_fraction,
                                   RngStream(cfg.seed, purpose="train-test-split"))
    if len(train) < cfg.n_clients:
        # config.validate checks this for synthetic data; a CSV's rows are known only now
        raise ConfigError(f"data.csv_path: its training split has {len(train)} rows, "
                          f"fewer than the {cfg.n_clients} clients")
    if cfg.loss == LOGISTIC:
        # |alpha_i| <= 1 bounds the model by |w| <= R / lambda, R the largest row
        # norm over both splits.  R^2 finite and R / lambda <= 1e150 keep |w|^2
        # (<= 1e300) and each margin |x.w| <= R^2 / lambda (< 1.4e304) finite.
        with np.errstate(over="ignore"):
            r2 = float(np.max(np.einsum("ij,ij->i", full.features, full.features)))
        if not math.isfinite(r2):
            key = "data.csv_path" if cfg.data_source == "csv" else "data.separation"
            raise ConfigError(f"{key}: a feature row's squared norm overflows a float")
        if math.sqrt(r2) > 1e150 * cfg.lam:
            raise ConfigError(f"learning.lambda: {cfg.lam} puts the logistic model's norm "
                              f"bound R / lambda above 1e150, with feature rows of norm "
                              f"up to R = {math.sqrt(r2):.6g}")
    scheme = PartitionScheme(kind=cfg.partition_scheme, seed=cfg.seed,
                             shards_k=cfg.shards_k, dirichlet_beta=cfg.dirichlet_beta)
    parts = partition(train, cfg.n_clients, scheme)
    effective = train
    for c in cfg.poison_clients:
        effective = poison_labels(parts[c], effective, cfg.flip_fraction,
                                  RngStream(cfg.seed, client=c, purpose="poison"))
    budget = tokenomics.Budget(
        total_microtokens=cfg.total_microtokens,
        per_round_microtokens=cfg.resolved_per_round_microtokens,
        participation_base_microtokens=cfg.resolved_participation_base,
        remaining=cfg.total_microtokens,
    )
    return SimulationState(
        effective_train=effective,
        test=test,
        partitions=parts,
        model=GlobalModel(np.zeros(train.d)),
        alpha=np.zeros(len(train)),
        budget=budget,
        chain=ledger_mod.Chain(),
    )


def _summary(cfg: ExperimentConfig, last: RoundMetrics | None,
             rounds_to_target: int | None, stop_reason: str) -> dict:
    """The summary of a run whose last written round record is ``last``."""
    remaining = last.budget_remaining if last else cfg.total_microtokens
    return {
        "record": "summary",
        "policy": cfg.aggregation,
        "seed": cfg.seed,
        "rounds_executed": last.round if last else 0,
        "stop_reason": stop_reason,
        "target_accuracy": cfg.target_accuracy,
        "rounds_to_target_accuracy": rounds_to_target,
        "final_test_accuracy": last.test_accuracy if last else None,
        "final_test_loss": last.test_loss if last else None,
        "final_duality_gap": last.duality_gap if last else None,
        "uploaded_bytes": last.uploaded_bytes if last else 0,
        "committed_bytes": last.committed_bytes if last else 0,
        "tokens_issued_microtokens": cfg.total_microtokens - remaining,
        "budget_remaining_microtokens": remaining,
    }


def _json_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, allow_nan=False) + "\n"


def run(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> RunResult:
    """Execute rounds until the horizon or the budget-exhausted signal.

    Each round's block, then its record, is written as the round ends; the
    run keeps only the last record, which the summary is built from.

    If a run with an output directory raises after opening its outputs, it
    ends ``metrics.jsonl`` and ``summary.json`` with a summary whose
    ``stop_reason`` is ``"error"``, naming the failed round, the phase it
    failed in and the error, and then re-raises.
    """
    state = build_simulation(cfg)
    out = Path(out_dir) if out_dir is not None else None
    metrics_fh = ledger_fh = None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        metrics_fh = open(out / METRICS_FILE, "w", encoding="utf-8", newline="\n")

    # the last round record written and the first round at the target accuracy
    last, rounds_to_target = None, None
    stop_reason = "horizon"
    failed_round = None
    # the phase in progress; None while round_step runs, as it names its own
    phase = "write"
    try:
        if out is not None:
            ledger_fh = open(out / LEDGER_FILE, "wb", buffering=0)
            ledger_fh.write(ledger_mod.LEDGER_HEADER)
        for _ in range(cfg.rounds):
            failed_round = state.round + 1
            phase = None
            m = scheduler.round_step(state, cfg)
            phase = "write"
            if out is not None:
                # a record that is not strict JSON fails before its block is written
                line = _json_line(m.to_record())
                ledger_mod.append_to_file(ledger_fh, state.chain.head)
                metrics_fh.write(line)
                metrics_fh.flush()
            last = m
            if rounds_to_target is None and m.test_accuracy >= cfg.target_accuracy:
                rounds_to_target = m.round
            # a budget spent by the last round did not stop the run early
            if state.budget.exhausted and m.round < cfg.rounds:
                stop_reason = "budget-exhausted"
                break
        failed_round = None
        phase = "write"
        summary = _summary(cfg, last, rounds_to_target, stop_reason)
        if metrics_fh is not None:
            metrics_fh.write(_json_line(summary))
    except Exception as err:
        if metrics_fh is not None:
            # `last` was written as strict JSON, so this is too
            failed = _summary(cfg, last, rounds_to_target, "error")
            failed.update(failed_round=failed_round,
                          failed_phase=getattr(err, "failed_phase", phase),
                          error=f"{type(err).__name__}: {err}")
            metrics_fh.write(_json_line(failed))
            _write_summary(out, failed)
        raise
    finally:
        if metrics_fh is not None:
            metrics_fh.close()
        if ledger_fh is not None:
            ledger_fh.close()
    if out is not None:
        save_model(out / MODEL_FILE, state.model.phi)
        _write_summary(out, summary)
    return RunResult(config=cfg, summary=summary, state=state)


def _write_summary(out: Path, summary: dict) -> None:
    text = json.dumps(summary, sort_keys=True, indent=2, allow_nan=False)
    (out / SUMMARY_FILE).write_text(text + "\n", encoding="utf-8")


def _axis_value(axis: str, kind: type, value) -> int | float:
    """The value as the axis's config field holds it."""
    if kind is int and not float(value).is_integer():
        raise ConfigError(f"sweep axis {axis}: {value!r} is not an integer")
    return kind(value)


def sweep(cfg: ExperimentConfig, axis: str, values, out_dir: str | Path | None = None) -> list[dict]:
    """One run per axis value under a shared seed schedule; returns table rows.

    Values on the integer axes (``delta``, ``budget``) are stored, printed
    and named as ints, so ``2.0`` there is ``2``.  An empty list, a
    fractional value there or a repeat (``0.5,0.50``; ``2,2.0``), whose run
    would overwrite the first's artifacts, is a ``ConfigError`` before any
    run.  A row holds ``axis`` and the ``SWEEP_COLUMNS``, written as its run ends.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {tuple(SWEEP_AXES)}")
    kind, overrides = SWEEP_AXES[axis]
    values = [_axis_value(axis, kind, v) for v in values]
    if not values:
        raise ConfigError(f"sweep axis {axis}: no value given")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"sweep axis {axis}: value {value!r} is given twice")
    configs = [with_overrides(cfg, **overrides(v)) for v in values]
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    rows = []
    # with no output directory the rows are written to a buffer no one reads
    with (open(out / "sweep.jsonl", "w", encoding="utf-8", newline="\n") if out is not None
          else io.StringIO()) as rows_fh:
        for value, c in zip(values, configs):
            res = run(c, out / f"{axis}-{value}" if out is not None else None)
            totals = dict(res.summary, value=value,
                          utility_queries=res.state.utility_queries)
            del res  # the next run starts with this one's state released
            rows.append({"axis": axis, **{k: totals[k] for k in SWEEP_COLUMNS}})
            rows_fh.write(_json_line(rows[-1]))
            rows_fh.flush()
    return rows


class MetricsFormatError(ValueError):
    """A metrics file line that is not UTF-8 or not a JSON object."""


def read_metrics(path: str | Path) -> Iterator[dict]:
    """Yield a metrics file's records one line at a time; the first line that is
    not UTF-8 or not a JSON object raises, named with universal newlines."""
    try:
        # a byte that is not UTF-8 decodes to a lone surrogate, caught on its line
        fh = open(path, encoding="utf-8", errors="surrogateescape")
    except OSError as err:
        raise MetricsFormatError(f"cannot read {path}: {err.strerror or err}") from err
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                line.encode("utf-8")
                rec = json.loads(line)
            except UnicodeEncodeError as err:
                byte = ord(line[err.start]) - 0xDC00
                raise MetricsFormatError(f"{path}:{lineno}: not UTF-8 (byte 0x{byte:02x})") \
                    from None
            except json.JSONDecodeError as err:
                raise MetricsFormatError(f"{path}:{lineno}: not JSON ({err.msg})") from None
            if not isinstance(rec, dict):
                raise MetricsFormatError(f"{path}:{lineno}: not a JSON object")
            yield rec


def missing_contributions(records: Iterable[dict], blocks: Iterable[ledger_mod.Block],
                          client_id: int) -> list[int]:
    """Rounds where the client sat in the cohort but earned zero tokens.

    A merge join of the metrics records (cohort membership) with the
    ledger's blocks (who was actually paid), both in round order, as
    ``read_metrics`` and ``ledger.iter_blocks`` yield them; the ledger alone
    cannot answer this, since unpaid clients leave no transactions.
    """
    blocks = iter(blocks)
    rounds = []
    for rec in records:
        if rec.get("record") != "round":
            continue
        cohort = set(rec["selected"]) | set(rec["rejected"]) | set(rec["flagged"])
        if client_id not in cohort:
            continue
        block = next((b for b in blocks if b.index == rec["round"] - 1), None)
        if block is None:
            raise LookupError(f"round {rec['round']} is not on the chain")
        paid = any(tx.client_id == client_id and tx.amount_microtokens > 0
                   for tx in block.transactions)
        if not paid:
            rounds.append(rec["round"])
    return rounds


REPORT_FIELDS = tuple(f.name for f in fields(RoundMetrics))
DEFAULT_REPORT_COLUMNS = ("round", "test_accuracy", "test_loss", "duality_gap",
                          "tokens_contribution", "tokens_participation",
                          "budget_remaining")


# round-record fields that hold a per-client mapping, not one value or list
MAPPING_FIELDS = ("contributions",)


def render_table(records: Iterable[dict], columns=DEFAULT_REPORT_COLUMNS,
                 gnuplot: bool = False) -> str:
    """Plain-text table of per-round records; gnuplot mode emits bare columns.

    In gnuplot mode each cell is one field without spaces: a list is joined
    with commas, or is ``-`` when empty, and a mapping column is refused
    with a ConfigError.
    """
    def cell(r, c):
        v = r.get(c)
        if isinstance(v, float):
            return f"{v:.6g}"
        if gnuplot and isinstance(v, list):
            return ",".join(map(str, v)) or "-"
        return str(v)

    rows = [[cell(r, c) for c in columns] for r in records if r.get("record") == "round"]
    if gnuplot:
        mapped = [c for c in columns if c in MAPPING_FIELDS]
        if mapped:
            raise ConfigError(f"gnuplot mode cannot print column {mapped[0]!r}: "
                              "it maps client ids to values")
        lines = ["# " + " ".join(columns)]
        lines += [" ".join(row) for row in rows]
        return "\n".join(lines) + "\n"
    widths = [max(len(c), *(len(row[i]) for row in rows)) if rows else len(c)
              for i, c in enumerate(columns)]
    header = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
    sep = "  ".join("-" * w for w in widths)
    body = ["  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in rows]
    return "\n".join([header, sep, *body]) + "\n"
