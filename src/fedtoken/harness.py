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
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import ledger as ledger_mod
from . import scheduler, tokenomics
from .config import ConfigError, ExperimentConfig, with_overrides
from .data import Dataset, _read_utf8, load_csv, partition, PartitionScheme, \
    poison_labels, synth_gaussian, train_test_split
from .dual import GlobalModel, save_model
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
    config: ExperimentConfig
    metrics: list[RoundMetrics]
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


def _summary(cfg: ExperimentConfig, metrics: list[RoundMetrics],
             state: SimulationState, stop_reason: str) -> dict:
    rounds_to_target = None
    for m in metrics:
        if m.test_accuracy >= cfg.target_accuracy:
            rounds_to_target = m.round
            break
    last = metrics[-1] if metrics else None
    return {
        "record": "summary",
        "policy": cfg.aggregation,
        "seed": cfg.seed,
        "rounds_executed": len(metrics),
        "stop_reason": stop_reason,
        "target_accuracy": cfg.target_accuracy,
        "rounds_to_target_accuracy": rounds_to_target,
        "final_test_accuracy": last.test_accuracy if last else None,
        "final_test_loss": last.test_loss if last else None,
        "final_duality_gap": last.duality_gap if last else None,
        "uploaded_bytes": state.uploaded_bytes,
        "committed_bytes": state.committed_bytes,
        "tokens_issued_microtokens": state.chain.total_issued(),
        "budget_remaining_microtokens": state.budget.remaining,
    }


def _json_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, allow_nan=False) + "\n"


def run(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> RunResult:
    """Execute rounds until the horizon or the budget-exhausted signal.

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

    metrics: list[RoundMetrics] = []
    stop_reason = "horizon"
    failed_round = None
    # the phase in progress; None while round_step runs, as it names its own
    phase = "write"
    try:
        if out is not None:
            ledger_fh = open(out / LEDGER_FILE, "wb", buffering=0)
            ledger_fh.write(ledger_mod.Chain().to_bytes())
        for _ in range(cfg.rounds):
            failed_round = state.round + 1
            phase = None
            m = scheduler.round_step(state, cfg)
            phase = "write"
            if metrics_fh is not None:
                metrics_fh.write(_json_line(m.to_record()))
                metrics_fh.flush()
            metrics.append(m)
            if ledger_fh is not None:
                ledger_mod.append_to_file(ledger_fh, state.chain.blocks[-1])
            # a budget spent by the last round did not stop the run early
            if state.budget.exhausted and len(metrics) < cfg.rounds:
                stop_reason = "budget-exhausted"
                break
        failed_round = None
        phase = "write"
        summary = _summary(cfg, metrics, state, stop_reason)
        if metrics_fh is not None:
            metrics_fh.write(_json_line(summary))
    except Exception as err:
        if metrics_fh is not None:
            # every round in `metrics` was written as strict JSON, so this is too
            failed = _summary(cfg, metrics, state, "error")
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
    return RunResult(config=cfg, metrics=metrics, summary=summary, state=state)


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
    and named as ints, so ``2.0`` there is ``2``; a fractional one is a
    ``ConfigError``, and so is a value given twice (``0.5,0.50`` or ``2,2.0``),
    whose run would overwrite the first one's artifacts.  Each row holds
    ``axis`` and the ``SWEEP_COLUMNS``.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {tuple(SWEEP_AXES)}")
    kind, overrides = SWEEP_AXES[axis]
    values = [_axis_value(axis, kind, v) for v in values]
    if not values:
        raise ValueError("sweep needs at least one value")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"sweep axis {axis}: value {value!r} is given twice")
    configs = [with_overrides(cfg, **overrides(v)) for v in values]
    out = Path(out_dir) if out_dir is not None else None
    results = [run(c, out / f"{axis}-{v}" if out is not None else None)
               for v, c in zip(values, configs)]

    rows = []
    for value, res in zip(values, results):
        totals = dict(res.summary, value=value,
                      utility_queries=sum(m.utility_queries for m in res.metrics))
        rows.append({"axis": axis, **{c: totals[c] for c in SWEEP_COLUMNS}})
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        text = "\n".join(json.dumps(r, sort_keys=True, allow_nan=False) for r in rows) + "\n"
        (out / "sweep.jsonl").write_text(text, encoding="utf-8")
    return rows


class MetricsFormatError(ValueError):
    """A metrics file line that is not UTF-8 or not a JSON object."""


def read_metrics(path: str | Path) -> list[dict]:
    try:
        text = _read_utf8(path)
    except OSError as err:
        raise MetricsFormatError(f"cannot read {path}: {err.strerror or err}") from err
    except ValueError as err:
        raise MetricsFormatError(str(err)) from None
    records = []
    # universal newlines, as a file opened in text mode numbers its lines
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as err:
            raise MetricsFormatError(f"{path}:{lineno}: not JSON ({err.msg})") from None
        if not isinstance(rec, dict):
            raise MetricsFormatError(f"{path}:{lineno}: not a JSON object")
        records.append(rec)
    return records


def missing_contributions(records: list[dict], chain, client_id: int) -> list[int]:
    """Rounds where the client sat in the cohort but earned zero tokens.

    Joins the metrics stream (cohort membership) with the ledger (who was
    actually paid); the chain alone cannot answer this, since unpaid
    clients leave no transactions.
    """
    rounds = []
    for rec in records:
        if rec.get("record") != "round":
            continue
        cohort = set(rec["selected"]) | set(rec["rejected"]) | set(rec["flagged"])
        if client_id not in cohort:
            continue
        paid = any(tx.client_id == client_id and tx.amount_microtokens > 0
                   for tx in chain.query_round(rec["round"]))
        if not paid:
            rounds.append(rec["round"])
    return rounds


REPORT_FIELDS = tuple(f.name for f in fields(RoundMetrics))
DEFAULT_REPORT_COLUMNS = ("round", "test_accuracy", "test_loss", "duality_gap",
                          "tokens_contribution", "tokens_participation",
                          "budget_remaining")


# round-record fields that hold a per-client mapping, not one value or list
MAPPING_FIELDS = ("contributions",)


def render_table(records: list[dict], columns=DEFAULT_REPORT_COLUMNS,
                 gnuplot: bool = False) -> str:
    """Plain-text table of per-round records; gnuplot mode emits bare columns.

    In gnuplot mode each cell is one field without spaces: a list is joined
    with commas, or is ``-`` when empty, and a mapping column is refused
    with a ConfigError.
    """
    rows = [r for r in records if r.get("record") == "round"]

    def cell(r, c):
        v = r.get(c)
        if isinstance(v, float):
            return f"{v:.6g}"
        if gnuplot and isinstance(v, list):
            return ",".join(map(str, v)) or "-"
        return str(v)

    if gnuplot:
        mapped = [c for c in columns if c in MAPPING_FIELDS]
        if mapped:
            raise ConfigError(f"gnuplot mode cannot print column {mapped[0]!r}: "
                              "it maps client ids to values")
        lines = ["# " + " ".join(columns)]
        lines += [" ".join(cell(r, c) for c in columns) for r in rows]
        return "\n".join(lines) + "\n"
    widths = [max(len(c), *(len(cell(r, c)) for r in rows)) if rows else len(c)
              for c in columns]
    header = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
    sep = "  ".join("-" * w for w in widths)
    body = ["  ".join(cell(r, c).ljust(w) for c, w in zip(columns, widths)) for r in rows]
    return "\n".join([header, sep, *body]) + "\n"
