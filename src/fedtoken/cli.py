"""Command-line entry points.

Exit codes: 0 success, 1 validation problem, 2 runtime failure,
3 ledger tamper detected.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import harness, ledger
from .config import ConfigError, load_config
from .data import save_csv, synth_gaussian
from .rng import RngStream

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_TAMPER = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedtoken",
                                     description="Federated-learning token-incentive simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="output directory for artifacts")

    p_sweep = sub.add_parser("sweep", help="run one config across an axis of values")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True, choices=harness.SWEEP_AXES)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values")
    p_sweep.add_argument("--out", default=None)

    p_ledger = sub.add_parser("ledger", help="inspect a persisted ledger file")
    ledger_sub = p_ledger.add_subparsers(dest="ledger_command", required=True)
    p_verify = ledger_sub.add_parser("verify", help="recheck every hash and link")
    p_verify.add_argument("file")
    p_balance = ledger_sub.add_parser("balance", help="sum a client's microtokens")
    p_balance.add_argument("file")
    p_balance.add_argument("client_id", type=int)
    p_round = ledger_sub.add_parser("round", help="list one round's transactions")
    p_round.add_argument("file")
    p_round.add_argument("round", type=int)

    p_gen = sub.add_parser("gen-data", help="write a synthetic two-cluster CSV dataset")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--d", type=int, required=True)
    p_gen.add_argument("--separation", type=float, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True)

    p_report = sub.add_parser("report", help="render a metrics file as a table")
    p_report.add_argument("metrics")
    p_report.add_argument("--columns", default=None,
                          help="comma-separated record fields")
    p_report.add_argument("--gnuplot", action="store_true",
                          help="bare whitespace-separated columns")
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    result = harness.run(cfg, args.out)
    for key in ("rounds_executed", "stop_reason", "rounds_to_target_accuracy",
                "final_test_accuracy", "uploaded_bytes", "committed_bytes",
                "tokens_issued_microtokens", "budget_remaining_microtokens"):
        print(f"{key}: {result.summary[key]}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    try:
        values = [float(tok) for tok in args.values.split(",") if tok.strip()]
    except ValueError as err:
        raise ConfigError(f"bad --values list: {err}") from err
    rows = harness.sweep(cfg, args.axis, values, args.out)
    print("  ".join(harness.SWEEP_COLUMNS))
    for row in rows:
        print("  ".join(str(row[c]) for c in harness.SWEEP_COLUMNS))
    return EXIT_OK


def _cmd_ledger(args) -> int:
    path = Path(args.file)
    if not path.exists():
        print(f"ledger file not found: {path}", file=sys.stderr)
        return EXIT_VALIDATION
    # every subcommand reads the whole file and prints only if it verifies
    try:
        if args.ledger_command == "round":
            found = [b for b in ledger.iter_blocks(path) if b.index == args.round - 1]
        else:
            chain = ledger.Chain.load(path)
    except ledger.LedgerFormatError as err:
        print(f"tamper detected at block {err.block_index}")
        return EXIT_TAMPER
    if args.ledger_command == "verify":
        print(f"ok: {len(chain)} blocks verified")
        return EXIT_OK
    if args.ledger_command == "balance":
        print(chain.balances().get(args.client_id, 0))
        return EXIT_OK
    if not found:
        print(f"round {args.round} is not on the chain", file=sys.stderr)
        return EXIT_VALIDATION
    txs = found[0].transactions
    kinds = {ledger.KIND_CONTRIBUTION: "contribution",
             ledger.KIND_PARTICIPATION: "participation"}
    for tx in txs:
        print(f"round={tx.round} client={tx.client_id} kind={kinds[tx.kind]} "
              f"amount={tx.amount_microtokens}")
    print(f"total={sum(tx.amount_microtokens for tx in txs)}")
    return EXIT_OK


def _cmd_gen_data(args) -> int:
    if args.n < 2 or args.d < 1:
        raise ConfigError("gen-data needs --n >= 2 and --d >= 1")
    if not (math.isfinite(args.separation) and args.separation > 0):
        raise ConfigError(f"--separation must be finite and > 0, got {args.separation}")
    dataset = synth_gaussian(args.n, args.d, args.separation,
                             RngStream(args.seed, purpose="synth-data"))
    save_csv(dataset, args.out)
    print(f"wrote {len(dataset)} samples of dimension {dataset.d} to {args.out}")
    return EXIT_OK


def _cmd_report(args) -> int:
    path = Path(args.metrics)
    if not path.exists():
        print(f"metrics file not found: {path}", file=sys.stderr)
        return EXIT_VALIDATION
    records = harness.read_metrics(path)
    columns = harness.DEFAULT_REPORT_COLUMNS
    if args.columns is not None:
        columns = tuple(c.strip() for c in args.columns.split(",") if c.strip())
        if not columns:
            raise ConfigError("--columns names no column")
        unknown = [c for c in columns if c not in harness.REPORT_FIELDS]
        if unknown:
            raise ConfigError(f"--columns: unknown column {unknown[0]!r}; a round record "
                              f"has {', '.join(harness.REPORT_FIELDS)}")
    print(harness.render_table(records, columns, gnuplot=args.gnuplot), end="")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "ledger": _cmd_ledger,
    "gen-data": _cmd_gen_data,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ledger.LedgerFormatError, harness.MetricsFormatError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
