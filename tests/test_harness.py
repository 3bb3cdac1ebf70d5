import importlib
import json

import numpy as np

from fedtoken import cli
from fedtoken.config import (ConfigError, ExperimentConfig, save_config, validate,
                             with_overrides)
from fedtoken.data import load_csv
from fedtoken.dual import load_model
import pytest

from fedtoken.harness import (missing_contributions, read_metrics, render_table,
                              run, sweep)
from fedtoken.ledger import Chain, verify_file


def make_cfg(**overrides):
    base = dict(seed=5, n_clients=6, m_fraction=1.0, quota=3, rounds=4,
                n_samples=120, dim=3, separation=3.0, lam=0.05,
                loss="logistic", delta=3, total_tokens=500,
                partition_scheme="iid")
    base.update(overrides)
    return validate(ExperimentConfig(**base))


def test_smoke_run_emits_one_record_and_block(tmp_path):
    cfg = make_cfg(n_clients=2, quota=1, rounds=1, n_samples=20)
    res = run(cfg, tmp_path)
    assert len(res.metrics) == 1
    assert len(res.state.chain) == 1
    records = read_metrics(tmp_path / "metrics.jsonl")
    assert [r["record"] for r in records] == ["round", "summary"]
    bad, blocks = verify_file(tmp_path / "ledger.ftlg")
    assert bad is None and blocks == 1
    assert load_model(tmp_path / "model.bin").shape == (cfg.dim,)


def test_identical_configs_produce_identical_artifacts(tmp_path):
    cfg = make_cfg()
    run(cfg, tmp_path / "a")
    run(cfg, tmp_path / "b")
    for name in ("metrics.jsonl", "ledger.ftlg", "model.bin", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_nan_in_a_round_record_is_not_written_as_json(tmp_path, monkeypatch):
    import dataclasses
    from fedtoken import harness
    real_round_step = harness.scheduler.round_step

    def nan_loss_round(state, cfg):
        return dataclasses.replace(real_round_step(state, cfg), test_loss=float("nan"))

    monkeypatch.setattr(harness.scheduler, "round_step", nan_loss_round)
    with pytest.raises(ValueError, match="JSON"):
        run(make_cfg(rounds=1), tmp_path)
    text = (tmp_path / "metrics.jsonl").read_text(encoding="utf-8")
    assert "NaN" not in text
    # the failed run still ends with a strict-JSON summary naming the failure
    records = [json.loads(line, parse_constant=_reject) for line in text.splitlines()]
    assert [r["record"] for r in records] == ["summary"]
    summary = records[0]
    assert summary["stop_reason"] == "error" and summary["failed_round"] == 1
    assert summary["failed_phase"] == "write"
    assert summary["rounds_executed"] == 0 and "JSON" in summary["error"]
    assert json.loads((tmp_path / "summary.json").read_text(encoding="utf-8")) == summary
    # the ledger was opened with its header before round 1 failed
    assert verify_file(tmp_path / "ledger.ftlg") == (None, 0)


def _reject(constant):
    raise ValueError(f"non-strict JSON constant {constant}")


def test_error_summary_follows_the_rounds_written_before_the_failure(tmp_path, monkeypatch):
    from fedtoken import harness
    real_round_step = harness.scheduler.round_step

    def fail_in_round_three(state, cfg):
        if state.round == 2:
            raise RuntimeError("solver exploded")
        return real_round_step(state, cfg)

    monkeypatch.setattr(harness.scheduler, "round_step", fail_in_round_three)
    with pytest.raises(RuntimeError, match="exploded"):
        run(make_cfg(rounds=4), tmp_path)
    records = read_metrics(tmp_path / "metrics.jsonl")
    assert [r["record"] for r in records] == ["round", "round", "summary"]
    summary = records[-1]
    assert summary["stop_reason"] == "error" and summary["failed_round"] == 3
    assert summary["failed_phase"] is None  # raised outside round_step's phases
    assert summary["rounds_executed"] == 2
    assert summary["error"] == "RuntimeError: solver exploded"
    assert summary["final_test_loss"] == records[1]["test_loss"]
    assert verify_file(tmp_path / "ledger.ftlg") == (None, 2)


# a callee of each phase; the test makes its second call raise, in round 2
FAILING_CALLEES = {
    "local-solve": "fedtoken.scheduler.local_solve",
    "valuation": "fedtoken.scheduler.tmc_shapley",
    "aggregate": "fedtoken.scheduler.aggregate",
    "settle": "fedtoken.tokenomics.settle_round",
    "evaluate": "fedtoken.scheduler.duality_gap",
    "write": "fedtoken.ledger.append_to_file",
}


# a delta-blind policy selects before the solve: a failure in its selector
# (random-quota builds one SelectionResult a round) is in the valuation
# phase, not in the local solve that follows it
FAILING_CASES = [pytest.param(phase, "fedtoken", callee, id=phase)
                 for phase, callee in FAILING_CALLEES.items()]
FAILING_CASES.append(pytest.param("valuation", "random-quota",
                                  "fedtoken.scheduler.SelectionResult",
                                  id="valuation-random-quota"))


@pytest.mark.parametrize("phase, aggregation, callee", FAILING_CASES)
def test_error_summary_names_the_failed_phase(tmp_path, monkeypatch, phase, aggregation,
                                              callee):
    module_name, name = callee.rsplit(".", 1)
    module = importlib.import_module(module_name)
    real, calls = getattr(module, name), []

    def fail_on_second_call(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError(f"{name} broke")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, fail_on_second_call)
    with pytest.raises(RuntimeError, match="broke"):
        run(make_cfg(rounds=3, aggregation=aggregation), tmp_path)
    summary = read_metrics(tmp_path / "metrics.jsonl")[-1]
    assert summary["stop_reason"] == "error" and summary["failed_round"] == 2
    assert summary["failed_phase"] == phase
    assert summary["error"] == f"RuntimeError: {name} broke"
    assert json.loads((tmp_path / "summary.json").read_text(encoding="utf-8")) == summary


def test_zero_rounds_returns_the_initial_model(tmp_path):
    cfg = make_cfg(rounds=0)
    res = run(cfg, tmp_path)
    assert res.metrics == []
    assert res.summary["rounds_executed"] == 0
    assert np.array_equal(res.state.model.phi, np.zeros(cfg.dim))


def test_ledger_holds_each_block_when_its_round_ends(tmp_path, monkeypatch):
    # the run holds the ledger open; every block must reach the file at once
    from fedtoken import harness
    real_round_step = harness.scheduler.round_step
    seen = []

    def check_ledger_then_step(state, cfg):
        seen.append(verify_file(tmp_path / "ledger.ftlg"))
        return real_round_step(state, cfg)

    monkeypatch.setattr(harness.scheduler, "round_step", check_ledger_then_step)
    run(make_cfg(rounds=4), tmp_path)
    assert seen == [(None, t) for t in range(4)]
    assert verify_file(tmp_path / "ledger.ftlg") == (None, 4)


def test_a_ledger_that_cannot_be_opened_ends_the_run_with_an_error_summary(tmp_path):
    (tmp_path / "ledger.ftlg").mkdir()
    with pytest.raises(IsADirectoryError):
        run(make_cfg(rounds=2), tmp_path)
    summary = read_metrics(tmp_path / "metrics.jsonl")[-1]
    assert summary["stop_reason"] == "error" and summary["rounds_executed"] == 0
    assert summary["failed_round"] is None and summary["failed_phase"] == "write"


def test_zero_round_run_leaves_a_header_only_ledger(tmp_path, capsys):
    run(make_cfg(rounds=0), tmp_path)
    path = tmp_path / "ledger.ftlg"
    assert path.read_bytes() == Chain().to_bytes()
    assert verify_file(path) == (None, 0)
    assert cli.main(["ledger", "verify", str(path)]) == 0
    assert capsys.readouterr().out == "ok: 0 blocks verified\n"


@pytest.mark.parametrize("loss,builds", [("squared", 1), ("logistic", 0)])
def test_a_run_factors_its_test_set_at_most_once(tmp_path, monkeypatch, loss, builds):
    # squared valuation takes every round's scores from one factor of the test set
    from fedtoken import data
    real = data.streamed_r_factor
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(data, "streamed_r_factor", counted)
    res = run(make_cfg(loss=loss, rounds=3), tmp_path)
    assert len(res.metrics) == 3
    assert all(r.utility_evaluations > 0 for r in res.metrics)
    assert len(calls) == builds


def test_metrics_and_ledger_agree_on_totals(tmp_path):
    cfg = make_cfg(rounds=6)
    res = run(cfg, tmp_path)
    from_metrics = sum(m.tokens_contribution + m.tokens_participation
                       for m in res.metrics)
    chain = Chain.load(tmp_path / "ledger.ftlg")
    assert chain.total_issued() == from_metrics
    assert sum(chain.balances().values()) == from_metrics
    assert from_metrics == cfg.total_microtokens - res.state.budget.remaining


def test_budget_exhaustion_stops_the_run():
    cfg = make_cfg(aggregation="fedavg-all", total_tokens=100,
                   per_round_microtokens=25 * 10**6, rounds=30)
    res = run(cfg)
    assert res.summary["stop_reason"] == "budget-exhausted"
    assert res.summary["rounds_executed"] == 4
    assert res.state.budget.remaining == 0


@pytest.mark.parametrize("total_tokens", [1, 500])
def test_a_budget_the_last_round_spends_ends_at_the_horizon(total_tokens):
    res = run(make_cfg(rounds=4, total_tokens=total_tokens))
    assert res.state.budget.remaining == 0
    assert res.summary["rounds_executed"] == 4
    assert res.summary["stop_reason"] == "horizon"


def test_sweep_single_value_degenerates_to_run(tmp_path):
    from fedtoken.config import with_overrides
    cfg = make_cfg(rounds=2)
    rows = sweep(cfg, "delta", [3], tmp_path)
    assert len(rows) == 1
    direct = run(with_overrides(cfg, delta=3))
    assert rows[0]["final_test_accuracy"] == direct.summary["final_test_accuracy"]
    assert (tmp_path / "delta-3" / "metrics.jsonl").exists()
    assert (tmp_path / "sweep.jsonl").exists()


def test_equal_pay_and_sum_weighting_full_run(tmp_path):
    cfg = make_cfg(rounds=4, allocation="ep", weighting="sum", nu=0.2)
    res = run(cfg, tmp_path)
    assert res.summary["rounds_executed"] == 4
    chain = Chain.load(tmp_path / "ledger.ftlg")
    assert chain.verify() is None
    for m in res.metrics:
        if len(m.selected) >= 2:
            paid = {tx.client_id: tx.amount_microtokens
                    for tx in chain.query_round(m.round)
                    if tx.kind == 0 and tx.client_id in m.selected}
            if len(paid) >= 2:
                assert max(paid.values()) - min(paid.values()) <= 1


def test_csv_source_run_round_trips(tmp_path):
    from fedtoken.data import save_csv, synth_gaussian
    from fedtoken.rng import RngStream
    ds = synth_gaussian(80, 3, 3.0, RngStream(1, purpose="synth-data"))
    csv_path = tmp_path / "data.csv"
    save_csv(ds, csv_path)
    cfg = make_cfg(seed=1, rounds=2, data_source="csv", csv_path=str(csv_path),
                   n_clients=4, quota=2, n_samples=80, dim=3)
    res = run(cfg, tmp_path / "out")
    assert res.summary["rounds_executed"] == 2
    assert len(res.state.effective_train) + len(res.state.test) == 80
    # the synthetic source with the run's seed draws the data the CSV holds,
    # so the two runs are the same to the byte
    run(with_overrides(cfg, data_source="synthetic"), tmp_path / "synth")
    for name in ("metrics.jsonl", "ledger.ftlg", "model.bin", "summary.json"):
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "synth" / name).read_bytes()


def test_sweep_query_counts_increase_with_delta(tmp_path):
    cfg = make_cfg(rounds=2, eps=0.0)
    rows = sweep(cfg, "delta", [1, 2, 3], tmp_path)
    queries = [r["utility_queries"] for r in rows]
    assert queries[0] < queries[1] < queries[2]


def test_sweep_quota_ratio_axis_scales_committed_bytes():
    cfg = make_cfg(rounds=3, quota=None, quota_ratio=0.5)
    rows = sweep(cfg, "quota_ratio", [1.0 / 3, 1.0])
    assert rows[0]["committed_bytes"] <= rows[1]["committed_bytes"]


def test_sweep_budget_axis_changes_spend_ceiling(tmp_path):
    cfg = make_cfg(rounds=4)
    rows = sweep(cfg, "budget", [1, 500], tmp_path)
    assert rows[0]["tokens_issued_microtokens"] <= 1 * 10**6
    assert rows[1]["tokens_issued_microtokens"] <= 500 * 10**6
    assert rows[0]["tokens_issued_microtokens"] < rows[1]["tokens_issued_microtokens"]
    # the row says whether its run ran out of tokens, as the run's summary does
    for row in rows:
        summary = json.loads((tmp_path / f"budget-{row['value']}" / "summary.json").read_text())
        assert row["stop_reason"] == summary["stop_reason"]


def test_sweep_rejects_unknown_axis():
    with pytest.raises(ValueError, match="axis"):
        sweep(make_cfg(), "cohort", [1])


@pytest.mark.parametrize("axis", ["delta", "budget"])
def test_sweep_rejects_a_fractional_value_on_an_integer_axis(tmp_path, axis):
    with pytest.raises(ConfigError, match=axis):
        sweep(make_cfg(rounds=1), axis, [3, 2.5], tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("axis", ["delta", "budget"])
def test_cli_sweep_rejects_a_fractional_value_on_an_integer_axis(tmp_path, capsys, axis):
    cfg = tmp_path / "cfg.ini"
    save_config(make_cfg(rounds=1), cfg)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--axis", axis, "--values", "2.5,3",
                     "--out", str(out)]) == 1
    assert axis in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("axis, values, repeat", [("quota_ratio", "0.5,0.50,1.0", "0.5"),
                                                   ("delta", "2,3,2.0", "2")])
def test_cli_sweep_rejects_a_repeated_value(tmp_path, capsys, axis, values, repeat):
    cfg = tmp_path / "cfg.ini"
    save_config(make_cfg(rounds=1), cfg)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--axis", axis, "--values", values,
                     "--out", str(out)]) == 1
    assert f"sweep axis {axis}: value {repeat} is given twice" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_keeps_integer_axis_values_as_ints(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    save_config(make_cfg(rounds=1), cfg)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--axis", "delta", "--values", "2,3",
                     "--out", str(out)]) == 0
    table = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in table[1:]] == ["2", "3"]
    assert (out / "delta-2" / "metrics.jsonl").exists()
    assert not (out / "delta-2.0").exists()
    rows = [json.loads(line) for line in (out / "sweep.jsonl").read_text().splitlines()]
    assert [row["value"] for row in rows] == [2, 3]
    assert all(type(row["value"]) is int for row in rows)


def test_round_step_preconditions():
    from fedtoken.harness import build_simulation
    from fedtoken.scheduler import BudgetExhausted, round_step
    cfg = make_cfg(rounds=1, per_round_microtokens=10**6)
    state = build_simulation(cfg)
    round_step(state, cfg)
    with pytest.raises(RuntimeError, match="horizon"):
        round_step(state, cfg)
    import dataclasses
    state.budget = dataclasses.replace(state.budget, remaining=0)
    with pytest.raises(BudgetExhausted):
        round_step(state, make_cfg(rounds=5, per_round_microtokens=10**6))


def test_missing_contributions_join(tmp_path):
    cfg = make_cfg(rounds=5, eps=float("inf"))  # everyone flagged, nobody paid
    res = run(cfg, tmp_path)
    records = read_metrics(tmp_path / "metrics.jsonl")
    chain = Chain.load(tmp_path / "ledger.ftlg")
    assert missing_contributions(records, chain, 0) == [1, 2, 3, 4, 5]
    paid_cfg = make_cfg(rounds=5)
    res = run(paid_cfg, tmp_path / "paid")
    records = read_metrics(tmp_path / "paid" / "metrics.jsonl")
    chain = Chain.load(tmp_path / "paid" / "ledger.ftlg")
    some_paid_round = res.metrics[0].round
    winner = res.metrics[0].selected[0]
    assert some_paid_round not in missing_contributions(records, chain, winner)


def test_fedtoken_rounds_record_the_efficiency_residual(tmp_path):
    res = run(make_cfg(rounds=2), tmp_path)
    for m in res.metrics:
        assert m.efficiency_residual is not None
        assert np.isfinite(m.efficiency_residual)
    baseline = run(make_cfg(rounds=2, aggregation="fedavg-all"))
    assert all(m.efficiency_residual is None for m in baseline.metrics)


def test_cli_run_and_report(tmp_path, capsys):
    cfg = make_cfg(rounds=2)
    cfg_path = tmp_path / "cfg.ini"
    save_config(cfg, cfg_path)
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    captured = capsys.readouterr().out
    assert "rounds_executed: 2" in captured
    assert cli.main(["report", str(out_dir / "metrics.jsonl")]) == 0
    table = capsys.readouterr().out
    assert "test_accuracy" in table and "round" in table
    assert cli.main(["report", str(out_dir / "metrics.jsonl"), "--gnuplot",
                     "--columns", "round,test_loss"]) == 0
    gp = capsys.readouterr().out
    assert gp.startswith("# round test_loss")
    assert cli.main(["report", str(out_dir / "metrics.jsonl"), "--gnuplot",
                     "--columns", "round,selected"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rounds = [r for r in read_metrics(out_dir / "metrics.jsonl") if r["record"] == "round"]
    assert lines == ["# round selected"] + [
        f"{r['round']} {','.join(map(str, r['selected']))}" for r in rounds]
    assert all(len(r["selected"]) == 3 for r in rounds)
    assert cli.main(["report", str(out_dir / "metrics.jsonl"), "--gnuplot",
                     "--columns", "round,contributions"]) == 1
    captured = capsys.readouterr()
    assert "'contributions'" in captured.err and captured.out == ""


def test_cli_ledger_commands(tmp_path, capsys):
    cfg = make_cfg(rounds=3)
    out_dir = tmp_path / "out"
    res = run(cfg, out_dir)
    ledger_path = str(out_dir / "ledger.ftlg")
    assert cli.main(["ledger", "verify", ledger_path]) == 0
    assert "ok: 3 blocks" in capsys.readouterr().out

    some_client = res.metrics[0].selected[0]
    assert cli.main(["ledger", "balance", ledger_path, str(some_client)]) == 0
    balance = int(capsys.readouterr().out.strip())
    assert balance == res.state.chain.balances()[some_client] > 0
    assert cli.main(["ledger", "balance", ledger_path, str(cfg.n_clients)]) == 0
    assert capsys.readouterr().out == "0\n"  # never paid

    assert cli.main(["ledger", "round", ledger_path, "2"]) == 0
    assert "total=" in capsys.readouterr().out
    assert cli.main(["ledger", "round", ledger_path, "99"]) == 1

    blob = bytearray((out_dir / "ledger.ftlg").read_bytes())
    blob[60] ^= 0x10
    (out_dir / "ledger.ftlg").write_bytes(bytes(blob))
    assert cli.main(["ledger", "verify", ledger_path]) == 3
    assert "tamper detected" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["verify"], ["balance", "0"], ["round", "1"]])
def test_cli_ledger_subcommands_all_exit_3_on_a_damaged_file(tmp_path, capsys, command):
    # every subcommand verifies the file before it reads it
    out_dir = tmp_path / "out"
    run(make_cfg(rounds=3), out_dir)
    blob = (out_dir / "ledger.ftlg").read_bytes()
    truncated = tmp_path / "truncated.ftlg"
    truncated.write_bytes(blob[:-5])
    not_ledger = tmp_path / "notes.txt"
    not_ledger.write_text("not a ledger\n", encoding="utf-8")
    for path, block in ((truncated, 2), (not_ledger, 0)):
        assert cli.main(["ledger", command[0], str(path), *command[1:]]) == 3
        captured = capsys.readouterr()
        assert captured.out == f"tamper detected at block {block}\n", path
        assert captured.err == ""
    missing = tmp_path / "missing.ftlg"
    assert cli.main(["ledger", command[0], str(missing), *command[1:]]) == 1
    assert "not found" in capsys.readouterr().err


def test_cli_gen_data_round_trips(tmp_path, capsys):
    out = tmp_path / "synth.csv"
    code = cli.main(["gen-data", "--n", "30", "--d", "4", "--separation", "2.5",
                     "--seed", "11", "--out", str(out)])
    assert code == 0
    ds = load_csv(out)
    assert len(ds) == 30 and ds.d == 4


@pytest.mark.parametrize("separation", ["nan", "inf", "-inf", "0"])
def test_cli_gen_data_rejects_a_separation_that_is_not_finite_and_positive(
        tmp_path, capsys, separation):
    out = tmp_path / "synth.csv"
    code = cli.main(["gen-data", "--n", "30", "--d", "4", f"--separation={separation}",
                     "--seed", "11", "--out", str(out)])
    assert code == 1
    assert "--separation" in capsys.readouterr().err
    assert not out.exists()


def test_cli_report_rejects_unknown_columns_and_malformed_lines(tmp_path, capsys):
    out_dir = tmp_path / "out"
    run(make_cfg(rounds=1), out_dir)
    metrics = out_dir / "metrics.jsonl"
    for columns, named in (("round,nope", "'nope'"), (",", "no column"),
                           ("", "no column")):
        assert cli.main(["report", str(metrics), "--columns", columns]) == 1
        captured = capsys.readouterr()
        assert named in captured.err and captured.out == ""
    good = metrics.read_text(encoding="utf-8")
    for bad in ("{bad", "[1, 2]"):
        broken = tmp_path / "broken.jsonl"
        broken.write_text(good + bad + "\n", encoding="utf-8")
        assert cli.main(["report", str(broken)]) == 1
        line = len(good.splitlines()) + 1
        assert f"{broken}:{line}" in capsys.readouterr().err


def test_cli_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, capsys):
    # config and metrics files are decoded as CSV files are: a bad byte is a
    # validation error that names its line, not a runtime error
    cfg = tmp_path / "cfg.ini"
    cfg.write_bytes(b"[run]\nseed = 1\n# caf\xe9\n")
    assert cli.main(["run", "--config", str(cfg)]) == 1
    assert f"{cfg}:3: not UTF-8 (byte 0xe9)" in capsys.readouterr().err
    assert cli.main(["run", "--config", str(tmp_path)]) == 1
    assert f"cannot read {tmp_path}" in capsys.readouterr().err

    out_dir = tmp_path / "out"
    run(make_cfg(rounds=1), out_dir)
    good = (out_dir / "metrics.jsonl").read_bytes()
    broken = tmp_path / "broken.jsonl"
    broken.write_bytes(good + b'{"round": "\xff"}\n')
    assert cli.main(["report", str(broken)]) == 1
    line = good.count(b"\n") + 1
    assert f"{broken}:{line}: not UTF-8 (byte 0xff)" in capsys.readouterr().err


@pytest.mark.parametrize("newline", [b"\r", b"\r\n"])
def test_a_bad_byte_is_named_by_its_universal_newline_line(tmp_path, capsys, newline):
    # config and metrics files number their lines with universal newlines,
    # so a bad byte on the third line is on line 3 whatever ends the lines
    cfg = tmp_path / "cfg.ini"
    cfg.write_bytes(newline.join([b"[run]", b"seed = 1", b"\xe9 = 2", b""]))
    assert cli.main(["run", "--config", str(cfg)]) == 1
    assert f"{cfg}:3: not UTF-8 (byte 0xe9)" in capsys.readouterr().err
    metrics = tmp_path / "metrics.jsonl"
    metrics.write_bytes(newline.join([b'{"round": 1}', b'{"round": 2}',
                                      b'{"round": "\xff"}', b""]))
    assert cli.main(["report", str(metrics)]) == 1
    assert f"{metrics}:3: not UTF-8 (byte 0xff)" in capsys.readouterr().err


def test_cli_report_on_a_directory_is_a_validation_error(tmp_path, capsys):
    assert cli.main(["report", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert f"cannot read {tmp_path}" in captured.err and captured.out == ""


def test_cli_validation_exit_code(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\nseed = 1\n[learning]\nlambda = -3\n", encoding="utf-8")
    assert cli.main(["run", "--config", str(bad)]) == 1


@pytest.mark.parametrize("section, key, value", [
    ("tokens", "total_tokens", 10**14),
    ("data", "n_samples", 8),
    ("valuation", "delta", 0),
    ("valuation", "eps", -1),
    ("learning", "lambda", "nan"),
    ("learning", "lambda", "inf"),
    ("data", "separation", "nan"),
    ("data", "separation", "inf"),
    ("valuation", "eps", "nan"),
    ("data", "dirichlet_beta", "nan"),
])
def test_cli_rejects_configs_the_ledger_or_partition_cannot_hold(tmp_path, capsys,
                                                                  section, key, value):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[run]\nseed = 1\n[federation]\nn_clients = 20\nrounds = 3\n"
                   f"[{section}]\n{key} = {value}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_a_csv_with_fewer_training_rows_than_clients(tmp_path, capsys):
    data = tmp_path / "tiny.csv"
    assert cli.main(["gen-data", "--n", "8", "--d", "2", "--separation", "2.0",
                     "--seed", "1", "--out", str(data)]) == 0
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[run]\nseed = 1\n[data]\nsource = csv\ncsv_path = {data}\n"
                   "[federation]\nn_clients = 20\nrounds = 3\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert "data.csv_path" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, reason", [
    ("+1,0.5\n-1,abc\n", ":2: could not convert"),
    ("+1,0.5\n-1,nan\n", "features must be finite"),
    ("+1,0.5\n+2,0.25\n", "labels must be -1 or +1"),
    ("", "no rows"),
    ("+1,0.5,0.25\n-1,0.75\n", ":2: 2 columns, expected 3"),
], ids=["non-numeric", "nan", "label", "empty", "ragged"])
def test_cli_rejects_malformed_csv_content(tmp_path, capsys, text, reason):
    data = tmp_path / "bad.csv"
    data.write_text(text, encoding="utf-8")
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[run]\nseed = 1\n[data]\nsource = csv\ncsv_path = {data}\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "data.csv_path" in err and reason in err
    assert not out.exists()


def test_cli_runtime_exit_code(tmp_path):
    # config validates, but the dataset file vanishes before the run
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[run]\nseed = 1\n[data]\nsource = csv\n"
                   f"csv_path = {tmp_path / 'gone.csv'}\n", encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg)]) == 2


def test_render_table_handles_summary_lines(tmp_path):
    cfg = make_cfg(rounds=2)
    run(cfg, tmp_path)
    records = read_metrics(tmp_path / "metrics.jsonl")
    text = render_table(records, columns=("round", "test_accuracy"))
    assert len(text.strip().split("\n")) == 2 + 2  # header, rule, two rounds
