"""Spans around calls into fedtoken's modules, recorded from outside the program.

The tracer replaces the names that the program looks up at call time
(module attributes such as ``fedtoken.scheduler.local_solve`` and methods
such as ``UtilityContext.value``) with wrappers that record a span: name,
start, end and the index of the span open when the call began.  Spans stay
in memory; :func:`layer_metrics` turns them into per-layer times, self times
and counts once the run has ended, and fails the run if a wrapped name is
gone or if the spans disagree with the work counts the program reports.
Nothing in the program changes, so a traced run writes the same bytes as an
untraced one.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

from fedtoken import config, harness, ledger, losses, rng, scheduler, tokenomics, \
    valuation

MEAN_LOSS = "losses.mean_loss"
VALUATION_SPANS = ("valuation.UtilityContext.__init__", "valuation.tmc_shapley",
                   "valuation.efficiency_residual")

# (owner, attribute, span name): every place the program looks the callee up
TARGETS = (
    (config, "load_config", "config.load_config"),
    (harness, "build_simulation", "harness.build_simulation"),
    (harness, "load_csv", "data.load_csv"),
    (harness, "synth_gaussian", "data.synth_gaussian"),
    (harness, "train_test_split", "data.train_test_split"),
    (harness, "partition", "data.partition"),
    (harness, "poison_labels", "data.poison_labels"),
    (harness, "save_model", "dual.save_model"),
    (scheduler, "round_step", "scheduler.round_step"),
    (scheduler, "sample_cohort", "scheduler.sample_cohort"),
    (scheduler, "local_solve", "dual.local_solve"),
    (scheduler, "commit", "dual.commit"),
    (scheduler, "duality_gap", "dual.duality_gap"),
    (scheduler, "tmc_shapley", "valuation.tmc_shapley"),
    (scheduler, "efficiency_residual", "valuation.efficiency_residual"),
    (scheduler, "mean_loss", MEAN_LOSS),
    (losses, "mean_loss", MEAN_LOSS),
    (valuation.UtilityContext, "__init__", "valuation.UtilityContext.__init__"),
    (valuation.UtilityContext, "value", "valuation.UtilityContext.value"),
    (tokenomics, "settle_round", "tokenomics.settle_round"),
    (ledger.Chain, "append_block", "ledger.Chain.append_block"),
    (ledger.Chain, "load", "ledger.Chain.load"),
    (ledger.Chain, "balances", "ledger.Chain.balances"),
    (ledger, "append_to_file", "ledger.append_to_file"),
    (ledger, "verify_file", "ledger.verify_file"),
)


def _coordinate_steps(args, result):
    return len(args["part"]) * args["hyper"].local_passes


# span name -> {counter: fn(bound call arguments, result) -> amount}
COUNTERS = {
    "dual.local_solve": {"dual.coordinate_steps": _coordinate_steps,
                         "dual.upload_bytes": lambda a, r: r.upload_bytes},
    "dual.commit": {"dual.committed_coordinates": lambda a, r: len(a["rho"])},
    "valuation.tmc_shapley": {"valuation.permutations": lambda a, r: r.permutations_used},
    "scheduler.sample_cohort": {"scheduler.cohort_members": lambda a, r: len(r)},
    "tokenomics.settle_round": {"tokenomics.microtokens_issued":
                                lambda a, r: r[0].total_issued},
    "ledger.Chain.append_block": {"ledger.transactions": lambda a, r: len(r.transactions)},
}

# span name -> fn(bound call arguments) -> work size kept on the span itself
SIZES = {MEAN_LOSS: lambda a: a["features"].shape}


class Tracer:
    """In-memory span recorder; :meth:`install` patches the program's names."""

    def __init__(self):
        # [name, start, end, parent index or -1, work size or None]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._open: list[int] = []

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            raw = inspect.getattr_static(owner, attr, None)
            if raw is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            setattr(owner, attr, self._wrap(raw, name))
        self._count_calls(rng.RngStream, "generator", "rng.generators")

    def _wrap(self, raw, name):
        static = isinstance(raw, (staticmethod, classmethod))
        fn = raw.__func__ if static else raw
        counters = COUNTERS.get(name, {})
        size = SIZES.get(name)
        signature = inspect.signature(fn) if counters or size else None
        spans, open_spans, counts = self.spans, self._open, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0,
                      open_spans[-1] if open_spans else -1, None]
            open_spans.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                open_spans.pop()
            if signature is not None:
                bound = signature.bind(*args, **kwargs).arguments
                for counter, amount in counters.items():
                    counts[counter] += amount(bound, result)
                if size is not None:
                    record[4] = size(bound)
            return result

        return type(raw)(wrapper) if static else wrapper

    def _count_calls(self, owner, attr, counter):
        fn = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def write(self, path) -> None:
        """Write spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent}) + "\n")


def mark_calls(marks: list[float]) -> None:
    """Append the start time of every call into a traced name to ``marks``.

    The light counterpart of :class:`Tracer` for untraced runs: no spans, no
    counts, one clock read per call.  The marks cut a run into short segments
    that every run of the same seed repeats with the same work.
    """
    def marked(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            marks.append(time.perf_counter())
            return fn(*args, **kwargs)
        return wrapper

    for owner, attr, _ in TARGETS:
        raw = inspect.getattr_static(owner, attr, None)
        if isinstance(raw, (staticmethod, classmethod)):
            setattr(owner, attr, type(raw)(marked(raw.__func__)))
        elif raw is not None:
            setattr(owner, attr, marked(raw))


def _layer_of_mean_loss(spans, index) -> str:
    """Classify a mean_loss call by the nearest enclosing valuation or gap span."""
    parent = spans[index][3]
    while parent >= 0:
        name = spans[parent][0]
        if name.startswith("valuation."):
            return "valuation"
        if name == "dual.duality_gap":
            return "gap"
        parent = spans[parent][3]
    return "eval"


def layer_metrics(tracer: Tracer, counts: dict[str, int],
                  test_shape: tuple[int, int]) -> tuple[dict[str, float], list[str]]:
    """Per-layer seconds, self seconds, counts and ratios from the recorded spans.

    Work counts the program reports itself (``counts``, from ``checks.check_run``)
    are taken from there; the same counts derived from spans must agree with
    them, or the tracer has lost track of a call and the run fails.  Returns
    the metrics and the failures.
    """
    spans = tracer.spans
    total = defaultdict(float)
    calls = defaultdict(int)
    child_time = defaultdict(float)   # span index -> time its direct children cover
    loss_split = defaultdict(float)
    loss_rows = evaluations = 0
    for i, (name, start, end, parent, size) in enumerate(spans):
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child_time[parent] += end - start
        if name == MEAN_LOSS:
            loss_split[_layer_of_mean_loss(spans, i)] += end - start
            loss_rows += size[0]
            if parent >= 0 and spans[parent][0] == "valuation.UtilityContext.value":
                evaluations += 1
    self_time = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        self_time[name] += end - start - child_time[i]

    failures = [f"tracer found no {target} to wrap" for target in tracer.missing]
    from_spans = {
        "valuation.utility_queries": calls["valuation.UtilityContext.value"],
        "valuation.utility_evaluations": evaluations,
        "tokenomics.microtokens_issued": tracer.counts["tokenomics.microtokens_issued"],
        "scheduler.rounds": calls["scheduler.round_step"],
    }
    failures += [f"spans count {name} = {value}, the program {counts[name]}"
                 for name, value in from_spans.items() if value != counts[name]]

    queries = counts["valuation.utility_queries"]
    rows_scored = counts["valuation.utility_evaluations"] * test_shape[0]
    steps = tracer.counts["dual.coordinate_steps"]
    out = {f"{name}.s": total[name] for _, _, name in TARGETS}
    out.update({
        "scheduler.round_step.self_s": self_time["scheduler.round_step"],
        "scheduler.rounds": counts["scheduler.rounds"],
        "scheduler.cohort_members": tracer.counts["scheduler.cohort_members"],
        "valuation.s": sum(total[n] for n in VALUATION_SPANS),
        "valuation.tmc_shapley.self_s": self_time["valuation.tmc_shapley"],
        "valuation.utility_queries": queries,
        "valuation.utility_evaluations": counts["valuation.utility_evaluations"],
        "valuation.cache_hit_ratio":
            1.0 - counts["valuation.utility_evaluations"] / queries if queries else 0.0,
        "valuation.permutations": tracer.counts["valuation.permutations"],
        "valuation.rows_scored": rows_scored,
        "valuation.eval_bytes_computed": 8 * rows_scored * test_shape[1],
        "losses.mean_loss.calls": calls[MEAN_LOSS],
        "losses.mean_loss.valuation_s": loss_split["valuation"],
        "losses.mean_loss.eval_s": loss_split["eval"],
        "losses.mean_loss.gap_s": loss_split["gap"],
        "losses.mean_loss.ns_per_row": total[MEAN_LOSS] / loss_rows * 1e9 if loss_rows else 0.0,
        "dual.local_solve.calls": calls["dual.local_solve"],
        "dual.coordinate_steps": steps,
        "dual.coordinate_step_us": total["dual.local_solve"] / steps * 1e6 if steps else 0.0,
        "dual.committed_coordinates": tracer.counts["dual.committed_coordinates"],
        "dual.upload_bytes": tracer.counts["dual.upload_bytes"],
        "tokenomics.microtokens_issued": counts["tokenomics.microtokens_issued"],
        "ledger.bytes_written": counts["ledger.bytes_written"],
        "ledger.transactions": tracer.counts["ledger.transactions"],
        "rng.generators": tracer.counts["rng.generators"],
    })
    return out, failures
