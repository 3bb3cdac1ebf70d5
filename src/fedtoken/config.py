"""Experiment configuration: a sectioned key = value file with full defaults.

Only ``run.seed`` is mandatory; every other key has a default, and unknown
sections or keys are rejected by name.  See docs/config.md for the schema.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

from . import ledger, losses, scheduler, tokenomics, valuation
from .data import VALID_SCHEMES, _read_utf8, split_sizes


class ConfigError(ValueError):
    """Invalid, unknown, or inconsistent configuration entry."""


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_ids(raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(int(tok) for tok in raw.split(","))


def _parse_nu(raw: str):
    raw = raw.strip()
    if raw == "auto":
        return "auto"
    return float(raw)


def _optional(parse):
    """``parse``, except that an empty value or ``none`` reads as None."""
    def parse_optional(raw: str):
        raw = raw.strip()
        return None if raw in ("", "none") else parse(raw)
    return parse_optional


def _key(section: str, key: str, parse, default=MISSING):
    """A config field that the file sets as ``key`` in ``[section]``, read by ``parse``."""
    return field(default=default, metadata={"section": section, "key": key, "parse": parse})


@dataclass(frozen=True)
class ExperimentConfig:
    # run
    seed: int = _key("run", "seed", int)
    aggregation: str = _key("run", "aggregation", str.strip, scheduler.FEDTOKEN)
    target_accuracy: float = _key("run", "target_accuracy", float, 0.7)
    # data
    data_source: str = _key("data", "source", str.strip, "synthetic")
    csv_path: str = _key("data", "csv_path", str.strip, "")
    csv_header: bool = _key("data", "csv_header", _parse_bool, False)
    n_samples: int = _key("data", "n_samples", int, 400)
    dim: int = _key("data", "dim", int, 5)
    separation: float = _key("data", "separation", float, 3.0)
    test_fraction: float = _key("data", "test_fraction", float, 0.25)
    partition_scheme: str = _key("data", "partition", str.strip, "iid")
    shards_k: int = _key("data", "shards_k", int, 2)
    dirichlet_beta: float = _key("data", "dirichlet_beta", float, 0.5)
    # learning
    loss: str = _key("learning", "loss", str.strip, losses.LOGISTIC)
    lam: float = _key("learning", "lambda", float, 0.01)
    nu: float | str = _key("learning", "nu", _parse_nu, "auto")
    local_passes: int = _key("learning", "local_passes", int, 1)
    # federation
    n_clients: int = _key("federation", "n_clients", int, 100)
    m_fraction: float = _key("federation", "m_fraction", float, 0.1)
    quota: int | None = _key("federation", "quota", _optional(int), None)
    quota_ratio: float | None = _key("federation", "quota_ratio", _optional(float), None)
    rounds: int = _key("federation", "rounds", int, 50)
    # valuation
    delta: int = _key("valuation", "delta", int, 4)
    eps: float = _key("valuation", "eps", float, 0.0)
    weighting: str = _key("valuation", "weighting", str.strip, valuation.MEAN_WEIGHTING)
    # attack
    poison_clients: tuple[int, ...] = _key("attack", "poison_clients", _parse_ids, ())
    flip_fraction: float = _key("attack", "flip_fraction", float, 1.0)
    # tokens
    total_tokens: int = _key("tokens", "total_tokens", int, 1000)
    per_round_microtokens: int | None = _key("tokens", "per_round_microtokens",
                                             _optional(int), None)
    participation_base_microtokens: int | None = _key(
        "tokens", "participation_base_microtokens", _optional(int), None)
    allocation: str = _key("tokens", "allocation", str.strip, tokenomics.PROPORTIONAL_FAIR)
    zeta: float = _key("tokens", "zeta", float, 0.7)
    participation_for_selected: bool = _key("tokens", "participation_for_selected",
                                            _parse_bool, False)

    @property
    def cohort_size(self) -> int:
        return scheduler.ceil_share(self.m_fraction, self.n_clients)

    @property
    def resolved_quota(self) -> int:
        if self.quota is not None:
            return self.quota
        ratio = 0.5 if self.quota_ratio is None else self.quota_ratio
        return scheduler.ceil_share(ratio, self.cohort_size)

    @property
    def total_microtokens(self) -> int:
        return self.total_tokens * 10**6

    @property
    def resolved_per_round_microtokens(self) -> int:
        if self.per_round_microtokens is not None:
            return self.per_round_microtokens
        return self.total_microtokens // max(self.rounds, 1)

    @property
    def resolved_participation_base(self) -> int:
        if self.participation_base_microtokens is not None:
            return self.participation_base_microtokens
        return self.resolved_per_round_microtokens // 100


# section -> file key -> (dataclass field, parser), in field order
_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {}
for _f in fields(ExperimentConfig):
    _SCHEMA.setdefault(_f.metadata["section"], {})[_f.metadata["key"]] = (
        _f.name, _f.metadata["parse"])

_FIELD_TO_KEY = {f.name: (f.metadata["section"], f.metadata["key"])
                 for f in fields(ExperimentConfig)}


def validate(cfg: ExperimentConfig) -> ExperimentConfig:
    def fail(field_name: str, message: str):
        section, key = _FIELD_TO_KEY[field_name]
        raise ConfigError(f"{section}.{key}: {message}")

    for f in fields(cfg):
        value = getattr(cfg, f.name)
        # eps = inf is a setting: every permutation scan truncates at once
        if isinstance(value, float) and (math.isnan(value) or
                                         math.isinf(value) and f.name != "eps"):
            fail(f.name, f"{value} is not a finite number")

    if cfg.aggregation not in scheduler.AGGREGATION_POLICIES:
        fail("aggregation", f"must be one of {scheduler.AGGREGATION_POLICIES}")
    if not 0.0 < cfg.target_accuracy <= 1.0:
        fail("target_accuracy", "must be in (0, 1]")
    if cfg.data_source not in ("synthetic", "csv"):
        fail("data_source", "must be 'synthetic' or 'csv'")
    if cfg.data_source == "csv" and not cfg.csv_path:
        fail("csv_path", "required when data.source = csv")
    if cfg.n_samples < 4:
        fail("n_samples", "need at least 4 samples")
    if cfg.dim < 1:
        fail("dim", "must be >= 1")
    if cfg.separation <= 0:
        fail("separation", "must be > 0")
    if not 0.0 < cfg.test_fraction < 1.0:
        fail("test_fraction", "must be in (0, 1)")
    if cfg.partition_scheme not in VALID_SCHEMES:
        fail("partition_scheme", f"must be one of {VALID_SCHEMES}")
    if cfg.shards_k < 1:
        fail("shards_k", "must be >= 1")
    if cfg.dirichlet_beta <= 0:
        fail("dirichlet_beta", "must be > 0")
    if cfg.loss not in losses.LOSS_KINDS:
        fail("loss", f"must be one of {losses.LOSS_KINDS}")
    if cfg.lam <= 0:
        fail("lam", "must be > 0")
    if cfg.nu != "auto" and not 0.0 < float(cfg.nu) <= 1.0:
        fail("nu", "must be 'auto' or in (0, 1]")
    if cfg.local_passes < 1:
        fail("local_passes", "must be >= 1")
    if not 1 <= cfg.n_clients <= ledger.MAX_CLIENT_ID:
        fail("n_clients", f"must be in [1, {ledger.MAX_CLIENT_ID}], "
                          "the ledger's 4-byte client id")
    n_train = split_sizes(cfg.n_samples, cfg.test_fraction)[0]
    if cfg.data_source == "synthetic" and n_train < cfg.n_clients:
        fail("n_samples", f"its training split has {n_train} rows, fewer than "
                          f"the {cfg.n_clients} clients")
    if not 0.0 < cfg.m_fraction <= 1.0:
        fail("m_fraction", "must be in (0, 1]")
    if cfg.quota is not None and cfg.quota_ratio is not None:
        fail("quota", "give either quota or quota_ratio, not both")
    if cfg.quota is not None and cfg.quota < 1:
        fail("quota", "must be >= 1")
    if cfg.quota_ratio is not None and not 0.0 < cfg.quota_ratio <= 1.0:
        fail("quota_ratio", "must be in (0, 1]")
    if cfg.resolved_quota > cfg.cohort_size:
        fail("quota", f"quota {cfg.resolved_quota} exceeds cohort size {cfg.cohort_size}")
    if not 0 <= cfg.rounds <= ledger.MAX_ROUND:
        fail("rounds", f"must be in [0, {ledger.MAX_ROUND}], the ledger's 4-byte round")
    if cfg.delta < 1:
        fail("delta", "must be >= 1")
    if cfg.eps < 0:
        fail("eps", "must be >= 0")
    if cfg.weighting not in valuation.WEIGHTINGS:
        fail("weighting", f"must be one of {valuation.WEIGHTINGS}")
    if any(not 0 <= c < cfg.n_clients for c in cfg.poison_clients):
        fail("poison_clients", f"ids must lie in [0, {cfg.n_clients})")
    if len(set(cfg.poison_clients)) != len(cfg.poison_clients):
        fail("poison_clients", "ids must be distinct")
    if not 0.0 <= cfg.flip_fraction <= 1.0:
        fail("flip_fraction", "must be in [0, 1]")
    if cfg.total_tokens < 1:
        fail("total_tokens", "must be >= 1")
    if cfg.total_microtokens > ledger.MAX_AMOUNT:
        fail("total_tokens", f"{cfg.total_microtokens} microtokens exceed the ledger's "
                             f"8-byte amount ({ledger.MAX_AMOUNT})")
    if cfg.per_round_microtokens is not None and cfg.per_round_microtokens < 1:
        fail("per_round_microtokens", "must be >= 1")
    if cfg.resolved_per_round_microtokens > cfg.total_microtokens:
        fail("per_round_microtokens", "per-round pool exceeds the total budget")
    if cfg.participation_base_microtokens is not None and cfg.participation_base_microtokens < 0:
        fail("participation_base_microtokens", "must be >= 0")
    if cfg.allocation not in tokenomics.ALLOCATION_KINDS:
        fail("allocation", f"must be one of {tokenomics.ALLOCATION_KINDS}")
    if not 0.0 < cfg.zeta < 1.0:
        fail("zeta", "must be in (0, 1)")
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = _read_utf8(path)
    except OSError as err:
        raise ConfigError(f"cannot read {path}: {err.strerror or err}") from err
    except ValueError as err:
        raise ConfigError(str(err)) from None
    parser = configparser.ConfigParser(interpolation=None)
    try:
        # universal newlines, as a file opened in text mode splits its lines
        parser.read_file(io.StringIO(text, newline=None), source=str(path))
    except configparser.Error as err:
        raise ConfigError(f"cannot parse {path}: {err}") from err

    values: dict[str, object] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            field_name, parse = _SCHEMA[section][key]
            try:
                values[field_name] = parse(raw)
            except (ValueError, TypeError) as err:
                raise ConfigError(f"{section}.{key}: bad value {raw!r} ({err})") from err
    if "seed" not in values:
        raise ConfigError("run.seed is required")
    return validate(ExperimentConfig(**values))


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (field_name, _) in keys.items():
            lines.append(f"{key} = {_format_value(getattr(cfg, field_name))}")
        lines.append("")
    Path(path).write_text("\n".join(lines), encoding="utf-8")


def with_overrides(cfg: ExperimentConfig, **kwargs) -> ExperimentConfig:
    return validate(replace(cfg, **kwargs))
