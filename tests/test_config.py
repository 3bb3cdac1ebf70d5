from pathlib import Path

import pytest

from fedtoken import config
from fedtoken.config import (ConfigError, ExperimentConfig, load_config,
                             save_config, validate, with_overrides)

CONFIG_DOC = Path(__file__).resolve().parents[1] / "docs" / "config.md"


def test_minimal_file_fills_all_defaults(tmp_path):
    path = tmp_path / "min.ini"
    path.write_text("[run]\nseed = 42\n", encoding="utf-8")
    cfg = load_config(path)
    assert cfg == validate(ExperimentConfig(seed=42))
    assert cfg.n_clients == 100 and cfg.m_fraction == 0.1
    assert cfg.zeta == 0.7 and cfg.total_tokens == 1000
    assert cfg.resolved_quota == 5  # half of the 10-client cohort
    assert cfg.resolved_per_round_microtokens == 1000 * 10**6 // 50


def test_seed_is_required(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("[learning]\nlambda = 0.1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="seed"):
        load_config(path)


def test_unknown_section_and_key_are_rejected(tmp_path):
    bad_section = tmp_path / "a.ini"
    bad_section.write_text("[run]\nseed = 1\n[webscale]\nblockchain = yes\n",
                           encoding="utf-8")
    with pytest.raises(ConfigError, match="webscale"):
        load_config(bad_section)
    bad_key = tmp_path / "b.ini"
    bad_key.write_text("[run]\nseed = 1\nturbo = on\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="run.turbo"):
        load_config(bad_key)


def test_malformed_value_names_the_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[run]\nseed = 1\n[learning]\nlambda = banana\n",
                    encoding="utf-8")
    with pytest.raises(ConfigError, match="learning.lambda"):
        load_config(path)


def test_quota_beyond_cohort_is_rejected():
    with pytest.raises(ConfigError, match="quota"):
        validate(ExperimentConfig(seed=1, n_clients=10, m_fraction=0.5, quota=6))


def test_quota_and_ratio_are_mutually_exclusive():
    with pytest.raises(ConfigError):
        validate(ExperimentConfig(seed=1, quota=2, quota_ratio=0.5))


def test_round_trip_preserves_the_config(tmp_path):
    cfg = validate(ExperimentConfig(
        seed=9, n_clients=12, m_fraction=0.5, quota=3, rounds=7,
        loss="squared", lam=0.02, nu=0.25, partition_scheme="label-shards",
        shards_k=1, poison_clients=(1, 4), flip_fraction=0.5,
        allocation="ep", zeta=0.9, weighting="sum", aggregation="random-quota",
        per_round_microtokens=12345, participation_base_microtokens=67,
    ))
    path = tmp_path / "cfg.ini"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_saved_file_keeps_its_section_order_key_order_and_format(tmp_path):
    cfg = validate(ExperimentConfig(
        seed=7, data_source="csv", csv_path="data/task.csv", csv_header=True, nu=0.25,
        n_clients=10, m_fraction=0.5, quota=3, poison_clients=(1, 4), flip_fraction=0.5,
    ))
    path = tmp_path / "cfg.ini"
    save_config(cfg, path)
    assert path.read_bytes() == (
        b"[run]\nseed = 7\naggregation = fedtoken\ntarget_accuracy = 0.7\n\n"
        b"[data]\nsource = csv\ncsv_path = data/task.csv\ncsv_header = true\n"
        b"n_samples = 400\ndim = 5\nseparation = 3.0\ntest_fraction = 0.25\n"
        b"partition = iid\nshards_k = 2\ndirichlet_beta = 0.5\n\n"
        b"[learning]\nloss = logistic\nlambda = 0.01\nnu = 0.25\nlocal_passes = 1\n\n"
        b"[federation]\nn_clients = 10\nm_fraction = 0.5\nquota = 3\nquota_ratio = \n"
        b"rounds = 50\n\n"
        b"[valuation]\ndelta = 4\neps = 0.0\nweighting = mean\n\n"
        b"[attack]\npoison_clients = 1,4\nflip_fraction = 0.5\n\n"
        b"[tokens]\ntotal_tokens = 1000\nper_round_microtokens = \n"
        b"participation_base_microtokens = \nallocation = pf\nzeta = 0.7\n"
        b"participation_for_selected = false\n"
    )


def test_docs_list_every_key_of_each_section_in_declaration_order():
    documented: list[tuple[str, list[str]]] = []
    for line in CONFIG_DOC.read_text(encoding="utf-8").splitlines():
        if line.startswith("## ["):
            documented.append((line[len("## ["):line.index("]")], []))
        elif line.startswith("| `") and documented:
            documented[-1][1].append(line.split("`")[1])
    assert documented == [(section, list(keys)) for section, keys in config._SCHEMA.items()]


def test_nu_parses_auto_and_floats(tmp_path):
    path = tmp_path / "nu.ini"
    path.write_text("[run]\nseed = 1\n[learning]\nnu = auto\n", encoding="utf-8")
    assert load_config(path).nu == "auto"
    path.write_text("[run]\nseed = 1\n[learning]\nnu = 0.5\n", encoding="utf-8")
    assert load_config(path).nu == 0.5
    path.write_text("[run]\nseed = 1\n[learning]\nnu = 1.5\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="learning.nu"):
        load_config(path)


def test_poison_ids_must_be_valid_clients():
    with pytest.raises(ConfigError, match="poison"):
        validate(ExperimentConfig(seed=1, n_clients=5, poison_clients=(7,)))


def test_repeated_poison_ids_are_rejected(tmp_path):
    # a repeated id would flip the same labels twice, back to clean
    path = tmp_path / "twice.ini"
    path.write_text("[run]\nseed = 1\n[federation]\nn_clients = 5\n"
                    "[attack]\npoison_clients = 1,1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="attack.poison_clients: ids must be distinct"):
        load_config(path)


def test_with_overrides_revalidates():
    cfg = validate(ExperimentConfig(seed=1))
    with pytest.raises(ConfigError):
        with_overrides(cfg, zeta=1.5)


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.ini")


def test_ledger_field_widths_bound_the_config():
    # a transaction stores its amount in 8 bytes, its round and client id in 4
    widest = (2**64 - 1) // 10**6
    assert validate(ExperimentConfig(seed=1, total_tokens=widest)).total_tokens == widest
    with pytest.raises(ConfigError, match="tokens.total_tokens"):
        validate(ExperimentConfig(seed=1, total_tokens=widest + 1))
    with pytest.raises(ConfigError, match="tokens.total_tokens"):
        validate(ExperimentConfig(seed=1, total_tokens=10**14))
    assert validate(ExperimentConfig(seed=1, rounds=2**32 - 1)).rounds == 2**32 - 1
    with pytest.raises(ConfigError, match="federation.rounds"):
        validate(ExperimentConfig(seed=1, rounds=2**32))
    with pytest.raises(ConfigError, match="federation.n_clients"):
        validate(ExperimentConfig(seed=1, n_clients=2**32))


def test_training_split_must_cover_every_client():
    # 8 samples at test_fraction 0.25 leave 6 training rows
    assert validate(ExperimentConfig(seed=1, n_samples=8, n_clients=6,
                                     m_fraction=1.0)).n_clients == 6
    with pytest.raises(ConfigError, match="data.n_samples"):
        validate(ExperimentConfig(seed=1, n_samples=8, n_clients=7, m_fraction=1.0))
    with pytest.raises(ConfigError, match="data.n_samples"):
        validate(ExperimentConfig(seed=1, n_samples=8, n_clients=20))


def test_a_byte_that_is_not_utf8_names_its_line(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_bytes(b"[run]\nseed = 1\n# caf\xe9\n")
    with pytest.raises(ConfigError, match=r"cfg\.ini:3: not UTF-8 \(byte 0xe9\)"):
        load_config(path)


def test_a_directory_is_not_read_as_an_empty_config(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path)


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_every_line_ending_a_text_file_may_use_is_read(tmp_path, newline):
    path = tmp_path / "cfg.ini"
    path.write_bytes(newline.join([b"[run]", b"seed = 4", b"[federation]",
                                   b"rounds = 2", b""]))
    cfg = load_config(path)
    assert (cfg.seed, cfg.rounds) == (4, 2)
