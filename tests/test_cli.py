import json
from pathlib import Path

import pytest

from walkrep import cli, config, continuous
from walkrep.errors import ConfigError


def test_missing_config_exits_2(tmp_path):
    status = cli.main(["tower", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert status == 2


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 1, "bogus": True}))
    assert cli.main(["tower", "--config", str(path), "--out", str(tmp_path)]) == 2
    with pytest.raises(ConfigError):
        config.load_config(str(path))


def test_nested_unknown_keys_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"weights": {"q": 0.5, "zzz": 1}}))
    with pytest.raises(ConfigError):
        config.load_config(str(path))


def test_readme_config_block_is_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    assert config.config_from_dict(json.loads(block)) == config.ExperimentConfig()


def test_invalid_values_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    for doc in (
        {"weights": {"q": 1.5}},
        {"group": {"kind": "foo"}},
        {"group": {"kind": "lattice", "d": 5}},
        {"weights": {"q": "0.5"}},
        {"system": {"alpha": ["x"]}},
        {"stages": 3.7},
        {"group": {"kind": "z2sum", "d": 0}},
        {"second_group": {"kind": "z2sum", "d": 0}},
        {"lf_chain_n": 2, "lf_sampled_g0": 20},
        {"lf_sampled_g0": -1},
        {"lf_chain_n": 0},
        {"lf_chain_n": 40},
        {"samples": {"norm_trials": 2000}},
    ):
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            config.load_config(str(path))
        assert cli.main(["tower", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_chain_config_bounds():
    top = continuous.MAX_CHAIN_N
    cfg = config.config_from_dict({"lf_chain_n": top, "lf_sampled_g0": 2**top})
    assert cfg.lf_chain_n == top
    assert config.config_from_dict({"lf_chain_n": 1, "lf_sampled_g0": 0}).lf_sampled_g0 == 0
    for doc in ({"lf_chain_n": top + 1}, {"lf_chain_n": 3, "lf_sampled_g0": 9}):
        with pytest.raises(ConfigError):
            config.config_from_dict(doc)


def test_config_defaults_and_digest():
    cfg = config.ExperimentConfig()
    assert cfg.weights.q == 0.5
    assert cfg.group.kind == "integers"
    assert len(cfg.digest()) == 16
    assert config.config_from_dict({}).digest() == cfg.digest()


def test_tower_command_writes_reports(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 9, "samples": {"tower_samples": 4000}}))
    status = cli.main(["tower", "--config", str(path), "--out", str(tmp_path / "out")])
    assert status == 0
    report = json.loads((tmp_path / "out" / "tower" / "report.json").read_text())
    assert report["pass"] is True
    assert (tmp_path / "out" / "tower" / "run_meta.json").exists()


def test_feldman_command(tmp_path):
    status = cli.main(["feldman", "--out", str(tmp_path / "out"), "--seed", "3"])
    assert status == 0


def test_weights_csv_row_count(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "weights": {"q": 0.5, "n_max": 8},
                "second_weights": {"q": 0.5, "n_max": 4},
            }
        )
    )
    status = cli.main(["weights", "--config", str(path), "--out", str(tmp_path / "out")])
    assert status == 0
    rows = (tmp_path / "out" / "weights" / "group_weights.csv").read_text().strip().split("\n")
    assert len(rows) - 1 == 17  # |B_8| on the integers
    rows2 = (tmp_path / "out" / "weights" / "second_group_weights.csv").read_text().strip().split("\n")
    assert len(rows2) - 1 == 2 * 3**4 - 1  # |B_4| in the rank-2 free group


def test_seed_override_changes_digested_config(tmp_path):
    cfg = config.ExperimentConfig()
    import dataclasses

    other = dataclasses.replace(cfg, seed=cfg.seed + 1)
    assert other.digest() != cfg.digest()
