"""Config INI round-trip, overrides and fingerprint hashing."""

from dataclasses import replace

import pytest

from chamberhealth.config import (
    config_from_ini,
    config_hash,
    config_to_ini,
    default_config,
    load_config,
)
from chamberhealth.errors import ConfigError


def test_ini_roundtrip_is_identity():
    cfg = replace(default_config(), seed=7)
    text = config_to_ini(cfg)
    back = config_from_ini(text)
    assert config_to_ini(back) == text
    assert back.chamber == cfg.chamber
    assert back.recipes == cfg.recipes
    assert back.segments == cfg.segments
    assert back.seed == 7


def test_partial_ini_overrides_defaults():
    cfg = config_from_ini(
        """
[cli]
seed = 5
out = work

[simgen]
n_assets = 2
tau_stage2 = 6.5
noise_sigma = 0.01

[features]
horizon = 3

[models]
rf_n_trees = 10
"""
    )
    assert cfg.seed == 5 and cfg.out_dir == "work"
    assert cfg.n_assets == 2
    assert cfg.chamber.tau_stage2 == 6.5
    assert cfg.chamber.noise_sigma == 0.01
    assert cfg.horizon == 3
    assert cfg.model_params["rf"]["n_trees"] == 10
    # untouched keys keep defaults
    assert cfg.n_runs_total == 2000
    assert cfg.chamber.tau_stage1 == 2.5


def test_unknown_keys_and_sections_rejected():
    with pytest.raises(ConfigError):
        config_from_ini("[simgen]\nbogus = 1\n")
    with pytest.raises(ConfigError):
        config_from_ini("[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError):
        config_from_ini("[models]\ndt_bogus = 1\n")
    with pytest.raises(ConfigError):
        config_from_ini("[hi]\nwhat = 1\n")
    with pytest.raises(ConfigError):
        config_from_ini("[cli]\nsed = 3\n")
    # the thread cap was removed; old config dumps still carrying it fail loudly
    with pytest.raises(ConfigError, match=r"unknown \[cli\] key: threads"):
        config_from_ini("[cli]\nthreads = 1\n")
    # and so was [hi] cycle_length: the impact's cycle is the one simgen cleans at
    with pytest.raises(ConfigError, match=r"unknown \[hi\] key: cycle_length"):
        config_from_ini("[hi]\ncycle_length = 100\n")
    # so was the [eval] section, whose one switch is now always on
    with pytest.raises(ConfigError, match=r"unknown config sections: \['eval'\]"):
        config_from_ini("[eval]\ndump_predictions = true\n")
    # [DEFAULT] is an ordinary, unknown section, never a fallback for every other
    with pytest.raises(ConfigError, match=r"unknown config sections: \['DEFAULT'\]"):
        config_from_ini("[DEFAULT]\nn_assets = 2\n")


def test_bad_values_rejected():
    with pytest.raises(ConfigError):
        config_from_ini("[features]\nhorizon = ten\n")
    with pytest.raises(ConfigError):
        config_from_ini("[simgen]\nsensors = bad\n")
    # integer keys take integers only, never a silently truncated float
    with pytest.raises(ConfigError):
        config_from_ini("[models]\nrf_n_trees = 10.7\n")
    # a second entry under one identity would shadow the first
    with pytest.raises(ConfigError, match=r"segment indices must be unique, got \[2, 2\]"):
        config_from_ini("[hi]\nsegments = 2:0.03:0.002, 2:1013.0:0.02\n")
    with pytest.raises(ConfigError, match="sensor ids must be unique"):
        config_from_ini("[simgen]\nsensors = s2:1e-3:5.0:1, s2:0.5:2000.0:2\n")


def test_sensor_segment_recipe_parsing():
    cfg = config_from_ini(
        """
[simgen]
sensors = g1:1e-6:2000.0:1
noise_sigma = g1:0.01
recipes = only:1.5:1.0
recipe_probs = only:1.0

[hi]
segments = 1:100.0:0.01
"""
    )
    assert len(cfg.chamber.sensors) == 1
    assert cfg.chamber.sensors[0].sensor_id == "g1"
    assert cfg.recipes[0].deposition_weight == 1.5
    assert cfg.segments[0].upper == 100.0


def test_hash_ignores_cli_section():
    base = default_config()
    assert config_hash(replace(base, seed=1, out_dir="a")) == config_hash(
        replace(base, seed=2, out_dir="b")
    )


def test_hash_tracks_science_sections():
    base = default_config()
    changed = replace(base, horizon=5)
    assert config_hash(base) != config_hash(changed)
    changed2 = replace(base, chamber=replace(base.chamber, tau_stage2=9.9))
    assert config_hash(base) != config_hash(changed2)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "none.ini")
    with pytest.raises(ConfigError, match="is a directory"):
        load_config(tmp_path)
    path = tmp_path / "c.ini"
    path.write_text("[cli]\nseed = 3\n")
    assert load_config(path).seed == 3
    with open(path, "ab") as fh:
        fh.write(b"\xff")
    with pytest.raises(ConfigError, match="c.ini is not UTF-8 text"):
        load_config(path)


def test_require_seed():
    with pytest.raises(ConfigError):
        default_config().require_seed()
    assert replace(default_config(), seed=0).require_seed() == 0
