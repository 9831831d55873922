"""Config INI round-trip, overrides and fingerprint hashing."""

import importlib
import inspect
import re
from dataclasses import replace
from fnmatch import fnmatch
from itertools import takewhile
from pathlib import Path

import pytest

from chamberhealth.config import (
    SECTIONS,
    SETTINGS,
    config_from_ini,
    config_hash,
    config_to_ini,
    default_config,
    load_config,
)
from chamberhealth.core import SensorSpec
from chamberhealth.errors import ConfigError
from chamberhealth.simgen import RecipeSpec


def test_ini_roundtrip_is_identity():
    cfg = replace(default_config(), seed=7)
    text = config_to_ini(cfg)
    back = config_from_ini(text)
    assert config_to_ini(back) == text
    assert back.chamber == cfg.chamber
    assert back.recipes == cfg.recipes
    assert back.segments == cfg.segments
    assert back.seed == 7
    # one noiseless gauge; schedule shares that do not sum to 1, one of them 0
    other = replace(
        cfg,
        chamber=replace(cfg.chamber, sensors=(SensorSpec("g1", (1e-6, 2000.0), 1, 0.0),)),
        recipes=(RecipeSpec("a", 0.8, 1.0, 3.0), RecipeSpec("b", 0.0, 0.85, 0.0),
                 RecipeSpec("c", 2.4, 1.25, 1.5)),
    )
    text = config_to_ini(other)
    assert "sensors = g1:1e-06:2000.0:1:0.0\n" in text
    assert "recipes = a:0.8:1.0:3.0, b:0.0:0.85:0.0, c:2.4:1.25:1.5\n" in text
    back = config_from_ini(text)
    assert config_to_ini(back) == text
    assert back.chamber == other.chamber
    assert back.recipes == other.recipes


def test_partial_ini_overrides_defaults():
    cfg = config_from_ini(
        """
[cli]
seed = 5
out = work

[simgen]
n_assets = 2
tau_stage2 = 6.5
sensors = g1:1e-6:2000.0:1:0.01

[features]
horizon = 3

[models]
rf_n_trees = 10
"""
    )
    assert cfg.seed == 5 and cfg.out_dir == "work"
    assert cfg.n_assets == 2
    assert cfg.chamber.tau_stage2 == 6.5
    assert [s.noise_sigma for s in cfg.chamber.sensors] == [0.01]
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
    # a gauge's noise and a recipe's share moved into their list entries; the
    # side tables of an old config dump are refused
    with pytest.raises(ConfigError, match=r"^unknown \[simgen\] key: noise_sigma$"):
        config_from_ini("[simgen]\nnoise_sigma = s1:0.05, s2:0.0005, s3:0.05, s4:0.3\n")
    with pytest.raises(ConfigError, match=r"^unknown \[simgen\] key: recipe_probs$"):
        config_from_ini("[simgen]\nrecipe_probs = std:0.5, light:0.3, heavy:0.2\n")


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
        config_from_ini("[simgen]\nsensors = s2:1e-3:5.0:1:0.0, s2:0.5:2000.0:2:0.0\n")
    # an old config dump's entries lack the noise and share fields
    with pytest.raises(ConfigError, match=(
        r"^bad config value for \[simgen\] sensors: bad entry 's1:0.5:2000.0:4': "
        r"expected 5 ':'-separated fields$"
    )):
        config_from_ini("[simgen]\nsensors = s1:0.5:2000.0:4, s2:0.001:5.0:1, "
                        "s3:0.00012:0.0015:2, s4:1e-06:0.0015:3\n")
    with pytest.raises(ConfigError, match=(
        r"^bad config value for \[simgen\] recipes: bad entry 'std:0.8:1.0': "
        r"expected 4 ':'-separated fields$"
    )):
        config_from_ini("[simgen]\nrecipes = std:0.8:1.0, light:0.0:0.85, heavy:2.4:1.25\n")
    # meta.csv joins a row's planned recipes with "|"
    for recipe_id in ("a|b", ""):
        with pytest.raises(ConfigError, match=(
            rf"^recipe {re.escape(repr(recipe_id))}: an id must be non-empty, without '\|'$"
        )):
            config_from_ini(f"[simgen]\nrecipes = {recipe_id}:0.8:1.0:1.0\n")


def test_sensor_segment_recipe_parsing():
    cfg = config_from_ini(
        """
[simgen]
sensors = g1:1e-6:2000.0:1:0.01
recipes = only:1.5:1.0:1.0

[hi]
segments = 1:100.0:0.01
"""
    )
    assert len(cfg.chamber.sensors) == 1
    assert cfg.chamber.sensors[0].sensor_id == "g1"
    assert cfg.chamber.sensors[0].noise_sigma == 0.01
    assert cfg.recipes[0].deposition_weight == 1.5
    assert cfg.recipes[0].share == 1.0
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


def _readme_config_keys() -> dict[str, set[str]]:
    """The keys of each section in README's configuration table; a
    ``temp_*`` or ``*_noise`` pattern stands for the section's keys that
    it matches, and a ``a:b:c`` list form names no key."""
    lines = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| Section | Keys (range) |") + 2
    keys = {}
    for line in takewhile(lambda line: line.startswith("| `["), lines[start:]):
        _, section, cell, _ = line.split("|")
        section = section.strip().strip("`[]")
        declared = {s.key for s in SETTINGS if s.section == section}
        keys[section] = set()
        for name in re.findall(r"`([^`]+)`", cell):
            if ":" not in name:
                keys[section] |= {k for k in declared if fnmatch(k, name)} or {name}
    return keys


def test_readme_config_table_names_every_setting():
    table = _readme_config_keys()
    assert list(table) == list(SECTIONS)
    for section in SECTIONS:
        assert table[section] == {s.key for s in SETTINGS if s.section == section}, section


# the library parameters whose values the config declares: callers pass them
CONFIG_VALUED = {
    "hi.impact": ("cycle_length",),
    "hi.select_analysis_subset": ("limit",),
    "hi.derive_hi": ("cycle_length", "analysis_limit"),
    "features.build_supervised": ("horizon",),
    "features.chrono_split": ("train_frac",),
    "simgen.advance_contamination": ("residual",),
    "simgen.simulate_run": ("rng", "run_id", "asset_id", "start_time"),
}


@pytest.mark.parametrize("name", sorted(CONFIG_VALUED))
def test_library_functions_repeat_no_config_default(name):
    module, _, attr = name.partition(".")
    function = getattr(importlib.import_module(f"chamberhealth.{module}"), attr)
    params = inspect.signature(function).parameters
    assert [p for p in CONFIG_VALUED[name] if params[p].default is not params[p].empty] == []
