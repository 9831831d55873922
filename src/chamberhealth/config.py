"""Pipeline configuration: defaults, INI round-trip, fingerprint hash.

The config file is INI-style ``key = value`` with one section per
module ([simgen], [hi], [features], [models]) plus [cli] for seed and
output directory; any other section, [DEFAULT] too, is refused. Every
key is declared once, in ``SETTINGS``, which drives the INI writer, the
INI reader and the CLI override flags; a key's format refuses a value
outside its range before any stage runs. A list entry carries every
field of its item: a gauge's range, priority and noise in ``sensors``,
a recipe's weights and schedule share in ``recipes``. Flags override
file keys; every subcommand prints the fully resolved form before
acting. The config hash covers only the science-relevant sections, so
runs that differ merely in output path reproduce identical reports.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Union

from .core import SegmentSpec, SensorSpec
from .errors import ConfigError
from .models import DEFAULT_HYPERPARAMS, MODEL_KINDS
from .simgen import (
    ChamberConfig,
    RecipeSpec,
    default_recipes,
    default_segments,
    recipe_probabilities,
)

HASHED_SECTIONS = ("simgen", "hi", "features", "models")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the CLI needs to run any stage."""

    chamber: ChamberConfig = field(default_factory=ChamberConfig)
    recipes: tuple[RecipeSpec, ...] = field(default_factory=default_recipes)
    n_assets: int = 5
    n_runs_total: int = 2000
    cycle_length: int = 100
    segments: tuple[SegmentSpec, ...] = field(default_factory=default_segments)
    analysis_limit: int = 400
    horizon: int = 10
    train_frac: float = 0.7
    model_params: Mapping[str, Mapping[str, float]] = field(default_factory=dict)
    seed: Optional[int] = None
    out_dir: str = "out"

    def __post_init__(self) -> None:
        recipe_probabilities(self.recipes)  # refused at resolve, not simulate

    def require_seed(self) -> int:
        if self.seed is None:
            raise ConfigError("a seed is required: pass --seed or set seed in [cli]")
        return self.seed


def default_config() -> PipelineConfig:
    return PipelineConfig()


# -- value formats -------------------------------------------------------------


def _parse_list(text: str, n_fields: int) -> list[list[str]]:
    """Split ``a:b, c:d`` into non-empty entries of n ':'-separated fields."""
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(":")]
        if len(parts) != n_fields:
            raise ValueError(f"bad entry {chunk!r}: expected {n_fields} ':'-separated fields")
        out.append(parts)
    if not out:
        raise ValueError("list must not be empty")
    return out


def _parse_segments(text: str) -> tuple[SegmentSpec, ...]:
    segments = tuple(
        SegmentSpec(POS_INT.parse(p[0]), FLOAT.parse(p[1]), FLOAT.parse(p[2]))
        for p in _parse_list(text, 3)
    )
    indices = [s.index for s in segments]
    if len(set(indices)) != len(indices):
        raise ValueError(f"segment indices must be unique, got {indices}")
    return segments


@dataclass(frozen=True)
class Format:
    """How one key's value is written as INI text and parsed back."""

    write: Callable[[Any], str]
    parse: Callable[[str], Any]


def _bounded(fmt: Format, bound: str, ok: Callable[[float], bool]) -> Format:
    """``fmt``, whose parse refuses a value outside ``bound``."""

    def parse(text: str) -> Any:
        value = fmt.parse(text)
        if not ok(value):
            raise ValueError(f"must be {bound}, got {value!r}")
        return value

    return Format(fmt.write, parse)


INT = Format(str, int)
FLOAT = _bounded(Format(repr, float), "finite", math.isfinite)
TEXT = Format(str, str)
NONNEG_INT = _bounded(INT, ">= 0", lambda v: v >= 0)
POS_INT = _bounded(INT, ">= 1", lambda v: v >= 1)
NONNEG_FLOAT = _bounded(FLOAT, ">= 0", lambda v: v >= 0)
POS_FLOAT = _bounded(FLOAT, "> 0", lambda v: v > 0)
FRACTION = _bounded(FLOAT, "in (0, 1)", lambda v: 0 < v < 1)
SEED = Format(lambda v: "" if v is None else str(v), lambda t: NONNEG_INT.parse(t) if t else None)
SENSORS = Format(
    lambda sensors: ", ".join(
        f"{s.sensor_id}:{s.valid_range[0]!r}:{s.valid_range[1]!r}:{s.priority}:{s.noise_sigma!r}"
        for s in sensors
    ),
    lambda t: tuple(
        SensorSpec(p[0], (FLOAT.parse(p[1]), FLOAT.parse(p[2])), int(p[3]),
                   NONNEG_FLOAT.parse(p[4]))
        for p in _parse_list(t, 5)
    ),
)
SEGMENTS = Format(
    lambda segments: ", ".join(f"{s.index}:{s.upper!r}:{s.lower!r}" for s in segments),
    _parse_segments,
)
RECIPES = Format(
    lambda recipes: ", ".join(
        f"{r.recipe_id}:{r.deposition_weight!r}:{r.duration_scale!r}:{r.share!r}" for r in recipes
    ),
    lambda t: tuple(
        RecipeSpec(p[0], FLOAT.parse(p[1]), FLOAT.parse(p[2]), NONNEG_FLOAT.parse(p[3]))
        for p in _parse_list(t, 4)
    ),
)


# -- the settings table --------------------------------------------------------


@dataclass(frozen=True)
class Setting:
    """One INI key: where it lives in the file and in the config objects.

    ``scope`` names the object holding ``field``: "pipeline" for a
    PipelineConfig attribute, "chamber" for a ChamberConfig attribute,
    or a model kind for one of its hyperparameters.
    """

    section: str
    key: str
    scope: str
    field: str
    fmt: Format

    def read(self, cfg: PipelineConfig) -> Any:
        if self.scope == "pipeline":
            return getattr(cfg, self.field)
        if self.scope == "chamber":
            return getattr(cfg.chamber, self.field)
        params = cfg.model_params.get(self.scope, {})
        return params.get(self.field, DEFAULT_HYPERPARAMS[self.scope][self.field])


# every field but the max_samples safety cap; ChamberConfig checks the pressures' order
_CHAMBER_FORMATS = {
    **dict.fromkeys(("crossover_pressure", "p_atm", "target_pressure", "time_origin",
                     "temp_base_c", "flow_base", "flow_per_weight"), FLOAT),
    **dict.fromkeys(("tau_stage1", "tau_stage2", "sample_dt", "seasonal_period_s",
                     "run_interval_s"), POS_FLOAT),
    **dict.fromkeys(("base_outgassing_q0", "outgassing_per_unit", "seasonal_amplitude",
                     "weather_sigma", "maintenance_residual", "temp_seasonal_amplitude",
                     "temp_run_noise", "temp_sample_noise", "flow_run_noise",
                     "flow_sample_noise"), NONNEG_FLOAT),
    "tail_samples": NONNEG_INT, "sensors": SENSORS,
    "weather_rho": _bounded(FLOAT, "in [0, 1)", lambda v: 0 <= v < 1),
}
_CHAMBER_SETTINGS = tuple(
    Setting("simgen", f.name, "chamber", f.name, _CHAMBER_FORMATS[f.name])
    for f in fields(ChamberConfig)
    if f.name != "max_samples"
)
_HYPERPARAM_FORMATS = {
    **dict.fromkeys(("max_depth", "features_per_split"), NONNEG_INT),
    **dict.fromkeys(("min_samples_leaf", "n_trees", "k", "steps", "hidden_units", "epochs",
                     "batch_size"), POS_INT),
    **dict.fromkeys(("epsilon", "reg_lambda"), NONNEG_FLOAT),
    **dict.fromkeys(("step_size", "learning_rate"), POS_FLOAT),
}
_MODEL_SETTINGS = tuple(
    Setting("models", f"{kind}_{name}", kind, name, _HYPERPARAM_FORMATS[name])
    for kind in MODEL_KINDS
    for name in DEFAULT_HYPERPARAMS[kind]
)

SETTINGS: tuple[Setting, ...] = (
    Setting("cli", "seed", "pipeline", "seed", SEED),
    Setting("cli", "out", "pipeline", "out_dir", TEXT),
    Setting("simgen", "n_assets", "pipeline", "n_assets", POS_INT),
    Setting("simgen", "n_runs_total", "pipeline", "n_runs_total", POS_INT),
    Setting("simgen", "cycle_length", "pipeline", "cycle_length",
            _bounded(INT, ">= 2", lambda v: v >= 2)),
    *_CHAMBER_SETTINGS,
    Setting("simgen", "recipes", "pipeline", "recipes", RECIPES),
    Setting("hi", "segments", "pipeline", "segments", SEGMENTS),
    Setting("hi", "analysis_limit", "pipeline", "analysis_limit", POS_INT),
    Setting("features", "horizon", "pipeline", "horizon", POS_INT),
    Setting("features", "train_frac", "pipeline", "train_frac", FRACTION),
    *_MODEL_SETTINGS,
)
SETTINGS_BY_KEY = {(s.section, s.key): s for s in SETTINGS}
SECTIONS = tuple(dict.fromkeys(s.section for s in SETTINGS))


def config_to_ini(cfg: PipelineConfig) -> str:
    """Canonical resolved INI text."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict({section: {} for section in SECTIONS})
    for s in SETTINGS:
        parser[s.section][s.key] = s.fmt.write(s.read(cfg))
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def config_hash(cfg: PipelineConfig) -> str:
    """Hash of the science-relevant sections of the resolved config: one
    ``section.key=value`` line per key, sections in HASHED_SECTIONS order,
    keys sorted, each value as the INI file writes it."""
    digest = hashlib.sha256()
    for section in HASHED_SECTIONS:
        for s in sorted((s for s in SETTINGS if s.section == section), key=lambda s: s.key):
            digest.update(f"{section}.{s.key}={s.fmt.write(s.read(cfg))}\n".encode())
    return digest.hexdigest()[:16]


def apply_settings(cfg: PipelineConfig, values: Mapping[tuple[str, str], str]) -> PipelineConfig:
    """Parse the text of each (section, key) and set it on ``cfg``.

    All chamber keys go into one ``replace()``, so cross-field checks
    (the order of the three pressures) see them together.
    """
    top: dict[str, Any] = {}
    chamber: dict[str, Any] = {}
    params = {kind: dict(kv) for kind, kv in cfg.model_params.items()}
    for (section, key), text in values.items():
        setting = SETTINGS_BY_KEY.get((section, key))
        if setting is None:
            raise ConfigError(f"unknown [{section}] key: {key}")
        try:
            value = setting.fmt.parse(text)
        except ValueError as exc:
            raise ConfigError(f"bad config value for [{section}] {key}: {exc}") from None
        if setting.scope == "pipeline":
            top[setting.field] = value
        elif setting.scope == "chamber":
            chamber[setting.field] = value
        else:
            params.setdefault(setting.scope, {})[setting.field] = value
    if chamber:
        top["chamber"] = replace(cfg.chamber, **chamber)
    return replace(cfg, model_params=params, **top)


def config_from_ini(text: str, source: str) -> PipelineConfig:
    """Parse the INI text of file ``source``, starting from defaults and
    overriding present keys. Text that is not INI is one ConfigError line
    naming ``source``."""
    # no default section: a [DEFAULT] is one more unknown section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text, source)
    except configparser.Error as exc:  # its message names source, on up to three lines
        raise ConfigError(f"bad config file: {' '.join(str(exc).split())}") from None
    unknown = set(parser.sections()) - set(SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    values = {
        (section, key): value
        for section in parser.sections()
        for key, value in parser[section].items()
    }
    return apply_settings(default_config(), values)


def load_config(path: Union[str, Path]) -> PipelineConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:  # not found, a directory, not UTF-8
        raise ConfigError(f"bad config file {path}: {exc}") from None
    return config_from_ini(text, str(path))
