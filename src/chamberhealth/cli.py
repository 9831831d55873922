"""Subcommand front-end: simulate -> derive-hi -> build-features -> train -> evaluate.

Every stage reads its inputs from and writes its outputs to the working
directory given by --out, so any prefix of the pipeline can be run
standalone and rerunning with the same seed overwrites artifacts with
byte-identical bytes. Failures exit non-zero with a single parsable
line on stderr: ``ERROR <ConfigError|DataError|ModelError>: <message>``.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import dataio
from .config import (
    SETTINGS,
    PipelineConfig,
    apply_settings,
    config_hash,
    config_to_ini,
    default_config,
    load_config,
)
from .core import RunChunk, composite_columns
from .errors import ConfigError, DataError, ModelError
from .evaluation import evaluate_all
from .features import aggregate_runs, build_supervised, chrono_split
from .hi import derive_hi, run_segment_durations
from .models import (
    MODEL_KINDS,
    RegressorSpec,
    load_model,
    save_model,
    train_models,
)
from .simgen import simulate_history

EXIT_CODES = {ConfigError: 2, DataError: 3, ModelError: 4}


def stage_simulate(cfg: PipelineConfig) -> None:
    seed = cfg.require_seed()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runs = simulate_history(
        cfg.chamber,
        cfg.recipes,
        n_assets=cfg.n_assets,
        n_runs_total=cfg.n_runs_total,
        cycle_length=cfg.cycle_length,
        seed=seed,
    )
    dataio.write_dataset(out, runs)


def _summarize_chunk(sensors, segments, chunk: RunChunk) -> tuple[np.ndarray, dict]:
    """A chunk's segment durations and channel aggregates, from its runs
    fused once."""
    pressure = composite_columns(chunk, sensors)
    return run_segment_durations(chunk, pressure, segments), aggregate_runs(chunk, pressure)


def stage_derive_hi(cfg: PipelineConfig) -> None:
    """The HI and each run's channel aggregates from one pass over runs.csv.

    ``dataio.read_dataset`` parses runs.csv in chunks of whole runs on
    every CPU; each chunk is fused once and reduced to its runs' segment
    durations and aggregates, so only those columns reach this process.
    """
    out = Path(cfg.out_dir)
    sensors = cfg.chamber.sensors
    runs, parts = dataio.read_dataset(out, len(sensors),
                                      partial(_summarize_chunk, sensors, cfg.segments))
    if not runs:
        raise DataError("no runs to derive a health index from")
    fits, series = derive_hi(
        runs,
        np.concatenate([durations for durations, _ in parts]),
        cfg.segments,
        cycle_length=cfg.cycle_length,
        analysis_limit=cfg.analysis_limit,
    )
    aggregates = {name: np.concatenate([columns[name] for _, columns in parts])
                  for name in parts[0][1]}
    dataio.write_fits_csv(out / dataio.FITS_CSV, fits)
    dataio.write_hi_csv(out / dataio.HI_CSV, runs, series)
    dataio.write_run_aggregates_csv(out / dataio.RUN_AGGREGATES_CSV, runs, aggregates)


def stage_build_features(cfg: PipelineConfig) -> None:
    """The supervised split from run_meta.csv, run_aggregates.csv and
    hi.csv; runs.csv is not read."""
    out = Path(cfg.out_dir)
    runs = dataio.read_run_meta(out)
    aggregates = dataio.read_run_aggregates(out, runs)
    hi = dataio.read_hi_csv(out / dataio.HI_CSV, runs)
    sset = build_supervised(runs, aggregates, hi, horizon=cfg.horizon)
    train, test = chrono_split(sset, train_frac=cfg.train_frac)
    dataio.write_supervised(out, train, test)


def stage_train(cfg: PipelineConfig, kinds: Optional[Sequence[str]] = None) -> None:
    """Make models/, fit every requested kind, then save them all: no kind
    is fitted into a models/ that cannot be made, and a failed fit changes
    no file. ``models.train_models`` fits the kinds side by side on every
    CPU, and reports the first failing kind in the requested order."""
    seed = cfg.require_seed()
    out = Path(cfg.out_dir)
    train, _ = dataio.read_supervised(out)
    models_dir = out / dataio.MODELS_DIR
    models_dir.mkdir(parents=True, exist_ok=True)
    specs = [RegressorSpec(kind, dict(cfg.model_params.get(kind, {})), seed=seed)
             for kind in kinds or MODEL_KINDS]
    for model in train_models(specs, train):
        save_model(model, models_dir / f"{model.kind}.npz")


def stage_evaluate(cfg: PipelineConfig) -> None:
    seed = cfg.require_seed()
    out = Path(cfg.out_dir)
    train, test = dataio.read_supervised(out)
    models_dir = out / dataio.MODELS_DIR
    paths = sorted(models_dir.glob("*.npz")) if models_dir.is_dir() else []
    if not paths:
        raise ModelError(f"no trained models (*.npz) found under {models_dir}; run train")
    models = {p.stem: load_model(p) for p in paths}
    for kind, model in models.items():
        if model.kind != kind:
            raise ModelError(f"{kind}.npz: holds a {model.kind} model, not {kind}; rerun train")
        if model.feature_names != train.feature_names:
            raise ModelError(
                f"{kind}.npz was trained on other features than {dataio.FEATURES_CSV}'s; "
                "rerun train"
            )

    fingerprint = {
        "seed": seed,
        "config_hash": config_hash(cfg),
        "horizon": cfg.horizon,
        "train_frac": cfg.train_frac,
    }
    report = evaluate_all(models, train, test, fingerprint)
    dataio.atomic_write_text(out / dataio.REPORT_JSON, report.to_json() + "\n")
    best_kind = report.results[0][0]
    dataio.write_plot_hi_csv(out / dataio.PLOT_HI_CSV, test, best_kind, report.predictions)
    dataio.write_predictions_csv(out / dataio.PREDICTIONS_CSV, test, report.predictions)


def run_pipeline(cfg: PipelineConfig) -> None:
    """All five stages in order over one working directory."""
    stage_simulate(cfg)
    stage_derive_hi(cfg)
    stage_build_features(cfg)
    stage_train(cfg)
    stage_evaluate(cfg)


# The function each subcommand runs; train --model <kind> passes its kind.
STAGES = {
    "simulate": stage_simulate,
    "derive-hi": stage_derive_hi,
    "build-features": stage_build_features,
    "train": stage_train,
    "evaluate": stage_evaluate,
    "pipeline": run_pipeline,
}


# Override flags of each subcommand, as the (section, key) each one sets.
# The flag is the key with dashes; its value goes through the key's own
# parser, exactly like a file value. Every subcommand also takes
# --seed and --out; show-config takes every flag, to preview any command.
_CLI_FLAGS = (("cli", "seed"), ("cli", "out"))
_SIMULATE_FLAGS = (("simgen", "n_assets"), ("simgen", "n_runs_total"), ("simgen", "cycle_length"))
_FEATURE_FLAGS = (("features", "horizon"), ("features", "train_frac"))
_TRAIN_FLAGS = tuple(
    ("models", key)
    for key in (
        "dt_max_depth", "dt_min_samples_leaf", "rf_n_trees", "rf_max_depth",
        "rf_features_per_split", "knn_k", "svr_epsilon", "svr_steps",
        "mlp_hidden_units", "mlp_epochs",
    )
)
COMMANDS = {
    "simulate": ("generate the synthetic dataset CSVs", _SIMULATE_FLAGS),
    "derive-hi": ("fit segments and extract the health index", (("hi", "analysis_limit"),)),
    "build-features": ("build the horizon-N supervised split", _FEATURE_FLAGS),
    "train": ("train forecasting models", _TRAIN_FLAGS),
    "evaluate": ("score models and benchmarks, write report.json", ()),
    "pipeline": ("run all stages in order", _SIMULATE_FLAGS + _FEATURE_FLAGS),
}
COMMANDS["show-config"] = (
    "print the fully resolved configuration",
    tuple(dict.fromkeys(flag for _, flags in COMMANDS.values() for flag in flags)),
)


def _add_override(parser: argparse.ArgumentParser, section: str, key: str) -> None:
    parser.add_argument("--" + key.replace("_", "-"), dest=f"{section}.{key}", metavar="VALUE",
                        help=f"override [{section}] {key}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chamberhealth",
        description="Chamber contamination health index: simulate, derive, forecast, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", type=str, default=None, help="INI config file")
        if command == "train":
            p.add_argument("--model", choices=list(MODEL_KINDS) + ["all"], default="all")
        for section, key in _CLI_FLAGS + flags:
            _add_override(p, section, key)
    return parser


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """Defaults, then config file, then command-line flags."""
    cfg = load_config(args.config) if args.config else default_config()
    flags = {
        (s.section, s.key): value
        for s in SETTINGS
        if (value := getattr(args, f"{s.section}.{s.key}", None)) is not None
    }
    return apply_settings(cfg, flags)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        # effective configuration, defaults resolved, before any action
        sys.stdout.write(config_to_ini(cfg))
        sys.stdout.flush()
        if args.command == "show-config":
            return 0
        if args.command == "train" and args.model != "all":
            stage_train(cfg, [args.model])
        else:
            STAGES[args.command](cfg)
    except tuple(EXIT_CODES) as exc:
        cls = next(cls for cls in EXIT_CODES if isinstance(exc, cls))
        sys.stderr.write(f"ERROR {cls.__name__}: {exc}\n")
        return EXIT_CODES[cls]
    except OSError as exc:
        sys.stderr.write(f"ERROR DataError: {exc}\n")
        return EXIT_CODES[DataError]
    return 0


if __name__ == "__main__":
    sys.exit(main())
