"""Workloads and metrics of the chamberhealth benchmark.

This table is the single source for what the benchmark measures:
``run.py`` runs the workloads and prints the metrics from it, and a test
checks that ``BENCHMARK.json`` at the repository root agrees with it.
"""

from __future__ import annotations

from dataclasses import dataclass

DATA_STAGES = ("simulate", "derive_hi", "build_features")
MODEL_STAGES = ("train", "evaluate")
ALL_STAGES = DATA_STAGES + MODEL_STAGES
MODEL_KINDS = ("dt", "rf", "knn", "svr", "mlp")


@dataclass(frozen=True)
class Workload:
    name: str
    n_runs_total: int
    stages: tuple[str, ...]  # timed, in order
    fixture_stages: tuple[str, ...]  # built once per benchmark run, counted in setup_s
    why: str


def checks_for(stages) -> list[str]:
    """Names of the artifact checks (see artifacts.py) that follow ``stages``."""
    names = []
    if "derive_hi" in stages:
        names += ["fits_dp2", "run_counts", "hi_truth"]
    if "evaluate" in stages:
        names += ["report", "bm1_identity"]
    return names


# Every workload is one process at a time running one pipeline in a closed
# loop: the next repetition starts when the previous one has exited.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pipeline-2k",
            2000,
            ALL_STAGES,
            (),
            "the user's full pipeline at the default config; data stages and train "
            "each take about half, so a change that helps one half and costs the other shows",
        ),
        Workload(
            "history-3k",
            3000,
            DATA_STAGES,
            (),
            "simulate, derive-hi and build-features only at 3000 runs: parsing and "
            "fusion dominate, the working set dwarfs the CPU caches, models do no work",
        ),
        Workload(
            "retrain-2k",
            2000,
            MODEL_STAGES,
            DATA_STAGES,
            "train all five kinds and evaluate on a 2000-run fixture: models and "
            "evaluation dominate, data layers only read features.csv and write models",
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float = 0.0  # end-to-end only: allowed worsening as a share of the parent's median
    moves: str = ""  # per-layer only: the end-to-end metric and workload it should move


END_TO_END = (
    Metric("wall_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("hi_truth_mae_s", "s", "lower", 0.15),
)

# Printed by name with every result but kept out of BENCHMARK.json: error_rate
# is 0 on correct code (the result line carries it as failed/attempted), and
# mae_best_s does not exist on history-3k, which trains no model.
REPORTED_ONLY = (
    Metric("error_rate", "ratio", "lower"),
    Metric("mae_best_s", "s", "lower"),
)


def _stage_metrics() -> list[Metric]:
    moves = {
        "simulate": "wall_s on history-3k and pipeline-2k",
        "derive_hi": "wall_s on history-3k and pipeline-2k",
        "build_features": "wall_s on history-3k and pipeline-2k",
        "train": "wall_s on retrain-2k and pipeline-2k",
        "evaluate": "wall_s on retrain-2k and pipeline-2k",
    }
    out = [Metric(f"cli.stage_{s}_s", "s", "lower", moves=f"{moves[s]}; the five sum to wall_s")
           for s in ALL_STAGES]
    out += [Metric(f"cli.stage_{s}_maxrss_mb", "MB", "lower",
                   moves="peak_rss_mb on the workloads that run the stage") for s in ALL_STAGES]
    return out


_DATA = "wall_s on history-3k (mainly) and pipeline-2k"
_DATA_RSS = "wall_s and peak_rss_mb on history-3k (mainly) and pipeline-2k"
_MODELS = "wall_s on retrain-2k (mainly) and pipeline-2k; flat on history-3k"
_EVAL = "wall_s on retrain-2k and pipeline-2k"

PER_LAYER = tuple(
    _stage_metrics()
    + [
        Metric("simgen.simulate_history_s", "s", "lower", moves=_DATA),
        Metric("simgen.simulate_run_s", "s", "lower", moves=_DATA),
        Metric("simgen.simulate_run_calls", "count", "lower", moves=_DATA),
        Metric("simgen.samples_generated", "count", "lower", moves=_DATA),
        Metric("dataio.write_dataset_s", "s", "lower", moves=_DATA_RSS),
        Metric("dataio.runs_csv_bytes", "bytes", "lower", moves=_DATA_RSS),
        Metric("dataio.read_dataset_s", "s", "lower", moves=_DATA_RSS),
        Metric("dataio.read_dataset_calls", "count", "lower", moves=_DATA_RSS),
        Metric("dataio.write_supervised_s", "s", "lower", moves=_DATA),
        Metric("dataio.read_supervised_s", "s", "lower", moves=_EVAL),
        Metric("dataio.read_supervised_calls", "count", "lower", moves=_EVAL),
        Metric("dataio.read_hi_csv_s", "s", "lower", moves=_DATA),
        Metric("dataio.write_hi_s", "s", "lower", moves=_DATA),
        Metric("dataio.write_eval_s", "s", "lower", moves=_EVAL),
        Metric("core.composite_curve_s", "s", "lower", moves=_DATA),
        Metric("core.composite_curve_calls", "count", "lower", moves=_DATA),
        Metric("core.composite_curve_calls_per_run", "ratio", "lower", moves=_DATA),
        Metric("hi.derive_hi_s", "s", "lower", moves=_DATA),
        Metric("hi.run_segment_durations_s", "s", "lower", moves=_DATA),
        Metric("hi.extract_segment_duration_s", "s", "lower", moves=_DATA),
        Metric("hi.extract_segment_duration_calls", "count", "lower", moves=_DATA),
        Metric("hi.fit_ols_s", "s", "lower", moves="hi_truth_mae_s via the selected segment"),
        Metric("hi.r_squared_s", "s", "lower", moves="hi_truth_mae_s via the selected segment"),
        Metric("hi.incomplete_durations", "count", "lower", moves="hi_truth_mae_s"),
        Metric("hi.runs_with_hi_ratio", "ratio", "higher", moves="hi_truth_mae_s"),
        Metric("features.build_supervised_s", "s", "lower", moves=_DATA),
        Metric("features.aggregate_channels_s", "s", "lower", moves=_DATA),
        Metric("features.aggregate_channels_calls", "count", "lower", moves=_DATA),
        Metric("features.chrono_split_s", "s", "lower", moves=_DATA),
        Metric("features.encode_recipe_plan_calls", "count", "lower", moves=_DATA),
        Metric("features.rows_built", "count", "higher", moves=_DATA),
        Metric("features.rows_dropped_no_target", "count", "lower", moves=_DATA),
    ]
    + [Metric(f"models.train_model_s.{k}", "s", "lower", moves=_MODELS) for k in MODEL_KINDS]
    + [
        Metric("models.mlp_gradients_s", "s", "lower", moves=_MODELS),
        Metric("models.mlp_gradients_calls", "count", "lower", moves=_MODELS),
    ]
    + [Metric(f"models.predict_s.{k}", "s", "lower", moves=_EVAL) for k in MODEL_KINDS]
    + [
        Metric("models.benchmark_predict_s", "s", "lower", moves=_EVAL),
        Metric("models.save_model_s", "s", "lower", moves=_MODELS),
        Metric("models.load_model_s", "s", "lower", moves=_EVAL),
        Metric("models.model_bytes", "bytes", "lower", moves=_MODELS),
        Metric("evaluation.evaluate_all_s", "s", "lower", moves=_EVAL),
        Metric("evaluation.mae_calls", "count", "lower", moves=_EVAL),
        Metric("trace.overhead_s", "s", "lower",
               moves="none: traced minus untraced wall_s of the same workload"),
    ]
)
