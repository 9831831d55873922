"""Spans and counters recorded around chamberhealth's public functions.

A traced repetition replaces each function named in TARGETS, in every
chamberhealth module that binds it, with a wrapper that records a span
(name, start, end, parent) and, for some functions, a counter. The
program's source is not touched. Spans stay in memory and are written
once the repetition ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path


def maxrss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, fn, name, after=None):
        """``fn`` recording one span per call; ``name`` may be a function of
        the call's positional arguments. ``after(tracer, arguments, result)``
        runs once the span has ended."""
        sig = inspect.signature(fn) if after else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name(args) if callable(name) else name, 0.0, 0.0,
                    self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                after(self, bound.arguments, result)
            return result

        return wrapper

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"trace_id": self.trace_id, "span_id": i, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


def span_stats(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, total time and self time.

    Self time is a span's duration minus the part of its interval that
    its direct children cover (overlapping children count once).
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    stats: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for i, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        entry = stats[name]
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += (end - start) - covered
    return dict(stats)


# -- what is wrapped -----------------------------------------------------------


def _after_stage(stage):
    def after(tracer, arguments, result):
        tracer.counters[f"cli.stage_{stage}_maxrss_mb"] = maxrss_mb()
    return after


def _after_simulate_run(tracer, arguments, result):
    tracer.counters["simgen.samples_generated"] += result.n_samples


def _after_write_dataset(tracer, arguments, result):
    tracer.counters["dataio.runs_csv_bytes"] = (Path(arguments["out_dir"]) / "runs.csv").stat().st_size


def _after_extract(tracer, arguments, result):
    if result is None:
        tracer.counters["hi.incomplete_durations"] += 1


def _after_derive_hi(tracer, arguments, result):
    tracer.counters["hi.runs_with_hi_ratio"] = len(result[1].entries) / len(arguments["runs"])


def _after_build_supervised(tracer, arguments, result):
    per_asset: dict[str, int] = defaultdict(int)
    for run in arguments["runs"]:
        per_asset[run.asset_id] += 1
    candidates = sum(max(0, n - arguments["horizon"]) for n in per_asset.values())
    tracer.counters["features.rows_built"] = result.n_rows
    tracer.counters["features.rows_dropped_no_target"] = candidates - result.n_rows


def _after_save_model(tracer, arguments, result):
    tracer.counters["models.model_bytes"] += Path(arguments["path"]).stat().st_size


_STAGE_TARGETS = [("chamberhealth.cli", f"stage_{s}", f"cli.stage_{s}", _after_stage(s))
                  for s in ("simulate", "derive_hi", "build_features", "train", "evaluate")]

# (module, attribute, span name, after-hook). Span names group what one
# per-layer metric sums: the HI writers are "dataio.write_hi" and the
# report and plot writers are "dataio.write_eval".
TARGETS = _STAGE_TARGETS + [
    ("chamberhealth.simgen", "simulate_history", "simgen.simulate_history", None),
    ("chamberhealth.simgen", "simulate_run", "simgen.simulate_run", _after_simulate_run),
    ("chamberhealth.dataio", "write_dataset", "dataio.write_dataset", _after_write_dataset),
    ("chamberhealth.dataio", "read_dataset", "dataio.read_dataset", None),
    ("chamberhealth.dataio", "write_supervised", "dataio.write_supervised", None),
    ("chamberhealth.dataio", "read_supervised", "dataio.read_supervised", None),
    ("chamberhealth.dataio", "read_hi_csv", "dataio.read_hi_csv", None),
    ("chamberhealth.dataio", "write_fits_csv", "dataio.write_hi", None),
    ("chamberhealth.dataio", "write_hi_csv", "dataio.write_hi", None),
    ("chamberhealth.dataio", "atomic_write_text", "dataio.write_eval", None),
    ("chamberhealth.dataio", "write_plot_hi_csv", "dataio.write_eval", None),
    ("chamberhealth.core", "composite_curve", "core.composite_curve", None),
    ("chamberhealth.hi", "derive_hi", "hi.derive_hi", _after_derive_hi),
    ("chamberhealth.hi", "run_segment_durations", "hi.run_segment_durations", None),
    ("chamberhealth.hi", "extract_segment_duration", "hi.extract_segment_duration", _after_extract),
    ("chamberhealth.hi", "fit_ols", "hi.fit_ols", None),
    ("chamberhealth.hi", "r_squared", "hi.r_squared", None),
    ("chamberhealth.features", "build_supervised", "features.build_supervised", _after_build_supervised),
    ("chamberhealth.features", "aggregate_channels", "features.aggregate_channels", None),
    ("chamberhealth.features", "chrono_split", "features.chrono_split", None),
    ("chamberhealth.features", "encode_recipe_plan", "features.encode_recipe_plan", None),
    ("chamberhealth.models", "train_model", lambda a: f"models.train_model.{a[0].kind}", None),
    ("chamberhealth.models", "mlp_gradients", "models.mlp_gradients", None),
    ("chamberhealth.models", "TrainedModel.predict", lambda a: f"models.predict.{a[0].kind}", None),
    ("chamberhealth.models", "benchmark_predict", "models.benchmark_predict", None),
    ("chamberhealth.models", "save_model", "models.save_model", _after_save_model),
    ("chamberhealth.models", "load_model", "models.load_model", None),
    ("chamberhealth.evaluation", "evaluate_all", "evaluation.evaluate_all", None),
    ("chamberhealth.evaluation", "mae", "evaluation.mae", None),
]

# Spans whose per-layer "_s" metric is self time; every other "_s" metric
# is total time including the spans nested in it.
SELF_TIMED = {"simgen.simulate_history", "hi.derive_hi", "features.build_supervised",
              "evaluation.evaluate_all"}


def install(tracer: Tracer) -> list[str]:
    """Wrap every target; returns the targets the program no longer has."""
    missing = []
    for module_name, attr, name, after in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(f"{module_name}.{attr}")
            continue
        owner_name, _, fn_name = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            if owner is None or fn_name not in vars(owner):
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, fn_name, tracer.wrap(vars(owner)[fn_name], name, after))
            continue
        original = getattr(module, attr, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        wrapper = tracer.wrap(original, name, after)
        # rebind every `from .x import f` copy too, so all call sites go through the wrapper
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "chamberhealth" or mod_name.startswith("chamberhealth."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
    return missing


def per_layer_metrics(tracer: Tracer, metric_names, n_runs: int) -> dict[str, float]:
    """Values of the named per-layer metrics from one traced repetition.

    ``<span>_calls`` is a call count and ``<span>_s`` (or ``<span>_s.<kind>``
    for span ``<span>.<kind>``) a time; any other name is a counter. A
    metric whose span or counter never occurred is 0.
    """
    stats = span_stats(tracer.spans)
    out = {}
    for name in metric_names:
        head, sep, kind = name.rpartition("_s.")
        if name in tracer.counters:
            value = tracer.counters[name]
        elif name.endswith("_calls"):
            value = stats.get(name[: -len("_calls")], {}).get("calls", 0)
        elif sep:
            value = stats.get(f"{head}.{kind}", {}).get("total", 0.0)
        elif name.endswith("_s"):
            span = name[: -len("_s")]
            value = stats.get(span, {}).get("self" if span in SELF_TIMED else "total", 0.0)
        else:
            value = 0.0
        out[name] = float(value)
    if "core.composite_curve_calls_per_run" in out:
        calls = stats.get("core.composite_curve", {}).get("calls", 0)
        out["core.composite_curve_calls_per_run"] = calls / n_runs
    return out
