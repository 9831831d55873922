"""Tests of the benchmark's own logic: span arithmetic, summaries, the
operation tally and the artifact checks.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import artifacts  # noqa: E402
import catalog  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from chamberhealth import cli  # noqa: E402
from chamberhealth.config import default_config  # noqa: E402


def test_self_time_subtracts_the_interval_covered_by_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["b", 2.0, 5.0, 0],  # overlaps a: [1, 5] counts once against root
        ["a", 3.5, 4.0, 2],  # grandchild: counts against b, not root
        ["c", 9.0, 12.0, 0],  # ends after root: only [9, 10] counts against root
    ]
    stats = tracing.span_stats(spans)
    assert stats["root"] == {"calls": 1, "total": 10.0, "self": 5.0}
    assert stats["b"] == {"calls": 1, "total": 3.0, "self": 2.5}
    assert stats["a"] == {"calls": 2, "total": 2.5, "self": 2.5}
    assert stats["c"]["self"] == 3.0


def test_wrapped_calls_record_nested_spans_and_counters():
    tracer = tracing.Tracer("t")

    def inner(x):
        return x + 1

    def count(tr, arguments, result):
        tr.counters["calls_seen"] += arguments["x"]

    inner = tracer.wrap(inner, "inner", count)

    def outer(x):
        return inner(x) + inner(x)

    outer = tracer.wrap(outer, lambda args: f"outer.{args[0]}")
    assert outer(2) == 6
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [
        ("outer.2", -1), ("inner", 0), ("inner", 0)]
    assert tracer.counters["calls_seen"] == 4


def test_per_layer_names_resolve_to_span_stats_and_counters():
    tracer = tracing.Tracer("t")
    tracer.spans = [
        ["cli.stage_train", 0.0, 4.0, -1],
        ["models.train_model.rf", 0.0, 3.0, 0],
        ["hi.derive_hi", 5.0, 9.0, -1],
        ["hi.run_segment_durations", 5.0, 8.0, 2],
        ["core.composite_curve", 5.0, 6.0, 3],
        ["core.composite_curve", 6.0, 7.0, 3],
    ]
    tracer.counters["features.rows_built"] = 7
    names = ["cli.stage_train_s", "models.train_model_s.rf", "models.train_model_s.dt",
             "hi.derive_hi_s", "hi.run_segment_durations_s", "core.composite_curve_calls",
             "core.composite_curve_calls_per_run", "features.rows_built", "hi.incomplete_durations"]
    assert tracing.per_layer_metrics(tracer, names, n_runs=4) == {
        "cli.stage_train_s": 4.0,
        "models.train_model_s.rf": 3.0,
        "models.train_model_s.dt": 0.0,
        "hi.derive_hi_s": 1.0,  # self time
        "hi.run_segment_durations_s": 3.0,  # total time
        "core.composite_curve_calls": 2.0,
        "core.composite_curve_calls_per_run": 0.5,
        "features.rows_built": 7.0,
        "hi.incomplete_durations": 0.0,
    }


def test_summary_is_the_median_with_its_sample_count():
    assert run.summarize([3.0, 1.0, 2.0]) == {"median": 2.0, "n": 3, "min": 1.0, "max": 3.0}
    assert run.summarize([1.0, 4.0])["median"] == 2.5
    assert run.summarize([]) == {"median": None, "n": 0}


@pytest.fixture(scope="module")
def small_history(tmp_path_factory):
    out = tmp_path_factory.mktemp("history")
    cfg = replace(default_config(), seed=0, out_dir=str(out), n_runs_total=200)
    cli.stage_simulate(cfg)
    cli.stage_derive_hi(cfg)
    return out, cfg


def test_intact_artifacts_pass_their_checks(small_history):
    out, cfg = small_history
    failures, values = artifacts.run_checks(out, cfg, ["run_counts", "hi_truth"])
    assert failures == {}
    assert 0.0 < values["hi_truth_mae_s"] < 0.01


@pytest.mark.parametrize("keep", [0.5, None], ids=["mid-row", "whole-rows"])
def test_truncated_hi_csv_fails_checks_without_raising(small_history, tmp_path, keep):
    out, cfg = small_history
    work = tmp_path / "work"
    shutil.copytree(out, work)
    hi = work / "hi.csv"
    text = hi.read_bytes()
    if keep is None:  # drop the last rows, ending on a line boundary
        cut = text.rstrip(b"\n").rsplit(b"\n", 5)[0] + b"\n"
    else:
        cut = text[: int(len(text) * keep)]
        assert not cut.endswith(b"\n")
    hi.write_bytes(cut)
    failures, _ = artifacts.run_checks(work, cfg, ["run_counts"])
    assert set(failures) == {"run_counts"}


def test_failed_checks_and_crashed_repetitions_raise_the_error_rate(monkeypatch):
    workload = catalog.WORKLOADS["history-3k"]
    runner = run.Runner(workload, seed=0)
    outcomes = iter([
        {"attempted": 6, "failures": {"run_counts": "CheckFailed: hi.csv has 1999 runs"}},
        None,
    ])
    monkeypatch.setattr(runner, "launch", lambda workdir, *flags: next(outcomes))
    runner.stages(Path("unused"), workload.stages)
    runner.stages(Path("unused"), workload.stages)
    assert runner.attempted == 12
    assert len(runner.failures) == 1 + 6
    line = run.result_line(
        [{"workload": workload.name, "trace": 0, "attempted": runner.attempted,
          "failed": len(runner.failures),
          "metrics": {m.name: {"median": 1.0, "n": 1} for m in catalog.END_TO_END}}],
        prefix=False)
    assert line["correct"] is False and line["failed"] == 7 and line["attempted"] == 12


def test_benchmark_json_matches_the_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in catalog.WORKLOADS.values()]
    assert spec["end_to_end"] == [{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
                                  for m in catalog.END_TO_END]
    assert spec["per_layer"] == [{"name": m.name, "unit": m.unit, "better": m.better}
                                 for m in catalog.PER_LAYER]
