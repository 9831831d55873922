"""End-to-end CLI tests on a small synthetic config."""

import argparse
import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from functools import partial
from itertools import chain, groupby, product, takewhile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chamberhealth import cli, core, dataio, models, workers
from chamberhealth.cli import build_parser, main
from chamberhealth.config import (
    FLOAT, INT, RECIPES, SENSORS, SETTINGS, TEXT, load_config,
)
from chamberhealth.features import AGGREGATE_SUFFIXES, build_supervised, chrono_split
from chamberhealth.models import MODEL_KINDS
from chamberhealth.simgen import simulate_history
from helpers import SMALL_INI, aggregates_of, derive_hi_of, edited_npz, hi_column

ARTIFACTS = [
    dataio.RUNS_CSV,
    dataio.RUN_META_CSV,
    dataio.GROUND_TRUTH_CSV,
    dataio.FITS_CSV,
    dataio.HI_CSV,
    dataio.RUN_AGGREGATES_CSV,
    dataio.FEATURES_CSV,
    dataio.META_CSV,
    dataio.REPORT_JSON,
    dataio.PLOT_HI_CSV,
    dataio.PREDICTIONS_CSV,
    *(f"{dataio.MODELS_DIR}/{kind}.npz" for kind in MODEL_KINDS),
]


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "config.ini"
    path.write_text(SMALL_INI)
    return path


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def test_pipeline_smoke_produces_all_artifacts(tmp_path, small_config):
    out = tmp_path / "work"
    assert run_cli("pipeline", "--config", small_config, "--out", out) == 0
    for name in ARTIFACTS:
        assert (out / name).exists(), name
    report = json.loads((out / dataio.REPORT_JSON).read_text())
    assert {r["model"] for r in report["results"]} == {"dt", "rf", "knn", "svr", "mlp", "lstm"}


def _readme_artifacts() -> set[str]:
    """The files of README's artifact table, ``<kind>`` expanded over MODEL_KINDS."""
    lines = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| File | Written by | Read by | Columns |") + 2
    names = set()
    for line in takewhile(lambda line: line.startswith("| `"), lines[start:]):
        name = line.split("`")[1]
        names.update(name.replace("<kind>", kind) for kind in MODEL_KINDS)
    return names


def test_readme_artifact_table_lists_what_pipeline_writes(pipelined):
    _, work = pipelined
    written = {p.relative_to(work).as_posix() for p in work.rglob("*") if p.is_file()}
    assert _readme_artifacts() == written


def test_pipeline_rerun_is_byte_identical(tmp_path, small_config):
    out = tmp_path / "work"
    assert run_cli("pipeline", "--config", small_config, "--out", out) == 0
    first = {name: (out / name).read_bytes() for name in ARTIFACTS}
    assert run_cli("pipeline", "--config", small_config, "--out", out) == 0
    for name in ARTIFACTS:
        assert (out / name).read_bytes() == first[name], name


def test_stage_prefixes_run_standalone(tmp_path, small_config):
    out = tmp_path / "work"
    for command in ("simulate", "derive-hi", "build-features", "train", "evaluate"):
        assert run_cli(command, "--config", small_config, "--out", out) == 0
    assert (out / dataio.REPORT_JSON).exists()


def test_missing_input_is_data_error_without_partial_outputs(tmp_path, small_config):
    out = tmp_path / "work"
    out.mkdir()
    code = run_cli("derive-hi", "--config", small_config, "--out", out)
    assert code == 3  # DataError
    assert not (out / dataio.FITS_CSV).exists()
    assert not (out / dataio.HI_CSV).exists()
    assert not list(out.glob("*.tmp"))


def test_seed_is_required(tmp_path):
    code = run_cli("simulate", "--out", tmp_path / "w")
    assert code == 2  # ConfigError


def test_effective_config_is_printed_before_acting(tmp_path, small_config, capsys):
    run_cli("show-config", "--config", small_config, "--seed", 9)
    text = capsys.readouterr().out
    assert "[simgen]" in text and "[models]" in text
    assert "seed = 9" in text
    assert "n_runs_total = 100" in text
    # defaults resolved, not just the file's keys
    assert "tau_stage2 = 4.0" in text


def test_error_line_is_machine_parsable(tmp_path, small_config, capsys):
    out = tmp_path / "none"
    run_cli("evaluate", "--config", small_config, "--out", out)
    err = capsys.readouterr().err
    assert err.startswith("ERROR DataError:") or err.startswith("ERROR ModelError:")


def _override_flags() -> dict[str, argparse.Action]:
    """Every flag of every subcommand that sets a config key."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {}
    for command in sub.choices.values():
        for action in command._actions:
            for flag in action.option_strings:
                if flag.startswith("--") and flag not in ("--help", "--config", "--model"):
                    flags[flag] = action
    return flags


@pytest.mark.parametrize("flag", sorted(_override_flags()))
def test_flag_overrides_config(small_config, capsys, flag):
    key = flag[2:].replace("-", "_")
    value = {"--train-frac": 0.5}.get(flag, 7)  # each value within its key's bound
    expected = {f"{key} = {value}", f"{key} = {float(value)}"}
    assert run_cli("show-config", "--config", small_config, flag, value) == 0
    assert expected & set(capsys.readouterr().out.splitlines())


def test_flag_value_uses_the_key_parser(small_config, capsys):
    assert run_cli("show-config", "--config", small_config, "--rf-n-trees", "10.7") == 2
    assert capsys.readouterr().err.startswith("ERROR ConfigError:")


def test_impact_alpha_is_per_simulated_maintenance_cycle(tmp_path, small_config, capsys):
    # the small config without its cycle length, which the flag then sets,
    # and with a sixth segment, below the pumpdown target, that no run completes
    ini = tmp_path / "default-cycle.ini"
    ini.write_text(SMALL_INI.replace("cycle_length = 25\n", "") + (
        "[hi]\nsegments = 1:1013.0:0.02, 2:0.03:0.002, 3:0.002:0.0005, 4:0.0005:0.0002, "
        "5:0.0002:0.0001, 6:1e-5:1e-6\n"))
    out = tmp_path / "work"
    assert run_cli("pipeline", "--config", ini, "--out", out, "--cycle-length", 25) == 0
    assert "cycle_length = 25" in capsys.readouterr().out
    fits = dataio.read_table(out / dataio.FITS_CSV)
    assert [row[0] for row in fits] == [1, 2, 3, 4, 5]
    for _, k, _, t_bar, alpha, _, _ in fits:
        assert alpha == k * 25 / t_bar * 100.0


def test_run_missing_from_runs_csv_is_data_error(tmp_path, small_config):
    out = tmp_path / "work"
    assert run_cli("simulate", "--config", small_config, "--out", out) == 0
    path = out / dataio.RUNS_CSV
    lines = path.read_text().splitlines(keepends=True)
    last_run = lines[-1].split(",", 1)[0]
    path.write_text("".join(line for line in lines if not line.startswith(last_run + ",")))
    assert run_cli("derive-hi", "--config", small_config, "--out", out) == 3
    assert not (out / dataio.HI_CSV).exists()


def test_evaluate_writes_every_prediction(tmp_path, pipelined):
    config, work = pipelined
    out = shutil.copytree(work, tmp_path / "work")
    (out / dataio.PREDICTIONS_CSV).unlink()
    assert run_cli("evaluate", "--config", config, "--out", out) == 0
    _, test = dataio.read_supervised(out)
    kinds = sorted({*MODEL_KINDS, "bm1", "bm2", "bm3"})
    # every model and benchmark predicts each test row once, in kind order
    assert [(row[2], row[0]) for row in dataio.read_table(out / dataio.PREDICTIONS_CSV)] == [
        (kind, run_id) for kind in kinds for run_id in test.meta.run_id_target.tolist()
    ]


def test_evaluate_names_each_degenerate_model_on_stderr(tmp_path, pipelined, capsys):
    # the small config's SVR never moves its weights from w = 0, b = mean(y),
    # so it predicts bm3; the other four models print nothing
    config, work = pipelined
    out = shutil.copytree(work, tmp_path / "work")
    assert run_cli("evaluate", "--config", config, "--out", out) == 0
    assert capsys.readouterr().err == "evaluate: svr predictions are constant and equal bm3's\n"
    assert (out / dataio.REPORT_JSON).read_bytes() == (work / dataio.REPORT_JSON).read_bytes()
    (out / dataio.MODELS_DIR / "svr.npz").unlink()
    assert run_cli("evaluate", "--config", config, "--out", out) == 0
    assert capsys.readouterr().err == ""


def test_plot_csv_schema(tmp_path, small_config):
    out = tmp_path / "work"
    assert run_cli("pipeline", "--config", small_config, "--out", out) == 0
    header, rows = dataio.read_csv(out / dataio.PLOT_HI_CSV)
    assert header == ["start_time", "n_runs", "target", "prediction_best", "bm1", "bm2", "bm3"]
    assert len(rows)


def _set_cell(lines, i, j, value):
    cells = lines[i].rstrip("\n").split(",")
    cells[j] = value
    return lines[:i] + [",".join(cells) + "\n"] + lines[i + 1 :]


def _set_column(name, column, value):
    """A corruption that sets the first row's cell of a SCHEMAS file's column."""
    return lambda lines: _set_cell(lines, 1, list(dataio.SCHEMAS[name]).index(column), value)


def _block_start(lines, b):
    """The index of the first line of runs.csv block b: 0 the first, -1 the last."""
    keys = [line.split(",", 1)[0] for line in lines]
    return [i for i in range(1, len(lines)) if i == 1 or keys[i] != keys[i - 1]][b]


# Each runs.csv corruption acts on block b, the first run's (0) or the last
# run's (-1), as far as it touches a block.


def _set_runs_cell(column, value):
    """A corruption that sets a runs.csv column's cell, found by its header,
    in the first row of block b."""
    return lambda lines, b=0: _set_cell(lines, _block_start(lines, b),
                                        lines[0].rstrip("\n").split(",").index(column), value)


def _blank_line(lines, b=0):
    """A blank line halfway through the file, or through its last block."""
    i = (len(lines) + (0 if b == 0 else _block_start(lines, b))) // 2
    return lines[:i] + ["\n"] + lines[i:]


def _split_run(lines, b=0):
    """Move a run's last row out of its block: the first run's to the end of
    the file, the last run's to before the run before it."""
    if b == 0:
        first = lines[1].split(",", 1)[0]
        i = max(k for k, line in enumerate(lines) if line.startswith(first + ","))
        return lines[:i] + lines[i + 1 :] + [lines[i]]
    i = _block_start(lines, -2)
    return lines[:i] + lines[-1:] + lines[i:-1]


def _run_blocks(lines):
    """The header line and each run's block of lines, in file order."""
    return lines[0], [list(b) for _, b in groupby(lines[1:], key=lambda l: l.split(",", 1)[0])]


def _swap_runs(lines, b=0):
    """Swap the first two runs' blocks, or the last two."""
    header, blocks = _run_blocks(lines)
    i = 0 if b == 0 else len(blocks) - 2
    blocks[i : i + 2] = blocks[i + 1], blocks[i]
    return [header, *chain(*blocks)]


def _rename_run(lines, b=0):
    header, blocks = _run_blocks(lines)
    blocks[b] = ["not-a-run," + line.split(",", 1)[1] for line in blocks[b]]
    return [header, *chain(*blocks)]


def _corrupt(path, corruption):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(corruption(lines)))


DERIVE_OUTPUTS = (dataio.FITS_CSV, dataio.HI_CSV, dataio.RUN_AGGREGATES_CSV)
RUNS_CSV_CORRUPTIONS = {
    "non-numeric-sensor-cell": _set_runs_cell("p1_mbar", "abc"),
    "inf-sensor-cell": _set_runs_cell("p1_mbar", "inf"),
    "empty-t-cell": _set_runs_cell("t_s", ""),
    "empty-channel-cell": lambda lines, b=0: _set_cell(lines, _block_start(lines, b), -1, ""),
    # the file's last row is the last run's
    "cut-mid-row": lambda lines, b=0: lines[:-1] + [lines[-1][: len(lines[-1]) // 2]],
    "blank-line": _blank_line,
    "run-split-in-two-blocks": _split_run,
    "blocks-out-of-run-meta-order": _swap_runs,
    "block-not-in-run-meta": _rename_run,
    # the header belongs to no block
    "gauge-columns-swapped": lambda lines, b=0: [
        lines[0].replace("p1_mbar,p2_mbar", "p2_mbar,p1_mbar")
    ] + lines[1:],
    "gauge-column-renamed": lambda lines, b=0: [
        lines[0].replace("p1_mbar,p2_mbar", "p1_mbar,pressure_mbar")
    ] + lines[1:],
    # the channels are declared, not read off the header: temp_c, the last
    # column, cut from every line, or a channel's header renamed
    "channel-column-dropped": lambda lines, b=0: [line.rsplit(",", 1)[0] + "\n"
                                                  for line in lines],
    "channel-renamed-pressure": lambda lines, b=0: [
        lines[0].replace("temp_c", "pressure")
    ] + lines[1:],
    "channel-renamed": lambda lines, b=0: [lines[0].replace("gas_flow", "bogus")] + lines[1:],
    "cell-past-the-field-limit": _set_runs_cell("p1_mbar", "1" * (csv.field_size_limit() + 1)),
}
# the header every refused header is told it should have (four default sensors)
RUNS_CSV_EXPECTED = str(
    ["run_id", "t_s", "p1_mbar", "p2_mbar", "p3_mbar", "p4_mbar", "gas_flow", "temp_c"]
)
# the refusal that each cell corruption must reach, so none passes by failing later
RUNS_CSV_REFUSALS = {
    "non-numeric-sensor-cell": "could not convert",
    "inf-sensor-cell": "valid readings must be finite",
    "empty-t-cell": "empty or non-finite t_s or channel cell",
    "empty-channel-cell": "empty or non-finite t_s or channel cell",
    "cell-past-the-field-limit": "field larger than field limit (131072)",
    **dict.fromkeys(
        ["gauge-columns-swapped", "gauge-column-renamed", "channel-column-dropped",
         "channel-renamed-pressure", "channel-renamed"],
        f"4 configured sensors need {RUNS_CSV_EXPECTED}; rerun simulate"),
}

SUPERVISED_CORRUPTIONS = {
    "meta-header": (dataio.META_CSV, lambda lines: [lines[0].replace("hi_current", "hi")] + lines[1:]),
    "short-meta-row": (dataio.META_CSV, lambda lines: [lines[0], lines[1].rsplit(",", 1)[0] + "\n"] + lines[2:]),
    "non-numeric-feature-cell": (dataio.FEATURES_CSV, lambda lines: _set_cell(lines, 1, 0, "abc")),
    "nan-feature-cell": (dataio.FEATURES_CSV, lambda lines: _set_cell(lines, 1, 0, "nan")),
    # a model has nothing to split or weigh on
    "target-only-features": (dataio.FEATURES_CSV,
                             lambda lines: [line.rsplit(",", 1)[-1] for line in lines]),
    "inf-hi-current-cell": (dataio.META_CSV, _set_column(dataio.META_CSV, "hi_current", "inf")),
    # the counters are an int64 column
    "n-runs-past-int64": (dataio.META_CSV, _set_column(dataio.META_CSV, "n_runs", "9" * 20)),
    "negative-n-runs": (dataio.META_CSV, _set_column(dataio.META_CSV, "n_runs", "-7")),
    "negative-n-runs-target": (dataio.META_CSV, _set_column(dataio.META_CSV, "n_runs_target", "-7")),
    # the second row, a train row, relabelled: a test row that predates train rows
    "test-row-among-train-rows": (dataio.META_CSV, lambda lines: _set_cell(lines, 2, -1, "test")),
    "features-last-row-cut": (dataio.FEATURES_CSV, lambda lines: lines[:-1]),
    "every-row-train": (dataio.META_CSV, lambda lines: [lines[0]] + [
        line.rstrip("\n").rsplit(",", 1)[0] + ",train\n" for line in lines[1:]]),
}
# the refusal that a corruption must reach
SUPERVISED_REFUSALS = {
    "features-last-row-cut": "features.csv and meta.csv row counts differ",
    "every-row-train": "meta.csv has no test rows",
}


def _stage_output(tmp_path_factory, command):
    root = tmp_path_factory.mktemp(command)
    config = root / "config.ini"
    config.write_text(SMALL_INI)
    assert run_cli(command, "--config", config, "--out", root / "work") == 0
    return config, root / "work"


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    return _stage_output(tmp_path_factory, "simulate")


@pytest.fixture(scope="module")
def pipelined(tmp_path_factory):
    return _stage_output(tmp_path_factory, "pipeline")


@pytest.mark.parametrize("corruption, block", [
    *(pytest.param(name, 0, id=name) for name in sorted(RUNS_CSV_CORRUPTIONS)),
    *(pytest.param(name, -1, id=f"{name}-in-last-block") for name in sorted(RUNS_CSV_CORRUPTIONS)),
])
def test_malformed_runs_csv_is_data_error(tmp_path, simulated, capsys, monkeypatch, corruption,
                                          block):
    config, work = simulated
    out = shutil.copytree(work, tmp_path / "work")
    _corrupt(out / dataio.RUNS_CSV, partial(RUNS_CSV_CORRUPTIONS[corruption], b=block))
    if block:  # every run its own chunk, on two workers: the last chunk is the second's
        monkeypatch.setattr(dataio, "RUNS_CSV_CHUNK_BYTES", 1)
        monkeypatch.setattr(workers, "cpu_count", lambda: 2)
    assert run_cli("derive-hi", "--config", config, "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("ERROR DataError:") and err.count("\n") == 1
    assert RUNS_CSV_REFUSALS.get(corruption, "") in err
    if named := re.search(r"runs\.csv line (\d+): ", err):  # the file's line, not a chunk's
        lines = (out / dataio.RUNS_CSV).read_text().splitlines()
        assert len(next(csv.reader([lines[int(named[1]) - 1]]), [])) != len(next(csv.reader(lines)))
    assert not [o for o in DERIVE_OUTPUTS if (out / o).exists()]


def test_runs_csv_block_out_of_place_names_both_runs(tmp_path, simulated, capsys):
    config, work = simulated
    ids = [run.run_id for run in dataio.read_run_meta(work)]
    refusals = {  # the block that breaks run_meta.csv's order: (number, expected, found)
        "blocks-out-of-run-meta-order": (1, f"run {ids[0]}", f"run {ids[1]}"),
        "block-not-in-run-meta": (1, f"run {ids[0]}", "run not-a-run"),
        "run-split-in-two-blocks": (len(ids) + 1, "the end", f"run {ids[0]}"),
    }
    for corruption, (n, expected, found) in refusals.items():
        out = shutil.copytree(work, tmp_path / corruption)
        _corrupt(out / dataio.RUNS_CSV, RUNS_CSV_CORRUPTIONS[corruption])
        assert run_cli("derive-hi", "--config", config, "--out", out) == 3
        assert capsys.readouterr().err == (
            f"ERROR DataError: runs.csv block {n} does not follow run_meta.csv: "
            f"expected {expected}, found {found}\n"
        )


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("corruption", sorted(SUPERVISED_CORRUPTIONS))
def test_malformed_supervised_set_is_data_error(tmp_path, pipelined, capsys, corruption, command):
    config, work = pipelined
    out = shutil.copytree(work, tmp_path / "work")
    name, corrupt = SUPERVISED_CORRUPTIONS[corruption]
    _corrupt(out / name, corrupt)
    output = out / {"train": dataio.MODELS_DIR, "evaluate": dataio.REPORT_JSON}[command]
    if output.is_dir():
        shutil.rmtree(output)
    else:
        output.unlink()
    assert run_cli(command, "--config", config, "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("ERROR DataError:") and err.count("\n") == 1
    assert SUPERVISED_REFUSALS.get(corruption, "") in err
    assert not output.exists()


# (row, edit of its plan cell, refusal); the small config's plans hold one recipe
PLAN_CELL_FAULTS = {
    "ragged": (2, lambda cell: f"{cell}|{cell}",
               "meta.csv line 3: plan cell holds 2 recipes, line 2's holds 1"),
    "empty": (1, lambda cell: "", "meta.csv line 2: empty recipe in plan cell ''"),
}


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("fault", sorted(PLAN_CELL_FAULTS))
def test_ragged_or_empty_plan_cell_is_data_error(tmp_path, pipelined, capsys, fault, command):
    # a plan is a row of the rows x horizon plan column, so every cell holds as many recipes
    config, work = pipelined
    out = shutil.copytree(work, tmp_path / "work")
    row, edit, refusal = PLAN_CELL_FAULTS[fault]
    column = list(dataio.SCHEMAS[dataio.META_CSV]).index("plan")
    _corrupt(out / dataio.META_CSV, lambda lines: _set_cell(
        lines, row, column, edit(lines[row].rstrip("\n").split(",")[column])))
    output = out / {"train": dataio.MODELS_DIR, "evaluate": dataio.REPORT_JSON}[command]
    if output.is_dir():
        shutil.rmtree(output)
    else:
        output.unlink()
    assert run_cli(command, "--config", config, "--out", out) == 3
    assert capsys.readouterr().err == f"ERROR DataError: {refusal}\n"
    assert not output.exists()


def test_negative_n_runs_in_run_meta_is_data_error(tmp_path, pipelined, capsys):
    config, work = pipelined
    # and one past int64: the supervised set holds the counters as int64
    refusals = {"-1": "must be >= 0, got -1", "9" * 20: f"must be < 2**63, got {'9' * 20}"}
    for (n_runs, refusal), (command, outputs) in product(refusals.items(), [
            ("derive-hi", DERIVE_OUTPUTS), ("build-features", FEATURE_OUTPUTS)]):
        out = shutil.copytree(work, tmp_path / f"{command}{n_runs}")
        _drop_outputs(out, *outputs)
        run_id = dataio.read_run_meta(out)[0].run_id
        _corrupt(out / dataio.RUN_META_CSV, _set_column(dataio.RUN_META_CSV, "n_runs", n_runs))
        assert run_cli(command, "--config", config, "--out", out) == 3, (command, n_runs)
        assert capsys.readouterr().err == f"ERROR DataError: run {run_id}: n_runs {refusal}\n"
        assert not [o for o in outputs if (out / o).exists()]


def _drop_outputs(out, *names):
    for name in names:
        (out / name).unlink(missing_ok=True)


def _duplicate_first_meta_row(lines):
    return lines[:2] + [lines[1]] + lines[2:]


# (the files corrupted, the corruption of each)
DATASET_CORRUPTIONS = {
    "run-meta-duplicate-run-id": ((dataio.RUN_META_CSV,), _duplicate_first_meta_row),
    "run-meta-inf-start-time": ((dataio.RUN_META_CSV,), _set_column(
        dataio.RUN_META_CSV, "start_time", "inf")),
    "no-runs": ((dataio.RUN_META_CSV, dataio.RUNS_CSV), lambda lines: lines[:1]),
    "run-meta-empty": ((dataio.RUN_META_CSV,), lambda lines: []),
    "run-meta-header-past-the-field-limit": ((dataio.RUN_META_CSV,), lambda lines: [
        lines[0].rstrip("\n") + "x" * csv.field_size_limit() + "\n"] + lines[1:]),
}
# the refusal that a corruption must reach
DATASET_REFUSALS = {
    "no-runs": "no runs to derive a health index from",
    "run-meta-empty": "empty file: ",
    "run-meta-header-past-the-field-limit":
        "run_meta.csv: unreadable text after line 1: field larger than field limit (131072)",
}


@pytest.mark.parametrize("corruption", sorted(DATASET_CORRUPTIONS))
def test_inconsistent_dataset_is_data_error(tmp_path, simulated, capsys, corruption):
    config, work = simulated
    out = shutil.copytree(work, tmp_path / "work")
    names, corrupt = DATASET_CORRUPTIONS[corruption]
    for name in names:
        _corrupt(out / name, corrupt)
    assert run_cli("derive-hi", "--config", config, "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("ERROR DataError:") and err.count("\n") == 1
    assert DATASET_REFUSALS.get(corruption, "") in err
    assert not (out / dataio.HI_CSV).exists()


# (input file, stage that reads it, the stage's outputs)
FEATURE_OUTPUTS = (dataio.FEATURES_CSV, dataio.META_CSV)
NOT_UTF8_INPUTS = {
    dataio.RUN_META_CSV: ("build-features", FEATURE_OUTPUTS),
    dataio.RUNS_CSV: ("derive-hi", DERIVE_OUTPUTS),
    dataio.RUN_AGGREGATES_CSV: ("build-features", FEATURE_OUTPUTS),
    dataio.HI_CSV: ("build-features", FEATURE_OUTPUTS),
}


@pytest.mark.parametrize("name", sorted(NOT_UTF8_INPUTS))
def test_input_that_is_not_utf8_is_data_error(tmp_path, pipelined, capsys, monkeypatch, name):
    # the refusal names the line and the file offset of the bad byte
    config, work = pipelined
    command, outputs = NOT_UTF8_INPUTS[name]
    lines = (work / name).read_bytes().splitlines(keepends=True)
    mid = len(lines) // 2
    places = [
        (sum(map(len, lines)), len(lines) + 1),  # after the last line
        (sum(map(len, lines[:mid])) + lines[mid].index(b",") + 1, mid + 1),  # in a cell
    ]
    # runs.csv again with one run per chunk, on two workers: a later chunk's fault
    cases = [(at, line, chunked) for at, line in places
             for chunked in ((False, True) if name == dataio.RUNS_CSV else (False,))]
    for i, (at, line, chunked) in enumerate(cases):
        out = shutil.copytree(work, tmp_path / f"work{i}")
        _drop_outputs(out, *outputs)
        data = (out / name).read_bytes()
        (out / name).write_bytes(data[:at] + b"\xfe" + data[at:])
        with monkeypatch.context() as patch:
            if chunked:
                patch.setattr(dataio, "RUNS_CSV_CHUNK_BYTES", 1)
                patch.setattr(workers, "cpu_count", lambda: 2)
            assert run_cli(command, "--config", config, "--out", out) == 3
        assert capsys.readouterr().err == (
            f"ERROR DataError: {name} line {line}: byte {at} is not UTF-8: invalid start byte\n"
        )
        assert not [o for o in outputs if (out / o).exists()]


RUN_AGGREGATES_CORRUPTIONS = {
    "missing": lambda lines: None,
    "reordered": lambda lines: [lines[0], lines[2], lines[1]] + lines[3:],
    "short": lambda lines: lines[:-1],
    "wrong-header": lambda lines: [lines[0].replace("pressure_min", "pressure_low")] + lines[1:],
    "swapped-header-columns": lambda lines: [
        lines[0].replace("pressure_min,pressure_max", "pressure_max,pressure_min")
    ] + lines[1:],
    # the four temp_c_* columns, the last ones, cut from every row
    "channel-dropped": lambda lines: [line.rstrip("\n").rsplit(",", 4)[0] + "\n"
                                      for line in lines],
    "extra-channel": lambda lines: [
        lines[0].rstrip("\n") + "".join(f",vibration_{s}" for s in AGGREGATE_SUFFIXES) + "\n"
    ] + [line.rstrip("\n") + ",1.0" * 4 + "\n" for line in lines[1:]],
}


@pytest.mark.parametrize("corruption", sorted(RUN_AGGREGATES_CORRUPTIONS))
def test_bad_run_aggregates_is_data_error(tmp_path, pipelined, capsys, corruption):
    config, work = pipelined
    out = shutil.copytree(work, tmp_path / "work")
    _drop_outputs(out, *FEATURE_OUTPUTS)
    path = out / dataio.RUN_AGGREGATES_CSV
    lines = RUN_AGGREGATES_CORRUPTIONS[corruption](path.read_text().splitlines(keepends=True))
    if lines is None:
        path.unlink()
    else:
        path.write_text("".join(lines))
    assert run_cli("build-features", "--config", config, "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("ERROR DataError:") and err.count("\n") == 1
    assert not [o for o in FEATURE_OUTPUTS if (out / o).exists()]


HI_CSV_CORRUPTIONS = {
    "nan-hi": _set_column(dataio.HI_CSV, "hi_s", "nan"),
    "inf-hi": _set_column(dataio.HI_CSV, "hi_s", "inf"),
    "non-numeric-hi": _set_column(dataio.HI_CSV, "hi_s", "abc"),
    "wrong-header": lambda lines: [lines[0].replace("hi_s", "hi")] + lines[1:],
    # a second HI for the first run, which the last row would silently win
    "duplicate-run-id": lambda lines: lines + _set_cell(lines, 1, -1, "99.0")[1:2],
    "hi-past-the-field-limit": _set_column(dataio.HI_CSV, "hi_s",
                                           "1" * (csv.field_size_limit() + 1)),
}


@pytest.mark.parametrize("corruption", sorted(HI_CSV_CORRUPTIONS))
def test_bad_hi_csv_is_data_error(tmp_path, pipelined, capsys, corruption):
    config, work = pipelined
    out = shutil.copytree(work, tmp_path / "work")
    _drop_outputs(out, *FEATURE_OUTPUTS)
    _corrupt(out / dataio.HI_CSV, HI_CSV_CORRUPTIONS[corruption])
    assert run_cli("build-features", "--config", config, "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("ERROR DataError:") and err.count("\n") == 1
    assert not [o for o in FEATURE_OUTPUTS if (out / o).exists()]


def test_hi_csv_that_does_not_follow_run_meta_is_data_error(tmp_path, pipelined, capsys):
    # a seed-1 simulate over seed 0's derive-hi outputs: the run ids coincide,
    # the start times do not
    config, work = pipelined
    stale = shutil.copytree(work, tmp_path / "stale")
    _drop_outputs(stale, *FEATURE_OUTPUTS)
    hi_rows = dataio.read_table(stale / dataio.HI_CSV)
    assert run_cli("simulate", "--config", config, "--out", stale, "--seed", 1) == 0
    meta = {tuple(getattr(run, name) for name in dataio.HI_RUN_FIELDS)
            for run in dataio.read_run_meta(stale)}
    first_stale = next(row[0] for row in hi_rows if tuple(row[:4]) not in meta)
    # a row for a run that run_meta.csv does not list, before every other row
    unknown = shutil.copytree(work, tmp_path / "unknown")
    _drop_outputs(unknown, *FEATURE_OUTPUTS)
    _corrupt(unknown / dataio.HI_CSV,
             lambda lines: [lines[0], "not-a-run" + lines[1][lines[1].index(","):], *lines[1:]])
    capsys.readouterr()
    for out, run_id in ((stale, first_stale), (unknown, "not-a-run")):
        assert run_cli("build-features", "--config", config, "--out", out) == 3
        assert capsys.readouterr().err == (
            f"ERROR DataError: hi.csv row of run {run_id} does not follow run_meta.csv; "
            "rerun derive-hi\n"
        )
        assert not [o for o in FEATURE_OUTPUTS if (out / o).exists()]


def test_every_fixed_header_csv_reads_back_through_its_schema(tmp_path, pipelined):
    # fits.csv, ground_truth.csv, predictions.csv and plot_hi.csv have no
    # reader in the program; this pins their headers and cell types
    config, work = pipelined
    out = shutil.copytree(work, tmp_path / "work")
    assert run_cli("evaluate", "--config", config, "--out", out) == 0
    for name, schema in dataio.SCHEMAS.items():
        rows = dataio.read_table(out / name)
        assert rows, name
        assert all(type(cell) is t for row in rows for cell, t in zip(row, schema.values())), name
        dataio.write_columns(tmp_path / name, schema, list(zip(*rows)))
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes(), name


# flag values within their keys' bounds that leave a side of the small
# config's chronological split without rows: (flags, the refusal)
SPLIT_REFUSALS = {
    "train-frac-below-one-row": (("--train-frac", "0.001"), "train_frac 0.001 of 99 rows gives "
                                 "degenerate split sizes (0, 99); each side needs a row"),
    "horizon-past-all-but-five-runs": (("--horizon", "95"), "need >= 10 rows to split, got 5"),
}


@pytest.mark.parametrize("case", sorted(SPLIT_REFUSALS))
def test_split_without_rows_on_a_side_is_data_error(tmp_path, pipelined, capsys, case):
    # a DataError: whether the value works depends on the row count
    config, work = pipelined
    out = shutil.copytree(work, tmp_path / "work")
    _drop_outputs(out, *FEATURE_OUTPUTS)
    flags, refusal = SPLIT_REFUSALS[case]
    assert run_cli("build-features", "--config", config, "--out", out, *flags) == 3
    assert capsys.readouterr().err == f"ERROR DataError: {refusal}\n"
    assert not [o for o in FEATURE_OUTPUTS if (out / o).exists()]


# an out-of-range value for each bounded key, and a few non-finite floats:
# (section, key, value, the refusal)
OUT_OF_RANGE_SETTINGS = {
    "seed-negative": ("cli", "seed", "-1", ">= 0, got -1"),
    "n-assets-zero": ("simgen", "n_assets", "0", ">= 1, got 0"),
    "n-runs-total-zero": ("simgen", "n_runs_total", "0", ">= 1, got 0"),
    "sim-cycle-length-one": ("simgen", "cycle_length", "1", ">= 2, got 1"),
    "p-atm-inf": ("simgen", "p_atm", "inf", "finite, got inf"),
    "time-origin-nan": ("simgen", "time_origin", "nan", "finite, got nan"),
    "tau-stage1-zero": ("simgen", "tau_stage1", "0.0", "> 0, got 0.0"),
    "tau-stage2-negative": ("simgen", "tau_stage2", "-4.0", "> 0, got -4.0"),
    "base-outgassing-q0-negative": ("simgen", "base_outgassing_q0", "-4e-06", ">= 0, got -4e-06"),
    "outgassing-per-unit-negative": ("simgen", "outgassing_per_unit", "-1e-07",
                                     ">= 0, got -1e-07"),
    "sample-dt-zero": ("simgen", "sample_dt", "0", "> 0, got 0.0"),
    "tail-samples-negative": ("simgen", "tail_samples", "-1", ">= 0, got -1"),
    "noise-sigma-negative": ("simgen", "sensors", "g1:1e-06:2000.0:1:-0.1", ">= 0, got -0.1"),
    "noise-sigma-mapping-negative": ("simgen", "sensors",
                                     "s1:0.5:2000.0:4:0.05, s2:0.001:5.0:1:-0.5, "
                                     "s3:0.00012:0.0015:2:0.05, s4:1e-06:0.0015:3:0.3",
                                     ">= 0, got -0.5"),
    "seasonal-amplitude-negative": ("simgen", "seasonal_amplitude", "-1.2e-05",
                                    ">= 0, got -1.2e-05"),
    "seasonal-period-s-zero": ("simgen", "seasonal_period_s", "0", "> 0, got 0.0"),
    "seasonal-period-s-inf": ("simgen", "seasonal_period_s", "inf", "finite, got inf"),
    "weather-sigma-negative": ("simgen", "weather_sigma", "-3e-06", ">= 0, got -3e-06"),
    "weather-rho-one": ("simgen", "weather_rho", "1.0", "in [0, 1), got 1.0"),
    "maintenance-residual-negative": ("simgen", "maintenance_residual", "-1.0", ">= 0, got -1.0"),
    "run-interval-s-negative": ("simgen", "run_interval_s", "-78840.0", "> 0, got -78840.0"),
    "temp-seasonal-amplitude-negative": ("simgen", "temp_seasonal_amplitude", "-3.0",
                                         ">= 0, got -3.0"),
    "temp-run-noise-negative": ("simgen", "temp_run_noise", "-2.5", ">= 0, got -2.5"),
    "temp-sample-noise-negative": ("simgen", "temp_sample_noise", "-0.1", ">= 0, got -0.1"),
    "flow-run-noise-negative": ("simgen", "flow_run_noise", "-0.3", ">= 0, got -0.3"),
    "flow-sample-noise-negative": ("simgen", "flow_sample_noise", "-0.2", ">= 0, got -0.2"),
    "recipes-inf": ("simgen", "recipes", "std:0.8:inf:0.5, light:0.0:0.85:0.3, heavy:2.4:1.25:0.2",
                    "finite, got inf"),
    "recipe-probs-negative": ("simgen", "recipes",
                              "std:0.8:1.0:0.5, light:0.0:0.85:-0.3, heavy:2.4:1.25:0.2",
                              ">= 0, got -0.3"),
    # SegmentSpec's index is 1-based: fits.csv would name these dp0 and dp-2
    "segment-index-zero": ("hi", "segments", "0:1013.0:0.02, -2:0.03:0.002", ">= 1, got 0"),
    "segment-index-negative": ("hi", "segments", "1:1013.0:0.02, -2:0.03:0.002", ">= 1, got -2"),
    "analysis-limit-negative": ("hi", "analysis_limit", "-1", ">= 1, got -1"),
    "analysis-limit-zero": ("hi", "analysis_limit", "0", ">= 1, got 0"),
    "horizon-zero": ("features", "horizon", "0", ">= 1, got 0"),
    "train-frac-above-one": ("features", "train_frac", "1.5", "in (0, 1), got 1.5"),
    "dt-max-depth-negative": ("models", "dt_max_depth", "-1", ">= 0, got -1"),
    "dt-min-samples-leaf-zero": ("models", "dt_min_samples_leaf", "0", ">= 1, got 0"),
    "rf-n-trees-zero": ("models", "rf_n_trees", "0", ">= 1, got 0"),
    "rf-max-depth-negative": ("models", "rf_max_depth", "-1", ">= 0, got -1"),
    "rf-min-samples-leaf-zero": ("models", "rf_min_samples_leaf", "0", ">= 1, got 0"),
    "rf-features-per-split-negative": ("models", "rf_features_per_split", "-3", ">= 0, got -3"),
    "knn-k-zero": ("models", "knn_k", "0", ">= 1, got 0"),
    "svr-epsilon-nan": ("models", "svr_epsilon", "nan", "finite, got nan"),
    "svr-reg-lambda-negative": ("models", "svr_reg_lambda", "-0.0001", ">= 0, got -0.0001"),
    "svr-steps-negative": ("models", "svr_steps", "-5", ">= 1, got -5"),
    "svr-step-size-zero": ("models", "svr_step_size", "0", "> 0, got 0.0"),
    "mlp-hidden-units-zero": ("models", "mlp_hidden_units", "0", ">= 1, got 0"),
    "mlp-epochs-zero": ("models", "mlp_epochs", "0", ">= 1, got 0"),
    "mlp-batch-size-zero": ("models", "mlp_batch_size", "0", ">= 1, got 0"),
    "mlp-learning-rate-negative": ("models", "mlp_learning_rate", "-0.5", "> 0, got -0.5"),
}
# formats without a range of their own (FLOAT refuses only nan and inf)
UNBOUNDED_FORMATS = (INT, FLOAT, TEXT, SENSORS, RECIPES)


def test_every_bounded_setting_has_an_out_of_range_case():
    bounded = {(s.section, s.key) for s in SETTINGS if s.fmt not in UNBOUNDED_FORMATS}
    assert bounded <= {(section, key) for section, key, _, _ in OUT_OF_RANGE_SETTINGS.values()}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE_SETTINGS))
def test_out_of_range_setting_is_config_error(tmp_path, capsys, case):
    # refused while the config is resolved, so no stage runs and --out is never made
    section, key, value, refusal = OUT_OF_RANGE_SETTINGS[case]
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "work"
    assert run_cli("pipeline", "--config", bad, "--out", out) == 2
    assert capsys.readouterr().err == (
        f"ERROR ConfigError: bad config value for [{section}] {key}: must be {refusal}\n"
    )
    assert not out.exists()


# config files that make no schedule, no run or no config at all, each
# refused before simulate writes a file: (the file's text, the refusal, in
# which {path} stands for the file's path)
INCONSISTENT_RECIPES = {
    "duplicate-recipe-ids": ("[simgen]\nrecipes = std:0.8:1.0:0.5, std:0.0:0.85:0.3, "
                             "heavy:2.4:1.25:0.2\n", "recipe ids must be unique"),
    "probs-all-zero": ("[simgen]\nrecipes = std:0.8:1.0:0.0, light:0.0:0.85:0.0, "
                       "heavy:2.4:1.25:0.0\n", "recipe probabilities must sum > 0"),
    # each share is finite, their sum is not
    "shares-sum-past-float-max": ("[simgen]\nrecipes = std:0.8:1.0:1e308, light:0.0:0.85:1e308\n",
                                  "recipe shares must sum to a finite number"),
    "duration-scale-zero": ("[simgen]\nrecipes = std:0.8:0:1\n",
                            "recipe std: duration_scale must be > 0"),
    "no-sensors": ("[simgen]\nsensors = , ,\n",
                   "bad config value for [simgen] sensors: list must not be empty"),
    # refused as the first run is generated, before simulate writes a file
    "sample-dt-past-max-samples": ("[simgen]\nsample_dt = 1e-6\n",
                                   "run would exceed max_samples (48667993 > 200000)"),
    # configparser's errors span lines, and name the file
    "no-section-header": ("garbage\n", "bad config file: File contains no section headers. "
                          "file: '{path}', line: 1 'garbage\\n'"),
    "duplicate-option": ("[cli]\nseed = 1\nseed = 2\n", "bad config file: While reading from "
                         "'{path}' [line 3]: option 'seed' in section 'cli' already exists"),
}


@pytest.mark.parametrize("case", sorted(INCONSISTENT_RECIPES))
def test_inconsistent_recipes_are_config_error(tmp_path, capsys, case):
    text, refusal = INCONSISTENT_RECIPES[case]
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    out = tmp_path / "work"
    assert run_cli("simulate", "--config", bad, "--seed", 0, "--out", out) == 2
    assert capsys.readouterr().err == f"ERROR ConfigError: {refusal.format(path=bad)}\n"
    if case == "sample-dt-past-max-samples":  # simulate made --out, and nothing in it
        assert list(out.iterdir()) == []
    else:  # refused while the config is resolved, so --out is never made
        assert not out.exists()


def test_gauge_noise_that_overflows_a_reading_is_config_error(tmp_path, capsys):
    # refused while the runs are generated, before runs.csv is written:
    # the sigma passes its >= 0 bound, but sigma * z overflows a float
    bad = tmp_path / "bad.ini"
    bad.write_text("[simgen]\nn_runs_total = 5\nsensors = s1:0.5:2000.0:4:0.05, "
                   "s2:0.001:5.0:1:1e308, s3:0.00012:0.0015:2:0.05, s4:1e-06:0.0015:3:0.3\n")
    out = tmp_path / "work"
    assert run_cli("simulate", "--config", bad, "--seed", 0, "--out", out) == 2
    assert capsys.readouterr().err == (
        "ERROR ConfigError: sensor s2: noise_sigma 1e+308 overflows a reading\n"
    )
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
@pytest.mark.parametrize("fails", [("knn",), ("mlp",), ("knn", "mlp"), ("svr",), ("rf",),
                                   ("rf", "knn")], ids="-".join)
def test_failed_train_leaves_models_as_they_were(tmp_path, pipelined, capsys, monkeypatch, cpus,
                                                  fails):
    # knn fails when k exceeds the train rows, rf when features_per_split
    # exceeds the features, mlp when its loss overflows and svr when its
    # weights do; ``fails`` lists them in MODEL_KINDS order. The error is the
    # first failing kind's, wherever the fits run, and no numpy warning comes
    # first (a RuntimeWarning fails a test)
    config, work = pipelined
    out = shutil.copytree(work, tmp_path / "work")
    models_dir = out / dataio.MODELS_DIR
    before = {p.name: p.read_bytes() for p in models_dir.iterdir()}
    train = dataio.read_supervised(out)[0]
    n_train, m = train.n_rows, len(train.feature_names)
    settings = {
        "knn": (f"knn_k = {n_train + 1}", f"k must be in [1, {n_train}], got {n_train + 1}"),
        "rf": (f"rf_features_per_split = {m + 1}",
               f"features_per_split must be in [1, {m}], got {m + 1}"),
        "mlp": ("mlp_learning_rate = 1e6", "mlp loss became non-finite; lower the learning rate"),
        "svr": ("svr_epsilon = 0.0\nsvr_step_size = 1e300",
                "svr weights became non-finite; lower the step size"),
    }
    bad = tmp_path / "bad.ini"
    bad.write_text(config.read_text() + "".join(f"{settings[kind][0]}\n" for kind in fails))
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: cpus)
    capsys.readouterr()
    assert run_cli("train", "--config", bad, "--out", out) == 4
    assert capsys.readouterr().err == f"ERROR ModelError: {settings[fails[0]][1]}\n"
    assert {p.name: p.read_bytes() for p in models_dir.iterdir()} == before


def test_train_outputs_do_not_depend_on_the_cpu_count(tmp_path, pipelined, monkeypatch):
    config, work = pipelined
    out = shutil.copytree(work, tmp_path / "work")
    names = [f"{dataio.MODELS_DIR}/{kind}.npz" for kind in MODEL_KINDS] + [dataio.REPORT_JSON]
    parent, map_in_order = os.getpid(), models.map_in_order

    def map_here(fn, chunks):
        # a worker that maps forks workers of its own
        assert os.getpid() == parent, "a worker called map_in_order"
        return map_in_order(fn, chunks)

    monkeypatch.setattr(models, "map_in_order", map_here)
    outputs = {}
    for cpus in ({0}, {0, 1}, {0, 1, 2}):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: cpus)
        shutil.rmtree(out / dataio.MODELS_DIR)
        assert run_cli("train", "--config", config, "--out", out) == 0
        assert run_cli("evaluate", "--config", config, "--out", out) == 0
        outputs[len(cpus)] = {name: (out / name).read_bytes() for name in names}
    # the pipeline's models and report came from the host's own CPUs
    assert outputs[1] == outputs[2] == outputs[3] == {name: (work / name).read_bytes()
                                                     for name in names}
    rf = f"{dataio.MODELS_DIR}/rf.npz"
    (out / rf).unlink()
    assert run_cli("train", "--config", config, "--out", out, "--model", "rf") == 0
    assert (out / rf).read_bytes() == outputs[1][rf]


def test_out_that_is_a_file_is_data_error(tmp_path, small_config, capsys):
    out = tmp_path / "work"
    out.write_text("")
    assert run_cli("simulate", "--config", small_config, "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("ERROR DataError: ") and err.count("\n") == 1


def test_models_path_that_is_a_file_is_data_error(tmp_path, pipelined, capsys, monkeypatch):
    config, work = pipelined
    out = shutil.copytree(work, tmp_path / "work")
    shutil.rmtree(out / dataio.MODELS_DIR)
    (out / dataio.MODELS_DIR).write_text("")
    fits = Counter()
    monkeypatch.setattr(cli, "train_models",
                        lambda specs, train: fits.update(spec.kind for spec in specs))
    capsys.readouterr()
    assert run_cli("train", "--config", config, "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("ERROR DataError: ") and err.count("\n") == 1
    assert (out / dataio.MODELS_DIR).read_text() == ""
    assert not fits  # models/ is made before any kind is fitted


def test_build_features_does_not_read_runs_csv(tmp_path, small_config):
    out = tmp_path / "work"
    for command in ("simulate", "derive-hi"):
        assert run_cli(command, "--config", small_config, "--out", out) == 0
    (out / dataio.RUNS_CSV).unlink()
    assert run_cli("build-features", "--config", small_config, "--out", out) == 0

    # the same split built from the generator's in-memory runs, no CSV in between
    cfg = load_config(small_config)
    sensors = cfg.chamber.sensors
    history = tuple(simulate_history(cfg.chamber, cfg.recipes, n_assets=cfg.n_assets,
                                     n_runs_total=cfg.n_runs_total, cycle_length=cfg.cycle_length,
                                     seed=cfg.require_seed()))
    _, series = derive_hi_of(history, sensors, cfg.segments, cycle_length=cfg.cycle_length,
                             analysis_limit=cfg.analysis_limit)
    sset = build_supervised(history, aggregates_of(history, sensors), hi_column(history, series),
                            horizon=cfg.horizon)
    ref = tmp_path / "ref"
    ref.mkdir()
    dataio.write_supervised(ref, *chrono_split(sset, train_frac=cfg.train_frac))
    for name in FEATURE_OUTPUTS:
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name


def test_pipeline_parses_runs_csv_once_and_fuses_each_run_once(tmp_path, small_config, monkeypatch):
    # one CPU: runs.csv's chunks are read and fused in this process, where the spies are
    monkeypatch.setattr(workers, "cpu_count", lambda: 1)
    calls = Counter()
    fused = []  # the runs of each chunk fused, and their sample counts

    def read_dataset(*args, **kwargs):
        calls["read_dataset"] += 1
        return original_read(*args, **kwargs)

    def composite_columns(chunk, sensors):
        fused.append((chunk.run_ids, chunk.lengths))
        return original_fuse(chunk, sensors)

    original_read, original_fuse = dataio.read_dataset, core.composite_columns
    monkeypatch.setattr(dataio, "read_dataset", read_dataset)
    for name, module in list(sys.modules.items()):  # every `from .core import composite_columns`
        if name.startswith("chamberhealth") and getattr(module, "composite_columns", None) is original_fuse:
            monkeypatch.setattr(module, "composite_columns", composite_columns)
    assert cli.composite_columns is composite_columns
    out = tmp_path / "work"
    assert run_cli("pipeline", "--config", small_config, "--out", out,
                   "--n-runs-total", 300, "--n-assets", 3) == 0
    assert calls == {"read_dataset": 1}
    assert len(fused) > 1  # runs.csv is cut into chunks
    # every run fused once, in file order, and with it every sample of runs.csv
    run_ids = [run.run_id for run in dataio.read_run_meta(out)]
    assert list(chain.from_iterable(ids for ids, _ in fused)) == run_ids
    with open(out / dataio.RUNS_CSV, "rb") as fh:
        data_rows = sum(1 for _ in fh) - 1
    assert sum(int(lengths.sum()) for _, lengths in fused) == data_rows


def test_derive_hi_outputs_do_not_depend_on_the_chunks_or_the_cpu_count(tmp_path, small_config,
                                                                       monkeypatch):
    work = tmp_path / "work"
    # ~3 MB of runs.csv: three chunks at the default size
    assert run_cli("simulate", "--config", small_config, "--out", work,
                   "--n-runs-total", 300, "--n-assets", 3) == 0
    setups = {"one-cpu": (1, dataio.RUNS_CSV_CHUNK_BYTES),
              "two-cpus": (2, dataio.RUNS_CSV_CHUNK_BYTES),
              "run-per-chunk": (2, 1)}
    outputs = {}
    for setup, (cpus, chunk_bytes) in setups.items():
        monkeypatch.setattr(workers, "cpu_count", lambda: cpus)
        monkeypatch.setattr(dataio, "RUNS_CSV_CHUNK_BYTES", chunk_bytes)
        assert run_cli("derive-hi", "--config", small_config, "--out", work) == 0
        outputs[setup] = {name: (work / name).read_bytes() for name in DERIVE_OUTPUTS}
    assert outputs["two-cpus"] == outputs["one-cpu"]
    assert outputs["run-per-chunk"] == outputs["one-cpu"]
    assert len(dataio._runs_csv_spans(work / dataio.RUNS_CSV)) == 300  # one per run


SIMULATE_OUTPUTS = (dataio.RUNS_CSV, dataio.RUN_META_CSV, dataio.GROUND_TRUTH_CSV)


def test_simulate_outputs_do_not_depend_on_the_cpu_count(tmp_path, small_config, monkeypatch):
    outputs = {}
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: cpus)
        out = tmp_path / f"cpus{len(cpus)}"
        # eight chunks of runs, from three assets
        assert run_cli("simulate", "--config", small_config, "--out", out,
                       "--n-runs-total", 150, "--n-assets", 3) == 0
        outputs[len(cpus)] = {name: (out / name).read_bytes() for name in SIMULATE_OUTPUTS}
    assert outputs[1] == outputs[2]


def test_simulate_peak_memory_does_not_grow_with_the_run_count(tmp_path, small_config,
                                                              monkeypatch):
    # one CPU: the runs are generated and rendered in this process, where tracemalloc sees them
    monkeypatch.setattr(workers, "cpu_count", lambda: 1)
    peaks = {}
    for n_runs in (200, 800):
        cfg = replace(load_config(small_config), out_dir=str(tmp_path / str(n_runs)),
                      n_runs_total=n_runs)
        tracemalloc.start()
        try:
            cli.stage_simulate(cfg)
            _, peaks[n_runs] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(dataio.read_run_meta(cfg.out_dir)) == n_runs
    # 4x the runs, about the same peak: a chunk of runs at a time
    assert peaks[800] <= 1.5 * peaks[200], peaks


EVALUATE_OUTPUTS = (dataio.REPORT_JSON, dataio.PLOT_HI_CSV)


def _edited(edit):
    """A corruption that applies ``edit`` to the model file's arrays."""
    return lambda path: edited_npz(path, edit)


def _set_root_feature(doc):
    doc["payload.feature"][0] = doc["feature_names"].size


def _flip_a_data_byte(path) -> bytes:
    """A bit flipped in a leaf value's bytes: no dtype, shape or range
    check can see it, but the archive's CRC does."""
    data = bytearray(path.read_bytes())
    with np.load(path) as archive:
        i = data.index(archive["payload.value"].tobytes()) + 5
    data[i] ^= 0x10
    return bytes(data)


def _bare_npy(path) -> bytes:
    buf = io.BytesIO()
    np.save(buf, np.zeros(3))
    return buf.getvalue()


VERSION_2_JSON = json.dumps({
    "format": "chamberhealth-model", "version": 2, "kind": "mlp", "seed": 0,
    "feature_names": ["f0"], "standardizer": {"mu": [0.0], "sigma": [1.0]},
    "payload": {"W1": [[0.5]], "b1": [0.0], "W2": [[1.0]], "b2": [0.0]},
}).encode()

# (model kind, the file's new bytes as a function of its path, or None
# once it has removed models/)
MODEL_FILE_CORRUPTIONS = {
    "dt-cut-to-1000-bytes": ("dt", lambda path: path.read_bytes()[:1000]),
    "svr-without-payload-w": ("svr", _edited(lambda doc: doc.pop("payload.w"))),
    "svr-w-of-length-1": ("svr", _edited(lambda doc: doc.update({"payload.w": np.ones(1)}))),
    "svr-b-nan": ("svr", _edited(lambda doc: doc.update({"payload.b": np.asarray(np.nan)}))),
    "svr-version-2": ("svr", _edited(lambda doc: doc.update(version=np.asarray(2)))),
    "knn-extra-array": ("knn", _edited(lambda doc: doc.update(note=np.asarray("hand-edited")))),
    "dt-feature-out-of-range": ("dt", _edited(_set_root_feature)),
    "dt-data-byte-flipped": ("dt", _flip_a_data_byte),
    "knn-bare-npy": ("knn", _bare_npy),
    "mlp-not-an-object": ("mlp", lambda path: b"[]"),
    "mlp-version-2-json": ("mlp", lambda path: VERSION_2_JSON),
    "rf-is-a-copy-of-dt": ("rf", lambda path: path.with_name("dt.npz").read_bytes()),
    "svr-of-another-format": ("svr", _edited(lambda doc: doc.update(format=np.asarray("other")))),
    "svr-of-an-unknown-kind": ("svr", _edited(lambda doc: doc.update(kind=np.asarray("lstm")))),
    "models-dir-removed": ("dt", lambda path: shutil.rmtree(path.parent)),
}
# the start of the refusal, if not "<kind>.npz: "
MODEL_FILE_REFUSALS = {
    "svr-of-another-format": "svr.npz: not a chamberhealth-model file\n",
    "svr-of-an-unknown-kind": "svr.npz: unknown model kind 'lstm'\n",
    "models-dir-removed": "no trained models (*.npz) found under ",
}


@pytest.mark.parametrize("corruption", sorted(MODEL_FILE_CORRUPTIONS))
def test_malformed_model_file_is_model_error(tmp_path, pipelined, capsys, corruption):
    config, work = pipelined
    out = shutil.copytree(work, tmp_path / "work")
    _drop_outputs(out, *EVALUATE_OUTPUTS)
    kind, corrupt = MODEL_FILE_CORRUPTIONS[corruption]
    path = out / dataio.MODELS_DIR / f"{kind}.npz"
    if (data := corrupt(path)) is not None:
        path.write_bytes(data)
    assert run_cli("evaluate", "--config", config, "--out", out) == 4
    err = capsys.readouterr().err
    refusal = MODEL_FILE_REFUSALS.get(corruption, f"{kind}.npz: ")
    assert err.startswith(f"ERROR ModelError: {refusal}") and err.count("\n") == 1
    assert not [o for o in EVALUATE_OUTPUTS if (out / o).exists()]


@pytest.fixture(scope="module")
def models_to_truncate(tmp_path_factory, pipelined):
    config, work = pipelined
    out = shutil.copytree(work, tmp_path_factory.mktemp("truncated") / "work")
    _drop_outputs(out, *EVALUATE_OUTPUTS)
    return config, out


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(MODEL_KINDS), data=st.data())
def test_truncated_model_file_is_model_error(models_to_truncate, kind, data):
    config, out = models_to_truncate
    path = out / dataio.MODELS_DIR / f"{kind}.npz"
    original = path.read_bytes()
    offset = data.draw(st.integers(0, len(original) - 1), label="offset")
    path.write_bytes(original[:offset])
    err = io.StringIO()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = run_cli("evaluate", "--config", config, "--out", out)
    finally:
        path.write_bytes(original)
    assert code == 4
    assert err.getvalue().startswith(f"ERROR ModelError: {kind}.npz: ")
    assert err.getvalue().count("\n") == 1
    assert not [o for o in EVALUATE_OUTPUTS if (out / o).exists()]


def test_models_trained_on_other_features_are_model_error(tmp_path, pipelined, capsys):
    config, work = pipelined
    out = shutil.copytree(work, tmp_path / "work")
    _drop_outputs(out, *EVALUATE_OUTPUTS)
    # the same data stages with recipe "light" renamed to "dim"
    renamed = tmp_path / "renamed.ini"
    renamed.write_text(SMALL_INI.replace("[simgen]\n", (
        "[simgen]\n"
        "recipes = std:0.8:1.0:0.5, dim:0.0:0.85:0.3, heavy:2.4:1.25:0.2\n"
    )))
    for command in ("simulate", "derive-hi", "build-features"):
        assert run_cli(command, "--config", renamed, "--out", out) == 0
    train, _ = dataio.read_supervised(out)
    assert "recipe_dim" in train.feature_names
    capsys.readouterr()
    assert run_cli("evaluate", "--config", renamed, "--out", out) == 4
    assert capsys.readouterr().err == (
        "ERROR ModelError: dt.npz was trained on other features than features.csv's; "
        "rerun train\n"
    )
    assert not [o for o in EVALUATE_OUTPUTS if (out / o).exists()]


def test_the_package_binds_no_name_of_its_own():
    # one import path per name: each is imported from its module, as in
    # `from chamberhealth import hi`, and the version is pyproject.toml's
    src = Path(__file__).resolve().parent.parent / "src"
    script = (f"import sys; sys.path.insert(0, {str(src)!r})\n"
              "import chamberhealth\n"
              "print(sorted(name for name in vars(chamberhealth)\n"
              "             if not name.startswith('__') or name in ('__all__', '__version__')))\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
