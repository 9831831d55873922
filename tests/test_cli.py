"""End-to-end CLI tests on a small synthetic config."""

import argparse
import json
import shutil

import pytest

from chamberhealth import dataio
from chamberhealth.cli import build_parser, main

SMALL_INI = """
[cli]
seed = 0

[simgen]
n_assets = 1
n_runs_total = 100
cycle_length = 25

[features]
horizon = 1

[models]
rf_n_trees = 20
svr_steps = 500
mlp_epochs = 20
"""

ARTIFACTS = [
    dataio.RUNS_CSV,
    dataio.RUN_META_CSV,
    dataio.GROUND_TRUTH_CSV,
    dataio.PLAN_CSV,
    dataio.FITS_CSV,
    dataio.HI_CSV,
    dataio.FEATURES_CSV,
    dataio.META_CSV,
    dataio.REPORT_JSON,
    dataio.PLOT_HI_CSV,
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
    for kind in ("dt", "rf", "knn", "svr", "mlp"):
        assert (out / dataio.MODELS_DIR / f"{kind}.json").exists()
    report = json.loads((out / dataio.REPORT_JSON).read_text())
    assert {r["model"] for r in report["results"]} == {"dt", "rf", "knn", "svr", "mlp", "lstm"}


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
    if _override_flags()[flag].nargs == 0:
        args, expected = [flag], {f"{key} = true"}
    else:
        args, expected = [flag, 7], {f"{key} = 7", f"{key} = 7.0"}
    assert run_cli("show-config", "--config", small_config, *args) == 0
    assert expected & set(capsys.readouterr().out.splitlines())


def test_flag_value_uses_the_key_parser(small_config, capsys):
    assert run_cli("show-config", "--config", small_config, "--rf-n-trees", "10.7") == 2
    assert capsys.readouterr().err.startswith("ERROR ConfigError:")


def test_run_missing_from_runs_csv_is_data_error(tmp_path, small_config):
    out = tmp_path / "work"
    assert run_cli("simulate", "--config", small_config, "--out", out) == 0
    path = out / dataio.RUNS_CSV
    lines = path.read_text().splitlines(keepends=True)
    last_run = lines[-1].split(",", 1)[0]
    path.write_text("".join(line for line in lines if not line.startswith(last_run + ",")))
    assert run_cli("derive-hi", "--config", small_config, "--out", out) == 3
    assert not (out / dataio.HI_CSV).exists()


def test_dump_predictions_flag(tmp_path, small_config):
    out = tmp_path / "work"
    assert run_cli("pipeline", "--config", small_config, "--out", out,
                   "--dump-predictions") == 0
    path = out / dataio.PREDICTIONS_CSV
    assert path.exists()
    header, rows = dataio.read_csv(path)
    assert header == ["run_id", "target", "model", "prediction"]
    kinds = {row[2] for row in rows}
    assert {"dt", "rf", "knn", "svr", "mlp", "bm1", "bm2", "bm3"} <= kinds


def test_plot_csv_schema(tmp_path, small_config):
    out = tmp_path / "work"
    assert run_cli("pipeline", "--config", small_config, "--out", out) == 0
    header, rows = dataio.read_csv(out / dataio.PLOT_HI_CSV)
    assert header == ["start_time", "n_runs", "target", "prediction_best", "bm1", "bm2", "bm3"]
    assert rows


def _set_cell(lines, i, j, value):
    cells = lines[i].rstrip("\n").split(",")
    cells[j] = value
    return lines[:i] + [",".join(cells) + "\n"] + lines[i + 1 :]


def _split_first_run(lines):
    """Move the first run's last row to the end of the file."""
    first = lines[1].split(",", 1)[0]
    i = max(k for k, line in enumerate(lines) if line.startswith(first + ","))
    return lines[:i] + lines[i + 1 :] + [lines[i]]


def _corrupt(path, corruption):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(corruption(lines)))


RUNS_CSV_CORRUPTIONS = {
    "non-numeric-sensor-cell": lambda lines: _set_cell(lines, 1, 3, "abc"),
    "empty-t-cell": lambda lines: _set_cell(lines, 2, 2, ""),
    "empty-channel-cell": lambda lines: _set_cell(lines, 1, -1, ""),
    "cut-mid-row": lambda lines: lines[:-1] + [lines[-1][: len(lines[-1]) // 2]],
    "blank-line": lambda lines: lines[: len(lines) // 2] + ["\n"] + lines[len(lines) // 2 :],
    "run-split-in-two-blocks": _split_first_run,
}

SUPERVISED_CORRUPTIONS = {
    "meta-header": (dataio.META_CSV, lambda lines: [lines[0].replace("hi_current", "hi")] + lines[1:]),
    "short-meta-row": (dataio.META_CSV, lambda lines: [lines[0], lines[1].rsplit(",", 1)[0] + "\n"] + lines[2:]),
    "non-numeric-feature-cell": (dataio.FEATURES_CSV, lambda lines: _set_cell(lines, 1, 0, "abc")),
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


@pytest.mark.parametrize("corruption", sorted(RUNS_CSV_CORRUPTIONS))
def test_malformed_runs_csv_is_data_error(tmp_path, simulated, capsys, corruption):
    config, work = simulated
    out = shutil.copytree(work, tmp_path / "work")
    _corrupt(out / dataio.RUNS_CSV, RUNS_CSV_CORRUPTIONS[corruption])
    assert run_cli("derive-hi", "--config", config, "--out", out) == 3
    assert capsys.readouterr().err.startswith("ERROR DataError:")
    assert not (out / dataio.HI_CSV).exists()
    assert not (out / dataio.FITS_CSV).exists()


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
    assert capsys.readouterr().err.startswith("ERROR DataError:")
    assert not output.exists()
