"""CSV round-trip and atomicity tests."""

import csv
import io
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from chamberhealth import dataio
from chamberhealth.errors import DataError
from chamberhealth.core import composite_curve
from chamberhealth.features import build_supervised, chrono_split, summarize_run
from chamberhealth.hi import derive_hi
from chamberhealth.simgen import (
    ChamberConfig,
    default_recipes,
    default_segments,
    simulate_history,
)
from helpers import hi_by_run_id


@pytest.fixture(scope="module")
def small_dataset():
    config = ChamberConfig()
    ds = simulate_history(config, default_recipes(), n_assets=2, n_runs_total=70,
                          cycle_length=20, seed=5)
    return config, ds


def test_dataset_roundtrip_bit_exact(tmp_path, small_dataset):
    config, ds = small_dataset
    dataio.write_dataset(tmp_path, ds)
    runs = dataio.read_dataset(tmp_path, len(config.sensors))
    plan = dataio.read_plan(tmp_path)
    assert len(runs) == len(ds.runs)
    by_id = {r.run_id: r for r in ds.runs}
    for run in runs:
        orig = by_id[run.run_id]
        assert run.asset_id == orig.asset_id
        assert run.start_time == orig.start_time
        assert run.recipe_id == orig.recipe_id
        assert run.n_runs == orig.n_runs
        assert np.array_equal(run.t, orig.t)
        assert np.array_equal(run.readings, orig.readings, equal_nan=True)
        for name in orig.extra_channels:
            assert np.array_equal(run.extra_channels[name], orig.extra_channels[name])
    realized = {}
    for r in ds.runs:
        realized.setdefault(r.asset_id, []).append(r)
    for asset, seq in realized.items():
        seq.sort(key=lambda r: r.start_time)
        assert plan[asset] == [r.recipe_id for r in seq]


def test_runs_csv_lines_match_per_cell_rendering(tmp_path, small_dataset):
    _, ds = small_dataset
    # invalid readings in the first and the last sensor column, and ids that need quoting
    base = ds.runs[0]
    readings = np.nan_to_num(base.readings, nan=1.0)
    readings[0, 0] = readings[1, -1] = np.nan
    readings[2, [0, -1]] = np.nan
    # three chunks or more, rendered apart, with the two odd runs on either
    # side of the first chunk boundary
    runs = list(ds.runs) * 2
    k = dataio.RUNS_PER_CHUNK
    runs[k - 1 : k + 1] = [
        replace(base, run_id="r,nan", readings=readings),
        replace(base, run_id='q"1 nan'),
    ]
    assert len(runs) > 2 * k
    path = tmp_path / dataio.RUNS_CSV
    dataio.write_runs_csv(path, runs)
    channels = sorted(base.extra_channels)
    header = ["run_id", "t_s", "p1_mbar", "p2_mbar", "p3_mbar", "p4_mbar"] + channels
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(header)
    for run in runs:
        for i in range(run.n_samples):
            cells = [run.run_id, float(run.t[i])]
            cells += [float(v) for v in run.readings[i]]
            cells += [float(run.extra_channels[name][i]) for name in channels]
            writer.writerow(["" if isinstance(v, float) and math.isnan(v) else v for v in cells])
    assert path.read_bytes() == expected.getvalue().encode("utf-8")
    rows = [row[2:6] for row in csv.reader(path.read_text().splitlines()) if row[0] == "r,nan"]
    empty = [[j for j, cell in enumerate(row) if not cell] for row in rows[:4]]
    assert empty == [[0], [3], [0, 3], []]  # sensor columns p1..p4


def test_read_dataset_peak_memory_is_bounded_by_its_output(tmp_path):
    # 1 s sampling halves the rows per run, which keeps the traced read short
    config = ChamberConfig(sample_dt=1.0)
    ds = simulate_history(config, default_recipes(), n_assets=2, n_runs_total=200,
                          cycle_length=20, seed=5)
    dataio.write_dataset(tmp_path, ds)
    tracemalloc.start()
    try:
        runs = dataio.read_dataset(tmp_path, len(config.sensors))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nbytes = sum(
        r.t.nbytes + r.readings.nbytes + sum(c.nbytes for c in r.extra_channels.values())
        for r in runs
    )
    assert len(runs) == 200
    assert peak <= 3 * nbytes, peak / nbytes


@pytest.mark.parametrize("n_sensors", [3, 5])
def test_runs_csv_of_another_sensor_count_is_refused(tmp_path, small_dataset, n_sensors):
    # four gauge columns on disk: with three configured sensors p4_mbar must
    # not pass for a process channel
    _, ds = small_dataset
    dataio.write_dataset(tmp_path, ds)
    expected = dataio.runs_csv_header(n_sensors, ["gas_flow", "temp_c"])
    with pytest.raises(DataError, match=f"{n_sensors} configured sensors need "
                                        f"{re.escape(str(expected))}; rerun simulate$"):
        dataio.read_dataset(tmp_path, n_sensors)


def test_invalid_readings_roundtrip_as_empty_fields(tmp_path, small_dataset):
    config, ds = small_dataset
    dataio.write_dataset(tmp_path, ds)
    text = (tmp_path / dataio.RUNS_CSV).read_text()
    assert ",," in text  # clipped readings serialize as empty cells
    runs = dataio.read_dataset(tmp_path, len(config.sensors))
    assert any(np.isnan(r.readings).any() for r in runs)


def test_hi_and_fits_roundtrip(tmp_path, small_dataset):
    config, ds = small_dataset
    curves = [composite_curve(r, config.sensors) for r in ds.runs]
    fits, series = derive_hi(ds.runs, curves, default_segments(),
                             cycle_length=20, analysis_limit=400)
    dataio.write_fits_csv(tmp_path / dataio.FITS_CSV, fits)
    dataio.write_hi_csv(tmp_path / dataio.HI_CSV, series)
    hi_map = dataio.read_hi_csv(tmp_path / dataio.HI_CSV, ds.runs)
    assert list(hi_map) == [e.run_id for e in series.entries]
    assert all(hi_map[e.run_id] == e.hi for e in series.entries)
    header, rows = dataio.read_csv(tmp_path / dataio.FITS_CSV)
    assert header == ["segment", "k", "d", "t_bar", "alpha", "r2", "n_points"]
    assert len(rows) == len(fits)


def test_supervised_roundtrip(tmp_path, small_dataset):
    config, ds = small_dataset
    curves = [composite_curve(r, config.sensors) for r in ds.runs]
    fits, series = derive_hi(ds.runs, curves, default_segments(),
                             cycle_length=20, analysis_limit=400)
    summaries = [summarize_run(r, c) for r, c in zip(ds.runs, curves)]
    sset = build_supervised(summaries, hi_by_run_id(series), ds.plan)
    train, test = chrono_split(sset, 0.7)
    dataio.write_supervised(tmp_path, train, test)
    train2, test2 = dataio.read_supervised(tmp_path)
    assert train2.feature_names == train.feature_names
    assert np.array_equal(train2.X, train.X)
    assert np.array_equal(test2.y, test.y)
    assert train2.meta == train.meta
    assert test2.meta == test.meta


def test_missing_file_raises_data_error(tmp_path):
    with pytest.raises(DataError):
        dataio.read_csv(tmp_path / "nope.csv")
    with pytest.raises(DataError):
        dataio.read_dataset(tmp_path, 1)


@pytest.mark.parametrize("name", sorted(dataio.SCHEMAS))
def test_header_validation(tmp_path, name):
    (tmp_path / name).write_text("wrong,header\n1,2\n")
    with pytest.raises(DataError, match=f"bad {name} header"):
        dataio.read_table(tmp_path / name)


def test_float_cells_use_shortest_roundtrip_form(tmp_path):
    path = tmp_path / "x.csv"
    dataio.write_csv(path, ["a", "b", "c", "d"], [[0.1, 1e-06, 7, 1e16]])
    assert path.read_bytes() == b"a,b,c,d\r\n0.1,1e-06,7,1e+16\r\n"


def test_no_tmp_files_left_behind(tmp_path, small_dataset):
    config, ds = small_dataset
    dataio.write_dataset(tmp_path, ds)
    assert not list(tmp_path.glob("*.tmp"))


def test_failed_write_leaves_neither_temp_nor_target(tmp_path):
    def rows():
        yield [1.0, 2.0]
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError, match="row source failed"):
        dataio.write_csv(tmp_path / "x.csv", ["a", "b"], rows())
    assert list(tmp_path.iterdir()) == []


def test_failed_runs_csv_render_leaves_neither_temp_nor_target(tmp_path, small_dataset,
                                                               monkeypatch):
    _, ds = small_dataset
    second = ds.runs[dataio.RUNS_PER_CHUNK].run_id
    render = dataio._render_runs

    def failing_render(channels, runs):
        # decided by the chunk's content, so it holds in whichever worker renders it
        if runs[0].run_id == second:
            raise DataError("second chunk failed")
        return render(channels, runs)

    monkeypatch.setattr(dataio, "_render_runs", failing_render)
    with pytest.raises(DataError, match="second chunk failed"):
        dataio.write_runs_csv(tmp_path / dataio.RUNS_CSV, ds.runs)
    assert list(tmp_path.iterdir()) == []
