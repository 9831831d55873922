"""CSV round-trip and atomicity tests."""

import csv
import io
import math
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from chamberhealth import dataio, workers
from chamberhealth.core import RunMeta
from chamberhealth.errors import DataError
from chamberhealth.features import (
    RowMeta,
    SupervisedSet,
    aggregate_names,
    build_supervised,
    chrono_split,
)
from chamberhealth.simgen import (
    ChamberConfig,
    default_segments,
    simulate_history,
)
from helpers import (
    aggregates_of,
    chunk_of,
    derive_hi_of,
    equal_share_recipes,
    hi_column,
    same_column,
)


def _chunks(chunk):
    """A read_dataset summary that keeps each chunk whole."""
    return chunk


@pytest.fixture(scope="module")
def small_dataset():
    config = ChamberConfig()
    history = tuple(simulate_history(config, equal_share_recipes(), n_assets=2, n_runs_total=70,
                                     cycle_length=20, seed=5))
    return config, history


def test_dataset_roundtrip_bit_exact(tmp_path, small_dataset, monkeypatch):
    config, history = small_dataset
    dataio.write_dataset(tmp_path, history)
    monkeypatch.setattr(dataio, "RUNS_CSV_CHUNK_BYTES", 20_000)  # a few runs per chunk
    runs, chunks = dataio.read_dataset(tmp_path, len(config.sensors), _chunks)
    assert len(chunks) > 1
    assert runs == [RunMeta(**{f.name: getattr(r, f.name) for f in fields(RunMeta)})
                    for r in history]
    orig = chunk_of(history)
    assert sum((c.run_ids for c in chunks), ()) == orig.run_ids
    assert np.array_equal(np.concatenate([c.lengths for c in chunks]), orig.lengths)
    assert np.array_equal(np.concatenate([c.t for c in chunks]), orig.t)
    assert np.array_equal(np.concatenate([c.readings for c in chunks]), orig.readings,
                          equal_nan=True)
    assert sorted(chunks[0].channels) == sorted(orig.channels)
    for name in orig.channels:
        assert np.array_equal(np.concatenate([c.channels[name] for c in chunks]),
                              orig.channels[name])


def test_runs_csv_lines_match_per_cell_rendering(tmp_path, small_dataset):
    _, history = small_dataset
    # invalid readings in the first and the last sensor column, and ids that need quoting
    base = history[0]
    readings = np.nan_to_num(base.readings, nan=1.0)
    readings[0, 0] = readings[1, -1] = np.nan
    readings[2, [0, -1]] = np.nan
    # three chunks or more, rendered apart, with the two odd runs on either
    # side of the first chunk boundary
    runs = list(history) * 2
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


def test_read_dataset_peak_memory_does_not_grow_with_the_run_count(tmp_path, monkeypatch):
    # one CPU: every chunk is read in this process, where tracemalloc sees it;
    # 1 s sampling halves the rows per run, which keeps the traced reads short
    monkeypatch.setattr(workers, "cpu_count", lambda: 1)
    config = ChamberConfig(sample_dt=1.0)
    peaks = {}
    for n_runs in (200, 800):
        out = tmp_path / str(n_runs)
        out.mkdir()
        history = simulate_history(config, equal_share_recipes(), n_assets=2, n_runs_total=n_runs,
                                   cycle_length=20, seed=5)
        dataio.write_dataset(out, history)
        del history
        tracemalloc.start()
        try:
            runs, lengths = dataio.read_dataset(out, len(config.sensors), lambda c: c.lengths)
            _, peaks[n_runs] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(map(len, lengths)) == len(runs) == n_runs
    # 4x the runs and samples, about the same peak: one chunk at a time
    assert peaks[800] <= 1.5 * peaks[200], peaks


@pytest.mark.parametrize("n_sensors", [3, 5])
def test_runs_csv_of_another_sensor_count_is_refused(tmp_path, small_dataset, n_sensors):
    # four gauge columns on disk: with three configured sensors p4_mbar must
    # not pass for a process channel
    _, history = small_dataset
    dataio.write_dataset(tmp_path, history)
    expected = dataio.runs_csv_header(n_sensors)
    with pytest.raises(DataError, match=f"{n_sensors} configured sensors need "
                                        f"{re.escape(str(expected))}; rerun simulate$"):
        dataio.read_dataset(tmp_path, n_sensors, _chunks)


def test_invalid_readings_roundtrip_as_empty_fields(tmp_path, small_dataset):
    config, history = small_dataset
    dataio.write_dataset(tmp_path, history)
    text = (tmp_path / dataio.RUNS_CSV).read_text()
    assert ",," in text  # clipped readings serialize as empty cells
    _, chunks = dataio.read_dataset(tmp_path, len(config.sensors), _chunks)
    assert any(np.isnan(c.readings).any() for c in chunks)


def test_hi_and_fits_roundtrip(tmp_path, small_dataset):
    config, history = small_dataset
    fits, series = derive_hi_of(history, config.sensors, default_segments(),
                                cycle_length=20, analysis_limit=400)
    dataio.write_fits_csv(tmp_path / dataio.FITS_CSV, fits)
    dataio.write_hi_csv(tmp_path / dataio.HI_CSV, history, series)
    hi = dataio.read_hi_csv(tmp_path / dataio.HI_CSV, history)
    assert same_column(hi, hi_column(history, series))
    assert np.flatnonzero(~np.isnan(hi)).tolist() == series.entries.tolist()
    picked = [history[i] for i in series.entries]
    assert dataio.read_table(tmp_path / dataio.HI_CSV) == [
        (run.run_id, run.asset_id, run.start_time, run.n_runs, hi_s)
        for run, hi_s in zip(picked, series.hi.tolist())]
    header, rows = dataio.read_csv(tmp_path / dataio.FITS_CSV)
    assert header == ["segment", "k", "d", "t_bar", "alpha", "r2", "n_points"]
    assert len(rows) == len(fits)


def test_run_aggregates_roundtrip(tmp_path, small_dataset):
    config, history = small_dataset
    columns = aggregates_of(history, config.sensors)
    dataio.write_run_aggregates_csv(tmp_path / dataio.RUN_AGGREGATES_CSV, history, columns)
    back = dataio.read_run_aggregates(tmp_path, history)
    assert list(back) == list(columns)
    assert all(np.array_equal(back[name], columns[name]) for name in columns)
    with pytest.raises(DataError, match="does not list the runs of run_meta.csv"):
        dataio.read_run_aggregates(tmp_path, history[::-1])


def test_supervised_roundtrip(tmp_path, small_dataset):
    config, history = small_dataset
    fits, series = derive_hi_of(history, config.sensors, default_segments(),
                                cycle_length=20, analysis_limit=400)
    sset = build_supervised(history, aggregates_of(history, config.sensors),
                            hi_column(history, series), horizon=10)
    train, test = chrono_split(sset, 0.7)
    dataio.write_supervised(tmp_path, train, test)
    train2, test2 = dataio.read_supervised(tmp_path)
    assert train2.feature_names == train.feature_names
    assert np.array_equal(train2.X, train.X)
    assert np.array_equal(test2.y, test.y)
    for field in fields(RowMeta):
        assert same_column(getattr(train2.meta, field.name), getattr(train.meta, field.name))
        assert same_column(getattr(test2.meta, field.name), getattr(test.meta, field.name))


def test_missing_file_raises_data_error(tmp_path):
    with pytest.raises(DataError):
        dataio.read_csv(tmp_path / "nope.csv")
    with pytest.raises(DataError):
        dataio.read_dataset(tmp_path, 1, _chunks)


@pytest.mark.parametrize("name", sorted(dataio.SCHEMAS))
def test_header_validation(tmp_path, name):
    (tmp_path / name).write_text("wrong,header\n1,2\n")
    with pytest.raises(DataError, match=f"bad {name} header"):
        dataio.read_table(tmp_path / name)


def test_float_cells_use_shortest_roundtrip_form(tmp_path):
    path = tmp_path / "x.csv"
    dataio.write_columns(path, ["a", "b", "c", "d"], [[0.1], np.array([1e-06]), [7], [1e16]])
    assert path.read_bytes() == b"a,b,c,d\r\n0.1,1e-06,7,1e+16\r\n"


def test_no_tmp_files_left_behind(tmp_path, small_dataset):
    config, history = small_dataset
    dataio.write_dataset(tmp_path, history)
    assert not list(tmp_path.glob("*.tmp"))


def test_failed_write_leaves_neither_temp_nor_target(tmp_path):
    class Failing:
        def __str__(self):
            raise RuntimeError("row source failed")

    # the failing cell is in the second block, after the first was written
    column = [1.0] * dataio.ROWS_PER_BLOCK + [Failing()]
    with pytest.raises(RuntimeError, match="row source failed"):
        dataio.write_columns(tmp_path / "x.csv", ["a", "b"], [column, column])
    assert list(tmp_path.iterdir()) == []


def test_failed_runs_csv_render_leaves_neither_temp_nor_target(tmp_path, small_dataset,
                                                               monkeypatch):
    _, history = small_dataset
    second = history[dataio.RUNS_PER_CHUNK].run_id
    render = dataio._render_runs

    def failing_render(runs):
        # decided by the chunk's content, so it holds in whichever worker renders it
        if runs[0].run_id == second:
            raise DataError("second chunk failed")
        return render(runs)

    monkeypatch.setattr(dataio, "_render_runs", failing_render)
    with pytest.raises(DataError, match="second chunk failed"):
        dataio.write_runs_csv(tmp_path / dataio.RUNS_CSV, history)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("short", ["readings", "channel"])
def test_a_run_with_a_short_column_fails_the_runs_csv_write(tmp_path, small_dataset, short):
    # a RunRecord checks no samples: the writer refuses a column one row
    # shorter than t, in the second chunk, instead of writing a short block
    _, history = small_dataset
    k = dataio.RUNS_PER_CHUNK
    run = history[k]
    if short == "readings":
        bad = replace(run, readings=run.readings[:-1])
    else:
        bad = replace(run, extra_channels={**run.extra_channels,
                                           "temp_c": run.extra_channels["temp_c"][:-1]})
    with pytest.raises(ValueError, match=r"^zip\(\) argument \d+ is shorter than argument"):
        dataio.write_runs_csv(tmp_path / dataio.RUNS_CSV, [*history[:k], bad, *history[k + 1 :]])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("channels", [["gas_flow"], ["gas_flow", "humidity", "temp_c"]],
                         ids=["temp_c-missing", "extra-channel"])
def test_a_run_with_other_channels_fails_the_runs_csv_write(tmp_path, small_dataset,
                                                            monkeypatch, channels, cpus):
    # runs.csv holds CHANNELS: a run in the second chunk that lacks one, or
    # has one more, is refused by name instead of being written without it
    monkeypatch.setattr(workers, "cpu_count", lambda: cpus)
    _, history = small_dataset
    k = dataio.RUNS_PER_CHUNK
    run = history[k]
    bad = replace(run, extra_channels={name: run.t for name in channels})
    with pytest.raises(ValueError, match=f"^run {run.run_id}: channels {re.escape(str(channels))}, "
                                         r"not \['gas_flow', 'temp_c'\]$"):
        dataio.write_runs_csv(tmp_path / dataio.RUNS_CSV, [*history[:k], bad, *history[k + 1 :]])
    assert list(tmp_path.iterdir()) == []


BLOCK = dataio.ROWS_PER_BLOCK
FLOATS = st.one_of(st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 0.1]),
                   st.floats(allow_nan=False, allow_infinity=False))
INTS = st.one_of(st.sampled_from([2**63 - 1, -(2**63), 10**30, -(10**30)]), st.integers())
# strings the csv module must quote, and any other text that UTF-8 can encode
TEXTS = st.one_of(
    st.sampled_from(["a,b", 'say "hi"', "two\r\nlines", "cr\ronly", " padded ", ""]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=8),
)


@st.composite
def _tables(draw):
    """A float, an int and a str column of one block's length, one less or
    one more, and where to cut them into two parts."""
    n = draw(st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1]))
    columns = [draw(st.lists(cells, min_size=n, max_size=n)) for cells in (FLOATS, INTS, TEXTS)]
    return columns, draw(st.integers(0, n))


@settings(max_examples=40, deadline=None)
@given(table=_tables())
def test_write_columns_writes_csv_writer_bytes_and_read_columns_reads_them_back(
        tmp_path_factory, table):
    (floats, ints, texts), cut = table
    path = tmp_path_factory.getbasetemp() / "table.csv"
    header = ["x", "n", "s"]
    columns = [np.array(floats, dtype=np.float64), ints, texts]
    dataio.write_columns(path, header, [c[:cut] for c in columns], [c[cut:] for c in columns])
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(header)
    for row in zip(floats, ints, texts):
        writer.writerow(row)  # cell by cell
    assert path.read_bytes() == expected.getvalue().encode("utf-8")
    back, (x, n, s) = dataio.read_columns(path, lambda header: [float, int, str])
    assert back == header
    assert x.dtype == np.float64 and x.tobytes() == columns[0].tobytes()  # bit for bit
    assert n == ints and s == texts


HI_ROWS = BLOCK + 50
SECOND_BLOCK_LINE = BLOCK + 21  # the file's line of a row in the second block


def _hi_lines(tmp_path):
    """A hi.csv of HI_ROWS rows, as its text's lines."""
    path = tmp_path / dataio.HI_CSV
    ids = [f"asset1-{i:05d}" for i in range(HI_ROWS)]
    dataio.write_columns(path, dataio.SCHEMAS[dataio.HI_CSV], [
        ids, ["asset1"] * HI_ROWS, np.arange(HI_ROWS) * 60.0 + 1.6e9, list(range(HI_ROWS)),
        np.linspace(10.0, 11.0, HI_ROWS)])
    return path, path.read_bytes().splitlines(keepends=True)


SECOND_BLOCK_FAULTS = {  # what a row of hi.csv becomes, and the refusal of each
    "wrong-field-count": (lambda row: row.rsplit(b",", 1)[0] + b"\r\n",
                          "hi.csv line {line}: 4 fields, header has 5"),
    "non-numeric-cell": (lambda row: row.rsplit(b",", 1)[0] + b",abc\r\n",
                         "bad cell in hi.csv: could not convert string to float: 'abc'"),
    "nan-cell": (lambda row: row.rsplit(b",", 1)[0] + b",nan\r\n",
                 "non-finite hi_s cell in hi.csv"),
    "not-utf8": (lambda row: row[:3] + b"\xfe" + row[3:],
                 "hi.csv line {line}: byte {at} is not UTF-8: invalid start byte"),
}


@pytest.mark.parametrize("line", [2, SECOND_BLOCK_LINE], ids=["first-block", "second-block"])
@pytest.mark.parametrize("fault", sorted(SECOND_BLOCK_FAULTS))
def test_a_fault_past_the_first_block_is_refused_as_in_the_first(tmp_path, fault, line):
    path, lines = _hi_lines(tmp_path)
    corrupt, refusal = SECOND_BLOCK_FAULTS[fault]
    lines[line - 1] = corrupt(lines[line - 1])
    path.write_bytes(b"".join(lines))
    at = sum(map(len, lines[: line - 1])) + 3  # the byte not_utf8 puts in
    with pytest.raises(DataError) as refused:
        dataio.read_table(path)
    assert str(refused.value) == refusal.format(line=line, at=at)


def _traced(call):
    """The bytes that ``call``'s result keeps and the peak while it ran, by tracemalloc."""
    tracemalloc.start()
    try:
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result is not None
    return kept, peak


def test_table_readers_peak_memory_is_a_small_multiple_of_what_they_return(tmp_path):
    # 2 000 runs and rows of the default config's shapes, random cells
    n, rng, recipes = 2000, np.random.default_rng(0), ["heavy", "light", "std"]
    runs = [RunMeta(run_id=f"asset{i % 5 + 1}-{i // 5:05d}", asset_id=f"asset{i % 5 + 1}",
                    start_time=1.6e9 + 60.0 * i, recipe_id=recipes[i % 3], n_runs=i // 5)
            for i in range(n)]
    aggregates = {name: rng.normal(size=n)
                  for name in aggregate_names(["gas_flow", "pressure", "temp_c"])}
    dataio.write_run_aggregates_csv(tmp_path / dataio.RUN_AGGREGATES_CSV, runs, aggregates)
    columns = {name: np.array([getattr(r, name) for r in runs])
               for name in ("asset_id", "run_id", "start_time", "n_runs", "recipe_id")}
    meta = RowMeta(**columns, run_id_target=columns["run_id"],
                   n_runs_target=columns["n_runs"] + 10, hi_current=10.0 + rng.random(n),
                   plan=np.array(recipes)[rng.integers(0, 3, (n, 10))])
    sset = SupervisedSet(X=rng.normal(size=(n, 46)), y=rng.normal(size=n),
                         feature_names=tuple(f"f{j}" for j in range(46)), meta=meta)
    train, test = (replace(sset, X=sset.X[rows], y=sset.y[rows], meta=meta.take(rows))
                   for rows in (slice(1400), slice(1400, None)))
    dataio.write_supervised(tmp_path, train, test)
    # the whole tables as Python cells peaked at 3.3x and 13x what was kept
    kept, peak = _traced(lambda: dataio.read_supervised(tmp_path))
    assert peak <= 2 * kept, (kept, peak)
    kept, peak = _traced(lambda: dataio.read_run_aggregates(tmp_path, runs))
    assert peak <= 5 * kept, (kept, peak)
