"""CSV artifact schemas and atomic file writing.

All files are UTF-8, comma-delimited, '.' decimal separator, with a
mandatory header row, and every row has as many fields as the header.
Cells are rendered by the csv module, which writes a float as its
repr(), so that every write/read cycle round-trips bit-exactly. Files
are written to a temp path and renamed into place, and a failed write
removes its temp file, so a failing stage never leaves a partial file.

The eight fixed-header CSVs are declared once, in ``SCHEMAS``: column
names in order, each with its cell type. Their writers take the header
from it, and ``read_table`` reads any of them back, refusing a wrong
header, a cell its column's type does not parse and NaN or an infinity
in a float column (DataError). ``runs.csv``, ``run_aggregates.csv`` and
``features.csv`` have headers that depend on the data and readers of
their own; their float cells must be finite too, except that an empty
sensor cell marks an invalid reading.

``runs.csv`` holds each run as one contiguous block of rows in time
order, the blocks in ``run_meta.csv`` order; only ``run_meta.csv`` says
which asset a run belongs to, and ``runs_csv_header`` declares the
columns. It is written one block at a time, each block rendered as one
string, and read one block at a time, so no stage holds more than one
run's text rows. An empty cell is allowed only in a sensor column,
where it means the reading was invalid. Any other malformed input (a wrong field count, a non-numeric or empty cell
elsewhere, a block that is not the run ``run_meta.csv`` lists at its
place) raises DataError, as do bytes that are not UTF-8 in any CSV.

``derive-hi`` is the only stage that reads ``runs.csv``. Beside the HI
it writes ``run_aggregates.csv``, the channel aggregates of every run
computed from the composite curve it fused anyway; ``build-features``
joins that file with ``run_meta.csv`` (``read_run_summaries``), which
must list the same runs in the same order. ``hi.csv``'s rows must be
``run_meta.csv``'s runs in order, less those without an HI.
"""

from __future__ import annotations

import csv
import io
import math
import os
from contextlib import contextmanager
from functools import partial
from itertools import groupby, zip_longest
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .core import RunRecord
from .errors import DataError
from .features import RowMeta, RunSummary, SupervisedSet, aggregate_names
from .hi import DegradationFit, HiSeries
from .simgen import SimDataset
from .workers import map_in_order

PathLike = Union[str, Path]

RUNS_CSV = "runs.csv"
RUN_META_CSV = "run_meta.csv"
RUN_AGGREGATES_CSV = "run_aggregates.csv"
GROUND_TRUTH_CSV = "ground_truth.csv"
PLAN_CSV = "plan.csv"
FITS_CSV = "fits.csv"
HI_CSV = "hi.csv"
FEATURES_CSV = "features.csv"
META_CSV = "meta.csv"
REPORT_JSON = "report.json"
PREDICTIONS_CSV = "predictions.csv"
PLOT_HI_CSV = "plot_hi.csv"
MODELS_DIR = "models"

# The fixed-header CSVs: each file's columns in order, with the type of
# their cells. Writers take the header from here; read_table checks it
# and converts every cell by its column's type.
SCHEMAS: dict[str, dict[str, type]] = {
    RUN_META_CSV: {
        "run_id": str, "asset_id": str, "start_time": float, "recipe_id": str, "n_runs": int,
    },
    GROUND_TRUTH_CSV: {"run_id": str, "c": float, "p_ss": float},
    PLAN_CSV: {"asset_id": str, "position": int, "recipe_id": str},
    FITS_CSV: {
        "segment": int, "k": float, "d": float, "t_bar": float, "alpha": float, "r2": float,
        "n_points": int,
    },
    HI_CSV: {"run_id": str, "asset_id": str, "start_time": float, "n_runs": int, "hi_s": float},
    # in RowMeta's field order, plan joined by "|", then the split
    META_CSV: {
        "asset_id": str, "run_id": str, "run_id_target": str, "start_time": float,
        "n_runs": int, "n_runs_target": int, "hi_current": float, "recipe_id": str,
        "plan": str, "split": str,
    },
    PREDICTIONS_CSV: {"run_id": str, "target": float, "model": str, "prediction": float},
    PLOT_HI_CSV: {
        "start_time": float, "n_runs": int, "target": float, "prediction_best": float,
        "bm1": float, "bm2": float, "bm3": float,
    },
}


@contextmanager
def atomic_open(path: PathLike, binary: bool = False) -> Iterator[io.IOBase]:
    """A text (or binary) file at a temp path, renamed to ``path`` once written."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # only a failed write leaves it


def atomic_write_text(path: PathLike, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def write_csv(path: PathLike, header: Iterable[str], rows: Iterable[Sequence]) -> None:
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@contextmanager
def _open_csv(path: PathLike) -> Iterator[tuple[list[str], Iterator[list[str]]]]:
    """Yield the header and a lazy row iterator that rejects a wrong field
    count, text that is not UTF-8 and text the csv module cannot split."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing input file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)

        def bad_text(exc: Exception) -> DataError:
            return DataError(f"{path.name}: unreadable text after line {reader.line_num}: {exc}")

        try:
            header = next(reader, None)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise bad_text(exc) from None
        if header is None:
            raise DataError(f"empty file: {path}")

        def rows():
            try:
                for row in reader:
                    if len(row) != len(header):
                        raise DataError(
                            f"{path.name} line {reader.line_num}: {len(row)} fields, "
                            f"header has {len(header)}"
                        )
                    yield row
            except (UnicodeDecodeError, csv.Error) as exc:
                raise bad_text(exc) from None

        yield header, rows()


def read_csv(path: PathLike) -> tuple[list[str], list[list[str]]]:
    with _open_csv(path) as (header, rows):
        return header, list(rows)


@contextmanager
def _cells(name: str):
    """Map a failed cell conversion inside the block to DataError."""
    try:
        yield
    except ValueError as exc:
        raise DataError(f"bad cell in {name}: {exc}") from None


def _finite_floats(rows: Sequence[Sequence[str]], name: str) -> np.ndarray:
    """The cells of ``rows`` as one float64 array; a cell that does not
    parse or is not finite raises DataError naming file ``name``."""
    with _cells(name):
        values = np.array(rows, dtype=np.float64)
    if not np.isfinite(values).all():
        raise DataError(f"non-finite cell in {name}")
    return values


def read_table(path: PathLike) -> list[tuple]:
    """A fixed-header CSV, chosen in SCHEMAS by its file name, as one tuple
    of typed cells per row. A wrong header, a cell its column's type does
    not parse, and NaN or an infinity in a float column raise DataError."""
    path = Path(path)
    schema = SCHEMAS[path.name]
    header, rows = read_csv(path)
    if header != list(schema):
        raise DataError(f"bad {path.name} header: {header}")
    with _cells(path.name):
        columns = [list(map(kind, cells)) for kind, cells in zip(schema.values(), zip(*rows))]
    for (name, kind), values in zip(schema.items(), columns):
        if kind is float and not all(map(math.isfinite, values)):
            raise DataError(f"non-finite {name} cell in {path.name}")
    return list(zip(*columns))


# -- raw samples + run metadata (core schemas) --------------------------------


def _csv_line(cells: Sequence[str]) -> str:
    """One CSV record, quoted as csv.writer quotes it, without the line end."""
    buf = io.StringIO()
    csv.writer(buf).writerow(cells)
    return buf.getvalue()[: -len("\r\n")]


# ~0.2 MB of text per chunk, whatever the number of runs: the writer
# holds about one chunk at a time, and each worker one more
RUNS_PER_CHUNK = 20


def _render_runs(channels: Sequence[str], runs: Sequence[RunRecord]) -> str:
    """The runs.csv rows of ``runs``: per run, the quoted run_id prefix
    once, then repr() of every value, NaN as an empty cell."""
    lines = []
    for run in runs:
        prefix = _csv_line([run.run_id]) + ","
        block = np.column_stack(
            [run.t, run.readings, *(run.extra_channels[name] for name in channels)]
        )
        # repr() of a float spells "nan" only for NaN itself
        lines += [prefix + ",".join(map(repr, row)).replace("nan", "") + "\r\n"
                  for row in block.tolist()]
    return "".join(lines)


def runs_csv_header(n_sensors: int, channels: Sequence[str]) -> list[str]:
    """``runs.csv``'s columns: ``p{j+1}_mbar`` holds the readings of the
    j-th of ``n_sensors`` configured sensors, and no channel name ends in
    ``_mbar``."""
    return ["run_id", "t_s", *(f"p{j + 1}_mbar" for j in range(n_sensors)), *channels]


def write_runs_csv(path: PathLike, runs: Sequence[RunRecord]) -> None:
    """``runs_csv_header`` with the channels sorted, one row per sample.

    Chunks of RUNS_PER_CHUNK runs are rendered on every CPU (see
    workers) and written in run order as they arrive. The bytes are the
    ones write_csv would write cell by cell, except that NaN is an empty cell.
    """
    if not runs:
        raise DataError("no runs to write")
    channels = sorted(runs[0].extra_channels)
    chunks = [runs[i : i + RUNS_PER_CHUNK] for i in range(0, len(runs), RUNS_PER_CHUNK)]
    with atomic_open(path) as fh:
        fh.write(_csv_line(runs_csv_header(runs[0].readings.shape[1], channels)) + "\r\n")
        fh.writelines(map_in_order(partial(_render_runs, channels), chunks))


def write_dataset(out_dir: PathLike, dataset: SimDataset) -> None:
    out, runs = Path(out_dir), dataset.runs
    write_runs_csv(out / RUNS_CSV, runs)
    write_csv(out / RUN_META_CSV, SCHEMAS[RUN_META_CSV], (
        [r.run_id, r.asset_id, float(r.start_time), r.recipe_id, r.n_runs] for r in runs))
    write_csv(out / GROUND_TRUTH_CSV, SCHEMAS[GROUND_TRUTH_CSV], (
        [r.run_id, float(r.true_c), float(r.true_p_ss)] for r in runs))
    write_csv(out / PLAN_CSV, SCHEMAS[PLAN_CSV], (
        [asset, pos, rid] for asset, ids in dataset.plan.items() for pos, rid in enumerate(ids)))


def read_run_meta(in_dir: PathLike) -> list[tuple[str, str, float, str, int]]:
    """``run_meta.csv`` rows as (run_id, asset_id, start_time, recipe_id, n_runs),
    in file order; a run_id listed twice raises DataError."""
    meta = read_table(Path(in_dir) / RUN_META_CSV)
    seen: set[str] = set()
    for rid, *_ in meta:
        if rid in seen:
            raise DataError(f"run {rid} listed twice in {RUN_META_CSV}")
        seen.add(rid)
    return meta


def read_plan(in_dir: PathLike) -> dict[str, list[str]]:
    """``plan.csv`` as asset_id -> recipe_ids in position order. Each
    asset's positions must be 0..n-1, once each."""
    plan: dict[str, list[tuple[int, str]]] = {}
    for asset, pos, rid in read_table(Path(in_dir) / PLAN_CSV):
        plan.setdefault(asset, []).append((pos, rid))
    for asset, entries in plan.items():
        entries.sort()
        if [pos for pos, _ in entries] != list(range(len(entries))):
            raise DataError(
                f"{PLAN_CSV}: asset {asset}'s positions are not 0..{len(entries) - 1} once each"
            )
    return {asset: [rid for _, rid in entries] for asset, entries in plan.items()}


def read_dataset(in_dir: PathLike, n_sensors: int) -> list[RunRecord]:
    """Load the runs back from ``runs.csv`` and ``run_meta.csv``.

    The header must be ``runs_csv_header``'s for ``n_sensors``. The
    n-th block of ``runs.csv`` must be the n-th run of ``run_meta.csv``,
    which gives each run its identity and order. Ground truth is not
    re-attached; it only exists on freshly generated in-memory runs.
    """
    in_dir = Path(in_dir)
    meta = read_run_meta(in_dir)

    runs = []
    with _open_csv(in_dir / RUNS_CSV) as (header, rows):
        channel_names = [name for name in header[2:] if not name.endswith("_mbar")]
        expected = runs_csv_header(n_sensors, channel_names)
        if header != expected:
            raise DataError(f"bad {RUNS_CSV} header {header}: {n_sensors} configured sensors "
                            f"need {expected}; rerun simulate")
        pairs = zip_longest(meta, groupby(rows, key=itemgetter(0)), fillvalue=(None, None))
        for n, (fields, (rid, block)) in enumerate(pairs, 1):
            if rid != fields[0]:
                expected, found = ("the end" if r is None else f"run {r}" for r in (fields[0], rid))
                raise DataError(f"{RUNS_CSV} block {n} does not follow {RUN_META_CSV}: "
                                f"expected {expected}, found {found}")
            block = list(block)
            # an empty cell reads as NaN, which only a sensor column may hold
            with _cells(f"{RUNS_CSV}, run {rid}"):
                values = np.array(
                    [c or "nan" for row in block for c in row[1:]], dtype=np.float64
                ).reshape(len(block), -1)
            t, channels = values[:, 0], values[:, 1 + n_sensors :]
            if not (np.isfinite(t).all() and np.isfinite(channels).all()):
                raise DataError(f"run {rid}: empty or non-finite t_s or channel cell in {RUNS_CSV}")
            runs.append(
                RunRecord(
                    *fields,
                    t=t,
                    readings=values[:, 1 : 1 + n_sensors],
                    extra_channels={name: channels[:, j] for j, name in enumerate(channel_names)},
                )
            )
    return runs


def write_run_aggregates_csv(path: PathLike, summaries: Sequence[RunSummary]) -> None:
    """`run_id,<channel>_<mean|min|max|std>...`, the columns of
    ``features.aggregate_channels`` in its order."""
    if not summaries:
        raise DataError("no runs to write")
    write_csv(
        path,
        ["run_id", *summaries[0].aggregates],
        ([s.run_id, *s.aggregates.values()] for s in summaries),
    )


def read_run_summaries(in_dir: PathLike) -> list[RunSummary]:
    """``run_meta.csv`` joined with ``run_aggregates.csv``, in run_meta order.

    The aggregates file must list exactly the runs of ``run_meta.csv``,
    in the same order, under a ``run_id`` plus ``<channel>_<suffix>``
    header with the channels sorted and ``pressure`` among them.
    """
    in_dir = Path(in_dir)
    meta = read_run_meta(in_dir)
    header, rows = read_csv(in_dir / RUN_AGGREGATES_CSV)
    channels = sorted({name.rpartition("_")[0] for name in header[1:]})
    if (
        header[:1] != ["run_id"]
        or header[1:] != aggregate_names(channels)
        or "pressure" not in channels
    ):
        raise DataError(f"bad {RUN_AGGREGATES_CSV} header: {header}")
    if [row[0] for row in rows] != [m[0] for m in meta]:
        raise DataError(
            f"{RUN_AGGREGATES_CSV} does not list the runs of {RUN_META_CSV} in the same order; "
            "rerun derive-hi"
        )
    values = _finite_floats([row[1:] for row in rows], RUN_AGGREGATES_CSV)
    return [
        RunSummary(*fields, aggregates=dict(zip(header[1:], row)))
        for fields, row in zip(meta, values.tolist())
    ]


# -- HI artifacts --------------------------------------------------------------


def write_fits_csv(path: PathLike, fits: Sequence[DegradationFit]) -> None:
    write_csv(path, SCHEMAS[FITS_CSV], (
        [f.segment.index, f.k, f.d, f.t_bar, f.alpha, f.r2, f.n_points] for f in fits))


def write_hi_csv(path: PathLike, series: HiSeries) -> None:
    write_csv(path, SCHEMAS[HI_CSV], (
        [e.run_id, e.asset_id, float(e.start_time), e.n_runs, float(e.hi)] for e in series.entries))


def read_hi_csv(path: PathLike, runs: Sequence[RunSummary]) -> dict[str, float]:
    """``hi.csv`` as run_id -> HI seconds. Its rows must be ``runs``
    (``run_meta.csv``'s) in order, less those without an HI, each equal
    to its run on run_id, asset_id, start_time and n_runs (DataError)."""
    later = iter(runs)
    hi = {}
    for *fields, hi_s in read_table(path):
        # consumes ``later`` up to the row's run, so no row can go back
        if fields not in ([r.run_id, r.asset_id, r.start_time, r.n_runs] for r in later):
            raise DataError(f"{HI_CSV} row of run {fields[0]} does not follow {RUN_META_CSV}; "
                            "rerun derive-hi")
        hi[fields[0]] = hi_s
    return hi


# -- supervised set -------------------------------------------------------------


def write_supervised(
    out_dir: PathLike, train: SupervisedSet, test: SupervisedSet
) -> None:
    """features.csv (stable names + target) and meta.csv with a split column."""
    if train.feature_names != test.feature_names:
        raise DataError("train/test feature names differ")
    out = Path(out_dir)

    def feature_rows():
        for part in (train, test):
            yield from np.column_stack([part.X, part.y]).tolist()

    write_csv(out / FEATURES_CSV, list(train.feature_names) + ["target"], feature_rows())

    write_csv(out / META_CSV, SCHEMAS[META_CSV], (
        [m.asset_id, m.run_id, m.run_id_target, float(m.start_time), m.n_runs, m.n_runs_target,
         float(m.hi_current), m.recipe_id, "|".join(m.plan), split]
        for split, part in (("train", train), ("test", test))
        for m in part.meta))


def read_supervised(in_dir: PathLike) -> tuple[SupervisedSet, SupervisedSet]:
    in_dir = Path(in_dir)
    f_header, f_rows = read_csv(in_dir / FEATURES_CSV)
    if not f_header or f_header[-1] != "target":
        raise DataError(f"bad {FEATURES_CSV} header: expected trailing 'target' column")
    names = tuple(f_header[:-1])
    m_rows = read_table(in_dir / META_CSV)
    if len(m_rows) != len(f_rows):
        raise DataError(f"{FEATURES_CSV} and {META_CSV} row counts differ")
    values = _finite_floats(f_rows, FEATURES_CSV)
    meta = [
        RowMeta(*fields, tuple(plan.split("|")) if plan else ())
        for *fields, plan, _ in m_rows
    ]
    splits = [m_row[-1] for m_row in m_rows]
    bad = set(splits) - {"train", "test"}
    if bad:
        raise DataError(f"bad split values {sorted(bad)} in {META_CSV}")

    def assemble(split: str) -> SupervisedSet:
        rows = [i for i, s in enumerate(splits) if s == split]
        if not rows:
            raise DataError("empty split in persisted supervised set")
        return SupervisedSet(
            X=values[rows, :-1],
            y=values[rows, -1],
            feature_names=names,
            meta=tuple(meta[i] for i in rows),
        )

    return assemble("train"), assemble("test")


# -- evaluation artifacts --------------------------------------------------------


def write_predictions_csv(
    path: PathLike, test: SupervisedSet, predictions: dict[str, np.ndarray]
) -> None:
    write_csv(path, SCHEMAS[PREDICTIONS_CSV], (
        [m.run_id_target, float(y), kind, float(p)]
        for kind in sorted(predictions)
        for m, y, p in zip(test.meta, test.y, predictions[kind])))


def write_plot_hi_csv(
    path: PathLike,
    test: SupervisedSet,
    best_kind: str,
    predictions: dict[str, np.ndarray],
) -> None:
    """Plot-ready dump: target vs best-model and benchmark predictions."""
    columns = [test.y] + [predictions[kind] for kind in (best_kind, "bm1", "bm2", "bm3")]
    write_csv(path, SCHEMAS[PLOT_HI_CSV], (
        [float(m.start_time), m.n_runs_target, *(float(c[i]) for c in columns)]
        for i, m in enumerate(test.meta)))
