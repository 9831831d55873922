"""CSV artifact schemas and atomic file writing.

All files are UTF-8, comma-delimited, '.' decimal separator, with a
mandatory header row, and every row has as many fields as the header.
Cells are rendered by the csv module, which writes a float as its
repr(), so that every write/read cycle round-trips bit-exactly. Files
are written to a temp path and renamed into place, and a failed write
removes its temp file, so a failing stage never leaves a partial file.

Every table but ``runs.csv`` travels as columns: ``write_columns``
renders them ROWS_PER_BLOCK rows at a time through csv.writer, and
``read_columns`` parses and converts that many rows at a time, a float
column into one float64 array, so neither holds more than one block of
a table as text or as Python rows. The eight fixed-header CSVs are
declared once, in ``SCHEMAS``: column names in order, each with its
cell type (``run_meta.csv``'s are the fields of ``core.RunMeta``;
``run_aggregates.csv``'s the run_id, then the aggregates of the
composite curve and of each of ``core.CHANNELS``; ``meta.csv``'s the
columns of ``features.RowMeta`` with their annotated cell types, a
plan's recipes joined by "|", then the split). Their writers take the
header from it, and ``read_table`` reads any of them back as typed
rows. Only ``features.csv`` has a header that depends on the data,
which its reader checks. Every reader refuses a wrong header, a cell
its column's type does not parse and NaN or an infinity in a float
column (DataError); in ``runs.csv``, which has a reader of its own, an
empty sensor cell marks an invalid reading.

``runs.csv`` holds each run as one contiguous block of rows in time
order, the blocks in ``run_meta.csv`` order; only ``run_meta.csv`` says
which asset a run belongs to, and ``runs_csv_header`` declares the
columns. It is written in chunks of whole runs as they are generated,
each rendered as one string on some CPU, and read in byte ranges of
about 1 MiB that end between blocks, each parsed into a
``core.RunChunk`` and reduced on some CPU (``read_dataset``), so no
process holds more than a few chunks' text and samples. An empty cell
is allowed only in a sensor column, where it means the reading was
invalid. Any other malformed input (a wrong field count, a non-numeric
or empty cell elsewhere, a block that is not the run ``run_meta.csv``
lists at its place) raises DataError, naming the file's line where it
names one, as do bytes that are not UTF-8 in any CSV.

``derive-hi`` is the only stage that reads ``runs.csv``. Beside the HI
it writes ``run_aggregates.csv``, the channel aggregates of every run
computed from the composite curve it fused anyway; ``build-features``
reads that file's columns (``read_run_aggregates``), which must list
``run_meta.csv``'s runs in the same order. ``hi.csv``'s rows must be
``run_meta.csv``'s runs in order, less those without an HI.
"""

from __future__ import annotations

import csv
import io
import os
from contextlib import closing, contextmanager
from functools import partial
from itertools import chain, groupby, islice, repeat, zip_longest
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar, Union, get_type_hints

import numpy as np

from .core import CHANNELS, RunChunk, RunMeta, RunRecord
from .errors import DataError
from .features import AGGREGATED, RowMeta, SupervisedSet, aggregate_names
from .hi import DegradationFit, HiSeries
from .workers import map_in_order

PathLike = Union[str, Path]
R = TypeVar("R")

RUNS_CSV = "runs.csv"
RUN_META_CSV = "run_meta.csv"
RUN_AGGREGATES_CSV = "run_aggregates.csv"
GROUND_TRUTH_CSV = "ground_truth.csv"
FITS_CSV = "fits.csv"
HI_CSV = "hi.csv"
FEATURES_CSV = "features.csv"
META_CSV = "meta.csv"
REPORT_JSON = "report.json"
PREDICTIONS_CSV = "predictions.csv"
PLOT_HI_CSV = "plot_hi.csv"
MODELS_DIR = "models"

# The RunMeta fields that hi.csv repeats, so that each row names its run
HI_RUN_FIELDS = ("run_id", "asset_id", "start_time", "n_runs")
_RUN_META_TYPES = get_type_hints(RunMeta)
# RowMeta's columns, each by the type of its cells
_ROW_META_TYPES = {name: column.__metadata__[0]
                   for name, column in get_type_hints(RowMeta, include_extras=True).items()}

# The fixed-header CSVs: each file's columns in order, with the type of
# their cells. Writers take the header from here; read_table checks it
# and converts every cell by its column's type.
SCHEMAS: dict[str, dict[str, type]] = {
    RUN_META_CSV: _RUN_META_TYPES,
    GROUND_TRUTH_CSV: {"run_id": str, "c": float, "p_ss": float},
    FITS_CSV: {
        "segment": int, "k": float, "d": float, "t_bar": float, "alpha": float, "r2": float,
        "n_points": int,
    },
    HI_CSV: {**{name: _RUN_META_TYPES[name] for name in HI_RUN_FIELDS}, "hi_s": float},
    # features.aggregate_runs' columns of the composite curve and every channel
    RUN_AGGREGATES_CSV: {"run_id": str, **dict.fromkeys(aggregate_names(AGGREGATED), float)},
    # RowMeta's columns, a plan's recipes joined by "|", then the split
    META_CSV: {**_ROW_META_TYPES, "split": str},
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


# Rows per block in which write_columns renders a table and read_columns
# converts one, so that neither holds more of a table as Python cells
ROWS_PER_BLOCK = 128


def write_columns(path: PathLike, header: Sequence[str], *parts: Sequence[Sequence]) -> None:
    """``header``, then the rows of each part in turn. A part is a list of
    columns of one length: numpy arrays, whose cells are written as their
    ``.tolist()`` values, or sequences of cells. csv.writer is passed
    ROWS_PER_BLOCK rows at a time, so the bytes are the ones it writes
    cell by cell."""
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for columns in parts:
            n, = {len(column) for column in columns}  # a ValueError if they differ
            for start in range(0, n, ROWS_PER_BLOCK):
                block = [column[start : start + ROWS_PER_BLOCK] for column in columns]
                writer.writerows(zip(*(cells.tolist() if isinstance(cells, np.ndarray) else cells
                                       for cells in block)))


def _unreadable(path: Path, line: int, exc: Exception) -> DataError:
    return DataError(f"{path.name}: unreadable text after line {line}: {exc}")


def _not_utf8(path: Path, start: int = 0, stop: int = -1) -> DataError:
    """The refusal of bytes [start, stop) of ``path`` (stop -1: to its
    end), which a text reader failed to decode, naming the line and file
    offset of the first bad byte. The decoder meets it a block ahead of
    the lines read, so only this error path decodes the bytes again, in
    one call, to find it."""
    with open(path, "rb") as fh:
        data = fh.read(stop)
    try:
        data[start:].decode("utf-8")
    except UnicodeDecodeError as exc:
        at = start + exc.start
        line = data.count(b"\n", 0, at) + 1
        return DataError(f"{path.name} line {line}: byte {at} is not UTF-8: {exc.reason}")
    return DataError(f"{path.name} changed while it was read")


def _checked_rows(path: Path, reader, width: int, start: int = 0,
                  stop: int = -1) -> Iterator[list[str]]:
    """The rows of csv ``reader`` over the text of bytes [start, stop) of
    ``path``. A row without ``width`` fields, text that is not UTF-8 and
    text the csv module cannot split raise DataError naming the file's
    line."""

    def line() -> int:
        return _lines_before(path, start) + reader.line_num

    try:
        for row in reader:
            if len(row) != width:
                raise DataError(f"{path.name} line {line()}: {len(row)} fields, header has {width}")
            yield row
    except UnicodeDecodeError:
        raise _not_utf8(path, start, stop) from None
    except csv.Error as exc:
        raise _unreadable(path, line(), exc) from None


@contextmanager
def _open_csv(path: PathLike) -> Iterator[tuple[list[str], Iterator[list[str]]]]:
    """Yield the header and a lazy row iterator that rejects a wrong field
    count, text that is not UTF-8 and text the csv module cannot split."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing input file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except UnicodeDecodeError:
            raise _not_utf8(path) from None
        except csv.Error as exc:
            raise _unreadable(path, reader.line_num, exc) from None
        if not header:  # none, or a blank first line
            raise DataError(f"empty file: {path}")
        yield header, _checked_rows(path, reader, len(header))


@contextmanager
def _cells(name: str):
    """Map a failed cell conversion inside the block to DataError."""
    try:
        yield
    except (ValueError, OverflowError) as exc:  # an int past int64 overflows
        raise DataError(f"bad cell in {name}: {exc}") from None


def read_columns(
    path: PathLike, kinds: Callable[[list[str]], Iterable[type]]
) -> tuple[list[str], list]:
    """The header of CSV ``path`` and its cells column by column, typed by
    ``kinds(header)``, which refuses a bad header (DataError): a float
    column as one float64 array, any other as a list. The rows are
    converted ROWS_PER_BLOCK at a time, so no more than one block is held
    as text. A cell its type does not parse and NaN or an infinity in a
    float column raise DataError, as do the rows _checked_rows refuses."""
    path = Path(path)
    with _open_csv(path) as (header, rows):
        types = list(kinds(header))
        parts = [[] for _ in types]
        for block in iter(lambda: list(islice(rows, ROWS_PER_BLOCK)), []):
            for part, column, kind, cells in zip(parts, header, types, zip(*block)):
                with _cells(path.name):
                    part.append(np.array(cells, dtype=np.float64) if kind is float
                                else list(map(kind, cells)))
                if kind is float and not np.isfinite(part[-1]).all():
                    raise DataError(f"non-finite {column} cell in {path.name}")
    return header, [
        list(chain.from_iterable(part)) if kind is not float
        else np.concatenate(part) if part else np.empty(0)
        for kind, part in zip(types, parts)
    ]


def read_csv(path: PathLike) -> tuple[list[str], np.ndarray]:
    """A CSV of finite float cells: its header, and its rows as one 2-D
    float64 array (see read_columns)."""
    header, columns = read_columns(path, lambda header: [float] * len(header))
    return header, np.column_stack(columns)


def _schema_types(name: str, header: list[str]) -> Iterable[type]:
    """The cell types of SCHEMAS' file ``name``, whose header must be its columns."""
    schema = SCHEMAS[name]
    if header != list(schema):
        raise DataError(f"bad {name} header: {header}")
    return schema.values()


def read_table(path: PathLike) -> list[tuple]:
    """A fixed-header CSV, chosen in SCHEMAS by its file name, as one tuple
    of typed cells per row. A wrong header, a cell its column's type does
    not parse, and NaN or an infinity in a float column raise DataError."""
    path = Path(path)
    _, columns = read_columns(path, partial(_schema_types, path.name))
    return list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))


# -- raw samples + run metadata (core schemas) --------------------------------


def _csv_line(cells: Sequence[str]) -> str:
    """One CSV record, quoted as csv.writer quotes it, without the line end."""
    buf = io.StringIO()
    csv.writer(buf).writerow(cells)
    return buf.getvalue()[: -len("\r\n")]


# ~0.2 MB of text per chunk, whatever the number of runs: the writer
# holds about one chunk at a time, and each worker one more
RUNS_PER_CHUNK = 20


def _render_runs(runs: Sequence[RunRecord]) -> str:
    """The runs.csv rows of ``runs``, rendered column by column: per run,
    the quoted run_id prefix once, then repr() of every value, NaN as an
    empty cell."""
    lines = []
    for run in runs:
        if (names := sorted(run.extra_channels)) != sorted(CHANNELS):
            raise ValueError(f"run {run.run_id}: channels {names}, not {list(CHANNELS)}")
        columns = [run.t, *run.readings.T, *(run.extra_channels[name] for name in CHANNELS)]
        # v != v only for NaN
        cells = [["" if v != v else repr(v) for v in column.tolist()] for column in columns]
        prefix = repeat(_csv_line([run.run_id]), run.t.size)
        lines += map(",".join, zip(prefix, *cells, strict=True))
    return "\r\n".join(lines) + "\r\n"


def runs_csv_header(n_sensors: int) -> list[str]:
    """``runs.csv``'s columns: ``p{j+1}_mbar`` holds the readings of the
    j-th of ``n_sensors`` configured sensors, then come the CHANNELS."""
    return ["run_id", "t_s", *(f"p{j + 1}_mbar" for j in range(n_sensors)), *CHANNELS]


def write_runs_csv(path: PathLike, runs: Iterable[RunRecord]) -> None:
    """``runs_csv_header``, then one row per sample.

    ``runs`` is pulled as the writing goes, in chunks of RUNS_PER_CHUNK
    runs that are rendered on every CPU (see workers) and written in run
    order as they arrive, so no more than a few chunks are held at a
    time. The bytes are the ones csv.writer would write cell by cell,
    except that NaN is an empty cell. A run whose channels are not the
    CHANNELS (naming the run), or whose readings or a channel has other
    than one row per sample, raises ValueError, leaving no file.
    """
    runs = iter(runs)
    first = next(runs, None)
    if first is None:
        raise DataError("no runs to write")
    runs = chain([first], runs)
    chunks = iter(lambda: list(islice(runs, RUNS_PER_CHUNK)), [])
    with atomic_open(path) as fh:
        fh.write(_csv_line(runs_csv_header(first.readings.shape[1])) + "\r\n")
        fh.writelines(map_in_order(_render_runs, chunks))


def write_dataset(out_dir: PathLike, runs: Iterable[RunRecord]) -> None:
    """``runs.csv``, then ``run_meta.csv`` and ``ground_truth.csv``, from
    one pass over ``runs``: only the columns of the last two are kept."""
    out = Path(out_dir)
    meta_fields = attrgetter(*SCHEMAS[RUN_META_CSV])
    meta = [[] for _ in SCHEMAS[RUN_META_CSV]]
    truth = [[] for _ in SCHEMAS[GROUND_TRUTH_CSV]]

    def kept(runs: Iterable[RunRecord]) -> Iterator[RunRecord]:
        for run in runs:
            for columns, cells in ((meta, meta_fields(run)),
                                   (truth, (run.run_id, float(run.true_c), float(run.true_p_ss)))):
                for column, cell in zip(columns, cells):
                    column.append(cell)
            yield run

    write_runs_csv(out / RUNS_CSV, kept(runs))
    write_columns(out / RUN_META_CSV, SCHEMAS[RUN_META_CSV], meta)
    write_columns(out / GROUND_TRUTH_CSV, SCHEMAS[GROUND_TRUTH_CSV], truth)


def read_run_meta(in_dir: PathLike) -> list[RunMeta]:
    """``run_meta.csv``'s runs in file order; a run_id listed twice
    raises DataError."""
    meta = [RunMeta(*row) for row in read_table(Path(in_dir) / RUN_META_CSV)]
    seen: set[str] = set()
    for run in meta:
        if run.run_id in seen:
            raise DataError(f"run {run.run_id} listed twice in {RUN_META_CSV}")
        seen.add(run.run_id)
    return meta


# About 1 MiB of runs.csv text per chunk that read_dataset parses: ~110
# runs at the default config, whatever the number of runs
RUNS_CSV_CHUNK_BYTES = 1 << 20


def _next_block_start(fh, pos: int, size: int) -> int:
    """The offset of the first line after the one holding byte ``pos`` of
    binary file ``fh`` whose first field differs from its previous line's,
    or ``size`` (the file's) if none does."""
    fh.seek(min(pos, size))
    fh.readline()  # the rest of the line that holds pos
    key = None
    while True:
        at = fh.tell()
        line = fh.readline()
        first = line.split(b",", 1)[0]
        if not line or (key is not None and first != key):
            return at
        key = first


def _runs_csv_spans(path: Path) -> list[tuple[int, int]]:
    """Byte ranges that cut runs.csv's lines after its header into chunks
    of about RUNS_CSV_CHUNK_BYTES, each ending where a block does."""
    spans = []
    with open(path, "rb") as fh:
        start = len(fh.readline())
        size = fh.seek(0, os.SEEK_END)
        while start < size:
            stop = _next_block_start(fh, start + RUNS_CSV_CHUNK_BYTES, size)
            spans.append((start, stop))
            start = stop
    return spans


def _lines_before(path: Path, offset: int) -> int:
    """The number of lines, as the csv module counts them, before byte ``offset``."""
    with open(path, "rb") as fh:
        data = fh.read(offset)
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="replace",
                          newline="") as text:
        return sum(1 for _ in text)


def _read_runs(
    path: Path, header: list[str], n_sensors: int, summarize: Callable[[RunChunk], R],
    span: tuple[int, int],
) -> tuple[tuple[str, ...], R]:
    """The run id of each block in byte range ``span`` of runs.csv, and
    ``summarize`` of the block's runs as one RunChunk."""
    start, stop = span
    with open(path, "rb") as fh:
        fh.seek(start)
        data = fh.read(stop - start)
    run_ids, blocks = [], []
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="") as text:
        rows = _checked_rows(path, csv.reader(text), len(header), start, stop)
        for rid, block in groupby(rows, key=itemgetter(0)):
            run_ids.append(rid)
            # an empty cell reads as NaN, which only a sensor column may hold
            with _cells(f"{RUNS_CSV}, run {rid}"):
                blocks.append(np.array([c or "nan" for row in block for c in row[1:]],
                                       dtype=np.float64).reshape(-1, len(header) - 1))
    starts = np.cumsum([0] + [len(block) for block in blocks[:-1]])
    values = np.concatenate(blocks)
    chunk = RunChunk(
        run_ids=tuple(run_ids),
        starts=starts,
        t=values[:, 0],
        readings=values[:, 1 : 1 + n_sensors],
        channels=dict(zip(CHANNELS, values[:, 1 + n_sensors :].T)),
    )
    return chunk.run_ids, summarize(chunk)


def read_dataset(
    in_dir: PathLike, n_sensors: int, summarize: Callable[[RunChunk], R]
) -> tuple[list[RunMeta], list[R]]:
    """``run_meta.csv``'s runs, and ``summarize`` of each chunk of
    ``runs.csv``'s runs, in file order.

    The header must be ``runs_csv_header``'s for ``n_sensors``. The
    lines after it are cut into byte ranges of about
    RUNS_CSV_CHUNK_BYTES that end between blocks, and each range is
    parsed into a RunChunk and summarized on every CPU (see workers), so
    this process holds neither the file's text nor its samples, only the
    summaries. The n-th block of ``runs.csv`` must be the n-th run of
    ``run_meta.csv``, which gives each run its identity and order.
    """
    in_dir = Path(in_dir)
    meta = read_run_meta(in_dir)
    path = in_dir / RUNS_CSV
    with _open_csv(path) as (header, _):
        pass
    expected = runs_csv_header(n_sensors)
    if header != expected:
        raise DataError(f"bad {RUNS_CSV} header {header}: {n_sensors} configured sensors "
                        f"need {expected}; rerun simulate")
    summaries = []

    def block_ids(chunks):
        for run_ids, summary in chunks:
            summaries.append(summary)
            yield from run_ids

    read = partial(_read_runs, path, header, n_sensors, summarize)
    with closing(map_in_order(read, _runs_csv_spans(path))) as chunks:
        pairs = zip_longest((run.run_id for run in meta), block_ids(chunks))
        for n, (want, rid) in enumerate(pairs, 1):
            if rid != want:
                expected, found = ("the end" if r is None else f"run {r}" for r in (want, rid))
                raise DataError(f"{RUNS_CSV} block {n} does not follow {RUN_META_CSV}: "
                                f"expected {expected}, found {found}")
    return meta, summaries


def write_run_aggregates_csv(
    path: PathLike, runs: Sequence[RunMeta], aggregates: Mapping[str, np.ndarray]
) -> None:
    """SCHEMAS' ``run_aggregates.csv`` columns: one row per run, each
    aggregate its column of ``aggregates`` (``features.aggregate_runs``)."""
    names = list(SCHEMAS[RUN_AGGREGATES_CSV])
    write_columns(path, names, [[run.run_id for run in runs], *(aggregates[n] for n in names[1:])])


def read_run_aggregates(in_dir: PathLike, runs: Sequence[RunMeta]) -> dict[str, np.ndarray]:
    """``run_aggregates.csv``'s columns, name -> one float64 per run.

    The file must have SCHEMAS' header and list exactly ``runs``
    (``run_meta.csv``'s), in the same order.
    """
    header, (run_ids, *values) = read_columns(Path(in_dir) / RUN_AGGREGATES_CSV,
                                              partial(_schema_types, RUN_AGGREGATES_CSV))
    if run_ids != [run.run_id for run in runs]:
        raise DataError(
            f"{RUN_AGGREGATES_CSV} does not list the runs of {RUN_META_CSV} in the same order; "
            "rerun derive-hi"
        )
    return dict(zip(header[1:], values))


# -- HI artifacts --------------------------------------------------------------


def write_fits_csv(path: PathLike, fits: Sequence[DegradationFit]) -> None:
    # the segment's index, then DegradationFit's fields of the other columns' names
    columns = [[f.segment.index for f in fits]]
    columns += ([getattr(f, name) for f in fits] for name in list(SCHEMAS[FITS_CSV])[1:])
    write_columns(path, SCHEMAS[FITS_CSV], columns)


_hi_run_fields = attrgetter(*HI_RUN_FIELDS)


def write_hi_csv(path: PathLike, runs: Sequence[RunMeta], series: HiSeries) -> None:
    """The HI_RUN_FIELDS and the HI of each run of ``runs`` that has one in
    ``series``, derive_hi's of the same runs."""
    picked = map(_hi_run_fields, (runs[i] for i in series.entries.tolist()))
    write_columns(path, SCHEMAS[HI_CSV], [*zip(*picked), series.hi])


def read_hi_csv(path: PathLike, runs: Sequence[RunMeta]) -> np.ndarray:
    """``hi.csv``'s HI in seconds of each run of ``runs`` (``run_meta.csv``'s),
    in run order, NaN for a run it does not list. Its rows must be ``runs``
    in order, less those without an HI, each equal to its run on the
    HI_RUN_FIELDS (DataError)."""
    later = enumerate(map(_hi_run_fields, runs))
    hi = np.full(len(runs), np.nan)
    for *fields, hi_s in read_table(path):
        # consumes ``later`` up to the row's run, so no row can go back
        i = next((i for i, key in later if key == tuple(fields)), None)
        if i is None:
            raise DataError(f"{HI_CSV} row of run {fields[0]} does not follow {RUN_META_CSV}; "
                            "rerun derive-hi")
        hi[i] = hi_s
    return hi


# -- supervised set -------------------------------------------------------------


def write_supervised(
    out_dir: PathLike, train: SupervisedSet, test: SupervisedSet
) -> None:
    """features.csv (stable names + target) and meta.csv with a split column."""
    if train.feature_names != test.feature_names:
        raise DataError("train/test feature names differ")
    out = Path(out_dir)
    write_columns(out / FEATURES_CSV, [*train.feature_names, "target"],
                  *([*part.X.T, part.y] for part in (train, test)))

    def meta_columns(split: str, part: SupervisedSet) -> list:
        columns = {name: getattr(part.meta, name) for name in _ROW_META_TYPES}
        # a row at a time: the whole array at once as Python strings is ~3x its size
        columns["plan"] = ["|".join(plan.tolist()) for plan in part.meta.plan]
        return [*columns.values(), [split] * part.n_rows]

    write_columns(out / META_CSV, SCHEMAS[META_CSV],
                  meta_columns("train", train), meta_columns("test", test))


def _plan_column(cells: list[str]) -> np.ndarray:
    """meta.csv's plan cells as a rows x horizon array of recipe ids, split
    at "|" ROWS_PER_BLOCK cells at a time. A cell with an empty recipe, or
    with other than as many recipes as the first, raises DataError naming
    its line."""
    width = cells[0].count("|") + 1 if cells else 0
    blocks = []
    for start in range(0, len(cells), ROWS_PER_BLOCK):
        plans = [cell.split("|") for cell in cells[start : start + ROWS_PER_BLOCK]]
        for line, plan in enumerate(plans, start + 2):
            if "" in plan:
                raise DataError(f"{META_CSV} line {line}: empty recipe in plan cell "
                                f"{'|'.join(plan)!r}")
            if len(plan) != width:
                raise DataError(f"{META_CSV} line {line}: plan cell holds {len(plan)} recipes, "
                                f"line 2's holds {width}")
        blocks.append(np.array(plans, dtype=str))
    return np.concatenate(blocks) if blocks else np.empty((0, width), dtype=str)


def _read_meta(path: Path) -> tuple[RowMeta, list[str]]:
    """``meta.csv``'s RowMeta columns, and its split column; a negative counter is a DataError."""
    _, columns = read_columns(path, partial(_schema_types, META_CSV))
    *columns, splits = columns
    plan = list(_ROW_META_TYPES).index("plan")
    columns[plan] = _plan_column(columns[plan])
    with _cells(META_CSV):
        meta = RowMeta(*(np.asarray(column, dtype=kind)
                         for column, kind in zip(columns, _ROW_META_TYPES.values())))
    for name in ("n_runs", "n_runs_target"):  # maintenance counters, as RunMeta's
        counters = getattr(meta, name)
        if (bad := np.flatnonzero(counters < 0)).size:
            raise DataError(f"{META_CSV} line {bad[0] + 2}: {name} must be >= 0, "
                            f"got {counters[bad[0]]}")
    return meta, splits


def read_supervised(in_dir: PathLike) -> tuple[SupervisedSet, SupervisedSet]:
    in_dir = Path(in_dir)
    f_header, values = read_csv(in_dir / FEATURES_CSV)
    if len(f_header) < 2 or f_header[-1] != "target":
        raise DataError(f"bad {FEATURES_CSV} header: expected feature columns, then 'target'")
    names = tuple(f_header[:-1])
    meta, splits = _read_meta(in_dir / META_CSV)
    if len(splits) != len(values):
        raise DataError(f"{FEATURES_CSV} and {META_CSV} row counts differ")
    n_train = splits.count("train")
    if splits != ["train"] * n_train + ["test"] * (len(splits) - n_train):
        raise DataError(f"{META_CSV}'s split column is not every train row, then every test row")

    def assemble(split: str, rows: slice) -> SupervisedSet:
        if not values[rows].size:
            raise DataError(f"{META_CSV} has no {split} rows")
        return SupervisedSet(
            X=values[rows, :-1].copy(), y=values[rows, -1].copy(), feature_names=names,
            meta=meta.take(rows),
        )

    return assemble("train", slice(n_train)), assemble("test", slice(n_train, None))


# -- evaluation artifacts --------------------------------------------------------


def write_predictions_csv(
    path: PathLike, test: SupervisedSet, predictions: dict[str, np.ndarray]
) -> None:
    write_columns(path, SCHEMAS[PREDICTIONS_CSV], *(
        [test.meta.run_id_target, test.y, [kind] * test.n_rows, predictions[kind]]
        for kind in sorted(predictions)))


def write_plot_hi_csv(
    path: PathLike,
    test: SupervisedSet,
    best_kind: str,
    predictions: dict[str, np.ndarray],
) -> None:
    """Plot-ready dump: target vs best-model and benchmark predictions."""
    write_columns(path, SCHEMAS[PLOT_HI_CSV], [
        test.meta.start_time, test.meta.n_runs_target, test.y,
        *(predictions[kind] for kind in (best_kind, "bm1", "bm2", "bm3"))])
