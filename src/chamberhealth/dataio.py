"""CSV artifact schemas and atomic file writing.

All files are UTF-8, comma-delimited, '.' decimal separator, with a
mandatory header row. Floats are rendered with repr() so that every
write/read cycle round-trips bit-exactly; an empty field in a sensor
column means the reading was invalid. Files are written to a temp path
and renamed into place, so a failing stage never leaves a partial file.
"""

from __future__ import annotations

import csv
import math
import os
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from .core import RunRecord
from .errors import DataError
from .features import RowMeta, SupervisedSet
from .hi import DegradationFit, HiEntry, HiSeries
from .simgen import PlanEntry, SimDataset

PathLike = Union[str, Path]

RUNS_CSV = "runs.csv"
RUN_META_CSV = "run_meta.csv"
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


def fmt(value) -> str:
    """Canonical cell text: shortest round-trip form for floats."""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return repr(value)
    return str(value)


def atomic_write_text(path: PathLike, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_csv(path: PathLike, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])
    os.replace(tmp, path)


def read_csv(path: PathLike) -> tuple[list[str], list[list[str]]]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing input file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"empty file: {path}") from None
        return header, [row for row in reader]


# -- raw samples + run metadata (core schemas) --------------------------------


def write_runs_csv(path: PathLike, runs: Sequence[RunRecord]) -> None:
    """`run_id,asset_id,t_s,p1_mbar..pN_mbar[,channel...]`, one row per sample."""
    if not runs:
        raise DataError("no runs to write")
    n_sensors = len(runs[0].sensor_ids)
    channels = sorted(runs[0].extra_channels)
    header = (
        ["run_id", "asset_id", "t_s"]
        + [f"p{j + 1}_mbar" for j in range(n_sensors)]
        + channels
    )

    def rows():
        for run in runs:
            extras = [run.extra_channels[name] for name in channels]
            for i in range(run.n_samples):
                row = [run.run_id, run.asset_id, float(run.t[i])]
                row.extend(float(v) for v in run.readings[i])
                row.extend(float(col[i]) for col in extras)
                yield row

    write_csv(path, header, rows())


def write_run_meta_csv(path: PathLike, runs: Sequence[RunRecord]) -> None:
    write_csv(
        path,
        ["run_id", "asset_id", "start_time", "recipe_id", "n_runs"],
        (
            [r.run_id, r.asset_id, float(r.start_time), r.recipe_id, r.n_runs]
            for r in runs
        ),
    )


def write_ground_truth_csv(path: PathLike, runs: Sequence[RunRecord]) -> None:
    write_csv(
        path,
        ["run_id", "c", "p_ss"],
        ([r.run_id, float(r.true_c), float(r.true_p_ss)] for r in runs),
    )


def write_plan_csv(path: PathLike, plan: Sequence[PlanEntry]) -> None:
    write_csv(
        path,
        ["asset_id", "position", "recipe_id"],
        ([p.asset_id, p.position, p.recipe_id] for p in plan),
    )


def write_dataset(out_dir: PathLike, dataset: SimDataset) -> None:
    out = Path(out_dir)
    write_runs_csv(out / RUNS_CSV, dataset.runs)
    write_run_meta_csv(out / RUN_META_CSV, dataset.runs)
    write_ground_truth_csv(out / GROUND_TRUTH_CSV, dataset.runs)
    write_plan_csv(out / PLAN_CSV, dataset.plan)


def _parse_float_cell(cell: str) -> float:
    return math.nan if cell == "" else float(cell)


def read_dataset(
    in_dir: PathLike, sensor_ids: Sequence[str]
) -> tuple[list[RunRecord], dict[str, list[str]]]:
    """Load runs + plan back from the three dataset CSVs.

    Sensor columns p1..pN are assigned to ``sensor_ids`` in order.
    Ground truth is not re-attached; it only exists on freshly
    generated in-memory runs.
    """
    in_dir = Path(in_dir)
    meta_header, meta_rows = read_csv(in_dir / RUN_META_CSV)
    expected = ["run_id", "asset_id", "start_time", "recipe_id", "n_runs"]
    if meta_header != expected:
        raise DataError(f"bad {RUN_META_CSV} header: {meta_header}")
    meta = {
        row[0]: {"asset_id": row[1], "start_time": float(row[2]), "recipe_id": row[3], "n_runs": int(row[4])}
        for row in meta_rows
    }

    header, rows = read_csv(in_dir / RUNS_CSV)
    if header[:3] != ["run_id", "asset_id", "t_s"]:
        raise DataError(f"bad {RUNS_CSV} header: {header}")
    sensor_cols = [h for h in header if h.startswith("p") and h.endswith("_mbar")]
    if len(sensor_cols) != len(sensor_ids):
        raise DataError(
            f"{RUNS_CSV} has {len(sensor_cols)} sensor columns, config defines {len(sensor_ids)}"
        )
    channel_names = header[3 + len(sensor_cols):]

    grouped: dict[str, list[list[str]]] = {}
    order: list[str] = []
    for row in rows:
        rid = row[0]
        if rid not in grouped:
            grouped[rid] = []
            order.append(rid)
        grouped[rid].append(row)

    runs = []
    for rid in order:
        if rid not in meta:
            raise DataError(f"run {rid} present in {RUNS_CSV} but missing from {RUN_META_CSV}")
        block = grouped[rid]
        t = np.array([float(r[2]) for r in block])
        readings = np.array(
            [[_parse_float_cell(c) for c in r[3 : 3 + len(sensor_ids)]] for r in block]
        )
        extra = {
            name: np.array([float(r[3 + len(sensor_ids) + j]) for r in block])
            for j, name in enumerate(channel_names)
        }
        m = meta[rid]
        runs.append(
            RunRecord(
                run_id=rid,
                asset_id=m["asset_id"],
                start_time=m["start_time"],
                recipe_id=m["recipe_id"],
                n_runs=m["n_runs"],
                t=t,
                readings=readings,
                sensor_ids=tuple(sensor_ids),
                extra_channels=extra,
            )
        )

    missing = [rid for rid in meta if rid not in grouped]
    if missing:
        raise DataError(
            f"{len(missing)} run(s) listed in {RUN_META_CSV} but missing from {RUNS_CSV}, "
            f"first {missing[0]}"
        )

    plan_header, plan_rows = read_csv(in_dir / PLAN_CSV)
    if plan_header != ["asset_id", "position", "recipe_id"]:
        raise DataError(f"bad {PLAN_CSV} header: {plan_header}")
    plan: dict[str, list[tuple[int, str]]] = {}
    for row in plan_rows:
        plan.setdefault(row[0], []).append((int(row[1]), row[2]))
    plan_ids = {
        asset: [rid for _, rid in sorted(entries)] for asset, entries in plan.items()
    }
    return runs, plan_ids


# -- HI artifacts --------------------------------------------------------------


def write_fits_csv(path: PathLike, fits: Sequence[DegradationFit]) -> None:
    write_csv(
        path,
        ["segment", "k", "d", "t_bar", "alpha", "r2", "n_points"],
        (
            [f.segment.index, f.k, f.d, f.t_bar, f.alpha, f.r2, f.n_points]
            for f in fits
        ),
    )


def write_hi_csv(path: PathLike, series: HiSeries) -> None:
    write_csv(
        path,
        ["run_id", "asset_id", "start_time", "n_runs", "hi_s"],
        (
            [e.run_id, e.asset_id, float(e.start_time), e.n_runs, float(e.hi)]
            for e in series.entries
        ),
    )


def read_hi_csv(path: PathLike) -> dict[str, float]:
    header, rows = read_csv(path)
    if header != ["run_id", "asset_id", "start_time", "n_runs", "hi_s"]:
        raise DataError(f"bad {HI_CSV} header: {header}")
    return {row[0]: float(row[4]) for row in rows}


def read_hi_entries(path: PathLike) -> list[HiEntry]:
    header, rows = read_csv(path)
    if header != ["run_id", "asset_id", "start_time", "n_runs", "hi_s"]:
        raise DataError(f"bad {HI_CSV} header: {header}")
    return [
        HiEntry(row[0], row[1], float(row[2]), int(row[3]), float(row[4])) for row in rows
    ]


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
            for i in range(part.n_rows):
                yield [float(v) for v in part.X[i]] + [float(part.y[i])]

    write_csv(out / FEATURES_CSV, list(train.feature_names) + ["target"], feature_rows())

    def meta_rows():
        for split, part in (("train", train), ("test", test)):
            for m in part.meta:
                yield [
                    m.asset_id,
                    m.run_id,
                    m.run_id_target,
                    float(m.start_time),
                    m.n_runs,
                    m.n_runs_target,
                    float(m.hi_current),
                    m.recipe_id,
                    "|".join(m.plan),
                    split,
                ]

    write_csv(
        out / META_CSV,
        [
            "asset_id",
            "run_id",
            "run_id_target",
            "start_time",
            "n_runs",
            "n_runs_target",
            "hi_current",
            "recipe_id",
            "plan",
            "split",
        ],
        meta_rows(),
    )


def read_supervised(in_dir: PathLike) -> tuple[SupervisedSet, SupervisedSet]:
    in_dir = Path(in_dir)
    f_header, f_rows = read_csv(in_dir / FEATURES_CSV)
    if not f_header or f_header[-1] != "target":
        raise DataError(f"bad {FEATURES_CSV} header: expected trailing 'target' column")
    names = tuple(f_header[:-1])
    m_header, m_rows = read_csv(in_dir / META_CSV)
    if len(m_rows) != len(f_rows):
        raise DataError(f"{FEATURES_CSV} and {META_CSV} row counts differ")

    vocab = tuple(n[len("recipe_") :] for n in names if n.startswith("recipe_"))
    parts: dict[str, list[tuple[np.ndarray, float, RowMeta]]] = {"train": [], "test": []}
    for f_row, m_row in zip(f_rows, m_rows):
        values = np.array([float(c) for c in f_row[:-1]])
        target = float(f_row[-1])
        split = m_row[9]
        if split not in parts:
            raise DataError(f"bad split value {split!r} in {META_CSV}")
        meta = RowMeta(
            asset_id=m_row[0],
            run_id=m_row[1],
            run_id_target=m_row[2],
            start_time=float(m_row[3]),
            n_runs=int(m_row[4]),
            n_runs_target=int(m_row[5]),
            hi_current=float(m_row[6]),
            recipe_id=m_row[7],
            plan=tuple(m_row[8].split("|")) if m_row[8] else (),
        )
        parts[split].append((values, target, meta))

    def assemble(rows) -> SupervisedSet:
        if not rows:
            raise DataError("empty split in persisted supervised set")
        return SupervisedSet(
            X=np.stack([r[0] for r in rows]),
            y=np.array([r[1] for r in rows]),
            feature_names=names,
            meta=tuple(r[2] for r in rows),
            vocab=vocab or None,
        )

    return assemble(parts["train"]), assemble(parts["test"])


# -- evaluation artifacts --------------------------------------------------------


def write_predictions_csv(
    path: PathLike, test: SupervisedSet, predictions: dict[str, np.ndarray]
) -> None:
    def rows():
        for kind in sorted(predictions):
            pred = predictions[kind]
            for m, y, p in zip(test.meta, test.y, pred):
                yield [m.run_id_target, float(y), kind, float(p)]

    write_csv(path, ["run_id", "target", "model", "prediction"], rows())


def write_plot_hi_csv(
    path: PathLike,
    test: SupervisedSet,
    best_kind: str,
    predictions: dict[str, np.ndarray],
) -> None:
    """Plot-ready dump: target vs best-model and benchmark predictions."""
    best = predictions[best_kind]

    def rows():
        for i, m in enumerate(test.meta):
            yield [
                float(m.start_time),
                m.n_runs_target,
                float(test.y[i]),
                float(best[i]),
                float(predictions["bm1"][i]),
                float(predictions["bm2"][i]),
                float(predictions["bm3"][i]),
            ]

    write_csv(
        path,
        ["start_time", "n_runs", "target", "prediction_best", "bm1", "bm2", "bm3"],
        rows(),
    )
