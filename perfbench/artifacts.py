"""Correctness checks on a working directory's artifacts.

Each check reads files the pipeline wrote and raises on anything wrong;
``run_checks`` turns every raised exception into a failed operation, so
a corrupt artifact raises the error rate instead of stopping the
benchmark.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from catalog import MODEL_KINDS
from chamberhealth.simgen import true_segment_duration

HI_SEGMENT = 2
OTHER_R2_MAX = 0.45


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _rows(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        _require(next(reader, None) == header, f"{path.name}: bad header")
        rows = list(reader)
    for row in rows:
        _require(len(row) == len(header), f"{path.name}: row with {len(row)} of {len(header)} fields")
    return rows


def sha256(path: Path) -> str | None:
    if not path.is_file():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_report(workdir: Path, cfg) -> dict:
    """report.json parses, with five finite model MAEs plus the lstm placeholder."""
    doc = json.loads((workdir / "report.json").read_text(encoding="utf-8"))
    maes = {row["model"]: row["mae"] for row in doc["results"]}
    _require(len(doc["results"]) == len(MODEL_KINDS) + 1 and set(maes) == {*MODEL_KINDS, "lstm"},
             f"report.json models are {sorted(maes)}")
    _require(maes["lstm"] is None, "lstm placeholder has an MAE")
    for kind in MODEL_KINDS:
        _require(isinstance(maes[kind], float) and math.isfinite(maes[kind]),
                 f"{kind} MAE is {maes[kind]!r}")
    return {"mae_best_s": min(maes[k] for k in MODEL_KINDS)}


def check_bm1_identity(workdir: Path, cfg) -> dict:
    doc = json.loads((workdir / "report.json").read_text(encoding="utf-8"))
    _require(doc["bm1_identity"] == doc["benchmarks"]["bm1"],
             f"bm1_identity {doc['bm1_identity']!r} != bm1 {doc['benchmarks']['bm1']!r}")
    return {}


def _fits(workdir: Path) -> tuple[dict, int]:
    """R^2 per segment index and the selected segment, by derive-hi's rule."""
    rows = _rows(workdir / "fits.csv", ["segment", "k", "d", "t_bar", "alpha", "r2", "n_points"])
    _require(bool(rows), "fits.csv has no rows")
    r2 = {int(row[0]): float(row[5]) for row in rows}
    best = min(rows, key=lambda row: (-float(row[5]), -float(row[4]), int(row[0])))
    return r2, int(best[0])


def check_fits(workdir: Path, cfg) -> dict:
    """derive-hi selects dp2 and no other interval comes near its fit.

    R^2(dp2) itself is recorded, not gated: on the default five-asset,
    three-recipe history it spans 0.47 to 0.86 across seeds 0 to 19,
    because the fit uses only the 200-odd runs of one asset and recipe.
    """
    r2, selected = _fits(workdir)
    _require(selected == HI_SEGMENT, f"selected dp{selected}, expected dp{HI_SEGMENT}")
    others = max((v for i, v in r2.items() if i != HI_SEGMENT), default=0.0)
    _require(others < OTHER_R2_MAX, f"another interval reaches R^2 {others:.3f}")
    return {"r2_dp2": r2[HI_SEGMENT]}


def _run_ids_in_runs_csv(path: Path) -> list[str]:
    ids: list[str] = []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            rid = line.split(",", 1)[0]
            if not ids or ids[-1] != rid:
                ids.append(rid)
    return ids


def check_run_counts(workdir: Path, cfg) -> dict:
    """run_meta.csv, runs.csv and hi.csv list the same runs, once each."""
    meta = [row[0] for row in _rows(workdir / "run_meta.csv",
                                    ["run_id", "asset_id", "start_time", "recipe_id", "n_runs"])]
    _require(len(meta) == cfg.n_runs_total, f"run_meta.csv has {len(meta)} of {cfg.n_runs_total} runs")
    _require(len(set(meta)) == len(meta), "run_meta.csv repeats a run")
    runs = _run_ids_in_runs_csv(workdir / "runs.csv")
    _require(runs == meta, f"runs.csv has {len(runs)} run blocks, run_meta.csv {len(meta)} runs")
    hi = [row[0] for row in _rows(workdir / "hi.csv", ["run_id", "asset_id", "start_time", "n_runs", "hi_s"])]
    _require(hi == meta, f"hi.csv has {len(hi)} runs, run_meta.csv {len(meta)}")
    return {}


def check_hi_truth(workdir: Path, cfg) -> dict:
    """Mean |hi.csv - noiseless duration of the selected interval|."""
    _, selected = _fits(workdir)
    segment = next(s for s in cfg.segments if s.index == selected)
    p_ss = {row[0]: float(row[2]) for row in _rows(workdir / "ground_truth.csv", ["run_id", "c", "p_ss"])}
    hi = _rows(workdir / "hi.csv", ["run_id", "asset_id", "start_time", "n_runs", "hi_s"])
    _require(bool(hi), "hi.csv has no rows")
    err = [abs(float(row[4]) - true_segment_duration(segment, cfg.chamber, p_ss[row[0]])) for row in hi]
    value = math.fsum(err) / len(err)
    _require(math.isfinite(value), "HI error is not finite")
    return {"hi_truth_mae_s": value}


CHECKS = {
    "report": check_report,
    "bm1_identity": check_bm1_identity,
    "fits_dp2": check_fits,
    "run_counts": check_run_counts,
    "hi_truth": check_hi_truth,
}


def run_checks(workdir: Path, cfg, names) -> tuple[dict[str, str], dict[str, float]]:
    """Failures (check name -> reason) and the values the checks measured."""
    failures: dict[str, str] = {}
    values: dict[str, float] = {}
    for name in names:
        try:
            values.update(CHECKS[name](Path(workdir), cfg))
        except Exception as exc:  # any malformed artifact is a failed check, never a crash
            failures[name] = f"{type(exc).__name__}: {exc}"
    return failures, values
