"""Health-index derivation from pumpdown curves.

Pipeline: slice each run's composite pressure curve into configured
pressure intervals, measure the evacuation time through each interval,
regress those durations on the runs-since-maintenance counter, and
promote the interval whose fit explains the most variance to be the
health index. The HI of a run is then simply the measured duration of
the selected interval, in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import RunChunk, RunMeta, SegmentSpec
from .errors import DataError, DegenerateFit

# clean-machine baseline pools runs with n_runs in {0..9}
CLEAN_RUN_MAX_N = 9


@dataclass(frozen=True)
class DegradationFit:
    """Per-segment linear degradation fit: duration = k * n_runs + d."""

    segment: SegmentSpec
    k: float
    d: float
    r2: float
    t_bar: float
    alpha: float
    n_points: int


@dataclass(frozen=True)
class HiSeries:
    """The runs that completed the selected segment, as their positions in
    ``derive_hi``'s ``runs`` (``entries``), and their HIs in seconds (``hi``)."""

    entries: np.ndarray
    hi: np.ndarray
    selected_segment: SegmentSpec


def first_crossing_time(t: np.ndarray, pressure: np.ndarray, threshold: float) -> Optional[float]:
    """First time the curve reaches <= threshold, or None if it never does.

    Interpolates linearly in log(pressure) between the bracketing
    samples, which is exact for exponential decay. Later re-crossings
    caused by noise are ignored.
    """
    below = pressure <= threshold
    if not below.any():
        return None
    i = int(np.argmax(below))
    if i == 0:
        return float(t[0])
    # pressure[i-1] > threshold >= pressure[i], both > 0
    lo = math.log(pressure[i])
    hi = math.log(pressure[i - 1])
    frac = (hi - math.log(threshold)) / (hi - lo)
    return float(t[i - 1] + frac * (t[i] - t[i - 1]))


# No stage calls it or first_crossing_time: the tests' per-run reference, traced by perfbench.
def extract_segment_duration(
    t: np.ndarray, pressure: np.ndarray, segment: SegmentSpec
) -> Optional[float]:
    """Evacuation time through one pressure interval, or None if the
    curve never crosses one of the bounds (incomplete pumpdown)."""
    t_upper = first_crossing_time(t, pressure, segment.upper)
    t_lower = first_crossing_time(t, pressure, segment.lower)
    if t_upper is None or t_lower is None:
        return None
    return t_lower - t_upper


def fit_ols(n_runs: np.ndarray, durations: np.ndarray) -> tuple[float, float]:
    """Ordinary least squares with intercept: duration = k * n_runs + d.

    Computed from centered sums (the test suite checks it against an
    explicit normal-equations solve).
    """
    x = np.asarray(n_runs, dtype=np.float64)
    y = np.asarray(durations, dtype=np.float64)
    if x.size < 2 or y.size != x.size:
        raise DegenerateFit(f"need >= 2 paired points, got {x.size}")
    x_bar = x.mean()
    y_bar = y.mean()
    sxx = float(np.sum((x - x_bar) ** 2))
    if sxx == 0.0:
        raise DegenerateFit("all n_runs values are equal")
    k = float(np.sum((x - x_bar) * (y - y_bar)) / sxx)
    d = float(y_bar - k * x_bar)
    return k, d


def r_squared(n_runs: np.ndarray, durations: np.ndarray, k: float, d: float) -> float:
    """Coefficient of determination 1 - SSres/SStot about the mean."""
    x = np.asarray(n_runs, dtype=np.float64)
    y = np.asarray(durations, dtype=np.float64)
    if y.size < 2:
        raise DegenerateFit(f"need >= 2 points, got {y.size}")
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise DegenerateFit("constant durations: R^2 undefined")
    ss_res = float(np.sum((y - (k * x + d)) ** 2))
    return 1.0 - ss_res / ss_tot


def clean_baseline(n_runs: np.ndarray, durations: np.ndarray) -> float:
    """Mean duration over runs with n_runs <= 9, pooled across cycles."""
    x = np.asarray(n_runs)
    y = np.asarray(durations, dtype=np.float64)
    mask = x <= CLEAN_RUN_MAX_N
    if not mask.any():
        raise DegenerateFit("no runs with n_runs <= 9 in the analysis subset")
    return float(y[mask].mean())


def impact(k: float, t_bar: float, cycle_length: int = 100) -> float:
    """Relative duration growth over one cleaning cycle, in percent.

    impact(0.12, 21) = 57.1 %/cycle at the default 100-run cycle.
    """
    if t_bar <= 0:
        raise DegenerateFit(f"clean baseline must be > 0, got {t_bar}")
    return k * cycle_length / t_bar * 100.0


def first_crossings(chunk: RunChunk, pressure: np.ndarray, threshold: float) -> np.ndarray:
    """``first_crossing_time`` of every run of ``chunk`` on its stretch of
    ``pressure`` (the chunk's composite curve), NaN where a run never
    reaches ``threshold``.

    A run's crossing is its first sample at or below the threshold. The
    logs are taken with ``math.log`` on the two bracketing values, as the
    per-run function takes them, so every time has the same bits.
    """
    n = pressure.size
    first = np.minimum.reduceat(np.where(pressure <= threshold, np.arange(n), n), chunk.starts)
    out = np.full(first.size, np.nan)
    crossed = first < np.append(chunk.starts[1:], n)
    at_start = crossed & (first == chunk.starts)
    out[at_start] = chunk.t[first[at_start]]
    later = crossed & ~at_start
    i = first[later]
    lo = np.array([math.log(p) for p in pressure[i].tolist()])
    hi = np.array([math.log(p) for p in pressure[i - 1].tolist()])
    frac = (hi - math.log(threshold)) / (hi - lo)
    out[later] = chunk.t[i - 1] + frac * (chunk.t[i] - chunk.t[i - 1])
    return out


def run_segment_durations(
    chunk: RunChunk, pressure: np.ndarray, segments: Sequence[SegmentSpec]
) -> np.ndarray:
    """``extract_segment_duration`` of every run of ``chunk`` through every
    segment, given the chunk's composite curve: a (runs x segments) array
    whose column j belongs to ``segments[j]``, NaN where a run never
    finished that segment."""
    bounds = dict.fromkeys(bound for seg in segments for bound in (seg.upper, seg.lower))
    crossing = {bound: first_crossings(chunk, pressure, bound) for bound in bounds}
    return np.column_stack([crossing[seg.lower] - crossing[seg.upper] for seg in segments])


def select_analysis_subset(runs: Sequence[RunMeta], limit: int = 400) -> list[int]:
    """Indices of the derivation subset: the (asset, recipe) pair with the
    most runs, oldest first, capped at ``limit`` runs.

    Restricting to a single asset and recipe rules out recipe-dependent
    factors in the degradation fit; the HI itself is extracted for all
    runs afterwards.
    """
    groups: dict[tuple[str, str], list[int]] = {}
    for i, run in enumerate(runs):
        groups.setdefault((run.asset_id, run.recipe_id), []).append(i)
    key = min(groups, key=lambda g: (-len(groups[g]), g))
    chosen = sorted(groups[key], key=lambda i: (runs[i].start_time, runs[i].run_id))
    return chosen[:limit]


def derive_hi(
    runs: Sequence[RunMeta],
    durations: np.ndarray,
    segments: Sequence[SegmentSpec],
    cycle_length: int = 100,
    analysis_limit: int = 400,
) -> tuple[list[DegradationFit], HiSeries]:
    """Fit every segment on the analysis subset and select the HI segment.

    ``durations`` holds one row per run of ``runs``, in run order, and
    one column per segment (``run_segment_durations``), NaN where a run
    never finished the segment; ``runs`` must not be empty.
    ``cycle_length`` is the maintenance period in runs; it scales each
    fit's impact ``alpha``.

    Selection is argmax R^2, ties broken by larger impact, then lower
    segment index. Incomplete durations are excluded per segment;
    segments that end up degenerate or constant are skipped entirely.
    The returned HiSeries covers ALL runs where the winning segment
    completed, not just the analysis subset.
    """
    subset = select_analysis_subset(runs, analysis_limit)
    n_runs = np.array([runs[i].n_runs for i in subset], dtype=np.float64)

    fits: list[DegradationFit] = []
    for seg, y in zip(segments, durations[subset].T):
        done = ~np.isnan(y)
        if not done.any():
            continue
        x, y = n_runs[done], y[done]
        try:
            k, d = fit_ols(x, y)
            r2 = r_squared(x, y, k, d)
            t_bar = clean_baseline(x, y)
            alpha = impact(k, t_bar, cycle_length)
        except DegenerateFit:
            continue
        fits.append(
            DegradationFit(
                segment=seg, k=k, d=d, r2=r2, t_bar=t_bar, alpha=alpha, n_points=x.size
            )
        )

    if not fits:
        raise DataError("every segment was degenerate or constant on the analysis subset")

    best = min(fits, key=lambda f: (-f.r2, -f.alpha, f.segment.index))
    # the winning segment's column; equal specs measure equal columns
    hi = durations[:, list(segments).index(best.segment)]
    entries = np.flatnonzero(~np.isnan(hi))
    return fits, HiSeries(entries=entries, hi=hi[entries], selected_segment=best.segment)
