"""Domain types for pumpdown runs and multi-sensor pressure fusion.

A chamber is instrumented with four pressure gauges whose valid ranges
overlap to cover roughly 1e-6 to 1e3 mbar. ``composite_curve`` fuses
each sample's readings into a single value by picking the
highest-priority gauge that is both valid and inside its own range.
A gauge is its position: readings column j is the j-th configured sensor.
``RunChunk`` holds consecutive runs as columns, and ``composite_columns``
fuses all of their samples at once by the same rule.

All types are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError


@dataclass(frozen=True)
class SensorSpec:
    """One pressure gauge: identity, usable range in mbar, priority rank
    and reading noise.

    Lower ``priority`` wins when several gauges cover the same pressure
    (rank 1 is consulted first). Range bounds are inclusive.
    ``noise_sigma`` is the sigma of the generator's multiplicative
    log-normal noise on this gauge's readings; 0 reads the true pressure.
    """

    sensor_id: str
    valid_range: tuple[float, float]
    priority: int
    noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        lo, hi = self.valid_range
        if not (0.0 < lo < hi):
            raise ConfigError(
                f"sensor {self.sensor_id}: valid_range must satisfy 0 < min < max, got {self.valid_range}"
            )


def check_sensor_priorities(sensors: Sequence[SensorSpec]) -> None:
    """Sensor ids and priorities must each be unique within one chamber
    configuration: an id names one gauge in the config and in its
    refusals, and ``composite_curve`` consults the sensors in priority
    order."""
    for what, values in (("ids", [s.sensor_id for s in sensors]),
                         ("priorities", [s.priority for s in sensors])):
        if len(set(values)) != len(values):
            raise ConfigError(f"sensor {what} must be unique, got {values}")


@dataclass(frozen=True)
class SegmentSpec:
    """A pressure interval (upper, lower) in mbar, 1-based index."""

    index: int
    upper: float
    lower: float

    def __post_init__(self) -> None:
        if not (self.upper > self.lower > 0):
            raise ConfigError(
                f"segment {self.index}: need upper > lower > 0, got ({self.upper}, {self.lower})"
            )


@dataclass(frozen=True)
class RunMeta:
    """One row of ``run_meta.csv``: a run's identity, its recipe and its
    maintenance counter, the runs since its asset was last cleaned."""

    run_id: str
    asset_id: str
    start_time: float
    recipe_id: str
    n_runs: int

    def __post_init__(self) -> None:
        if self.n_runs < 0:
            raise DataError(f"run {self.run_id}: n_runs must be >= 0, got {self.n_runs}")
        if self.n_runs >= 2**63:  # the supervised set's counters are int64
            raise DataError(f"run {self.run_id}: n_runs must be < 2**63, got {self.n_runs}")


CHANNELS = ("gas_flow", "temp_c")  # every run's process channels, in runs.csv's order


@dataclass(frozen=True)
class RunRecord(RunMeta):
    """One production run: its ``RunMeta`` fields, then its samples.

    Sample data is stored columnar, a row per sample: ``t`` is the clock
    in seconds since run start (strictly increasing, nominal 0.5 s
    spacing), column j of ``readings`` the j-th configured sensor's, NaN
    where invalid, and ``extra_channels`` a column for each of CHANNELS.
    Only the ``RunMeta`` fields are checked here; ``RunChunk`` checks samples.

    ``true_c`` / ``true_p_ss`` carry the generator's ground truth; they go
    to ``ground_truth.csv``, never into model features.
    """

    t: np.ndarray
    readings: np.ndarray
    extra_channels: Mapping[str, np.ndarray]
    true_c: float
    true_p_ss: float

    # No stage reads it: the tests and perfbench's sample counter do.
    @property
    def n_samples(self) -> int:
        return int(self.t.size)


def _fuse(readings: np.ndarray, sensors: Sequence[SensorSpec]) -> np.ndarray:
    """Each row's reading from the highest-priority sensor whose value is
    valid and inside that sensor's own range; NaN where there is none."""
    out = np.full(len(readings), np.nan)
    for spec, col in sorted(zip(sensors, readings.T, strict=True), key=lambda pair: pair[0].priority):
        lo, hi = spec.valid_range
        usable = np.isnan(out) & ~np.isnan(col) & (col >= lo) & (col <= hi)
        out[usable] = col[usable]
    return out


# No stage calls it: it is the tests' per-run reference, and a name perfbench traces.
def composite_curve(run: RunRecord, sensors: Sequence[SensorSpec]) -> np.ndarray:
    """Fuse every sample of a run into one pressure curve in mbar.

    ``sensors[j]`` reads column j of ``run.readings``; a run with another
    number of columns than ``sensors`` raises DataError. Each sample takes
    the reading of the highest-priority sensor whose value is valid and
    inside that sensor's own range. Raises DataError if any sample has
    no usable reading. Pure and deterministic.
    """
    if run.readings.shape[1] != len(sensors):
        raise DataError(f"run {run.run_id}: {run.readings.shape[1]} gauges, {len(sensors)} sensors")
    out = _fuse(run.readings, sensors)
    if np.any(np.isnan(out)):
        i = int(np.flatnonzero(np.isnan(out))[0])
        raise DataError(f"run {run.run_id}: no valid in-range reading at t={run.t[i]}")
    return out


@dataclass(frozen=True)
class RunChunk:
    """Consecutive runs as columns: run k is ``run_ids[k]`` and its samples
    are rows ``starts[k]`` up to the next start (or the end) of ``t``,
    ``readings`` and every channel, as in ``RunRecord``.

    Its channels must be CHANNELS (DataError naming the first run). Its
    checks are the only sample checks: every time and channel value is
    finite, times strictly increase within a run, and every valid
    reading is finite and > 0. The first run that breaks one, in run
    order, raises DataError naming it; within one run, in that order.
    """

    run_ids: tuple[str, ...]
    starts: np.ndarray
    t: np.ndarray
    readings: np.ndarray
    channels: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        if (names := sorted(self.channels)) != sorted(CHANNELS):
            raise DataError(f"run {self.run_ids[0]}: channels {names}, not {list(CHANNELS)}")
        finite = np.isfinite(self.t)
        for column in self.channels.values():
            finite &= np.isfinite(column)
        back = np.zeros(self.t.size, dtype=bool)
        back[1:] = self.t[1:] <= self.t[:-1]  # compared, not subtracted: inf - inf warns
        back[self.starts] = False  # a run's first sample follows another run's last
        valid = ~np.isnan(self.readings)
        bad = (valid & ~((self.readings > 0) & (self.readings < np.inf))).any(axis=1)
        faults = [
            (self.run_at(int(np.argmax(mask))), message)
            for mask, message in ((~finite, "empty or non-finite t_s or channel cell"),
                                  (back, "sample times must be strictly increasing"),
                                  (bad, "valid readings must be finite and > 0"))
            if mask.any()
        ]
        if faults:
            # the earliest run at fault; within one run, the first check it fails
            run, message = min(faults, key=lambda fault: fault[0])
            raise DataError(f"run {self.run_ids[run]}: {message}")

    @property
    def lengths(self) -> np.ndarray:
        """Each run's sample count."""
        return np.diff(self.starts, append=self.t.size)

    def run_at(self, sample: int) -> int:
        """The index of the run that holds row ``sample``."""
        return int(np.searchsorted(self.starts, sample, side="right")) - 1


def composite_columns(chunk: RunChunk, sensors: Sequence[SensorSpec]) -> np.ndarray:
    """``composite_curve`` of every run of ``chunk``, end to end, from one
    pass of the per-sample rule over all of its readings."""
    out = _fuse(chunk.readings, sensors)
    if np.any(np.isnan(out)):
        i = int(np.flatnonzero(np.isnan(out))[0])
        raise DataError(f"run {chunk.run_ids[chunk.run_at(i)]}: no valid in-range reading "
                        f"at t={chunk.t[i]}")
    return out
