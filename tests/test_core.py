"""Sensor fusion and domain type tests."""

import re
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chamberhealth.core import (
    CHANNELS,
    RunChunk,
    RunMeta,
    RunRecord,
    SegmentSpec,
    SensorSpec,
    check_sensor_priorities,
    composite_columns,
    composite_curve,
)
from chamberhealth.errors import ConfigError, DataError
from chamberhealth.simgen import (
    ChamberConfig,
    ChamberState,
    RecipeSpec,
    true_pressure_curve,
)
from helpers import chunk_of, sensors_with_sigma, simulate_one

# -- scalar per-sample oracle for the vectorized composite_curve ---------------


@dataclass(frozen=True)
class PressureSample:
    """One timestamped set of gauge readings; None marks an invalid reading."""

    t: float
    readings: Mapping[str, Optional[float]]

    def __post_init__(self) -> None:
        if self.t < 0:
            raise DataError(f"sample time must be non-negative, got {self.t}")
        for sid, value in self.readings.items():
            if value is not None and not (np.isfinite(value) and value > 0):
                raise DataError(f"sensor {sid}: reading must be finite and > 0, got {value}")


def composite_pressure(sample: PressureSample, sensors: Sequence[SensorSpec]) -> float:
    """The reading of the highest-priority sensor that is valid and inside
    its own range; DataError if no sensor qualifies."""
    for spec in sorted(sensors, key=lambda s: s.priority):
        value = sample.readings.get(spec.sensor_id)
        lo, hi = spec.valid_range
        if value is not None and lo <= value <= hi:
            return float(value)
    raise DataError(f"no valid in-range reading at t={sample.t}: {sample.readings}")


def run_sample(run: RunRecord, sensors: Sequence[SensorSpec], i: int) -> PressureSample:
    """Sample i of a run as a PressureSample; column j is ``sensors[j]``."""
    row = run.readings[i]
    readings = {
        spec.sensor_id: (None if np.isnan(row[j]) else float(row[j]))
        for j, spec in enumerate(sensors)
    }
    return PressureSample(t=float(run.t[i]), readings=readings)


def test_single_valid_sensor_wins():
    sensors = [
        SensorSpec("s1", (1.0, 1100.0), priority=1),
        SensorSpec("s2", (1e-3, 10.0), priority=2),
    ]
    sample = PressureSample(t=0.0, readings={"s1": 500.0, "s2": None})
    assert composite_pressure(sample, sensors) == 500.0


def test_out_of_range_reading_is_skipped():
    # s1 reads 0.5 but its range starts at 1.0; s2 covers it
    sensors = [
        SensorSpec("s1", (1.0, 1100.0), priority=1),
        SensorSpec("s2", (1e-3, 10.0), priority=2),
    ]
    sample = PressureSample(t=1.0, readings={"s1": 0.5, "s2": 0.5})
    assert composite_pressure(sample, sensors) == 0.5


def test_priority_decides_overlap():
    sensors = [
        SensorSpec("hi_prio", (0.1, 10.0), priority=1),
        SensorSpec("lo_prio", (0.1, 10.0), priority=2),
    ]
    sample = PressureSample(t=0.0, readings={"lo_prio": 2.0, "hi_prio": 1.9})
    assert composite_pressure(sample, sensors) == 1.9


def test_no_valid_reading_raises():
    sensors = [SensorSpec("s1", (1.0, 1100.0), priority=1)]
    sample = PressureSample(t=0.0, readings={"s1": None})
    with pytest.raises(DataError, match="no valid in-range reading"):
        composite_pressure(sample, sensors)
    sample = PressureSample(t=0.0, readings={"s1": 0.01})
    with pytest.raises(DataError, match="no valid in-range reading"):
        composite_pressure(sample, sensors)


def test_composite_is_pure():
    sensors = [SensorSpec("s1", (1.0, 1100.0), priority=1)]
    sample = PressureSample(t=0.0, readings={"s1": 42.0})
    assert composite_pressure(sample, sensors) == composite_pressure(sample, sensors)


def test_composite_curve_matches_per_sample_rule():
    config = ChamberConfig()
    run = simulate_one(ChamberState(contamination=30.0), RecipeSpec("std", 0.8), config, seed=3)
    curve = composite_curve(run, config.sensors)
    assert np.isnan(run.readings).any()  # the rule must skip invalid readings
    for i in range(run.n_samples):
        assert curve[i] == composite_pressure(run_sample(run, config.sensors, i), config.sensors)


def test_composite_curve_pairs_sensors_with_columns_by_position():
    # the same two readings fuse to the other gauge's value once the
    # sensor list, and with it the column order, is swapped
    coarse = SensorSpec("coarse", (1.0, 1100.0), priority=1)
    fine = SensorSpec("fine", (1e-3, 1100.0), priority=2)
    run = RunRecord(run_id="r", asset_id="a", start_time=0.0, recipe_id="std", n_runs=0,
                    t=np.array([0.0]), readings=np.array([[5.0, 6.0]]), extra_channels={},
                    true_c=0.0, true_p_ss=0.0)
    assert composite_curve(run, [coarse, fine]).tolist() == [5.0]
    assert composite_curve(run, [fine, coarse]).tolist() == [6.0]
    with pytest.raises(DataError, match=r"^run r: 2 gauges, 1 sensors$"):
        composite_curve(run, [coarse])


def test_composite_tracks_truth_within_one_percent():
    # derived check: against the generator's noiseless curve, with a
    # quiet gauge set every fused sample stays within 1%
    config = ChamberConfig(sensors=sensors_with_sigma(0.002))
    run = simulate_one(ChamberState(contamination=50.0), RecipeSpec("std", 0.8), config, seed=11)
    curve = composite_curve(run, config.sensors)
    rel = np.abs(curve / true_pressure_curve(run.t, config, run.true_p_ss) - 1.0)
    assert rel.max() < 0.01


def test_composite_curve_is_piecewise_continuous():
    # adjacent fused samples never jump by more than the decade of a
    # stage transition; catches accidental sentinel values
    config = ChamberConfig()
    run = simulate_one(ChamberState(contamination=10.0), RecipeSpec("std", 0.8), config, seed=5)
    curve = composite_curve(run, config.sensors)
    assert np.all(curve > 0)
    jumps = np.abs(np.diff(np.log(curve)))
    assert jumps.max() < 2.0


def test_sensor_spec_validation():
    with pytest.raises(ConfigError):
        SensorSpec("bad", (1.0, 1.0), priority=1)
    with pytest.raises(ConfigError):
        SensorSpec("bad", (-1.0, 1.0), priority=1)
    with pytest.raises(ConfigError):
        check_sensor_priorities(
            [SensorSpec("a", (0.1, 1.0), 1), SensorSpec("b", (0.1, 1.0), 1)]
        )
    with pytest.raises(ConfigError, match=r"sensor ids must be unique, got \['a', 'a'\]"):
        check_sensor_priorities(
            [SensorSpec("a", (0.1, 1.0), 1), SensorSpec("a", (0.5, 2.0), 2)]
        )


def test_segment_spec_validation():
    with pytest.raises(ConfigError):
        SegmentSpec(1, 0.002, 0.03)
    with pytest.raises(ConfigError):
        SegmentSpec(1, 0.03, 0.0)


def test_pressure_sample_validation():
    with pytest.raises(DataError):
        PressureSample(t=-1.0, readings={"s1": 1.0})
    with pytest.raises(DataError):
        PressureSample(t=0.0, readings={"s1": 0.0})
    with pytest.raises(DataError):
        PressureSample(t=0.0, readings={"s1": float("nan")})


def test_run_record_validation():
    good = dict(
        run_id="r",
        asset_id="a",
        start_time=0.0,
        recipe_id="std",
        n_runs=0,
        t=np.array([0.0, 0.5]),
        readings=np.array([[1.0], [2.0]]),
        extra_channels={},
        true_c=0.0,
        true_p_ss=0.0,
    )
    RunRecord(**good)
    # a run always carries its channels and its ground truth
    for name in ("extra_channels", "true_c", "true_p_ss"):
        with pytest.raises(TypeError, match=f"missing 1 required positional argument: '{name}'"):
            RunRecord(**{k: v for k, v in good.items() if k != name})
    # the RunMeta check, which every RunRecord passes first
    with pytest.raises(DataError, match="run r: n_runs must be >= 0, got -1"):
        RunMeta("r", "a", 0.0, "std", -1)
    with pytest.raises(DataError, match="n_runs must be >= 0"):
        RunRecord(**{**good, "n_runs": -1})
    # the supervised set holds the counters as int64
    RunMeta("r", "a", 0.0, "std", 2**63 - 1)
    with pytest.raises(DataError, match=r"run r: n_runs must be < 2\*\*63, got 9223372036854775808"):
        RunMeta("r", "a", 0.0, "std", 2**63)


def _fused(fuse):
    """What ``fuse`` returns, or the message of the DataError it raises."""
    try:
        return fuse().tobytes()
    except DataError as exc:
        return str(exc)


# a reading: invalid (NaN) or a pressure on a coarse grid that every gauge
# range below starts, ends or misses on
_READING = st.one_of(st.just(np.nan), st.sampled_from([1e-6, 1e-4, 0.01, 1.0, 50.0, 1000.0]))


@settings(max_examples=150, deadline=None)
@given(
    ranges=st.lists(st.sampled_from([(1e-6, 1.0), (1e-4, 50.0), (0.01, 1000.0), (1.0, 1000.0)]),
                    min_size=1, max_size=4),
    priorities=st.randoms(use_true_random=False),
    runs=st.lists(st.lists(st.lists(_READING, min_size=4, max_size=4), min_size=1, max_size=6),
                  min_size=1, max_size=6),
)
def test_composite_columns_equal_composite_curve_of_each_run(ranges, priorities, runs):
    ranks = list(range(1, len(ranges) + 1))
    priorities.shuffle(ranks)
    sensors = [SensorSpec(f"s{j}", r, rank) for j, (r, rank) in enumerate(zip(ranges, ranks))]
    records = [
        RunRecord(run_id=f"r{k}", asset_id="a", start_time=0.0, recipe_id="std", n_runs=0,
                  t=np.arange(len(rows)) * 0.5, readings=np.array(rows)[:, : len(sensors)],
                  extra_channels={name: np.zeros(len(rows)) for name in CHANNELS},
                  true_c=0.0, true_p_ss=0.0)
        for k, rows in enumerate(runs)
    ]
    expected = _fused(lambda: np.concatenate([composite_curve(r, sensors) for r in records]))
    assert _fused(lambda: composite_columns(chunk_of(records), sensors)) == expected


def test_run_chunk_checks_name_the_first_run_at_fault():
    def chunk(t, readings):
        return RunChunk(run_ids=("r0", "r1", "r2"), starts=np.array([0, 2, 4]),
                        t=np.array(t, dtype=float),
                        readings=np.array(readings, dtype=float)[:, None],
                        channels={name: np.ones(6) for name in CHANNELS})

    good_t, good = [0.0, 0.5, 0.0, 0.5, 0.0, 0.5], [1.0, np.nan, 2.0, 3.0, 4.0, 5.0]
    chunk(good_t, good)  # times restart with every run
    with pytest.raises(DataError, match=r"^run r1: sample times must be strictly increasing$"):
        chunk([0.0, 0.5, 0.5, 0.5, 0.0, 0.5], [1.0, 1.0, 1.0, 1.0, 0.0, 1.0])
    with pytest.raises(DataError, match=r"^run r1: valid readings must be finite and > 0$"):
        chunk([0.0, 0.5, 0.0, 0.5, 0.5, 0.5], [1.0, 1.0, 1.0, np.inf, 1.0, 1.0])
    # within one run, the times are checked first
    with pytest.raises(DataError, match=r"^run r0: sample times"):
        chunk([0.5, 0.0, 0.0, 0.5, 0.0, 0.5], [-1.0, 1.0, 1.0, 1.0, 1.0, 1.0])


@pytest.mark.parametrize("column", ["t", *CHANNELS])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_run_chunk_refuses_non_finite_times_and_channels(column, value):
    t = np.array([0.0, 0.5, 0.0, 0.5, 0.0, 0.0])  # run r2's times do not increase
    readings = np.array([1.0, 1.0, -1.0, 1.0, 1.0, 1.0])  # nor is run r1's reading valid
    channels = {name: np.ones(6) for name in CHANNELS}
    (t if column == "t" else channels[column])[3] = value
    # r1 is the first run at fault, and within it this is the first fault
    with pytest.raises(DataError, match=r"^run r1: empty or non-finite t_s or channel cell$"):
        RunChunk(run_ids=("r0", "r1", "r2"), starts=np.array([0, 2, 4]), t=t,
                 readings=readings[:, None], channels=channels)


def test_run_chunk_takes_exactly_the_declared_channels():
    columns = dict(run_ids=("r0", "r1"), starts=np.array([0, 1]), t=np.array([0.0, 0.0]),
                   readings=np.ones((2, 1)))
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'channels'"):
        RunChunk(**columns)
    declared = {name: np.ones(2) for name in CHANNELS}
    RunChunk(**columns, channels=declared)
    for channels in ({"temp_c": np.ones(2)}, {**declared, "vibration": np.ones(2)}):
        refusal = f"run r0: channels {sorted(channels)}, not ['gas_flow', 'temp_c']"
        with pytest.raises(DataError, match=f"^{re.escape(refusal)}$"):
            RunChunk(**columns, channels=channels)
