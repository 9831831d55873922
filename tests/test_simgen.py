"""Physics oracle and generator tests."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chamberhealth.core import CHANNELS, composite_curve
from chamberhealth.errors import ConfigError, DataError
from chamberhealth.hi import extract_segment_duration
from chamberhealth.simgen import (
    ChamberConfig,
    ChamberState,
    RecipeSpec,
    advance_contamination,
    closed_form_segment_duration,
    default_segments,
    simulate_history,
    true_segment_duration,
)

from helpers import chunk_of, equal_share_recipes, sensors_with_sigma, simulate_one

# frozen from an independent recomputation of the closed form
T_NO_FLOOR = 5.41610040220442          # 2*ln(15)
T_WITH_FLOOR = 5.957850310475219       # 2*ln(0.0295/0.0015)


def quiet_config(**overrides) -> ChamberConfig:
    """Default physics without noise, drift or weather."""
    base = dict(sensors=sensors_with_sigma(), seasonal_amplitude=0.0, weather_sigma=0.0)
    base.update(overrides)
    return ChamberConfig(**base)


def test_closed_form_no_floor():
    assert closed_form_segment_duration(0.03, 0.002, 2.0, 0.0) == pytest.approx(
        T_NO_FLOOR, abs=1e-12
    )


def test_closed_form_with_floor():
    assert closed_form_segment_duration(0.03, 0.002, 2.0, 0.0005) == pytest.approx(
        T_WITH_FLOOR, abs=1e-12
    )


def test_closed_form_floor_at_target_is_infeasible():
    with pytest.raises(DataError, match="at or below the steady-state floor"):
        closed_form_segment_duration(0.03, 0.002, 2.0, 0.002)
    with pytest.raises(DataError, match="at or below the steady-state floor"):
        closed_form_segment_duration(0.03, 0.002, 2.0, 0.01)


@given(
    p_ss=st.floats(min_value=0.0, max_value=1.9e-3, exclude_max=True),
    delta=st.floats(min_value=1e-6, max_value=1e-4),
)
def test_closed_form_strictly_increasing_in_floor(p_ss, delta):
    lo = closed_form_segment_duration(0.03, 0.002, 2.0, p_ss)
    hi = closed_form_segment_duration(0.03, 0.002, 2.0, min(p_ss + delta, 1.9999e-3))
    assert hi > lo > 0


def test_noiseless_run_matches_closed_form_within_one_sample():
    config = quiet_config()
    state = ChamberState(contamination=40.0)
    run = simulate_one(state, RecipeSpec("std", 0.8), config, seed=0)
    curve = composite_curve(run, config.sensors)
    for seg in default_segments():
        measured = extract_segment_duration(run.t, curve, seg)
        expected = true_segment_duration(seg, config, run.true_p_ss)
        assert measured == pytest.approx(expected, abs=config.sample_dt)


def test_contamination_slows_low_pressure_segment():
    config = quiet_config()
    seg2 = default_segments()[1]
    durations = []
    for c in (0.0, 30.0, 60.0):
        run = simulate_one(ChamberState(contamination=c), RecipeSpec("std", 0.8), config, seed=0)
        curve = composite_curve(run, config.sensors)
        durations.append(extract_segment_duration(run.t, curve, seg2))
    assert durations[0] < durations[1] < durations[2]


def test_same_seed_gives_identical_run():
    config = ChamberConfig()
    state = ChamberState(contamination=12.0, n_runs=15, seasonal_phase=0.3)
    a = simulate_one(state, RecipeSpec("std", 0.8), config, seed=42)
    b = simulate_one(state, RecipeSpec("std", 0.8), config, seed=42)
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.readings, b.readings, equal_nan=True)
    for name in a.extra_channels:
        assert np.array_equal(a.extra_channels[name], b.extra_channels[name])
    assert a.true_c == b.true_c and a.true_p_ss == b.true_p_ss


def test_target_below_floor_is_config_error():
    config = quiet_config(base_outgassing_q0=1e-4)
    with pytest.raises(ConfigError):
        simulate_one(ChamberState(), RecipeSpec("std", 0.8), config, seed=0)


def test_advance_contamination():
    state = ChamberState(contamination=5.0, n_runs=7)
    after = advance_contamination(state, RecipeSpec("std", 0.5), maintenance_due=False,
                                  residual=0.0)
    assert after.contamination == 5.5 and after.n_runs == 8
    wiped = advance_contamination(
        ChamberState(contamination=37.0, n_runs=99), RecipeSpec("std", 0.5), True, 0.0
    )
    assert wiped.contamination == 0.0 and wiped.n_runs == 0


def test_linear_accumulation_over_100_runs():
    state = ChamberState()
    for _ in range(100):
        state = advance_contamination(state, RecipeSpec("std", 0.5), False, 0.0)
    assert state.contamination == pytest.approx(50.0)
    assert state.n_runs == 100


def test_history_counter_arithmetic():
    config = quiet_config()
    history = tuple(simulate_history(config, equal_share_recipes(), n_assets=5, n_runs_total=2000,
                                     cycle_length=100, seed=0))
    assert len(history) == 2000
    by_asset = {}
    for run in history:
        by_asset.setdefault(run.asset_id, []).append(run)
    assert len(by_asset) == 5
    total_cycles = 0
    for seq in by_asset.values():
        assert len(seq) == 400
        positions = [r.n_runs for r in sorted(seq, key=lambda r: r.start_time)]
        assert positions == [p % 100 for p in range(400)]
        assert min(positions) == 0 and max(positions) == 99
        total_cycles += len(seq) // 100
    assert total_cycles == 20


def test_history_is_deterministic():
    config = ChamberConfig()
    a = simulate_history(config, equal_share_recipes(), 2, 60, 30, seed=9)
    b = simulate_history(config, equal_share_recipes(), 2, 60, 30, seed=9)
    for ra, rb in zip(a, b, strict=True):
        assert (ra.run_id, ra.recipe_id) == (rb.run_id, rb.recipe_id)
        assert np.array_equal(ra.readings, rb.readings, equal_nan=True)


def test_an_eleven_asset_history_streams_in_file_order():
    # file order sorts asset ids as text: asset10 and asset11 come before asset2
    runs = list(simulate_history(quiet_config(), equal_share_recipes(), 11, 44, 30, seed=2))
    keys = [(run.asset_id, run.start_time) for run in runs]
    assert keys == sorted(keys)
    assert list(dict.fromkeys(asset for asset, _ in keys))[:4] == [
        "asset1", "asset10", "asset11", "asset2"]
    assert len(runs) == 44


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_assets=st.integers(1, 2),
    n_runs=st.integers(1, 30),
    cycle_length=st.integers(2, 30),
    # each gauge's sigma, up to noise that leaves most readings out of range
    sigmas=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 100.0)), min_size=4, max_size=4),
)
def test_generated_runs_pass_the_run_chunk_checks(seed, n_assets, n_runs, cycle_length, sigmas):
    # no RunRecord checks its samples: what derive-hi checks when it reads
    # them back must hold of every run the generator makes
    sensors = tuple(replace(s, noise_sigma=sigma) for s, sigma in zip(sensors_with_sigma(), sigmas))
    runs = list(simulate_history(ChamberConfig(sensors=sensors), equal_share_recipes(), n_assets,
                                 n_runs, cycle_length, seed))
    assert len(runs) == n_runs
    for run in runs:
        assert run.readings.shape == (run.t.size, len(sensors))
        assert sorted(run.extra_channels) == list(CHANNELS)
        assert all(channel.shape == run.t.shape for channel in run.extra_channels.values())
    chunk = chunk_of(runs)  # raises DataError naming the first run at fault
    assert chunk.lengths.min() >= 1


def test_seasonal_drift_slows_late_year_pumpdowns():
    config = quiet_config(seasonal_amplitude=1.2e-5)
    recipes = (RecipeSpec("std", 0.0),)  # zero deposition isolates the drift
    history = simulate_history(config, recipes, n_assets=1, n_runs_total=400,
                               cycle_length=100, seed=0)
    seg2 = default_segments()[1]
    year = config.seasonal_period_s
    early, late = [], []
    for run in history:
        frac = ((run.start_time - config.time_origin) % year) / year
        curve = composite_curve(run, config.sensors)
        duration = extract_segment_duration(run.t, curve, seg2)
        if frac < 0.1:
            early.append(duration)
        elif frac > 0.9:
            late.append(duration)
    assert early and late
    assert np.mean(late) > np.mean(early)


def test_noiseless_duration_ratio_matches_closed_form():
    # derived: compare the sampled first/last-run ratio to the closed form
    config = quiet_config()
    recipes = (RecipeSpec("std", 0.8),)
    history = simulate_history(config, recipes, 1, 100, 100, seed=1)
    seg2 = default_segments()[1]
    runs = sorted(history, key=lambda r: r.start_time)
    first, last = runs[0], runs[-1]
    assert first.n_runs == 0 and last.n_runs == 99

    def measured(run):
        return extract_segment_duration(run.t, composite_curve(run, config.sensors), seg2)

    expected_ratio = true_segment_duration(
        seg2, config, config.steady_state_pressure(99 * 0.8)
    ) / true_segment_duration(seg2, config, config.steady_state_pressure(0.0))
    assert measured(last) / measured(first) == pytest.approx(expected_ratio, rel=0.01)


def test_sawtooth_within_and_across_cycles():
    # noiseless, drift-free: strictly increasing within a cycle, drop at
    # maintenance
    config = quiet_config()
    recipes = (RecipeSpec("std", 0.8),)
    history = simulate_history(config, recipes, 1, 200, 100, seed=0)
    seg2 = default_segments()[1]
    runs = sorted(history, key=lambda r: r.start_time)
    durations = [
        extract_segment_duration(r.t, composite_curve(r, config.sensors), seg2)
        for r in runs
    ]
    for i in range(1, 200):
        if runs[i].n_runs == 0:
            assert durations[i] < durations[i - 1]
        else:
            assert durations[i] > durations[i - 1]


def test_config_validation():
    # single-field ranges are refused by the config format (test_cli's out-of-range table)
    with pytest.raises(ConfigError):
        ChamberConfig(crossover_pressure=2000.0)
    with pytest.raises(ConfigError):
        ChamberConfig(target_pressure=0.05)
    with pytest.raises(ConfigError):
        RecipeSpec("bad", deposition_weight=-1.0)
