"""Health-index derivation tests: crossings, OLS, impact, selection."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chamberhealth.core import RunChunk, SegmentSpec, composite_curve
from chamberhealth.errors import DataError, DegenerateFit
from chamberhealth.hi import (
    clean_baseline,
    extract_segment_duration,
    fit_ols,
    impact,
    r_squared,
    run_segment_durations,
)
from chamberhealth.simgen import (
    ChamberConfig,
    ChamberState,
    RecipeSpec,
    default_recipes,
    default_segments,
    simulate_history,
    true_segment_duration,
)
from helpers import derive_hi_of, sensors_with_sigma, simulate_one

T_NO_FLOOR = 5.41610040220442  # 2*ln(15), frozen independent value


def exponential_curve(p0=0.03, tau=2.0, dt=0.5, n=40):
    t = np.arange(n) * dt
    return t, p0 * np.exp(-t / tau)


def test_extraction_exact_for_pure_exponential():
    # log-linear interpolation is exact for exponential decay
    t, p = exponential_curve()
    seg = SegmentSpec(1, 0.03, 0.002)
    assert extract_segment_duration(t, p, seg) == pytest.approx(T_NO_FLOOR, abs=0.01)


def test_extraction_incomplete_when_bound_not_crossed():
    t, p = exponential_curve(n=6)  # stops at ~0.0086 mbar
    assert extract_segment_duration(t, p, SegmentSpec(1, 0.03, 0.002)) is None
    assert extract_segment_duration(t, p, SegmentSpec(1, 0.03, 0.01)) is not None


def test_extraction_empty_curve():
    # an empty curve never crosses a bound
    assert extract_segment_duration(np.array([]), np.array([]), SegmentSpec(1, 0.03, 0.002)) is None


def test_extraction_uses_first_crossing_only():
    # noise re-crossing after the first dip must not move the result
    t = np.arange(8) * 0.5
    p = np.array([0.05, 0.03, 0.01, 0.04, 0.009, 0.01, 0.005, 0.001])
    seg = SegmentSpec(1, 0.03, 0.01)
    assert extract_segment_duration(t, p, seg) == pytest.approx(1.0 - 0.5)


def test_noisy_extraction_tracks_closed_form_within_3pct():
    # derived: 200 seeded default-noise runs, dp2 vs per-run closed form
    config = ChamberConfig()
    seg2 = default_segments()[1]
    worst = 0.0
    for seed in range(200):
        c = (seed * 7) % 80
        run = simulate_one(ChamberState(contamination=float(c)), RecipeSpec("std", 0.8),
                           config, seed=seed)
        measured = extract_segment_duration(run.t, composite_curve(run, config.sensors), seg2)
        expected = true_segment_duration(seg2, config, run.true_p_ss)
        worst = max(worst, abs(measured / expected - 1.0))
    assert worst < 0.03


def test_ols_exact_line():
    k, d = fit_ols(np.array([0, 1, 2]), np.array([10.0, 12.0, 14.0]))
    assert k == pytest.approx(2.0, abs=1e-12)
    assert d == pytest.approx(10.0, abs=1e-12)


def test_ols_constant_data():
    k, d = fit_ols(np.array([0, 1, 2]), np.array([5.0, 5.0, 5.0]))
    assert k == pytest.approx(0.0, abs=1e-12)
    assert d == pytest.approx(5.0, abs=1e-12)


def test_ols_degenerate_inputs():
    with pytest.raises(DegenerateFit, match="need >= 2 paired points, got 1"):
        fit_ols(np.array([1]), np.array([2.0]))
    with pytest.raises(DegenerateFit, match="all n_runs values are equal"):
        fit_ols(np.array([3, 3, 3]), np.array([1.0, 2.0, 3.0]))


def test_ols_matches_normal_equations_oracle():
    # independent 2x2 normal-equations solve, written from the
    # definition rather than the centered-sums formula
    rng = np.random.default_rng(123)
    for _ in range(50):
        n = int(rng.integers(2, 1000))
        x = rng.uniform(0, 100, size=n)
        if np.ptp(x) == 0:
            x[0] += 1.0
        y = rng.uniform(-50, 50, size=n)
        k, d = fit_ols(x, y)
        a = np.array([[np.sum(x * x), np.sum(x)], [np.sum(x), float(n)]])
        b = np.array([np.sum(x * y), np.sum(y)])
        k_ref, d_ref = np.linalg.solve(a, b)
        assert k == pytest.approx(k_ref, rel=1e-9, abs=1e-9)
        assert d == pytest.approx(d_ref, rel=1e-9, abs=1e-9)


def test_ols_residual_orthogonality():
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 99, size=400)
    y = 0.1 * x + rng.normal(0, 3, size=400)
    k, d = fit_ols(x, y)
    res = y - (k * x + d)
    scale = float(np.sum(np.abs(y)))
    assert abs(res.sum()) / scale < 1e-9
    assert abs((res * x).sum()) / (scale * np.max(x)) < 1e-9


def test_r_squared_exact_line_is_one():
    x = np.array([0.0, 1.0, 2.0])
    y = 2.0 * x + 1.0
    assert r_squared(x, y, 2.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_r_squared_of_mean_prediction_is_zero():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    y = np.array([4.0, 7.0, 1.0, 2.0])
    assert r_squared(x, y, 0.0, float(y.mean())) == pytest.approx(0.0, abs=1e-12)


def test_r_squared_zero_variance():
    with pytest.raises(DegenerateFit, match="constant durations"):
        r_squared(np.array([0.0, 1.0]), np.array([2.0, 2.0]), 0.0, 2.0)


def test_ols_r2_in_unit_interval_on_random_data():
    rng = np.random.default_rng(99)
    for _ in range(20):
        x = rng.uniform(0, 10, size=30)
        y = rng.normal(size=30)
        k, d = fit_ols(x, y)
        assert -1e-12 <= r_squared(x, y, k, d) <= 1.0 + 1e-12


def test_clean_baseline_single_cycle():
    n = np.arange(20)
    y = np.full(20, 10.0)
    assert clean_baseline(n, y) == pytest.approx(10.0)


def test_clean_baseline_pools_cycles():
    n = np.array([0, 1, 2, 50, 0, 1, 2, 60])
    y = np.array([20.0, 20.0, 20.0, 99.0, 22.0, 22.0, 22.0, 99.0])
    assert clean_baseline(n, y) == pytest.approx(21.0)


def test_clean_baseline_requires_clean_runs():
    with pytest.raises(DegenerateFit, match="no runs with n_runs <= 9"):
        clean_baseline(np.array([50, 60]), np.array([1.0, 2.0]))


def test_clean_baseline_near_closed_form_on_tuned_default():
    # derived: the pooled first-10-run mean sits within 5% of the
    # closed-form duration at the maintenance residual
    config = ChamberConfig()
    history = simulate_history(config, (RecipeSpec("std", 0.8),), 1, 400, 100, seed=0)
    seg2 = default_segments()[1]
    n, y = [], []
    for run in history:
        d = extract_segment_duration(run.t, composite_curve(run, config.sensors), seg2)
        if d is not None:
            n.append(run.n_runs)
            y.append(d)
    t_bar = clean_baseline(np.array(n), np.array(y))
    clean = true_segment_duration(
        seg2, config, config.steady_state_pressure(config.maintenance_residual)
    )
    assert t_bar == pytest.approx(clean, rel=0.05)


def test_impact_reference_table_rows():
    # reference regression table, rows 1/2/5: printed alpha 5%, 55%, 12%
    assert abs(impact(0.06, 139.0, 100) - 5.0) <= 3.0
    assert abs(impact(0.12, 21.0, 100) - 55.0) <= 3.0
    assert impact(0.12, 21.0, 100) == pytest.approx(57.142857142857146, rel=1e-12)
    assert abs(impact(0.19, 160.0, 100) - 12.0) <= 3.0


def test_impact_zero_slope():
    assert impact(0.0, 100.0, 100) == 0.0


def test_impact_zero_baseline():
    with pytest.raises(DegenerateFit, match="clean baseline must be > 0"):
        impact(0.1, 0.0, 100)


@given(
    k=st.floats(min_value=-10, max_value=10),
    t_bar=st.floats(min_value=0.1, max_value=1e4),
    s=st.floats(min_value=1e-3, max_value=1e3),
)
def test_impact_is_scale_homogeneous(k, t_bar, s):
    assert impact(s * k, s * t_bar, 100) == pytest.approx(impact(k, t_bar, 100), rel=1e-9, abs=1e-9)


def _synthetic_selection_case(duration_fn, n_runs=60, cycle=30):
    """Runs whose composite curve is a pure exponential with a chosen
    time constant per run, so segment durations are fully controlled."""
    from chamberhealth.core import RunRecord

    runs = []
    for i in range(n_runs):
        n = i % cycle
        tau = duration_fn(n)
        t = np.arange(420) * 0.5
        p = 1013.0 * np.exp(-t / tau)
        p = np.clip(p, 1e-9, None)
        runs.append(
            RunRecord(
                run_id=f"r{i:03d}",
                asset_id="a1",
                start_time=float(i),
                recipe_id="std",
                n_runs=n,
                t=t,
                readings=p[:, None],
                extra_channels={},
                true_c=0.0,
                true_p_ss=0.0,
            )
        )
    return runs


def _wide_sensors():
    from chamberhealth.core import SensorSpec

    return [SensorSpec("s1", (1e-10, 2e3), priority=1)]


def test_derive_hi_single_segment_linear_data():
    runs = _synthetic_selection_case(lambda n: 2.0 + 0.01 * n)
    segments = [SegmentSpec(1, 0.03, 0.002)]
    fits, series = derive_hi_of(runs, _wide_sensors(), segments, cycle_length=30,
                                analysis_limit=400)
    assert series.selected_segment.index == 1
    assert fits[0].r2 == pytest.approx(1.0, abs=1e-3)
    assert len(series.entries) == len(runs)


def test_derive_hi_skips_a_degenerate_segment():
    # tau 2 s at n_runs = 0, else 10 s: within the 210 s curve only the
    # n_runs = 0 runs reach 1e-8 mbar, so segment 2's fit has no spread in n_runs
    runs = _synthetic_selection_case(lambda n: 2.0 if n == 0 else 10.0)
    usable, degenerate = SegmentSpec(1, 0.03, 0.002), SegmentSpec(2, 0.03, 1e-8)
    fits, series = derive_hi_of(runs, _wide_sensors(), [degenerate, usable], cycle_length=30,
                                analysis_limit=400)
    assert [f.segment.index for f in fits] == [1]
    assert series.selected_segment.index == 1
    with pytest.raises(DataError, match="every segment was degenerate"):
        derive_hi_of(runs, _wide_sensors(), [degenerate], cycle_length=30, analysis_limit=400)


def test_derive_hi_fits_each_segment_on_its_own_durations():
    # two segments under one index: tau 4..9.8 s over a 210 s curve, so
    # every run crosses 0.002 mbar but n_runs 26..29 never reach 1e-7
    runs = _synthetic_selection_case(lambda n: 4.0 + 0.2 * n)
    shallow, deep = SegmentSpec(2, 0.03, 0.002), SegmentSpec(2, 0.03, 1e-7)
    fits, series = derive_hi_of(runs, _wide_sensors(), [shallow, deep],
                             cycle_length=30, analysis_limit=400)
    by_segment = {f.segment: f for f in fits}
    assert (by_segment[shallow].n_points, by_segment[deep].n_points) == (60, 52)
    assert by_segment[shallow].k == pytest.approx(0.2 * math.log(0.03 / 0.002), rel=1e-6)
    assert by_segment[deep].k == pytest.approx(0.2 * math.log(0.03 / 1e-7), rel=1e-6)
    assert len(series.entries) == by_segment[series.selected_segment].n_points


def test_derive_hi_tie_break_prefers_larger_alpha():
    # two identical segments fit identically; the deeper one is listed
    # first but alpha ties are broken before index, so craft alphas:
    # same r2 by construction (same durations scaled), larger alpha wins
    runs = _synthetic_selection_case(lambda n: 2.0 + 0.01 * n)
    segments = [
        SegmentSpec(1, 0.03, 0.002),       # duration = tau*ln(15)
        SegmentSpec(2, 0.03, 0.03 / 225.0) # duration = tau*ln(225) = 2x
    ]
    fits, series = derive_hi_of(runs, _wide_sensors(), segments, cycle_length=30,
                                analysis_limit=400)
    by_idx = {f.segment.index: f for f in fits}
    # scaling durations by a constant leaves r2 and alpha unchanged, so
    # the tie falls through to the lower segment index
    assert by_idx[1].r2 == pytest.approx(by_idx[2].r2, abs=1e-9)
    assert by_idx[1].alpha == pytest.approx(by_idx[2].alpha, rel=1e-9)
    assert series.selected_segment.index == 1


def test_derive_hi_alpha_tie_break():
    # same r2, different alpha: pick the larger alpha even at higher index
    import chamberhealth.hi as hi_mod

    fits = [
        hi_mod.DegradationFit(SegmentSpec(1, 1.0, 0.1), k=1.0, d=0.0, r2=0.5,
                              t_bar=10.0, alpha=10.0, n_points=10),
        hi_mod.DegradationFit(SegmentSpec(2, 1.0, 0.1), k=2.0, d=0.0, r2=0.5,
                              t_bar=10.0, alpha=20.0, n_points=10),
    ]
    best = min(fits, key=lambda f: (-f.r2, -f.alpha, f.segment.index))
    assert best.segment.index == 2


def test_derive_hi_selects_dp2_on_tuned_default():
    config = ChamberConfig()
    history = tuple(simulate_history(config, (RecipeSpec("std", 0.8),), 1, 400, 100, seed=0))
    fits, series = derive_hi_of(history, config.sensors, default_segments(),
                             100, 400)
    assert series.selected_segment.index == 2
    by_idx = {f.segment.index: f for f in fits}
    assert 0.5 <= by_idx[2].r2 <= 0.7
    alpha_expected = impact(by_idx[2].k, by_idx[2].t_bar, 100)
    assert by_idx[2].alpha == pytest.approx(alpha_expected, rel=1e-12)


def test_noiseless_degradation_gives_near_perfect_r2():
    # monotone noiseless degradation: the contamination-carrying
    # segment's r2 reaches 1 up to log-interpolation error below 1e-3
    # (selection itself is only meaningful with realistic noise: in a
    # zero-noise world every segment fits essentially perfectly)
    config = ChamberConfig(sensors=sensors_with_sigma(), seasonal_amplitude=0.0, weather_sigma=0.0)
    history = tuple(simulate_history(config, (RecipeSpec("std", 0.8),), 1, 200, 100, seed=0))
    fits, series = derive_hi_of(history, config.sensors, default_segments(), 100, 400)
    by_idx = {f.segment.index: f for f in fits}
    assert by_idx[2].r2 > 1.0 - 1e-3


def test_ols_slope_recovers_true_increment():
    # derived: 500 noiseless points over 5 cycles; the fitted slope must
    # match the closed-form per-run duration increment within 1%
    config = ChamberConfig(sensors=sensors_with_sigma(), seasonal_amplitude=0.0, weather_sigma=0.0)
    w = 0.8
    history = simulate_history(config, (RecipeSpec("std", w),), 1, 500, 100, seed=0)
    seg2 = default_segments()[1]
    n, y = [], []
    for run in history:
        d = extract_segment_duration(run.t, composite_curve(run, config.sensors), seg2)
        n.append(run.n_runs)
        y.append(d)
    k, _ = fit_ols(np.array(n), np.array(y))
    span = true_segment_duration(seg2, config, config.steady_state_pressure(99 * w)) - \
        true_segment_duration(seg2, config, config.steady_state_pressure(0.0))
    true_increment = span / 99.0
    assert k == pytest.approx(true_increment, rel=0.01)


def test_selection_invariant_under_uniform_time_rescaling():
    # scaling every duration by s > 0 leaves r2 (scale-free) unchanged;
    # simulate by scaling tau, which scales all crossing times
    seg = [SegmentSpec(1, 0.03, 0.002), SegmentSpec(2, 0.002, 5e-4)]

    def profile(scale):
        runs = _synthetic_selection_case(lambda n: scale * (2.0 + 0.01 * n + 0.3 * ((n * 7919) % 11) / 11))
        fits, series = derive_hi_of(runs, _wide_sensors(), seg, cycle_length=30, analysis_limit=400)
        return series.selected_segment.index, {f.segment.index: f.r2 for f in fits}

    sel1, r1 = profile(1.0)
    sel2, r2 = profile(3.7)
    assert sel1 == sel2
    for i in r1:
        assert r1[i] == pytest.approx(r2[i], rel=1e-6)


# segment bounds, and pressures on a log grid a third of a decade apart
# that holds every bound, so that some samples sit exactly on one
_BOUNDS = [1e-6, 2e-3, 0.03, 1.0, 100.0]
_PRESSURES = sorted({*_BOUNDS, *(10.0 ** (k / 3) for k in range(-21, 10))})


@settings(max_examples=200, deadline=None)
@example(  # a one-sample run that never crosses, a crossing at sample 0 exactly on
    # the upper bound, a crossing between samples that ends exactly on the lower,
    # and a bracket whose np.log is one ulp off math.log
    segments=[(0.03, 2e-3)],
    runs=[[(0.5, 100.0)], [(0.5, 0.03), (0.5, 1e-6)], [(0.5, 1.0), (0.5, 0.01), (0.5, 2e-3)],
          [(0.5, 0.07650202918590379), (0.5, 1e-3)]],
)
@given(
    segments=st.lists(st.tuples(st.sampled_from(_BOUNDS), st.sampled_from(_BOUNDS))
                      .filter(lambda b: b[0] > b[1]), min_size=1, max_size=4),
    # one-sample runs, runs that never reach a bound, runs that start below
    # one: random curves on the grid, not only decaying ones
    runs=st.lists(st.lists(st.tuples(st.floats(0.01, 3.0), st.sampled_from(_PRESSURES)),
                           min_size=1, max_size=12), min_size=1, max_size=8),
)
def test_run_segment_durations_equal_extract_segment_duration_of_each_run(segments, runs):
    segments = [SegmentSpec(j + 1, upper, lower) for j, (upper, lower) in enumerate(segments)]
    # each run's clock starts anywhere and strictly increases
    ts = [np.cumsum([step for step, _ in run]) for run in runs]
    pressures = [np.array([p for _, p in run]) for run in runs]
    expected = np.array(
        [[extract_segment_duration(t, p, seg) for seg in segments] for t, p in zip(ts, pressures)],
        dtype=np.float64,  # None reads as NaN
    )
    lengths = [len(run) for run in runs]
    chunk = RunChunk(run_ids=tuple(f"r{k}" for k in range(len(runs))),
                     starts=np.cumsum([0] + lengths[:-1]), t=np.concatenate(ts),
                     readings=np.concatenate(pressures)[:, None])
    got = run_segment_durations(chunk, np.concatenate(pressures), segments)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
