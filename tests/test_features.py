"""Supervised dataset construction tests: aggregates, encoding, split."""

import numpy as np
import pytest

from chamberhealth.core import RunRecord, SensorSpec, composite_curve
from chamberhealth.errors import DataError
from chamberhealth.features import (
    Standardizer,
    aggregate_channels,
    build_supervised,
    chrono_split,
    encode_recipe_plan,
    summarize_run,
)
from chamberhealth.hi import derive_hi
from chamberhealth.simgen import (
    ChamberConfig,
    RecipeSpec,
    default_recipes,
    default_segments,
    simulate_history,
    true_segment_duration,
)
from helpers import hi_by_run_id, realized_plan

WIDE = [SensorSpec("s1", (1e-10, 2e3), priority=1)]


def _vocab(sset):
    """The training vocabulary, read back from the current-recipe feature names."""
    return tuple(n[len("recipe_") :] for n in sset.feature_names if n.startswith("recipe_"))


def standardize(train_X, X):
    """z-score ``X`` using column statistics of ``train_X``."""
    return Standardizer.fit(train_X).transform(X)


def _summaries(runs, sensors=WIDE):
    return [summarize_run(r, composite_curve(r, sensors)) for r in runs]


def make_run(run_id="r0", asset="a1", start=0.0, n=0, channel=None, recipe="std"):
    t = np.arange(4) * 0.5
    p = np.array([100.0, 10.0, 1.0, 0.1])
    extra = {}
    if channel is not None:
        values = np.asarray(channel, dtype=float)
        extra = {"ch": np.resize(values, t.size)}
    return RunRecord(
        run_id=run_id,
        asset_id=asset,
        start_time=start,
        recipe_id=recipe,
        n_runs=n,
        t=t,
        readings=p[:, None],
        extra_channels=extra,
    )


def test_aggregates_hand_arithmetic():
    # population std by design; hand arithmetic on channel [1,2,3]
    run2 = RunRecord(
        run_id="r1", asset_id="a1", start_time=0.0, recipe_id="std", n_runs=0,
        t=np.arange(3) * 0.5, readings=np.array([[100.0], [10.0], [1.0]]),
        extra_channels={"ch": np.array([1.0, 2.0, 3.0])},
    )
    aggs = aggregate_channels(run2, composite_curve(run2, WIDE))
    assert (aggs["ch_mean"], aggs["ch_min"], aggs["ch_max"]) == (2.0, 1.0, 3.0)
    assert aggs["ch_std"] == pytest.approx(0.816496580927726, abs=1e-12)


def test_aggregates_constant_channel():
    run = RunRecord(
        run_id="r1", asset_id="a1", start_time=0.0, recipe_id="std", n_runs=0,
        t=np.arange(2) * 0.5, readings=np.array([[100.0], [10.0]]),
        extra_channels={"ch": np.array([5.0, 5.0])},
    )
    aggs = aggregate_channels(run, composite_curve(run, WIDE))
    assert [aggs[f"ch_{stat}"] for stat in ("mean", "min", "max", "std")] == [5.0, 5.0, 5.0, 0.0]


def test_aggregates_match_two_pass_oracle():
    # derived: naive two-pass mean/std recomputation, exact to 1e-12
    from chamberhealth.simgen import ChamberState, simulate_run

    config = ChamberConfig()
    run = simulate_run(ChamberState(contamination=20.0), RecipeSpec("std", 0.8),
                       config, seed=7)
    curve = composite_curve(run, config.sensors)
    aggs = aggregate_channels(run, curve)
    channels = {"pressure": curve, **run.extra_channels}
    for name, values in channels.items():
        v = np.asarray(values)
        mean = float(sum(v) / len(v))
        var = float(sum((x - mean) ** 2 for x in v) / len(v))
        assert aggs[f"{name}_mean"] == pytest.approx(mean, rel=1e-12)
        assert aggs[f"{name}_min"] == float(min(v)) and aggs[f"{name}_max"] == float(max(v))
        assert aggs[f"{name}_std"] == pytest.approx(var ** 0.5, rel=1e-12)


def test_encode_plan_basic_blocks():
    vocab = ["A", "B"]
    out = encode_recipe_plan(["A", "B", "A"], vocab, horizon=3)
    assert out.tolist() == [1, 0, 0, 1, 1, 0]


def test_encode_plan_unknown_recipe_is_zero_block():
    out = encode_recipe_plan(["A", "C"], ["A", "B"], horizon=2)
    assert out.tolist() == [1, 0, 0, 0]


def test_encode_plan_shape_and_mass():
    vocab = ["A", "B", "C"]
    plan = ["A"] * 10
    out = encode_recipe_plan(plan, vocab, horizon=10)
    assert out.size == 30
    assert out.sum() <= 10


def test_encode_plan_length_mismatch():
    with pytest.raises(DataError, match="plan length 1 != horizon 10"):
        encode_recipe_plan(["A"], ["A"], horizon=10)


def _asset_runs(n, asset="a1", start0=0.0, recipe="std"):
    return [
        make_run(run_id=f"{asset}-{i:03d}", asset=asset, start=start0 + i,
                 n=i % 100, channel=[float(i), float(i + 1)][:2], recipe=recipe)
        for i in range(n)
    ]


def _hi_for(runs):
    return {r.run_id: 10.0 + 0.1 * r.n_runs for r in runs}


def test_build_supervised_row_count():
    runs = _asset_runs(15)
    sset = build_supervised(_summaries(runs), _hi_for(runs), realized_plan(runs), horizon=10)
    assert sset.n_rows == 5


def test_build_supervised_keeps_maintenance_spanning_rows():
    runs = []
    for i in range(30):
        runs.append(make_run(run_id=f"r{i:03d}", start=float(i), n=i % 20,
                             channel=[1.0, 2.0]))
    sset = build_supervised(_summaries(runs), _hi_for(runs), realized_plan(runs), horizon=10)
    spanning = [m for m in sset.meta if m.n_runs_target < m.n_runs]
    assert spanning  # rows crossing the reset survive
    assert sset.n_rows == 20


def test_build_supervised_pairs_stay_within_asset():
    runs = _asset_runs(15, asset="a1") + _asset_runs(12, asset="a2", start0=0.5)
    sset = build_supervised(_summaries(runs), _hi_for(runs), realized_plan(runs), horizon=10)
    assert sset.n_rows == 5 + 2
    for m in sset.meta:
        assert m.run_id.split("-")[0] == m.run_id_target.split("-")[0]


def test_build_supervised_rows_sorted_by_time():
    runs = _asset_runs(15, asset="a1") + _asset_runs(15, asset="a2", start0=0.5)
    sset = build_supervised(_summaries(runs), _hi_for(runs), realized_plan(runs), horizon=10)
    times = [m.start_time for m in sset.meta]
    assert times == sorted(times)


def test_build_supervised_noiseless_target_matches_closed_form():
    # derived: constant recipe, no noise; y at row t equals the closed
    # form evaluated at the contamination ten runs later
    config = ChamberConfig(noise_sigma=0.0, seasonal_amplitude=0.0, weather_sigma=0.0)
    recipes = (RecipeSpec("std", 0.8),)
    ds = simulate_history(config, recipes, 1, 60, 100, seed=0)
    fits, series = derive_hi(ds.runs, [composite_curve(r, config.sensors) for r in ds.runs],
                             default_segments(), 100)
    sset = build_supervised(_summaries(ds.runs, config.sensors), hi_by_run_id(series),
                            ds.plan, horizon=10)
    seg = series.selected_segment
    for row_idx in range(0, sset.n_rows, max(1, sset.n_rows // 20)):
        m = sset.meta[row_idx]
        c_target = 0.8 * m.n_runs_target
        expected = true_segment_duration(seg, config, config.steady_state_pressure(c_target))
        assert sset.y[row_idx] == pytest.approx(expected, abs=config.sample_dt)


def test_build_supervised_plan_mismatch_raises():
    runs = _asset_runs(15)
    with pytest.raises(DataError):
        build_supervised(_summaries(runs), _hi_for(runs), {"a1": ["std"] * 3}, horizon=10)


def _supervised_fixture(n=40, asset="a1", start0=0.0):
    runs = _asset_runs(n, asset=asset, start0=start0)
    return build_supervised(_summaries(runs), _hi_for(runs), realized_plan(runs), horizon=10)


def test_chrono_split_sizes():
    sset = _supervised_fixture(20)  # 10 rows
    train, test = chrono_split(sset, 0.7)
    assert train.n_rows == 7 and test.n_rows == 3


def test_chrono_split_time_ordering():
    sset = _supervised_fixture(40)
    train, test = chrono_split(sset, 0.7)
    assert max(m.start_time for m in train.meta) < min(m.start_time for m in test.meta)


def test_chrono_split_2000_rows_gives_1400_train():
    sset = _supervised_fixture(2010)  # 2000 rows after horizon trimming
    train, test = chrono_split(sset, 0.7)
    assert train.n_rows == 1400 and test.n_rows == 600


def test_chrono_split_too_few_rows():
    sset = _supervised_fixture(19)  # 9 rows
    with pytest.raises(DataError, match="need >= 10 rows to split, got 9"):
        chrono_split(sset, 0.7)


def test_chrono_split_encodes_one_hot_blocks():
    runs = _asset_runs(20, asset="a1")
    for i, r in enumerate(runs):
        object.__setattr__(r, "recipe_id", "A" if i % 2 == 0 else "B")
    sset = build_supervised(_summaries(runs), _hi_for(runs), realized_plan(runs), horizon=10)
    train, test = chrono_split(sset, 0.7)
    assert _vocab(train) == ("A", "B")
    names = train.feature_names
    assert "recipe_A" in names and "plan10_B" in names
    # every one-hot block sums to 0 or 1 on every row
    vocab_n = len(_vocab(train))
    for part in (train, test):
        start = len(names) - 11 * vocab_n
        for row in part.X:
            for b in range(11):
                block = row[start + b * vocab_n : start + (b + 1) * vocab_n]
                assert block.sum() in (0.0, 1.0)


def test_unseen_test_recipe_encodes_to_zero_block():
    runs = _asset_runs(30, asset="a1")
    for i, r in enumerate(runs):
        object.__setattr__(r, "recipe_id", "A" if i < 24 else "ZNEW")
    sset = build_supervised(_summaries(runs), _hi_for(runs), realized_plan(runs), horizon=10)
    train, test = chrono_split(sset, 0.7)
    # ZNEW appears only in late rows; if absent from train vocab its
    # current-recipe block is all zero
    if "ZNEW" not in _vocab(train):
        vocab_n = len(_vocab(train))
        start = len(train.feature_names) - 11 * vocab_n
        for row, m in zip(test.X, test.meta):
            if m.recipe_id == "ZNEW":
                assert row[start : start + vocab_n].sum() == 0.0


def test_no_leakage_from_test_rows():
    sset = _supervised_fixture(40)
    train1, _ = chrono_split(sset, 0.7)
    # perturb a test-region row's numeric features and recipe
    sset2 = _supervised_fixture(40)
    X2 = sset2.X.copy()
    X2[-1] += 1e6
    from dataclasses import replace
    meta2 = list(sset2.meta)
    meta2[-1] = replace(meta2[-1], recipe_id="EVIL", plan=("EVIL",) * 10)
    sset2 = replace(sset2, X=X2, meta=tuple(meta2))
    train2, _ = chrono_split(sset2, 0.7)
    assert np.array_equal(train1.X, train2.X)
    assert _vocab(train1) == _vocab(train2)
    assert train1.feature_names == train2.feature_names


def test_standardize_basic():
    train = np.array([[0.0], [2.0]])
    out = standardize(train, train)
    assert out.tolist() == [[-1.0], [1.0]]


def test_standardize_constant_column_maps_to_zero():
    train = np.array([[3.0, 1.0], [3.0, 2.0]])
    out = standardize(train, np.array([[3.0, 1.5], [99.0, 1.5]]))
    assert out[0, 0] == 0.0 and out[1, 0] == 0.0
    assert out[0, 1] == 0.0  # value equal to the train mean maps to 0


def test_standardizer_roundtrip_stats():
    rng = np.random.default_rng(0)
    train = rng.normal(5, 3, size=(50, 4))
    std = Standardizer.fit(train)
    z = std.transform(train)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(z.std(axis=0), 1.0, atol=1e-12)
