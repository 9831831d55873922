"""Supervised dataset construction tests: aggregates, encoding, split."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chamberhealth.core import CHANNELS, RunMeta, RunRecord, SensorSpec, composite_curve
from chamberhealth.errors import DataError
from chamberhealth.features import (
    RowMeta,
    Standardizer,
    aggregate_channels,
    aggregate_runs,
    build_supervised,
    chrono_split,
    encode_recipe_plan,
)
from chamberhealth.simgen import (
    ChamberConfig,
    RecipeSpec,
    default_recipes,
    default_segments,
    simulate_history,
    true_segment_duration,
)
from helpers import (
    aggregates_of,
    chunk_of,
    derive_hi_of,
    hi_column,
    reference_build_supervised,
    reference_encode_recipe_plan,
    same_column,
    sensors_with_sigma,
)

WIDE = [SensorSpec("s1", (1e-10, 2e3), priority=1)]


def _vocab(sset):
    """The training vocabulary, read back from the current-recipe feature names."""
    return tuple(n[len("recipe_") :] for n in sset.feature_names if n.startswith("recipe_"))


def standardize(train_X, X):
    """z-score ``X`` using column statistics of ``train_X``."""
    return Standardizer.fit(train_X).transform(X)


def _aggregates(runs, sensors=WIDE):
    return aggregates_of(runs, sensors)


def make_run(run_id="r0", asset="a1", start=0.0, n=0, channel=None, recipe="std"):
    t = np.arange(4) * 0.5
    p = np.array([100.0, 10.0, 1.0, 0.1])
    # every channel of CHANNELS holds ``channel``'s values, repeated, or zeros
    values = np.resize(np.asarray([0.0] if channel is None else channel, dtype=float), t.size)
    return RunRecord(
        run_id=run_id,
        asset_id=asset,
        start_time=start,
        recipe_id=recipe,
        n_runs=n,
        t=t,
        readings=p[:, None],
        extra_channels=dict.fromkeys(CHANNELS, values),
        true_c=0.0,
        true_p_ss=0.0,
    )


def test_aggregates_hand_arithmetic():
    # population std by design; hand arithmetic on channel [1,2,3]
    run2 = RunRecord(
        run_id="r1", asset_id="a1", start_time=0.0, recipe_id="std", n_runs=0,
        t=np.arange(3) * 0.5, readings=np.array([[100.0], [10.0], [1.0]]),
        extra_channels={"ch": np.array([1.0, 2.0, 3.0])}, true_c=0.0, true_p_ss=0.0,
    )
    aggs = aggregate_channels(run2, composite_curve(run2, WIDE))
    assert (aggs["ch_mean"], aggs["ch_min"], aggs["ch_max"]) == (2.0, 1.0, 3.0)
    assert aggs["ch_std"] == pytest.approx(0.816496580927726, abs=1e-12)


def test_aggregates_constant_channel():
    run = RunRecord(
        run_id="r1", asset_id="a1", start_time=0.0, recipe_id="std", n_runs=0,
        t=np.arange(2) * 0.5, readings=np.array([[100.0], [10.0]]),
        extra_channels={"ch": np.array([5.0, 5.0])}, true_c=0.0, true_p_ss=0.0,
    )
    aggs = aggregate_channels(run, composite_curve(run, WIDE))
    assert [aggs[f"ch_{stat}"] for stat in ("mean", "min", "max", "std")] == [5.0, 5.0, 5.0, 0.0]


def test_aggregates_match_two_pass_oracle():
    # derived: naive two-pass mean/std recomputation, exact to 1e-12
    from chamberhealth.simgen import ChamberState
    from helpers import simulate_one

    config = ChamberConfig()
    run = simulate_one(ChamberState(contamination=20.0), RecipeSpec("std", 0.8),
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


def test_aggregate_runs_hold_each_runs_aggregates_as_columns():
    runs = [make_run(run_id=f"r{i}", channel=[float(i), 2.0 * i + 1]) for i in range(3)]
    columns = _aggregates(runs)
    curves = [composite_curve(r, WIDE) for r in runs]
    assert list(columns) == list(aggregate_channels(runs[0], curves[0]))
    for i, (run, curve) in enumerate(zip(runs, curves)):
        row = {name: values[i] for name, values in columns.items()}
        assert row == aggregate_channels(run, curve)


@settings(max_examples=100, deadline=None)
@given(
    # equal lengths share one matrix; 1 and lengths past numpy's 128-value
    # pairwise-summation block included
    lengths=st.lists(st.one_of(st.sampled_from([1, 2, 130, 300]), st.integers(1, 400)),
                     min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_aggregate_runs_equal_aggregate_channels_of_each_run(lengths, seed):
    rng = np.random.default_rng(seed)

    def values(n):  # a channel around an offset, on a scale of its own
        return rng.uniform(-1e3, 1e3) + 10.0 ** rng.uniform(-6, 3) * rng.standard_normal(n)

    runs = [
        RunRecord(run_id=f"r{k}", asset_id="a", start_time=0.0, recipe_id="std", n_runs=0,
                  t=np.arange(n) * 0.5, readings=np.ones((n, 1)),
                  extra_channels={"temp_c": values(n), "gas_flow": values(n)},
                  true_c=0.0, true_p_ss=0.0)
        for k, n in enumerate(lengths)
    ]
    curves = [np.abs(values(n)) for n in lengths]
    columns = aggregate_runs(chunk_of(runs), np.concatenate(curves))
    for k, (run, curve) in enumerate(zip(runs, curves)):
        expected = aggregate_channels(run, curve)
        assert list(columns) == list(expected)
        assert np.array([c[k] for c in columns.values()]).tobytes() == \
            np.array(list(expected.values())).tobytes()


def test_encode_plan_basic_blocks():
    vocab = ["A", "B"]
    out = encode_recipe_plan(np.array([["A", "B", "A"], ["B", "B", "A"]]), vocab)
    assert out.tolist() == [[1, 0, 0, 1, 1, 0], [0, 1, 0, 1, 1, 0]]


def test_encode_plan_unknown_recipe_is_zero_block():
    out = encode_recipe_plan(np.array([["A", "C"]]), ["A", "B"])
    assert out.tolist() == [[1, 0, 0, 0]]


def test_encode_plan_shape_and_mass():
    vocab = ["A", "B", "C"]
    plan = np.array([["A"] * 10])
    out = encode_recipe_plan(plan, vocab)
    assert out.size == 30
    assert out.sum() <= 10


def _asset_runs(n, asset="a1", start0=0.0, recipe="std"):
    return [
        make_run(run_id=f"{asset}-{i:03d}", asset=asset, start=start0 + i,
                 n=i % 100, channel=[float(i), float(i + 1)][:2], recipe=recipe)
        for i in range(n)
    ]


def _hi_for(runs):
    return np.array([10.0 + 0.1 * r.n_runs for r in runs])


def test_build_supervised_row_count():
    runs = _asset_runs(15)
    sset = build_supervised(runs, _aggregates(runs), _hi_for(runs), horizon=10)
    assert sset.n_rows == 5


def test_build_supervised_keeps_maintenance_spanning_rows():
    runs = []
    for i in range(30):
        runs.append(make_run(run_id=f"r{i:03d}", start=float(i), n=i % 20,
                             channel=[1.0, 2.0]))
    sset = build_supervised(runs, _aggregates(runs), _hi_for(runs), horizon=10)
    spanning = sset.meta.n_runs_target < sset.meta.n_runs
    assert spanning.any()  # rows crossing the reset survive
    assert sset.n_rows == 20


def test_build_supervised_pairs_stay_within_asset():
    runs = _asset_runs(15, asset="a1") + _asset_runs(12, asset="a2", start0=0.5)
    sset = build_supervised(runs, _aggregates(runs), _hi_for(runs), horizon=10)
    assert sset.n_rows == 5 + 2
    for run_id, target in zip(sset.meta.run_id.tolist(), sset.meta.run_id_target.tolist()):
        assert run_id.split("-")[0] == target.split("-")[0]


def test_build_supervised_rows_sorted_by_time():
    runs = _asset_runs(15, asset="a1") + _asset_runs(15, asset="a2", start0=0.5)
    sset = build_supervised(runs, _aggregates(runs), _hi_for(runs), horizon=10)
    times = sset.meta.start_time.tolist()
    assert times == sorted(times)


def test_build_supervised_noiseless_target_matches_closed_form():
    # derived: constant recipe, no noise; y at row t equals the closed
    # form evaluated at the contamination ten runs later
    config = ChamberConfig(sensors=sensors_with_sigma(), seasonal_amplitude=0.0, weather_sigma=0.0)
    recipes = (RecipeSpec("std", 0.8),)
    history = tuple(simulate_history(config, recipes, 1, 60, 100, seed=0))
    fits, series = derive_hi_of(history, config.sensors, default_segments(), 100, 400)
    sset = build_supervised(history, _aggregates(history, config.sensors),
                            hi_column(history, series), horizon=10)
    seg = series.selected_segment
    for row_idx in range(0, sset.n_rows, max(1, sset.n_rows // 20)):
        c_target = 0.8 * sset.meta.n_runs_target[row_idx]
        expected = true_segment_duration(seg, config, config.steady_state_pressure(c_target))
        assert sset.y[row_idx] == pytest.approx(expected, abs=config.sample_dt)


# run names in text order, which is not their numeric order: "10" < "2";
# and run id prefixes in the reverse of their assets' order
RUN_NAMES = sorted(map(str, range(12)))
RUN_PREFIX = ("r2", "r1", "r0")


@settings(max_examples=100, deadline=None)
@given(
    recipes=st.lists(st.lists(st.sampled_from("ABC"), max_size=12), min_size=1, max_size=3),
    horizon=st.integers(1, 4),
    data=st.data(),
)
def test_row_plan_is_the_assets_next_runs_in_time_order(recipes, horizon, data):
    # asset a's k-th run in time is <RUN_PREFIX[a]>-<RUN_NAMES[k]>; runs
    # 2j-1 and 2j share a start_time, so run_id breaks the tie, in text
    # order ("11" before "2"), as it does between assets, in the reverse
    # of their order; some runs have no HI; the runs come in shuffled order
    runs = [
        RunMeta(run_id=f"{RUN_PREFIX[a]}-{RUN_NAMES[k]}", asset_id=f"a{a}",
                start_time=float((k + 1) // 2), recipe_id=rid, n_runs=k)
        for a, seq in enumerate(recipes) for k, rid in enumerate(seq)
    ]
    runs = data.draw(st.permutations(runs))
    has_hi = data.draw(st.lists(st.booleans(), min_size=len(runs), max_size=len(runs)))
    code = {run.run_id: 100.0 * int(run.asset_id[1:]) + run.n_runs for run in runs}
    aggregates = {"x_mean": np.array([code[run.run_id] for run in runs])}
    hi = np.array([code[run.run_id] + 0.5 if has else np.nan for run, has in zip(runs, has_hi)])
    with_hi = {run.run_id for run, has in zip(runs, has_hi) if has}
    name = [[f"{RUN_PREFIX[a]}-{k}" for k in RUN_NAMES] for a in range(len(recipes))]
    expected = {
        name[a][k]: (seq[k], tuple(seq[k + 1 : k + 1 + horizon]))
        for a, seq in enumerate(recipes) for k in range(len(seq) - horizon)
        if {name[a][k], name[a][k + horizon]} <= with_hi
    }
    if not expected:
        with pytest.raises(DataError, match="no supervised rows"):
            build_supervised(runs, aggregates, hi, horizon=horizon)
        return
    sset = build_supervised(runs, aggregates, hi, horizon=horizon)
    meta = sset.meta
    plans = map(tuple, meta.plan.tolist())
    assert dict(zip(meta.run_id.tolist(), zip(meta.recipe_id.tolist(), plans))) == expected
    assert sset.n_rows == len(expected)
    assert sset.X[:, 0].tolist() == [code[run_id] for run_id in meta.run_id.tolist()]

    # bit for bit the row-by-row reference's rows, and its one-hot blocks
    X, y, columns = reference_build_supervised(runs, aggregates, hi, horizon)
    assert same_column(sset.X, X) and same_column(sset.y, y)
    for field in fields(RowMeta):
        assert same_column(getattr(meta, field.name), columns[field.name]), field.name
    if sset.n_rows < 10:
        return
    train, test = chrono_split(sset, 0.7)
    vocab = sorted(set(train.meta.recipe_id.tolist()) | set(train.meta.plan.ravel().tolist()))
    assert _vocab(train) == tuple(vocab)
    for part in (train, test):
        blocks = [reference_encode_recipe_plan((rid, *plan), vocab, horizon + 1)
                  for rid, plan in zip(part.meta.recipe_id.tolist(), part.meta.plan.tolist())]
        assert same_column(part.X[:, len(sset.feature_names):], np.array(blocks))


def _supervised_fixture(n=40, asset="a1", start0=0.0):
    runs = _asset_runs(n, asset=asset, start0=start0)
    return build_supervised(runs, _aggregates(runs), _hi_for(runs), horizon=10)


def test_chrono_split_sizes():
    sset = _supervised_fixture(20)  # 10 rows
    train, test = chrono_split(sset, 0.7)
    assert train.n_rows == 7 and test.n_rows == 3


def test_chrono_split_time_ordering():
    sset = _supervised_fixture(40)
    train, test = chrono_split(sset, 0.7)
    assert train.meta.start_time.max() < test.meta.start_time.min()


def test_chrono_split_2000_rows_gives_1400_train():
    sset = _supervised_fixture(2010)  # 2000 rows after horizon trimming
    train, test = chrono_split(sset, 0.7)
    assert train.n_rows == 1400 and test.n_rows == 600


def test_chrono_split_too_few_rows():
    sset = _supervised_fixture(19)  # 9 rows
    with pytest.raises(DataError, match="need >= 10 rows to split, got 9"):
        chrono_split(sset, 0.7)
    # enough rows, but a fraction of them that rounds down to no train row
    with pytest.raises(DataError, match=r"degenerate split sizes \(0, 10\)"):
        chrono_split(_supervised_fixture(20), 0.05)


def test_chrono_split_encodes_one_hot_blocks():
    runs = _asset_runs(20, asset="a1")
    for i, r in enumerate(runs):
        object.__setattr__(r, "recipe_id", "A" if i % 2 == 0 else "B")
    sset = build_supervised(runs, _aggregates(runs), _hi_for(runs), horizon=10)
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


def test_vocabulary_holds_a_recipe_planned_only_last_in_train():
    # 20 runs make rows 0-9, of which 0-6 train; run 16 is row 6's tenth planned run
    runs = _asset_runs(20, asset="a1")
    object.__setattr__(runs[16], "recipe_id", "Z")
    sset = build_supervised(runs, _aggregates(runs), _hi_for(runs), horizon=10)
    train, test = chrono_split(sset, 0.7)
    assert _vocab(train) == ("Z", "std")
    assert train.X[6, train.feature_names.index("plan10_Z")] == 1.0


def test_unseen_test_recipe_encodes_to_zero_block():
    runs = _asset_runs(30, asset="a1")
    for i, r in enumerate(runs):
        object.__setattr__(r, "recipe_id", "A" if i < 24 else "ZNEW")
    sset = build_supervised(runs, _aggregates(runs), _hi_for(runs), horizon=10)
    train, test = chrono_split(sset, 0.7)
    # ZNEW appears only in late rows; if absent from train vocab its
    # current-recipe block is all zero
    if "ZNEW" not in _vocab(train):
        vocab_n = len(_vocab(train))
        start = len(train.feature_names) - 11 * vocab_n
        for row, recipe_id in zip(test.X, test.meta.recipe_id.tolist()):
            if recipe_id == "ZNEW":
                assert row[start : start + vocab_n].sum() == 0.0


def test_no_leakage_from_test_rows():
    sset = _supervised_fixture(40)
    train1, _ = chrono_split(sset, 0.7)
    # perturb a test-region row's numeric features and recipe
    sset2 = _supervised_fixture(40)
    X2 = sset2.X.copy()
    X2[-1] += 1e6
    meta2 = replace(sset2.meta, recipe_id=np.append(sset2.meta.recipe_id[:-1], "EVIL"),
                    plan=np.vstack([sset2.meta.plan[:-1], ["EVIL"] * 10]))
    sset2 = replace(sset2, X=X2, meta=meta2)
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


def test_standardizer_refuses_an_empty_matrix():
    # its mean would be NaN, with numpy's RuntimeWarning
    with pytest.raises(DataError, match="cannot standardize an empty matrix"):
        Standardizer.fit(np.empty((0, 3)))


def test_standardizer_roundtrip_stats():
    rng = np.random.default_rng(0)
    train = rng.normal(5, 3, size=(50, 4))
    std = Standardizer.fit(train)
    z = std.transform(train)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(z.std(axis=0), 1.0, atol=1e-12)
