"""Regressor and benchmark tests, including independent oracles."""

import inspect
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from chamberhealth import models
from chamberhealth.errors import ConfigError, ModelError
from chamberhealth.features import SupervisedSet
from chamberhealth.models import (
    RegressorSpec,
    benchmark_predict,
    fit_decision_tree,
    fit_knn,
    fit_linear_svr,
    fit_mlp,
    fit_random_forest,
    load_model,
    mlp_gradients,
    mlp_init,
    mlp_loss,
    save_model,
    train_model,
    train_models,
)
from helpers import (
    edited_npz,
    hi_column,
    hyper,
    preorder,
    reference_bm2,
    reference_build_tree,
    reference_fit_linear_svr,
    reference_fit_mlp,
    reference_forest_predict,
    reference_forest_tree,
    reference_knn_predict,
    table_rows,
    toy_meta,
)

# -- CART ----------------------------------------------------------------


def test_tree_two_point_split():
    model = fit_decision_tree(np.array([[0.0], [1.0]]), np.array([0.0, 10.0]),
                              max_depth=1, min_samples_leaf=1)
    assert model.feature[0] == 0
    assert model.threshold[0] == pytest.approx(0.5)
    assert model.predict(np.array([[0.0]]))[0] == 0.0
    assert model.predict(np.array([[1.0]]))[0] == 10.0


def test_tree_interpolates_training_data_exactly():
    # unlimited depth + min_leaf 1 + distinct rows => zero training error
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(64, 3))
    y = rng.uniform(size=64)
    model = fit_decision_tree(X, y, max_depth=64, min_samples_leaf=1)
    assert np.mean(np.abs(model.predict(X) - y)) == pytest.approx(0.0, abs=1e-15)


def test_tree_empty_training():
    with pytest.raises(ModelError, match="decision tree needs at least one sample"):
        fit_decision_tree(np.empty((0, 2)), np.array([]), **hyper("dt"))


@pytest.mark.parametrize("kind, fit, seeded", [
    ("knn", fit_knn, {}), ("svr", fit_linear_svr, {}), ("mlp", fit_mlp, {"seed": 0})],
    ids=["knn", "svr", "mlp"])
def test_fits_on_no_rows_are_refused(kind, fit, seeded):
    # the mean of no targets would be NaN, with numpy's RuntimeWarning
    with pytest.raises(ModelError, match=f"^{kind} needs at least one sample$"):
        fit(np.empty((0, 2)), np.array([]), **hyper(kind), **seeded)


def test_tree_constant_target_is_single_leaf():
    X = np.arange(10, dtype=float)[:, None]
    model = fit_decision_tree(X, np.full(10, 3.0), max_depth=5, min_samples_leaf=1)
    assert model.feature.tolist() == [-1]
    assert model.predict(X).tolist() == [3.0] * 10


def brute_force_best_split(X, y, min_leaf):
    """Exhaustive O(n^2) split search straight from the definition."""
    best = None
    n, m = X.shape
    for f in range(m):
        values = sorted(set(X[:, f]))
        for lo, hi in zip(values, values[1:]):
            thr = 0.5 * (lo + hi)
            mask = X[:, f] <= thr
            nl, nr = int(mask.sum()), int((~mask).sum())
            if nl < min_leaf or nr < min_leaf:
                continue
            sse = 0.0
            for part in (y[mask], y[~mask]):
                sse += float(np.sum((part - part.mean()) ** 2))
            if best is None or sse < best[2] - 1e-12:
                best = (f, thr, sse)
    return best


def collect_split_nodes(tree, i, X, y, out):
    """(feature, threshold, node rows X, y) of every split under row i."""
    feature, threshold = int(tree.feature[i]), float(tree.threshold[i])
    if feature < 0:
        return
    out.append((feature, threshold, X, y))
    mask = X[:, feature] <= threshold
    collect_split_nodes(tree, i + 1, X[mask], y[mask], out)
    collect_split_nodes(tree, tree.right[i], X[~mask], y[~mask], out)


def test_tree_splits_match_brute_force_oracle():
    # derived: every internal node of a depth-3 tree picks the same
    # split (and SSE) as an exhaustive search
    rng = np.random.default_rng(42)
    X = rng.uniform(size=(200, 4))
    y = rng.normal(size=200)
    model = fit_decision_tree(X, y, max_depth=3, min_samples_leaf=2)
    nodes = []
    collect_split_nodes(model, 0, X, y, nodes)
    assert nodes
    for feature, threshold, Xn, yn in nodes:
        f, thr, sse = brute_force_best_split(Xn, yn, 2)
        assert feature == f
        assert threshold == pytest.approx(thr, rel=1e-12)
        mask = Xn[:, feature] <= threshold
        got = sum(
            float(np.sum((part - part.mean()) ** 2))
            for part in (yn[mask], yn[~mask])
        )
        assert got == pytest.approx(sse, rel=1e-9)


def _root_split(X, y):
    tree = fit_decision_tree(np.asarray(X, dtype=float), np.asarray(y, dtype=float),
                             max_depth=1, min_samples_leaf=1)
    return int(tree.feature[0]), float(tree.threshold[0])


def test_tree_split_ties_pick_the_lower_feature_then_the_lower_threshold():
    x = [0.0, 1.0, 2.0, 3.0]
    # a duplicated column scores exactly like its original; a constant
    # column has no candidate threshold at all
    assert _root_split(np.column_stack([x, x]), [0, 0, 5, 5]) == (0, 1.5)
    assert _root_split(np.column_stack([np.ones(4), x, x]), [0, 0, 5, 5]) == (1, 1.5)
    # thresholds 0.5 and 2.5 both leave SSE 2/3 (bit-equal): the lower one wins
    assert _root_split(np.column_stack([x]), [0, 1, 1, 0]) == (0, 0.5)
    # feature 0 splits perfectly at 2.5, feature 1 at 0.5: the lower
    # feature wins even though the other threshold comes first in its column
    assert _root_split(np.column_stack([x, [1.0, 2.0, 3.0, 0.0]]), [0, 0, 0, 5]) == (0, 2.5)


def _awkward_features(rng, n):
    """Repeated values with both zeros, one-hot columns, a duplicated
    column, a constant column and a rounded continuous one."""
    levels = rng.choice([-1.5, -0.0, 0.0, 0.25, 2.0], size=(n, 2))
    onehot = np.eye(3)[rng.integers(0, 3, n)]
    return np.column_stack([levels, onehot, levels[:, 1], np.zeros(n), rng.normal(size=n).round(1)])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 70), min_leaf=st.integers(1, 5),
       max_depth=st.integers(0, 7), bootstrap=st.booleans(), data=st.data())
def test_trees_match_the_float_argsort_reference_node_for_node(
    seed, n, min_leaf, max_depth, bootstrap, data
):
    # the rank-code search must grow the float stable-argsort grower's
    # trees exactly, as node tables: same split, threshold bits, leaf
    # value bits, n and right child, row for row in preorder
    rng = np.random.default_rng(seed)
    X = _awkward_features(rng, n)
    noise = data.draw(st.sampled_from([0.0, 1.0]), label="noise")
    y = rng.choice([-0.0, 0.0, 1.0, 2.5], size=n) + noise * rng.normal(size=n)
    m = X.shape[1]
    fps = data.draw(st.integers(1, m), label="features_per_split")
    tree = fit_decision_tree(X, y, max_depth=max_depth, min_samples_leaf=min_leaf)
    reference = reference_build_tree(X, y, 0, max_depth, min_leaf, None, None)
    assert table_rows(tree) == preorder(reference)
    forest = fit_random_forest(X, y, n_trees=3, max_depth=max_depth, min_samples_leaf=min_leaf,
                               features_per_split=fps, seed=seed, bootstrap=bootstrap)
    subset = fps if fps < m else None
    assert forest.roots[0] == 0 and forest.roots.size == 3
    stops = forest.roots[1:].tolist() + [forest.value.size]
    for i, (start, stop) in enumerate(zip(forest.roots.tolist(), stops)):
        reference = reference_forest_tree(X, y, i, seed, max_depth, min_leaf, subset, bootstrap)
        assert table_rows(forest, start, stop) == preorder(reference, start)


def _fit(fit, X, y):
    """``fit`` (one of models._FITTERS) with its kind's defaults and seed 0."""
    kind = next(kind for kind, f in models._FITTERS.items() if f is fit)
    return fit(X, y, **models._params(RegressorSpec(kind)))


FITS = list(models._FITTERS.values())


@pytest.mark.parametrize("where", ["X", "y"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("fit", FITS)
def test_trees_refuse_non_finite_input(fit, bad, where):
    # and so does every other fitter: a NaN would not be named for what it
    # is, but as a split of its own or a descent's step too large
    X = np.arange(12, dtype=float).reshape(6, 2)
    y = np.arange(6, dtype=float)
    if where == "X":
        X[3, 1] = bad
    else:
        y[3] = bad
    with pytest.raises(ModelError, match="needs finite features and targets"):
        _fit(fit, X, y)


@pytest.mark.parametrize("shape", ["one-target-short", "one-target-over", "1-d-X"])
@pytest.mark.parametrize("fit", FITS)
def test_fits_refuse_an_x_without_one_row_per_target(fit, shape):
    # unchecked, a short y would drop X's last rows, and a long one give knn targets of no row
    X = np.arange(60, dtype=float).reshape(30, 2)
    X, y = {"one-target-short": (X, np.arange(29.0)), "one-target-over": (X, np.arange(31.0)),
            "1-d-X": (X[:, 0], np.arange(30.0))}[shape]
    with pytest.raises(ModelError, match=r"needs a 2-d X with one row per target, got \("):
        _fit(fit, X, y)


def test_tree_depth_and_leaf_limits():
    rng = np.random.default_rng(1)
    X = rng.uniform(size=(100, 2))
    y = rng.normal(size=100)
    model = fit_decision_tree(X, y, max_depth=2, min_samples_leaf=10)

    def check(i, depth):
        if model.feature[i] < 0:
            assert model.n[i] >= 10
            return
        assert depth < 2
        check(i + 1, depth + 1)
        check(model.right[i], depth + 1)

    check(0, 0)


# -- random forest ---------------------------------------------------------


def test_degenerate_forest_equals_tree():
    rng = np.random.default_rng(3)
    for trial in range(20):
        X = rng.uniform(size=(60, 3))
        y = rng.normal(size=60)
        q = rng.uniform(size=(30, 3))
        tree = fit_decision_tree(X, y, max_depth=8, min_samples_leaf=5)
        forest = fit_random_forest(
            X, y, n_trees=1, max_depth=8, min_samples_leaf=5,
            features_per_split=3, seed=trial, bootstrap=False,
        )
        assert np.array_equal(tree.predict(q), forest.predict(q))


def test_forest_same_seed_same_predictions():
    rng = np.random.default_rng(11)
    X = rng.uniform(size=(80, 4))
    y = rng.normal(size=80)
    q = rng.uniform(size=(20, 4))
    a = fit_random_forest(X, y, **hyper("rf", n_trees=12), seed=7)
    b = fit_random_forest(X, y, **hyper("rf", n_trees=12), seed=7)
    assert np.array_equal(a.predict(q), b.predict(q))


def test_trees_invariant_under_monotone_feature_transform():
    # axis-aligned splits depend only on feature order, so applying a
    # strictly monotone transform consistently to train and query rows
    # leaves predictions at the fitted points unchanged; the forest runs
    # without bootstrap because out-of-bag queries may fall between two
    # bootstrap values, where the warped midpoint threshold can land on
    # the other side
    rng = np.random.default_rng(17)
    X = rng.uniform(-2, 2, size=(90, 3))
    y = rng.normal(size=90)
    warped = np.sign(X) * np.abs(X) ** 3  # strictly monotone per feature
    tree_a = fit_decision_tree(X, y, max_depth=6, min_samples_leaf=3)
    tree_b = fit_decision_tree(warped, y, max_depth=6, min_samples_leaf=3)
    assert np.array_equal(tree_a.predict(X), tree_b.predict(warped))
    rf_a = fit_random_forest(X, y, **hyper("rf", n_trees=10, features_per_split=2), seed=2,
                             bootstrap=False)
    rf_b = fit_random_forest(warped, y, **hyper("rf", n_trees=10, features_per_split=2), seed=2,
                             bootstrap=False)
    assert np.array_equal(rf_a.predict(X), rf_b.predict(warped))


@pytest.mark.parametrize("cpus", [{0}, {0, 1, 2}])
def test_forest_does_not_depend_on_the_cpu_count(monkeypatch, cpus):
    # 7 trees split into uneven contiguous ranges over the workers; the
    # table must be the one the same fit grows on the default CPUs
    rng = np.random.default_rng(23)
    X = rng.uniform(size=(120, 5))
    y = rng.normal(size=120)
    default = fit_random_forest(X, y, **hyper("rf", n_trees=7), seed=4)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: cpus)
    forest = fit_random_forest(X, y, **hyper("rf", n_trees=7), seed=4)
    assert table_rows(forest) == table_rows(default)
    assert forest.roots.tolist() == default.roots.tolist()


B = models.FOREST_ROWS_PER_BLOCK


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 3])
def test_forest_predicts_in_blocks_with_the_bits_of_one_walk(n):
    # B + 1 rows leave a last block of one row, which a numpy reduction would sum pairwise
    rng = np.random.default_rng(29)
    X = rng.normal(size=(300, 4))
    y = rng.normal(size=300) * 10.0 ** rng.integers(-3, 4, size=300)
    forest = fit_random_forest(X, y, **hyper("rf", n_trees=40, min_samples_leaf=1), seed=5)
    q = rng.normal(size=(n, 4))
    predicted = forest.predict(q)
    assert predicted.shape == (n,)
    assert predicted.tobytes() == reference_forest_predict(forest, q).tobytes()


def test_forest_predicts_a_row_alone_with_the_bits_of_the_batch():
    # and so does a tree, whose mean over its one tree is its leaf value
    rng = np.random.default_rng(31)
    X = rng.normal(size=(300, 4))
    y = rng.normal(size=300) * 10.0 ** rng.integers(-3, 4, size=300)
    forest = fit_random_forest(X, y, **hyper("rf", min_samples_leaf=1), seed=5)
    tree = fit_decision_tree(X, y, **hyper("dt", min_samples_leaf=1))
    q = rng.normal(size=(200, 4))
    for model in (forest, tree):
        batch = model.predict(q)
        alone = np.concatenate([model.predict(q[i : i + 1]) for i in range(q.shape[0])])
        assert alone.tobytes() == batch.tobytes()
    assert batch.tobytes() == tree._leaf_values(q)[0].tobytes()


def test_forest_constant_target():
    X = np.arange(20, dtype=float)[:, None]
    model = fit_random_forest(X, np.full(20, 7.5), **hyper("rf", n_trees=5), seed=0)
    assert np.all(model.predict(X) == 7.5)


def test_forest_validation():
    with pytest.raises(ModelError, match="random forest needs at least one sample"):
        fit_random_forest(np.empty((0, 1)), np.array([]), **hyper("rf"), seed=0)
    with pytest.raises(ConfigError):
        fit_random_forest(np.ones((3, 1)), np.ones(3), **hyper("rf", n_trees=0), seed=0)
    for limits in ({"max_depth": -1}, {"min_samples_leaf": 0}):
        with pytest.raises(ConfigError, match="need max_depth >= 0 and min_samples_leaf >= 1"):
            fit_random_forest(np.ones((3, 1)), np.ones(3), **hyper("rf", **limits), seed=0)
    # a feature count outside [1, m] is refused, not clamped; m itself is kept
    X, y = np.arange(12.0).reshape(6, 2), np.arange(6.0)
    for fps in (3, -1):
        refusal = rf"^features_per_split must be in \[1, 2\], got {fps}$"
        with pytest.raises(ModelError, match=refusal):
            fit_random_forest(X, y, **hyper("rf", n_trees=1, features_per_split=fps), seed=0)
    assert fit_random_forest(X, y, **hyper("rf", n_trees=1, features_per_split=2),
                             seed=0).features_per_split == 2


# -- KNN ---------------------------------------------------------------------


def test_knn_exact_match_returns_row_target():
    X = np.array([[0.0], [1.0], [2.0]])
    model = fit_knn(X, np.array([5.0, 6.0, 7.0]), k=1)
    assert model.predict(np.array([[1.0]]))[0] == 6.0


def test_knn_two_neighbor_mean():
    # derived: brute-force distances place x=1 (d=0.1) and x=0 (d=0.9)
    X = np.array([[0.0], [1.0], [2.0]])
    model = fit_knn(X, np.array([0.0, 10.0, 20.0]), k=2)
    assert model.predict(np.array([[0.9]]))[0] == pytest.approx(5.0)


def test_knn_k_equals_n_is_global_mean():
    rng = np.random.default_rng(2)
    X = rng.uniform(size=(30, 2))
    y = rng.normal(size=30)
    model = fit_knn(X, y, k=30)
    assert model.predict(rng.uniform(size=(5, 2)))[0] == pytest.approx(float(y.mean()))


def test_knn_distance_tie_prefers_lower_index():
    X = np.array([[1.0], [-1.0], [1.0]])
    model = fit_knn(X, np.array([10.0, 20.0, 30.0]), k=1)
    # query 0: rows 0,1,2 all at distance 1; stable order picks row 0
    assert model.predict(np.array([[0.0]]))[0] == 10.0


# row scales: squared norms that are exact, past float max, or a few
# subnormal steps, where a product's rounding error is a step of its own;
# shifts of 2**26 and 2**30 put |x|^2 near 2**52 and 2**60, whose rounding
# blurs the small integer distances
KNN_SCALES = (1.0, 1e160, 1e-162)
KNN_SHIFTS = (0.0, 2.0**26, 2.0**30)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 12), m=st.integers(1, 10),
       n_test=st.integers(0, 3 * models.KNN_ROWS_PER_BLOCK + 1), width=st.sampled_from([2, 50]),
       scales=st.lists(st.sampled_from(KNN_SCALES), min_size=1, max_size=2, unique=True),
       shift=st.sampled_from(KNN_SHIFTS))
def test_knn_pruning_has_the_reference_bits(data, n, m, n_test, width, scales, shift):
    # integer features in [-width, width] and train rows drawn from a small
    # pool, so distances tie often; each row is scaled as a whole, by one
    # of the example's scales, and every row shifted alike, so ties survive
    # in large-norm rows, where the pruning bound is tight, and in rows
    # whose squared norms overflow or underflow
    cells = st.lists(st.integers(-width, width).map(float), min_size=m, max_size=m)
    pool = data.draw(st.lists(cells, min_size=1, max_size=8), label="pool")
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n),
                      label="train rows")

    def rows(cells_of_rows, label):
        row_scales = data.draw(st.lists(st.sampled_from(scales), min_size=len(cells_of_rows),
                                        max_size=len(cells_of_rows)), label=f"{label} scales")
        out = np.array(cells_of_rows, dtype=np.float64).reshape(-1, m)
        return out * np.array(row_scales)[:, None] + shift

    X = rows([pool[i] for i in picks], "train")
    q = rows(data.draw(st.lists(cells, min_size=n_test, max_size=n_test), label="test"), "test")
    y = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n), label="y"))
    knn = fit_knn(X, y, k=data.draw(st.integers(1, n), label="k"))
    assert knn.predict(q).tobytes() == reference_knn_predict(knn, q).tobytes()


@pytest.mark.parametrize("shift, scale, width", [(2.0**26, 1.0, 2), (2.0**30, 1.0, 50),
                                                  (0.0, 1e-162, 2)])
def test_knn_pruning_has_the_reference_bits_where_the_bound_is_tight(shift, scale, width):
    # rounding errors of the size of the distances themselves: here a
    # bound without its eps term, or without its subnormal term, picks
    # other neighbours in about half of the draws
    rng = np.random.default_rng(41)
    for _ in range(150):
        n, m = rng.integers(1, 13), rng.integers(1, 11)
        X = rng.integers(-width, width + 1, size=(n, m)) * scale + shift
        q = rng.integers(-width, width + 1, size=(10, m)) * scale + shift
        knn = fit_knn(X, rng.normal(size=n), k=int(rng.integers(1, n + 1)))
        assert knn.predict(q).tobytes() == reference_knn_predict(knn, q).tobytes()


def test_knn_k_bounds():
    with pytest.raises(ModelError, match=r"k must be in \[1, 3\], got 4"):
        fit_knn(np.ones((3, 1)), np.ones(3), k=4)
    with pytest.raises(ModelError, match=r"k must be in \[1, 3\], got 0"):
        fit_knn(np.ones((3, 1)), np.ones(3), k=0)


# -- linear SVR ----------------------------------------------------------------


def test_svr_recovers_linear_trend():
    # derived: compare against the exact least-squares line on the same data
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, size=200)
    y = 3.0 * x
    X = x[:, None]
    model = fit_linear_svr(X, y, epsilon=0.01, reg_lambda=1e-6,
                           steps=4000, step_size=0.2)
    q = np.linspace(-1, 1, 11)[:, None]
    ols_slope = float(np.sum(x * y) / np.sum(x * x))
    assert np.max(np.abs(model.predict(q) - ols_slope * q.ravel())) < 0.1


def test_svr_dead_zone_keeps_weights_zero():
    rng = np.random.default_rng(9)
    X = rng.uniform(size=(50, 3))
    y = rng.uniform(0.0, 0.5, size=50)
    model = fit_linear_svr(X, y, **hyper("svr", epsilon=10.0, steps=500))
    assert np.all(model.w == 0.0)
    assert model.b == pytest.approx(float(y.mean()))
    assert np.all(model.predict(X) == model.b)


def _fitted_or_refused(fit, *args, **kwargs):
    """The bytes of every array of the fitted model, or the ModelError's
    message."""
    try:
        model = fit(*args, **kwargs)
    except ModelError as exc:
        return str(exc)
    return [np.asarray(getattr(model, f.name)).tobytes() for f in fields(model)]


def _matrix(data, n, m, scale=1.0):
    return np.array(data.draw(st.lists(st.floats(-3, 3), min_size=n * m, max_size=n * m)),
                    dtype=np.float64).reshape(n, m) * scale


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 30), m=st.integers(1, 5),
       center=st.sampled_from([0.0, -0.0, 2.5, -1e6]), epsilon=st.sampled_from([0.0, 0.5, 10.0]),
       steps=st.integers(1, 1500))
def test_svr_in_the_dead_zone_has_the_bits_of_every_step(data, n, m, center, epsilon, steps):
    # every target within epsilon of the mean: no step moves w, and the
    # descent stops after the first step that changes no bit
    X = _matrix(data, n, m)
    y = center + np.array(data.draw(st.lists(st.floats(-epsilon / 2, epsilon / 2), min_size=n,
                                             max_size=n)))
    params = dict(epsilon=epsilon, reg_lambda=1e-4, steps=steps, step_size=0.1)
    assert (_fitted_or_refused(fit_linear_svr, X, y, **params)
            == _fitted_or_refused(reference_fit_linear_svr, X, y, **params))


def test_svr_stop_waits_for_a_step_that_changes_no_bit():
    # b starts at -0.0, and the first step's -0.0 - -0.0 makes it 0.0
    X = np.ones((3, 2))
    y = np.full(3, -0.0)
    params = hyper("svr", steps=50)
    assert math.copysign(1.0, fit_linear_svr(X, y, **params).b) == 1.0
    assert (_fitted_or_refused(fit_linear_svr, X, y, **params)
            == _fitted_or_refused(reference_fit_linear_svr, X, y, **params))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 30), m=st.integers(1, 5), steps=st.integers(1, 300),
       reg_lambda=st.sampled_from([0.0, 1e-4, 0.5]),
       step_size=st.sampled_from([1e-3, 0.1, 2.0, 1e300]))
def test_svr_that_moves_has_the_bits_of_every_step(data, n, m, steps, reg_lambda, step_size):
    # no dead zone, so every step moves b; 1e300 diverges and is refused by both
    X = _matrix(data, n, m)
    y = np.array(data.draw(st.lists(st.floats(-100, 100).filter(bool), min_size=n,
                                    max_size=n)))
    params = dict(epsilon=0.0, reg_lambda=reg_lambda, steps=steps, step_size=step_size)
    assert (_fitted_or_refused(fit_linear_svr, X, y, **params)
            == _fitted_or_refused(reference_fit_linear_svr, X, y, **params))


def test_svr_invariant_under_row_duplication():
    rng = np.random.default_rng(10)
    X = rng.uniform(size=(40, 2))
    y = rng.normal(size=40)
    a = fit_linear_svr(X, y, **hyper("svr", steps=300))
    b = fit_linear_svr(np.vstack([X, X]), np.concatenate([y, y]), **hyper("svr", steps=300))
    assert np.allclose(a.w, b.w, atol=1e-12)
    assert a.b == pytest.approx(b.b, abs=1e-12)


# -- MLP -------------------------------------------------------------------------


def test_mlp_gradient_check_small_batch():
    # analytic vs central finite differences on a 5x4 batch
    rng = np.random.default_rng(0)
    X = rng.normal(size=(5, 4))
    y = rng.normal(size=5)
    params = list(mlp_init(4, 6, seed=0))
    grads = mlp_gradients(params, X, y)
    h = 1e-5
    for p_idx, (param, grad) in enumerate(zip(params, grads)):
        flat = param.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = mlp_loss(params, X, y)
            flat[j] = orig - h
            down = mlp_loss(params, X, y)
            flat[j] = orig
            numeric = (up - down) / (2 * h)
            analytic = grad.ravel()[j]
            denom = max(abs(numeric), abs(analytic), 1e-8)
            assert abs(numeric - analytic) / denom < 1e-4


def test_mlp_converges_to_constant_target():
    # derived, verified empirically: with varying inputs plain GD decays
    # only power-law through the relu kinks (max err ~1e-2 after 6e4
    # full-batch steps), so the convergence contract is exercised on a
    # constant-input dataset where the output path contracts
    # geometrically; seeds 0..4
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        x0 = rng.normal(size=3)
        X = np.tile(x0, (64, 1))
        y = np.full(64, 4.0)
        model = fit_mlp(X, y, hidden_units=16, epochs=2000, batch_size=16,
                        learning_rate=1e-2, seed=seed)
        assert np.max(np.abs(model.predict(X) - 4.0)) < 1e-3


def test_mlp_same_seed_identical_weights():
    rng = np.random.default_rng(77)
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    a = fit_mlp(X, y, **hyper("mlp", hidden_units=8, epochs=5, batch_size=8), seed=21)
    b = fit_mlp(X, y, **hyper("mlp", hidden_units=8, epochs=5, batch_size=8), seed=21)
    assert np.array_equal(a.W1, b.W1) and np.array_equal(a.W2, b.W2)
    assert np.array_equal(a.b1, b.b1) and np.array_equal(a.b2, b.b2)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 40), m=st.integers(1, 4), hidden=st.integers(1, 6),
       epochs=st.integers(1, 4), batches=st.sampled_from(["divide n", "leave a part", "exceed n"]),
       seed=st.integers(0, 2**32 - 1))
def test_mlp_has_the_bits_of_the_gathered_batches(data, n, m, hidden, epochs, batches, seed):
    if batches == "divide n":
        batch_size = data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    elif batches == "leave a part":
        sizes = [d for d in range(2, n) if n % d]
        assume(sizes)
        batch_size = data.draw(st.sampled_from(sizes))
    else:
        batch_size = data.draw(st.integers(n + 1, 2 * n + 5))
    X = _matrix(data, n, m)
    y = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n)))
    params = dict(hidden_units=hidden, epochs=epochs, batch_size=batch_size,
                  learning_rate=data.draw(st.sampled_from([1e-3, 0.05])), seed=seed)
    assert (_fitted_or_refused(fit_mlp, X, y, **params)
            == _fitted_or_refused(reference_fit_mlp, X, y, **params))


@pytest.mark.parametrize("y_scale, loss_checks", [(1.0, 0), (1e150, 3)])
def test_mlp_computes_the_loss_only_when_its_bound_proves_nothing(monkeypatch, y_scale,
                                                                  loss_checks):
    # |y| near 1e150 puts the bound n (|pred| + max|y|)^2 past 1e300 with
    # the loss still finite: each epoch's full-set loss runs and passes
    rng = np.random.default_rng(41)
    X = rng.normal(size=(30, 3))
    y = rng.normal(size=30) * y_scale
    params = hyper("mlp", hidden_units=4, epochs=3, batch_size=8, learning_rate=1e-300)
    calls = []
    monkeypatch.setattr(models, "mlp_loss", lambda *args: calls.append(1) or mlp_loss(*args))
    fitted = _fitted_or_refused(fit_mlp, X, y, **params, seed=0)
    assert len(calls) == loss_checks
    assert fitted == _fitted_or_refused(reference_fit_mlp, X, y, **params, seed=0)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.integers(2, 20), learning_rate=st.floats(0.2, 20),
       y_scale=st.sampled_from([1.0, 30.0, 1e4]), seed=st.integers(0, 2**32 - 1))
def test_diverging_mlp_is_refused_after_the_reference_s_epochs(data, n, learning_rate, y_scale,
                                                                seed):
    # the loss bound passes early epochs, then grows past 1e300 and leaves
    # the refusal to the full-set loss, at the epoch the reference refuses
    X = _matrix(data, n, 3)
    y = np.array(data.draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n))) * y_scale
    for epochs in range(1, 9):
        params = dict(hidden_units=3, epochs=epochs, batch_size=4, learning_rate=learning_rate,
                      seed=seed)
        assert (_fitted_or_refused(fit_mlp, X, y, **params)
                == _fitted_or_refused(reference_fit_mlp, X, y, **params))


# -- benchmarks ---------------------------------------------------------------


def _toy_set(y, n_runs_target, hi_current=None):
    n = len(y)
    meta = toy_meta(range(n), n_runs_target, hi_current or [0.0] * n)
    X = np.zeros((n, 1))
    return SupervisedSet(X=X, y=np.asarray(y, dtype=float),
                         feature_names=("x0",), meta=meta)


def test_bm3_is_global_train_mean():
    train = _toy_set([2.0, 4.0, 6.0], [0, 1, 2])
    test = _toy_set([1.0, 1.0], [0, 1])
    pred = benchmark_predict("bm3", train, test)
    assert pred.tolist() == [4.0, 4.0]
    assert np.ptp(pred) == 0.0


def test_bm1_is_persistence():
    train = _toy_set([2.0], [0])
    test = _toy_set([5.0, 6.0], [0, 1], hi_current=[17.3, 11.1])
    assert benchmark_predict("bm1", train, test).tolist() == [17.3, 11.1]


def test_bm2_indexes_by_target_cycle_position():
    train = _toy_set([10.0, 20.0, 30.0, 40.0], [0, 0, 4, 4])
    test = _toy_set([0.0, 0.0, 0.0, 0.0], [0, 4, 3, 2])
    pred = benchmark_predict("bm2", train, test)
    assert pred[0] == pytest.approx(15.0)
    assert pred[1] == pytest.approx(35.0)
    # position 3 unpopulated: nearest populated is 4
    assert pred[2] == pytest.approx(35.0)
    # position 2 is equidistant from 0 and 4: tie resolves to the lower
    assert pred[3] == pytest.approx(15.0)


@settings(max_examples=200, deadline=None)
@given(
    train_rows=st.lists(
        st.tuples(st.integers(0, 12), st.floats(9.0, 11.0)), min_size=1, max_size=40,
    ),
    test_positions=st.lists(st.integers(-3, 16), max_size=20),
    scale=st.sampled_from([1.0, 1e-3, -7.0, 1e6]),
)
def test_bm2_matches_the_dict_and_loop_reference(train_rows, test_positions, scale):
    # HI-like targets whose sums round differently in another order;
    # repeated positions, gaps, test positions no train row has (below,
    # between and above) and, with odd gaps, positions equidistant from two
    train = _toy_set([y * scale for _, y in train_rows], [p for p, _ in train_rows])
    test = _toy_set([0.0] * len(test_positions), test_positions)
    pred = benchmark_predict("bm2", train, test)
    assert np.array_equal(pred, reference_bm2(train, test))
    assert pred.dtype == np.float64 and pred.shape == (len(test_positions),)


def test_bm2_exact_on_in_distribution_curve():
    # derived: train targets exactly f(n_runs); in-distribution test rows
    # get exact predictions
    f = lambda n: 10.0 + 0.25 * n
    positions = [i % 7 for i in range(35)]
    train = _toy_set([f(p) for p in positions], positions)
    test_positions = [0, 3, 6]
    test = _toy_set([f(p) for p in test_positions], test_positions)
    pred = benchmark_predict("bm2", train, test)
    assert np.allclose(pred, [f(p) for p in test_positions])


def test_bm2_systematically_low_under_drift():
    # derived: with the default late-year drift the train-era average
    # curve under-predicts the drifted test period
    from chamberhealth.features import build_supervised, chrono_split
    from chamberhealth.simgen import ChamberConfig, default_recipes, default_segments, simulate_history
    from helpers import aggregates_of, derive_hi_of

    config = ChamberConfig(weather_sigma=0.0)
    history = tuple(simulate_history(config, (default_recipes()[0],), 1, 400, 100, seed=0))
    fits, series = derive_hi_of(history, config.sensors, default_segments(), 100, 400)
    sset = build_supervised(history, aggregates_of(history, config.sensors),
                            hi_column(history, series), horizon=10)
    train, test = chrono_split(sset, 0.7)
    pred = benchmark_predict("bm2", train, test)
    assert float(np.mean(pred - test.y)) < 0.0

    flat = ChamberConfig(weather_sigma=0.0, seasonal_amplitude=0.0)
    history2 = tuple(simulate_history(flat, (default_recipes()[0],), 1, 400, 100, seed=0))
    fits2, series2 = derive_hi_of(history2, flat.sensors, default_segments(), 100, 400)
    sset2 = build_supervised(history2, aggregates_of(history2, flat.sensors),
                             hi_column(history2, series2), horizon=10)
    train2, test2 = chrono_split(sset2, 0.7)
    pred2 = benchmark_predict("bm2", train2, test2)
    # without drift the same benchmark is centered
    assert abs(float(np.mean(pred2 - test2.y))) < abs(float(np.mean(pred - test.y)))


def test_benchmarks_require_train_rows():
    empty = SupervisedSet(X=np.zeros((0, 1)), y=np.array([]),
                          feature_names=("x0",), meta=toy_meta([], [], []))
    test = _toy_set([1.0], [0])
    with pytest.raises(ModelError, match="benchmarks need a non-empty train set"):
        benchmark_predict("bm3", empty, test)


def test_unknown_benchmark_kind():
    train = _toy_set([1.0], [0])
    with pytest.raises(ConfigError):
        benchmark_predict("bm9", train, train)


# -- persistence ----------------------------------------------------------------


def _train_fixture(n=60, m=5, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, m))
    y = rng.normal(size=n)
    names = tuple(f"f{j}" for j in range(m))
    meta = toy_meta(np.arange(n) % 100, (np.arange(n) + 10) % 100, rng.uniform(size=n))
    return SupervisedSet(X=X, y=y, feature_names=names, meta=meta)


@pytest.mark.parametrize("kind", ["dt", "rf", "knn", "svr", "mlp"])
def test_model_json_roundtrip_bit_exact(kind, tmp_path):
    train = _train_fixture()
    params = {"rf": {"n_trees": 5}, "mlp": {"epochs": 3}, "svr": {"steps": 50}}
    spec = RegressorSpec(kind, params.get(kind, {}), seed=4)
    model = train_model(spec, train)
    save_model(model, tmp_path / "model.npz")
    back = load_model(tmp_path / "model.npz")
    save_model(back, tmp_path / "again.npz")
    assert (tmp_path / "again.npz").read_bytes() == (tmp_path / "model.npz").read_bytes()
    for f in fields(model.inner):
        assert type(getattr(back.inner, f.name)) is type(getattr(model.inner, f.name)), f.name
    assert (back.kind, back.seed, back.feature_names) == (model.kind, model.seed, model.feature_names)
    q = np.random.default_rng(1).uniform(size=(25, 5))
    assert np.array_equal(model.predict(q), back.predict(q))


def _last_split(doc):
    """The node-table row of the last split in preorder."""
    return int(np.flatnonzero(doc["payload.feature"] >= 0)[-1])


def _set(field, value, row=0):
    """An edit that sets row i of array payload.<field> to value, or to
    value(i) if value is a function; row is i, or a function of the file's
    arrays."""
    def edit(doc):
        i = row(doc) if callable(row) else row
        doc[f"payload.{field}"][i] = value(i) if callable(value) else value
    return edit


def _put(name, value):
    """An edit that replaces array ``name`` with ``value(array)``, or adds
    it (``value(None)``) if the file has no such array."""
    return lambda doc: doc.update({name: np.asarray(value(doc.get(name)))})


# each edit leaves a readable archive that does not describe a usable
# model of its 5 features: an array that does not fit them, a NaN or an
# infinity, a node table whose walks could leave it or loop, an array of
# another dtype or rank than its field's type is stored with, or an
# array missing or extra
SHAPE_FAULTS = {
    "knn-standardizer-mu": ("knn", _put("standardizer.mu", lambda a: a[:-1])),
    "svr-standardizer-sigma": ("svr", _put("standardizer.sigma", lambda a: np.append(a, 1.0))),
    "svr-w": ("svr", _put("payload.w", lambda a: a[:-1])),
    "knn-X-column": ("knn", _put("payload.X", lambda a: a[:, :-1])),
    "knn-y": ("knn", _put("payload.y", lambda a: a[:-1])),
    "knn-k-above-rows": ("knn", lambda doc: doc.update(
        {"payload.k": np.asarray(doc["payload.y"].size + 1)})),
    "mlp-W1": ("mlp", _put("payload.W1", lambda a: a[:-1])),
    "mlp-b1": ("mlp", _put("payload.b1", lambda a: a[:-1])),
    "mlp-W2": ("mlp", _put("payload.W2", lambda a: a[:-1])),
    "mlp-b2": ("mlp", _put("payload.b2", lambda a: np.append(a, 0.0))),
    "dt-negative-feature": ("dt", _set("feature", -2)),
    "rf-deep-feature-out-of-range": ("rf", _set("feature", 5, _last_split)),
    "dt-right-to-itself": ("dt", _set("right", 0)),
    "dt-right-to-its-left-child": ("dt", _set("right", 1)),
    "dt-right-backward": ("dt", _set("right", lambda i: i - 1, _last_split)),
    "dt-right-past-the-end": ("dt", _set("right", 10**6)),
    "rf-right-past-the-end": ("rf", _set("right", lambda i: i + 10**6, _last_split)),
    "dt-tables-of-unequal-length": ("dt", _put("payload.right", lambda a: a[:-1])),
    "rf-root-past-the-end": ("rf", _set("roots", 10**6, -1)),
    "rf-roots-of-another-length": ("rf", _put("payload.roots", lambda a: a[:-1])),
    "dt-threshold-inf": ("dt", _set("threshold", math.inf)),
    "rf-leaf-value-nan": ("rf", _set("value", math.nan, -1)),
    "svr-b-nan": ("svr", _put("payload.b", lambda a: math.nan)),
    "svr-epsilon-minus-inf": ("svr", _put("payload.epsilon", lambda a: -math.inf)),
    "knn-standardizer-sigma-nan": ("knn", lambda doc: doc["standardizer.sigma"].__setitem__(
        0, math.nan)),
    "mlp-W1-inf": ("mlp", lambda doc: doc["payload.W1"].__setitem__((0, 0), math.inf)),
    "dt-with-standardizer": ("dt", lambda doc: doc.update(
        {"standardizer.mu": np.zeros(5), "standardizer.sigma": np.ones(5)})),
    "knn-without-standardizer": ("knn", lambda doc: [doc.pop("standardizer.mu"),
                                                     doc.pop("standardizer.sigma")]),
    "dt-missing-array": ("dt", lambda doc: doc.pop("payload.n")),
    "dt-extra-array": ("dt", _put("payload.depth", lambda a: 3)),
    # dtype and rank: each stored type is one dtype and one rank
    "dt-feature-not-an-integer": ("dt", _put("payload.feature", lambda a: a.astype(np.float64))),
    "dt-feature-of-int32": ("dt", _put("payload.feature", lambda a: a.astype(np.int32))),
    "dt-max-depth-not-an-integer": ("dt", _put("payload.max_depth", lambda a: 2.9)),
    "rf-bootstrap-not-a-boolean": ("rf", _put("payload.bootstrap", lambda a: a.astype(np.int64))),
    "rf-payload-seed-is-a-boolean": ("rf", _put("payload.seed", lambda a: True)),
    "rf-seed-is-a-boolean": ("rf", _put("seed", lambda a: True)),
    "svr-epsilon-is-a-string": ("svr", _put("payload.epsilon", lambda a: "0.5")),
    "svr-w-holds-a-boolean": ("svr", _put("payload.w", lambda a: a.astype(bool))),
    "svr-w-big-endian": ("svr", _put("payload.w", lambda a: a.astype(">f8"))),
    "svr-b-is-a-boolean": ("svr", _put("payload.b", lambda a: False)),
    "svr-b-of-rank-1": ("svr", _put("payload.b", lambda a: a.reshape(1))),
    "knn-k-of-rank-1": ("knn", _put("payload.k", lambda a: a.reshape(1))),
    "rf-roots-of-rank-2": ("rf", _put("payload.roots", lambda a: a.reshape(1, -1))),
    "mlp-W1-holds-a-string": ("mlp", _put("payload.W1", lambda a: a.astype(str))),
    "rf-threshold-holds-a-string": ("rf", _put("payload.threshold", lambda a: a.astype(str))),
    "knn-feature-names-of-bytes": ("knn", _put("feature_names", lambda a: a.astype(bytes))),
}


@pytest.mark.parametrize("fault", sorted(SHAPE_FAULTS))
def test_model_from_json_refuses_arrays_that_do_not_fit_the_features(fault, tmp_path):
    kind, edit = SHAPE_FAULTS[fault]
    params = {"rf": {"n_trees": 3}, "mlp": {"epochs": 1, "hidden_units": 4}, "svr": {"steps": 5}}
    model = train_model(RegressorSpec(kind, params.get(kind, {}), seed=4), _train_fixture())
    path = tmp_path / f"{kind}.npz"
    save_model(model, path)
    path.write_bytes(edited_npz(path, edit))
    with pytest.raises(ModelError, match=f"^{kind}.npz: "):
        load_model(path)


def test_save_model_keeps_old_file_when_replace_fails(tmp_path, monkeypatch):
    train = _train_fixture()
    path = tmp_path / "dt.npz"
    save_model(train_model(RegressorSpec("dt"), train), path)
    before = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("os.replace", failing_replace)
    with pytest.raises(OSError):
        save_model(train_model(RegressorSpec("dt", {"max_depth": 1}), train), path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert load_model(path).kind == "dt"


def test_model_file_format_header(tmp_path):
    path = tmp_path / "knn.npz"
    save_model(train_model(RegressorSpec("knn"), _train_fixture()), path)
    with np.load(path, allow_pickle=False) as archive:
        assert archive["format"][()] == "chamberhealth-model"
        assert archive["version"][()] == 3
        assert archive["kind"][()] == "knn"
        assert archive["feature_names"].tolist() == [f"f{j}" for j in range(5)]
        assert sorted(archive.files) == [
            "feature_names", "format", "kind", "payload.X", "payload.k", "payload.y", "seed",
            "standardizer.mu", "standardizer.sigma", "version",
        ]


def test_older_model_format_is_refused(tmp_path):
    # version 1 wrote trees as nested node objects, version 2 was JSON; only one reader is kept
    path = tmp_path / "dt.npz"
    save_model(train_model(RegressorSpec("dt"), _train_fixture()), path)
    current = path.read_bytes()
    for version in (1, 2):
        path.write_bytes(current)
        path.write_bytes(edited_npz(path, _put("version", lambda a: version)))
        with pytest.raises(ModelError, match=(
            f"^dt.npz: unsupported model format version {version}; rerun train$"
        )):
            load_model(path)


def test_predict_refuses_rows_of_another_feature_count():
    # a standardizer of other length would broadcast, or fail inside numpy
    model = train_model(RegressorSpec("knn", {"k": 3}), _train_fixture())
    m = len(model.feature_names)
    with pytest.raises(ModelError, match=f"^knn: expected {m} features, got {m + 1}$"):
        model.predict(np.zeros((2, m + 1)))


def test_standardized_kinds_carry_the_handle():
    train = _train_fixture()
    knn = train_model(RegressorSpec("knn", {"k": 3}), train)
    dt = train_model(RegressorSpec("dt"), train)
    assert knn.standardizer is not None
    assert dt.standardizer is None
    # tree predictions are invariant under a consistent monotone rescale
    q = np.random.default_rng(2).uniform(size=(10, 5))
    scaled_train = _train_fixture()
    from dataclasses import replace
    scaled_train = replace(scaled_train, X=scaled_train.X * 100.0)
    dt_scaled = train_model(RegressorSpec("dt"), scaled_train)
    assert np.allclose(dt.predict(q), dt_scaled.predict(q * 100.0))


# small fits of every kind; rf's 12 trees make three tree-range tasks
SMALL_PARAMS = {"rf": {"n_trees": 12}, "mlp": {"epochs": 3}, "svr": {"steps": 50}}


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_train_models_fits_each_kind_as_train_model_does(monkeypatch, tmp_path, cpus):
    train = _train_fixture()
    specs = [RegressorSpec(kind, SMALL_PARAMS.get(kind, {}), seed=4)
             for kind in ("mlp", "rf", "dt", "knn", "svr")]
    alone = [train_model(spec, train) for spec in specs]
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: cpus)
    together = train_models(specs, train)
    assert [model.kind for model in together] == [spec.kind for spec in specs]
    for a, b in zip(alone, together):
        save_model(a, tmp_path / "alone.npz")
        save_model(b, tmp_path / "together.npz")
        assert (tmp_path / "together.npz").read_bytes() == (tmp_path / "alone.npz").read_bytes()


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_train_models_raises_the_first_failing_spec_s_error(monkeypatch, cpus):
    # the forest's n_trees is refused before its trees are tasks, yet its
    # error comes only after the fits of the specs before it
    train = _train_fixture()
    bad_knn = RegressorSpec("knn", {"k": 61})
    bad_rf = RegressorSpec("rf", {"n_trees": 0})
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: cpus)
    with pytest.raises(ModelError, match=r"^k must be in \[1, 60\], got 61$"):
        train_models([RegressorSpec("dt"), bad_knn, bad_rf], train)
    with pytest.raises(ConfigError, match="^n_trees must be >= 1, got 0$"):
        train_models([RegressorSpec("dt"), bad_rf, bad_knn], train)


def test_train_models_sends_the_mlp_fit_then_the_svr_fit_first(monkeypatch):
    # one CPU: the tasks run here, in the order they are sent
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0})
    train = _train_fixture()
    sent = []
    fit, grow = models.train_model, models._grow_trees
    monkeypatch.setattr(models, "train_model",
                        lambda spec, data: sent.append(spec.kind) or fit(spec, data))
    monkeypatch.setattr(models, "_grow_trees", lambda *args: sent.append("rf") or grow(*args))
    specs = [RegressorSpec(kind, SMALL_PARAMS.get(kind, {}))
             for kind in ("dt", "rf", "knn", "svr", "mlp")]
    assert [model.kind for model in train_models(specs, train)] == [s.kind for s in specs]
    assert sent == ["mlp", "svr", "dt", "rf", "rf", "rf", "knn"]


def test_spec_rejects_unknown_params():
    with pytest.raises(ConfigError):
        RegressorSpec("dt", {"bogus": 1})
    with pytest.raises(ConfigError):
        RegressorSpec("nope")


def test_spec_refuses_a_value_of_another_type_than_its_default():
    # nothing is cast, so a float depth or k is refused, never truncated
    with pytest.raises(ConfigError, match=r"^wrong type for dt hyperparameters: \['max_depth'\]$"):
        RegressorSpec("dt", {"max_depth": 2.5})
    with pytest.raises(ConfigError, match=r"^wrong type for knn hyperparameters: \['k'\]$"):
        RegressorSpec("knn", {"k": 3.9})


@pytest.mark.parametrize("kind", sorted(models._FITTERS))
def test_each_fitter_takes_every_hyperparameter_without_a_default(kind):
    # DEFAULT_HYPERPARAMS and RegressorSpec.seed declare the values a fit gets
    params = inspect.signature(models._FITTERS[kind]).parameters.values()
    keyword = {p.name: p for p in params if p.kind is p.KEYWORD_ONLY}
    if kind == "rf":
        assert keyword.pop("bootstrap").default is True
    seeded = "seed" in models._params(RegressorSpec(kind))
    assert set(keyword) == set(models.DEFAULT_HYPERPARAMS[kind]) | ({"seed"} if seeded else set())
    assert [name for name, p in keyword.items() if p.default is not p.empty] == []
