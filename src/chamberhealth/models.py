"""From-scratch regressors and naive benchmarks behind one fit/predict contract.

Implemented here: CART regression trees, bagged forests with per-split
feature subsampling, k-nearest-neighbors, a linear epsilon-insensitive
support vector regressor trained by full-batch subgradient descent, and
a one-hidden-layer perceptron trained by mini-batch gradient descent.
Plus the three naive baselines: persistence (bm1), the train-set
average cycle curve indexed by the target run's cycle position (bm2,
deliberately a hindsight benchmark), and the global train mean (bm3).

Every predict is pure and deterministic once fitted; all randomness is
driven by explicit seeds, with an independent substream per forest
tree.

Tree splits are the exact greedy CART search, no binning: a node sorts
(rank code, position) integer keys and takes one first-minimum over its
feature-major SSE matrix. A tree is a flat node table grown in preorder
(a forest keeps all its trees in one table with root offsets), and
prediction walks every row down it at once by index arrays.

A model file is an .npz archive of one array per value, each of the
one dtype and rank its declared type is stored with. Loading casts
nothing, checks every array against the feature count, refuses NaN and
infinities, and checks that every tree walk ends on a leaf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import partial
from operator import itemgetter
from pathlib import Path
from typing import Callable, Optional, Sequence, Union, get_type_hints

import numpy as np
import numpy.typing as npt

from .dataio import atomic_open
from .errors import ConfigError, ModelError
from .features import Standardizer, SupervisedSet
from .workers import map_in_order

MODEL_KINDS = ("dt", "rf", "knn", "svr", "mlp")
BENCHMARK_KINDS = ("bm1", "bm2", "bm3")
MODEL_FORMAT = "chamberhealth-model"
MODEL_FORMAT_VERSION = 3

DEFAULT_HYPERPARAMS: dict[str, dict[str, float]] = {
    "dt": {"max_depth": 8, "min_samples_leaf": 5},
    "rf": {"n_trees": 100, "max_depth": 8, "min_samples_leaf": 5, "features_per_split": 0},
    "knn": {"k": 5},
    "svr": {"epsilon": 0.5, "reg_lambda": 1e-4, "steps": 10_000, "step_size": 0.1},
    "mlp": {"hidden_units": 64, "epochs": 200, "batch_size": 32, "learning_rate": 1e-3},
}

# distance/gradient models consume standardized features; axis-aligned
# trees are scale invariant and consume them raw
STANDARDIZED_KINDS = ("knn", "svr", "mlp")


@dataclass(frozen=True)
class RegressorSpec:
    """Which model to train, with what hyperparameters and seed."""

    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}, expected one of {MODEL_KINDS}")
        defaults = DEFAULT_HYPERPARAMS[self.kind]
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown hyperparameters for {self.kind}: {sorted(unknown)}")
        # a value is never cast, so a float depth or k is refused, not truncated
        mistyped = sorted(k for k, v in self.params.items() if type(v) is not type(defaults[k]))
        if mistyped:
            raise ConfigError(f"wrong type for {self.kind} hyperparameters: {mistyped}")

    def resolved(self) -> dict:
        out = dict(DEFAULT_HYPERPARAMS[self.kind])
        out.update(self.params)
        return out


# Test rows that one predict step holds at once: a forest walks a block
# down every tree, and KNN bounds a block's distances to every train row
FOREST_ROWS_PER_BLOCK = 128
KNN_ROWS_PER_BLOCK = 8

# -- CART regression tree -------------------------------------------------

IntArray = npt.NDArray[np.intp]


def _tree_data(X: np.ndarray, y: np.ndarray, what: str) -> tuple[np.ndarray, ...]:
    """X and y as float64, and X's feature-major uint64 rank codes shifted
    left 32 bits: equal values (-0.0 and 0.0 too) share a code, and codes
    keep the values' order. Nodes put positions in the low 32 bits, so a
    fit takes fewer than 2**32 rows. NaN and inf are refused: a NaN would
    get a code, and so a threshold, of its own."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y.size == 0:
        raise ModelError(f"{what} needs at least one sample")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ModelError(f"{what} needs finite features and targets")
    codes = np.empty((X.shape[1], X.shape[0]), dtype=np.uint64)
    for j in range(X.shape[1]):
        codes[j] = np.unique(X[:, j], return_inverse=True)[1]
    return X, y, codes << np.uint64(32)


def _best_split(
    X: np.ndarray, codes: np.ndarray, rows: np.ndarray, yn: np.ndarray, feats: np.ndarray,
    min_leaf: int,
) -> Optional[tuple[int, float, float]]:
    """Exhaustive threshold search over a node's ``rows`` (targets ``yn``)
    and the given (ascending) feature ids.

    Sorting the unique keys ``code | position`` orders each feature's rows
    as a stable argsort of its values would. Candidate thresholds are
    midpoints between consecutive distinct sorted values, scored by the
    summed left+right SSE from prefix sums. SSE ties resolve to the lower
    feature, then the lower threshold: the first minimum, feature-major.
    """
    n = rows.size  # at least 2 * min_leaf: grow() stops a smaller node
    key = codes[feats][:, rows] | np.arange(n, dtype=np.uint64)
    key.sort(axis=1)
    order = (key & np.uint64(0xFFFFFFFF)).astype(np.intp)
    ys = yn[order]
    s1 = np.cumsum(ys, axis=1)
    s2 = np.cumsum(ys * ys, axis=1)
    total1, total2 = s1[:, -1:], s2[:, -1:]
    # candidate i puts sorted rows 0..i left; both sides keep min_leaf rows
    lo, hi = min_leaf - 1, n - min_leaf
    nl = np.arange(lo + 1, hi + 1, dtype=np.float64)
    nr = n - nl
    s1l, s2l = s1[:, lo:hi], s2[:, lo:hi]
    sse = (s2l - s1l * s1l / nl) + ((total2 - s2l) - (total1 - s1l) * (total1 - s1l) / nr)
    code = key >> np.uint64(32)
    sse = np.where(code[:, lo:hi] != code[:, lo + 1 : hi + 1], sse, np.inf)

    j, i = divmod(int(np.argmin(sse)), hi - lo)
    score = float(sse[j, i])
    if not math.isfinite(score):
        return None
    a, b = rows[order[j, lo + i : lo + i + 2]]
    feature = int(feats[j])
    return feature, 0.5 * (float(X[a, feature]) + float(X[b, feature])), score


def _build_tree(
    X: np.ndarray, y: np.ndarray, codes: np.ndarray, rows: np.ndarray, max_depth: int,
    min_leaf: int, features_per_split: Optional[int], rng: Optional[np.random.Generator],
) -> list[list]:
    """Greedy CART over the global row ids ``rows`` (repeats allowed), as
    one [feature, threshold, value, n, right] row per node in preorder
    (see _Trees). A node keeps its rows' order; splittable nodes draw
    features in preorder."""
    if max_depth < 0 or min_leaf < 1:
        raise ConfigError("need max_depth >= 0 and min_samples_leaf >= 1")
    m = X.shape[1]
    nodes: list[list] = []

    def grow(rows: np.ndarray, depth: int) -> None:
        yn = y[rows]
        node = [-1, 0.0, float(yn.mean()), int(yn.size), -1]
        nodes.append(node)
        if depth >= max_depth or yn.size < 2 * min_leaf or float(np.ptp(yn)) == 0.0:
            return
        if features_per_split is None:
            feats = np.arange(m)
        else:
            feats = np.sort(rng.choice(m, size=features_per_split, replace=False))
        split = _best_split(X, codes, rows, yn, feats, min_leaf)
        if split is None:
            return
        node[0], node[1], _ = split
        mask = X[rows, node[0]] <= node[1]
        grow(rows[mask], depth + 1)
        node[4] = len(nodes)
        grow(rows[~mask], depth + 1)

    grow(rows, 0)
    return nodes


def _table(nodes: list[list]) -> dict[str, np.ndarray]:
    """Node rows as the table's columns, of the dtypes a model file stores."""
    types = get_type_hints(_Trees)
    columns = zip(fields(_Trees), zip(*nodes))
    return {f.name: np.array(col, dtype=_STORED[types[f.name]][0]) for f, col in columns}


@dataclass
class _Trees:
    """One or more trees as one node table in preorder. Row i holds
    feature[i] (-1 marks a leaf), threshold[i], value[i] (the mean target
    of the node's rows), n[i] (their count) and right[i] (the right
    child's row, -1 at a leaf); a split's left child is row i + 1. The
    trees start at the rows ``roots``."""

    feature: IntArray
    threshold: np.ndarray
    value: np.ndarray
    n: IntArray
    right: IntArray

    def _leaf_values(self, X: np.ndarray) -> np.ndarray:
        """The leaf value that each tree gives each row of X, shape
        (trees, rows). Every (tree, row) pair steps down one level per
        pass until all stand on leaves."""
        X = np.asarray(X, dtype=np.float64)
        node = np.repeat(self.roots[:, None], X.shape[0], axis=1)
        rows = np.arange(X.shape[0])
        while True:
            feature = self.feature[node]
            leaf = feature < 0
            if leaf.all():
                return self.value[node]
            left = X[rows, feature] <= self.threshold[node]
            node = np.where(leaf, node, np.where(left, node + 1, self.right[node]))


@dataclass
class DTModel(_Trees):
    max_depth: int
    min_samples_leaf: int

    roots = np.zeros(1, dtype=np.intp)  # not a field: one tree, at row 0

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._leaf_values(X)[0]


def fit_decision_tree(
    X: np.ndarray, y: np.ndarray, *, max_depth: int, min_samples_leaf: int
) -> DTModel:
    """Greedy CART: axis-aligned splits minimizing summed squared error,
    leaf value = mean target. Stops on depth, leaf size or zero variance."""
    X, y, codes = _tree_data(X, y, "decision tree")
    nodes = _build_tree(X, y, codes, np.arange(y.size), max_depth, min_samples_leaf, None, None)
    return DTModel(**_table(nodes), max_depth=max_depth, min_samples_leaf=min_samples_leaf)


# -- random forest ---------------------------------------------------------


@dataclass
class RFModel(_Trees):
    roots: IntArray
    n_trees: int
    max_depth: int
    min_samples_leaf: int
    features_per_split: int
    bootstrap: bool
    seed: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        """The mean over trees, FOREST_ROWS_PER_BLOCK rows at a time. numpy
        sums a (trees, rows) block down axis 0 one tree at a time, so each
        row's mean has the bits of the whole walk's; a block of one row
        would be summed pairwise, so a last block of one row takes one row
        more."""
        X = np.asarray(X, dtype=np.float64)
        n = X.shape[0]
        out = np.empty(n, dtype=np.float64)
        for lo in range(0, n, FOREST_ROWS_PER_BLOCK):
            lo = min(lo, max(n - 2, 0))
            out[lo : lo + FOREST_ROWS_PER_BLOCK] = self._leaf_values(
                X[lo : lo + FOREST_ROWS_PER_BLOCK]).mean(axis=0)
        return out


def _grow_trees(
    X: np.ndarray, y: np.ndarray, codes: np.ndarray, max_depth: int, min_leaf: int,
    subset: Optional[int], seed: int, bootstrap: bool, ids: np.ndarray,
) -> list[dict[str, np.ndarray]]:
    """The forest's trees ``ids``, each as its own node table's columns."""
    tables = []
    for i in ids.tolist():
        # independent substream per (seed, tree); the bootstrap draw comes first
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        rows = rng.integers(0, y.size, size=y.size) if bootstrap else np.arange(y.size)
        tables.append(_table(_build_tree(X, y, codes, rows, max_depth, min_leaf, subset, rng)))
    return tables


TREES_PER_TASK = 5  # a forest's trees reach the workers in ranges of this many


def _forest_tasks(
    X: np.ndarray, y: np.ndarray, n_trees: int, max_depth: int, min_samples_leaf: int,
    features_per_split: int, seed: int, bootstrap: bool = True,
) -> tuple[list[Callable[[], list]], Callable[[list], RFModel]]:
    """A forest fit as tasks, each growing one range of TREES_PER_TASK
    trees, and the join of the tasks' results, in task order, into the
    forest."""
    X, y, codes = _tree_data(X, y, "random forest")
    if n_trees < 1:
        raise ConfigError(f"n_trees must be >= 1, got {n_trees}")
    m = X.shape[1]
    fps = math.ceil(m / 3) if features_per_split == 0 else features_per_split
    if not 1 <= fps <= m:
        raise ModelError(f"features_per_split must be in [1, {m}], got {fps}")
    # fps = m draws no feature ids, so each tree's rng stream stays that of plain bagging
    subset = fps if fps < m else None
    grow = partial(_grow_trees, X, y, codes, max_depth, min_samples_leaf, subset, seed, bootstrap)
    tasks = [partial(grow, np.arange(lo, min(lo + TREES_PER_TASK, n_trees)))
             for lo in range(0, n_trees, TREES_PER_TASK)]
    join = partial(_join_trees, n_trees=n_trees, max_depth=max_depth,
                   min_samples_leaf=min_samples_leaf, features_per_split=fps,
                   bootstrap=bootstrap, seed=seed)
    return tasks, join


def _join_trees(ranges: list[list[dict[str, np.ndarray]]], **params) -> RFModel:
    """The trees of every range, in tree order, as the forest's one table."""
    tables = [table for tables in ranges for table in tables]
    roots = np.cumsum([0] + [table["value"].size for table in tables[:-1]], dtype=np.intp)
    for table, root in zip(tables, roots):
        # in the forest's one table, right indices count from the table's start
        table["right"][table["feature"] >= 0] += root
    columns = {name: np.concatenate([table[name] for table in tables]) for name in tables[0]}
    return RFModel(**columns, roots=roots, **params)


def _run_tasks(tasks: Sequence[Callable[[], object]]) -> list:
    """Each task's result, in task order, from every CPU (see workers):
    the workers inherit ``tasks`` and are sent only their indices."""
    return list(map_in_order(lambda i: tasks[i](), range(len(tasks))))


def fit_random_forest(
    X: np.ndarray,
    y: np.ndarray,
    *,
    n_trees: int,
    max_depth: int,
    min_samples_leaf: int,
    features_per_split: int,
    seed: int,
    bootstrap: bool = True,
) -> RFModel:
    """Bagged CART trees with a uniform random feature subset at each split.

    features_per_split 0 means ceil(m / 3); one outside [1, m] raises
    ModelError. Prediction is the plain mean over trees, so it is
    independent of training order. The trees grow in ranges of
    TREES_PER_TASK on every CPU (see workers), and the ranges join in
    tree order, so the forest does not depend on the CPU count.
    ``train_models`` maps the same ranges among the other kinds' fits.
    """
    tasks, join = _forest_tasks(X, y, n_trees, max_depth, min_samples_leaf, features_per_split,
                                seed, bootstrap)
    return join(_run_tasks(tasks))


# -- k nearest neighbors -----------------------------------------------------


@dataclass
class KNNModel:
    X: np.ndarray
    y: np.ndarray
    k: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        """The mean target of each row's k nearest train rows, by the
        reference distance np.sum((self.X - q) ** 2, axis=1) with ties to
        the lower train index, KNN_ROWS_PER_BLOCK test rows at a time.
        Bounds from the GEMM form prune the train rows, and the reference
        distance is computed only for the candidates left."""
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(X.shape[0], dtype=np.float64)
        m = self.X.shape[1]
        # With u = eps / 2, gamma_n = n u / (1 - n u) and S = |q|^2 + |x|^2
        # (Higham, Accuracy and Stability of Numerical Algorithms, chapters
        # 3 and 4): the GEMM form a = (|q|^2 - 2 q.x) + |x|^2 is within
        # (2 gamma_m + 4 u) S of the exact |q - x|^2 <= 2 S, whatever the
        # order of the dot products' sums (|q|^2, |x|^2 and 2 q.x each
        # within gamma_m of their share of S, and two more roundings of
        # sums below 2 S), and the reference's m rounded squares of
        # rounded differences sum to within gamma_(m+2) 2 S of it. So
        # |a - d| <= 4 (m + 2) u S to first order, which delta covers twice
        # over, plus 4 (m + 2) subnormal steps for products that underflow.
        # Then T, the k-th smallest a + delta, bounds the k-th smallest d
        # from above, and every row that can be among the k nearest, ties
        # included, has a - delta <= d <= T. A row whose a + delta is not
        # finite (an overflow, which a reference d that overflows implies,
        # or a NaN) counts as +inf in T and is always a candidate.
        slack = 4.0 * (m + 2) * np.finfo(np.float64).eps
        floor = 4.0 * (m + 2) * np.finfo(np.float64).smallest_subnormal
        with np.errstate(over="ignore", invalid="ignore"):
            train_sq = np.einsum("ij,ij->i", self.X, self.X)
            for lo in range(0, X.shape[0], KNN_ROWS_PER_BLOCK):
                Q = X[lo : lo + KNN_ROWS_PER_BLOCK]
                q_sq = np.einsum("ij,ij->i", Q, Q)
                bound = Q @ self.X.T
                bound *= -2.0
                bound += q_sq[:, None]
                bound += train_sq  # the GEMM form a
                delta = q_sq[:, None] + train_sq
                delta *= slack
                delta += floor
                upper = bound + delta
                bound -= delta  # now a - delta
                forced = ~np.isfinite(upper)
                upper[forced] = np.inf
                T = np.partition(upper, self.k - 1, axis=1)[:, self.k - 1]
                candidates = forced | (bound <= T[:, None])
                for i, q in enumerate(Q):
                    cand = np.flatnonzero(candidates[i])
                    d2 = np.sum((self.X[cand] - q) ** 2, axis=1)
                    # stable sort of candidates in index order: ties go to the lower train index
                    nearest = cand[np.argsort(d2, kind="stable")[: self.k]]
                    out[lo + i] = self.y[nearest].mean()
        return out


def fit_knn(X_std: np.ndarray, y: np.ndarray, *, k: int) -> KNNModel:
    """Memorize the (standardized) training set; predict the mean target
    of the k nearest rows by Euclidean distance."""
    X_std = np.asarray(X_std, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y.size == 0:
        raise ModelError("knn needs at least one sample")
    if not 1 <= k <= y.size:
        raise ModelError(f"k must be in [1, {y.size}], got {k}")
    return KNNModel(X=X_std.copy(), y=y.copy(), k=k)


# -- linear epsilon-insensitive SVR ------------------------------------------


@dataclass
class SVRModel:
    w: np.ndarray
    b: float
    epsilon: float
    reg_lambda: float

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ self.w + self.b


def fit_linear_svr(
    X_std: np.ndarray,
    y: np.ndarray,
    *,
    epsilon: float,
    reg_lambda: float,
    steps: int,
    step_size: float,
) -> SVRModel:
    """Minimize lambda*||w||^2 + mean(max(0, |y - w.x - b| - epsilon)).

    Full-batch subgradient descent with step decay step_size/sqrt(1+t),
    starting from w = 0, b = mean(y); the final iterate is returned.
    The loss is a mean, so duplicating every row leaves the fit
    unchanged. Full-batch updates are deterministic, so no seed is needed.
    Raises ModelError if the final iterate is not finite.
    """
    X = np.asarray(X_std, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y.size == 0:
        raise ModelError("svr needs at least one sample")
    n = y.size
    w = np.zeros(X.shape[1], dtype=np.float64)
    b = float(y.mean())
    # a diverging fit is the ModelError below alone, without numpy's overflow warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            r = y - (X @ w + b)
            active = np.abs(r) > epsilon
            sign = np.sign(r) * active
            grad_w = 2.0 * reg_lambda * w - (X.T @ sign) / n
            grad_b = -float(sign.sum()) / n
            step = step_size / math.sqrt(1.0 + t)
            w -= step * grad_w
            b -= step * grad_b
    if not (np.isfinite(w).all() and math.isfinite(b)):
        raise ModelError("svr weights became non-finite; lower the step size")
    return SVRModel(w=w, b=b, epsilon=epsilon, reg_lambda=reg_lambda)


# -- one-hidden-layer MLP -----------------------------------------------------


def mlp_init(n_in: int, hidden_units: int, seed: int) -> tuple[np.ndarray, ...]:
    """Seeded uniform(+-sqrt(6/(fan_in+fan_out))) weights, zero biases."""
    rng = np.random.default_rng(seed)
    a1 = math.sqrt(6.0 / (n_in + hidden_units))
    a2 = math.sqrt(6.0 / (hidden_units + 1))
    W1 = rng.uniform(-a1, a1, size=(n_in, hidden_units))
    b1 = np.zeros(hidden_units)
    W2 = rng.uniform(-a2, a2, size=(hidden_units, 1))
    b2 = np.zeros(1)
    return W1, b1, W2, b2


@dataclass
class MLPModel:
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        hidden = np.maximum(X @ self.W1 + self.b1, 0.0)
        return (hidden @ self.W2 + self.b2).ravel()


def mlp_loss(params: Sequence[np.ndarray], X: np.ndarray, y: np.ndarray) -> float:
    """Mean squared error of the relu-hidden, linear-output network."""
    return float(np.mean((MLPModel(*params).predict(X) - y) ** 2))


def mlp_gradients(
    params: Sequence[np.ndarray], X: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Backprop gradients of mlp_loss w.r.t. every parameter array."""
    W1, b1, W2, b2 = params
    n = y.size
    z = X @ W1 + b1
    hidden = np.maximum(z, 0.0)
    pred = (hidden @ W2 + b2).ravel()
    dpred = (2.0 / n) * (pred - y)[:, None]
    dW2 = hidden.T @ dpred
    db2 = dpred.sum(axis=0)
    dhidden = dpred @ W2.T
    dz = dhidden * (z > 0.0)
    dW1 = X.T @ dz
    db1 = dz.sum(axis=0)
    return dW1, db1, dW2, db2


def fit_mlp(
    X_std: np.ndarray,
    y: np.ndarray,
    *,
    hidden_units: int,
    epochs: int,
    batch_size: int,
    learning_rate: float,
    seed: int,
) -> MLPModel:
    """Mini-batch gradient descent on mean squared error.

    Batch order is a seeded permutation per epoch (the final partial
    batch is kept), so the whole trajectory is reproducible from the
    seed. Raises ModelError as soon as the loss goes non-finite.
    """
    X = np.asarray(X_std, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y.size == 0:
        raise ModelError("mlp needs at least one sample")
    params = list(mlp_init(X.shape[1], hidden_units, seed))
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    n = y.size
    # a diverging fit is this ModelError alone, without numpy's overflow warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            perm = rng.permutation(n)
            for lo in range(0, n, batch_size):
                idx = perm[lo : lo + batch_size]
                grads = mlp_gradients(params, X[idx], y[idx])
                for p, g in zip(params, grads):
                    p -= learning_rate * g
            if not math.isfinite(mlp_loss(params, X, y)):
                raise ModelError("mlp loss became non-finite; lower the learning rate")
    return MLPModel(*params)


# -- naive benchmarks ---------------------------------------------------------


def benchmark_predict(
    kind: str, train: SupervisedSet, test: SupervisedSet
) -> np.ndarray:
    """Predictions of one naive baseline on the test rows.

    bm1 repeats the current HI of each row (persistence); bm2 looks up
    the mean train target at the target run's cycle position, falling
    back to the nearest populated position (ties toward the lower one);
    bm3 is the global train target mean.
    """
    if train.n_rows == 0:
        raise ModelError("benchmarks need a non-empty train set")
    if kind == "bm1":
        return np.array(test.meta.hi_current, dtype=np.float64)
    if kind == "bm3":
        return np.full(test.n_rows, float(train.y.mean()))
    if kind == "bm2":
        positions, slot = np.unique(train.meta.n_runs_target, return_inverse=True)
        # bincount sums in train-row order; argmin takes the lower of two equal gaps
        means = np.bincount(slot, weights=train.y) / np.bincount(slot)
        return means[np.argmin(np.abs(positions - test.meta.n_runs_target[:, None]), axis=1)]
    raise ConfigError(f"unknown benchmark kind {kind!r}, expected one of {BENCHMARK_KINDS}")


# -- trained-model wrapper and persistence ------------------------------------


@dataclass
class TrainedModel:
    """A fitted regressor plus the metadata needed to apply it to raw rows."""

    kind: str
    inner: Union[DTModel, RFModel, KNNModel, SVRModel, MLPModel]
    feature_names: tuple[str, ...]
    standardizer: Optional[Standardizer]
    seed: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.shape[1] != len(self.feature_names):
            raise ModelError(
                f"{self.kind}: expected {len(self.feature_names)} features, got {X.shape[1]}"
            )
        if self.standardizer is not None:
            X = self.standardizer.transform(X)
        return self.inner.predict(X)


_FITTERS = {"dt": fit_decision_tree, "rf": fit_random_forest, "knn": fit_knn,
            "svr": fit_linear_svr, "mlp": fit_mlp}


def _params(spec: RegressorSpec) -> dict:
    """The keyword arguments of the kind's fit function."""
    params = spec.resolved()
    if spec.kind in ("rf", "mlp"):
        params["seed"] = spec.seed
    return params


def train_model(spec: RegressorSpec, train: SupervisedSet) -> TrainedModel:
    """Fit one model kind on a (fully encoded) train set, here; a forest
    grows its trees on every CPU."""
    std = Standardizer.fit(train.X) if spec.kind in STANDARDIZED_KINDS else None
    X = train.X if std is None else std.transform(train.X)
    return TrainedModel(
        kind=spec.kind,
        inner=_FITTERS[spec.kind](X, train.y, **_params(spec)),
        feature_names=train.feature_names,
        standardizer=std,
        seed=spec.seed,
    )


def _reraise(exc: Exception) -> None:
    raise exc


def _fit_tasks(
    spec: RegressorSpec, train: SupervisedSet
) -> tuple[list[Callable[[], object]], Callable[[list], TrainedModel]]:
    """One kind's fit as tasks and the join of their results, in task
    order, into its model: a forest's tree ranges, or any other kind's
    whole fit as one task."""
    if spec.kind != "rf":
        return [partial(train_model, spec, train)], itemgetter(0)
    try:
        tasks, join = _forest_tasks(train.X, train.y, **_params(spec))
    except Exception as exc:  # raised in the forest's place in the task list, after earlier fits
        return [partial(_reraise, exc)], itemgetter(0)
    return tasks, lambda ranges: TrainedModel(kind="rf", inner=join(ranges),
                                              feature_names=train.feature_names,
                                              standardizer=None, seed=spec.seed)


# sent before every other task, in this order: the two longest whole fits,
# which sent last would end the map with every worker but one idle
_SENT_FIRST = {"mlp": 0, "svr": 1}


def _caught(task: Callable[[], object]) -> tuple[bool, object]:
    """(True, the task's result), or (False, the exception it raised)."""
    try:
        return True, task()
    except Exception as exc:
        return False, exc


def train_models(specs: Sequence[RegressorSpec], train: SupervisedSet) -> list[TrainedModel]:
    """Fit every spec's kind from one task list on every CPU (see
    workers), each kind's results joined in order. The whole MLP fit is
    sent first, then the SVR fit, then the forest's tree ranges and the
    other fits in the specs' order. Each task returns the exception it
    raises, so every task runs, also those after a failure; once all
    are in, the error raised is that of the first spec whose fit failed,
    as if each were fitted in turn. No task maps tasks of its own."""
    plans = [_fit_tasks(spec, train) for spec in specs]
    tasks = [(spec.kind, task) for spec, (kind_tasks, _) in zip(specs, plans)
             for task in kind_tasks]
    order = sorted(range(len(tasks)), key=lambda i: _SENT_FIRST.get(tasks[i][0], len(_SENT_FIRST)))
    results = [None] * len(tasks)
    # every result is in before any join: the workers are gone by then
    for i, result in zip(order, _run_tasks([partial(_caught, tasks[i][1]) for i in order])):
        results[i] = result
    for ok, value in results:
        if not ok:
            raise value
    values = iter(value for _, value in results)
    return [join([next(values) for _ in kind_tasks]) for kind_tasks, join in plans]


_MODEL_CLASSES = {"dt": DTModel, "rf": RFModel, "knn": KNNModel, "svr": SVRModel, "mlp": MLPModel}


# the one (dtype, rank) that stores each declared type (a float array's rank
# is free); a str dtype holds a length, so loading compares scalar types
_STORED = {
    int: (np.int64, 0), float: (np.float64, 0), bool: (np.bool_, 0), IntArray: (np.intp, 1),
    np.ndarray: (np.float64, None), str: (np.str_, 0), tuple[str, ...]: (np.str_, 1),
}
_HEADER = {"format": str, "version": int, "kind": str, "seed": int,
           "feature_names": tuple[str, ...]}


def _layout(kind: str) -> dict[str, type]:
    """Every array of a ``kind`` model file with its declared type: the
    header, ``payload.<field>`` and, if the kind has one, ``standardizer.<field>``."""
    parts = {"payload": _MODEL_CLASSES[kind]}
    if kind in STANDARDIZED_KINDS:
        parts["standardizer"] = Standardizer
    layout = dict(_HEADER)
    for prefix, cls in parts.items():
        types = get_type_hints(cls)
        layout.update({f"{prefix}.{f.name}": types[f.name] for f in fields(cls)})
    return layout


def _check_tables(trees: _Trees, m: int) -> None:
    """Every feature is a split feature in [0, m) or the leaf marker -1,
    and a split at row i has its right child at a row in (i + 1, size):
    child indices only grow, so every walk from a root ends on a leaf."""
    size, roots = trees.value.size, trees.roots
    bad = trees.feature[(trees.feature < -1) | (trees.feature >= m)]
    if bad.size:
        raise ModelError(f"feature {bad[0]} is neither a split feature in [0, {m}) nor -1")
    split = np.flatnonzero(trees.feature >= 0)
    right = trees.right[split]
    bad = split[(right <= split + 1) | (right >= size)]
    if bad.size:
        i = bad[0]
        raise ModelError(f"split row {i}'s right child {trees.right[i]} is not in ({i + 1}, {size})")
    if not (roots.size and ((0 <= roots) & (roots < size)).all()):
        raise ModelError(f"a tree root is not a row of the {size}-row node table")


def _check(model: TrainedModel) -> None:
    """Every array must fit the model's feature count, every float must
    be finite and every tree walk must end, so a decoded model predicts
    or names its fault instead of failing inside numpy or reporting NaN."""
    m = len(model.feature_names)
    inner, std = model.inner, model.standardizer
    arrays = []
    if std is not None:
        arrays += [("standardizer mu", std.mu, (m,)), ("standardizer sigma", std.sigma, (m,))]
    if isinstance(inner, SVRModel):
        arrays.append(("w", inner.w, (m,)))
    elif isinstance(inner, KNNModel):
        n = inner.y.size
        arrays += [("X", inner.X, (n, m)), ("y", inner.y, (n,))]
        if not 1 <= inner.k <= n:
            raise ModelError(f"k = {inner.k} is not in [1, {n}]")
    elif isinstance(inner, MLPModel):
        h = inner.b1.size
        arrays += [("W1", inner.W1, (m, h)), ("b1", inner.b1, (h,)),
                   ("W2", inner.W2, (h, 1)), ("b2", inner.b2, (1,))]
    else:
        arrays += [(f.name, getattr(inner, f.name), (inner.value.size,)) for f in fields(_Trees)]
        if isinstance(inner, RFModel):
            arrays.append(("roots", inner.roots, (inner.n_trees,)))
    for name, array, shape in arrays:
        if array.shape != shape:
            raise ModelError(f"{name} has shape {array.shape}, expected {shape} for {m} features")
    for prefix, part in [("", inner)] + ([] if std is None else [("standardizer ", std)]):
        for f in fields(part):
            value = getattr(part, f.name)
            if isinstance(value, (float, np.ndarray)) and not np.isfinite(value).all():
                raise ModelError(f"{prefix}{f.name} holds NaN or an infinity")
    if isinstance(inner, _Trees):
        _check_tables(inner, m)


def _value(arrays: dict[str, np.ndarray], name: str, declared: type):
    """Array ``name`` as a value of the declared type, if it has exactly
    that type's stored dtype and rank."""
    if name not in arrays:
        raise ModelError(f"no array {name}")
    scalar, ndim = _STORED[declared]
    array, dtype = arrays[name], arrays[name].dtype
    if dtype.type is not scalar or not dtype.isnative or ndim not in (None, array.ndim):
        rank = "" if ndim is None else f"{ndim}-d "
        raise ModelError(f"{name} is {array.ndim}-d {dtype.str}, not {rank}{np.dtype(scalar).name}")
    return array.item() if ndim == 0 else array


def _from_arrays(arrays: dict[str, np.ndarray]) -> TrainedModel:
    if _value(arrays, "format", str) != MODEL_FORMAT:
        raise ModelError(f"not a {MODEL_FORMAT} file")
    version = _value(arrays, "version", int)
    if version != MODEL_FORMAT_VERSION:
        raise ModelError(f"unsupported model format version {version}; rerun train")
    kind = _value(arrays, "kind", str)
    if kind not in _MODEL_CLASSES:
        raise ModelError(f"unknown model kind {kind!r}")
    layout = _layout(kind)
    if set(arrays) - set(layout):
        raise ModelError(f"unexpected arrays {sorted(set(arrays) - set(layout))}")
    values = {name: _value(arrays, name, declared) for name, declared in layout.items()}

    def part(prefix: str, cls: type):
        return cls(**{f.name: values[f"{prefix}.{f.name}"] for f in fields(cls)})

    model = TrainedModel(
        kind=kind,
        inner=part("payload", _MODEL_CLASSES[kind]),
        feature_names=tuple(values["feature_names"].tolist()),
        standardizer=part("standardizer", Standardizer) if kind in STANDARDIZED_KINDS else None,
        seed=values["seed"],
    )
    _check(model)
    return model


def save_model(model: TrainedModel, path: Union[str, Path]) -> None:
    """One array per value (see _layout), each of its declared type's
    stored dtype, written uncompressed by np.savez; a save and a load
    reproduce every parameter bit-exactly."""
    values = {"format": MODEL_FORMAT, "version": MODEL_FORMAT_VERSION, "kind": model.kind,
              "seed": model.seed, "feature_names": model.feature_names}
    for prefix, part in (("payload", model.inner), ("standardizer", model.standardizer)):
        if part is not None:
            values.update({f"{prefix}.{f.name}": getattr(part, f.name) for f in fields(part)})
    layout = _layout(model.kind)
    with atomic_open(path, binary=True) as fh:
        np.savez(fh, **{name: np.asarray(v, dtype=_STORED[layout[name]][0])
                        for name, v in values.items()})


def load_model(path: Union[str, Path]) -> TrainedModel:
    """Any file that is not a valid model archive raises ModelError
    naming the file."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            # np.load would read a bare .npy as one array, and any other file as pickled data
            if fh.read(4) != b"PK\x03\x04":
                raise ModelError("not an .npz archive")
            fh.seek(0)
            try:
                with np.load(fh, allow_pickle=False) as archive:
                    arrays = dict(archive)
            except Exception as exc:  # BadZipFile, ValueError, OSError, TokenError and more
                raise ModelError(f"malformed model file: {type(exc).__name__}: {exc}") from None
        return _from_arrays(arrays)
    except ModelError as exc:
        raise ModelError(f"{path.name}: {exc}") from None
