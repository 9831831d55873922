"""Test-only views of in-memory pipeline objects, in the shapes the
program reads back from hi.csv, an editor of model files, the
reference tree grower that the rank-code split search and the node
tables are checked against, and the reference bm2 benchmark."""

import io
import math
from typing import Optional

import numpy as np


def realized_plan(runs):
    """The recipes the runs actually used as a plan: asset_id -> recipe_ids
    in (start_time, run_id) order. Generated data plans exactly these."""
    out = {}
    for run in sorted(runs, key=lambda r: (r.asset_id, r.start_time, r.run_id)):
        out.setdefault(run.asset_id, []).append(run.recipe_id)
    return out


def hi_by_run_id(series):
    """A HiSeries as run_id -> HI seconds, as ``dataio.read_hi_csv`` returns it."""
    return {e.run_id: e.hi for e in series.entries}


def edited_npz(path, edit) -> bytes:
    """The bytes of the .npz file at ``path`` once ``edit`` has changed its
    dict of arrays (name -> array)."""
    with np.load(path) as archive:
        arrays = dict(archive)
    edit(arrays)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


# -- reference CART grower: a float stable argsort per node, copies of the
# node's rows and one object per node; models._build_tree must grow the
# same trees, as node tables, node for node


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "value", "n")

    def __init__(self, value: float, n: int):
        self.feature: Optional[int] = None
        self.threshold = 0.0
        self.left: Optional["_Node"] = None
        self.right: Optional["_Node"] = None
        self.value = value
        self.n = n


def reference_best_split(
    X: np.ndarray, y: np.ndarray, feats: np.ndarray, min_leaf: int
) -> Optional[tuple[int, float, float]]:
    """Exhaustive threshold search over the given (ascending) feature ids.

    Candidate thresholds are midpoints between consecutive distinct
    sorted values; the score is the summed left+right SSE computed from
    prefix sums. SSE ties resolve to the lower feature index, then the
    lower threshold: the first minimum of the feature-major score matrix.
    """
    n = y.size
    if n < 2 * min_leaf:
        return None
    Xf = X[:, feats]
    order = np.argsort(Xf, axis=0, kind="stable")
    xs = np.take_along_axis(Xf, order, axis=0)
    ys = y[order]
    s1 = np.cumsum(ys, axis=0)
    s2 = np.cumsum(ys * ys, axis=0)
    total1 = s1[-1, :]
    total2 = s2[-1, :]
    nl = np.arange(1, n, dtype=np.float64)[:, None]
    nr = n - nl
    s1l, s2l = s1[:-1, :], s2[:-1, :]
    sse = (s2l - s1l * s1l / nl) + ((total2 - s2l) - (total1 - s1l) * (total1 - s1l) / nr)
    valid = (xs[:-1, :] < xs[1:, :]) & (nl >= min_leaf) & (nr >= min_leaf)
    sse = np.where(valid, sse, np.inf)

    j, i = divmod(int(np.argmin(sse.T)), n - 1)
    score = float(sse[i, j])
    if not math.isfinite(score):
        return None
    return int(feats[j]), 0.5 * (float(xs[i, j]) + float(xs[i + 1, j])), score


def reference_build_tree(
    X: np.ndarray,
    y: np.ndarray,
    depth: int,
    max_depth: int,
    min_leaf: int,
    features_per_split: Optional[int],
    rng: Optional[np.random.Generator],
) -> _Node:
    node = _Node(value=float(y.mean()), n=int(y.size))
    if depth >= max_depth or y.size < 2 * min_leaf or float(np.ptp(y)) == 0.0:
        return node
    m = X.shape[1]
    if features_per_split is None:
        feats = np.arange(m)
    else:
        feats = np.sort(rng.choice(m, size=features_per_split, replace=False))
    split = reference_best_split(X, y, feats, min_leaf)
    if split is None:
        return node
    feature, threshold, _ = split
    mask = X[:, feature] <= threshold
    node.feature = feature
    node.threshold = threshold
    node.left = reference_build_tree(
        X[mask], y[mask], depth + 1, max_depth, min_leaf, features_per_split, rng)
    node.right = reference_build_tree(
        X[~mask], y[~mask], depth + 1, max_depth, min_leaf, features_per_split, rng)
    return node


def reference_forest_tree(
    X, y, tree_index, seed, max_depth, min_leaf, features_per_split, bootstrap
):
    """One forest tree as the reference grows it: the same (seed, tree)
    substream, bootstrap draw first, then one feature draw per
    splittable node in preorder."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, tree_index)))
    if bootstrap:
        idx = rng.integers(0, y.size, size=y.size)
        X, y = X[idx], y[idx]
    return reference_build_tree(X, y, 0, max_depth, min_leaf, features_per_split, rng)


def preorder(node: _Node, start: int = 0) -> list[tuple]:
    """The reference tree as node-table rows (feature, threshold, value,
    n, right) in preorder, numbered from ``start``: feature and right are
    -1 at a leaf, and a split's left child is the next row. Floats are hex
    strings, so that -0.0 and 0.0 differ."""
    if node.feature is None:
        return [(-1, node.threshold.hex(), node.value.hex(), node.n, -1)]
    left = preorder(node.left, start + 1)
    right = preorder(node.right, start + 1 + len(left))
    row = (node.feature, node.threshold.hex(), node.value.hex(), node.n, start + 1 + len(left))
    return [row] + left + right


def table_rows(trees, start: int = 0, stop: Optional[int] = None) -> list[tuple]:
    """Rows start..stop of a DTModel's or RFModel's node table, in
    ``preorder``'s form."""
    columns = (trees.feature, trees.threshold, trees.value, trees.n, trees.right)
    return [(int(f), float(t).hex(), float(v).hex(), int(n), int(r))
            for f, t, v, n, r in zip(*(c[start:stop] for c in columns))]


# -- reference bm2: per-position sums in dicts and a per-row nearest-position
# fallback; models.benchmark_predict("bm2", ...) must return the same bits


def reference_bm2(train, test) -> np.ndarray:
    """Mean train target at each test row's target cycle position, or at
    the nearest populated position, the lower one on a tie."""
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for value, m in zip(train.y, train.meta):
        pos = m.n_runs_target
        sums[pos] = sums.get(pos, 0.0) + float(value)
        counts[pos] = counts.get(pos, 0) + 1
    positions = np.array(sorted(sums))
    means = {pos: sums[pos] / counts[pos] for pos in sums}
    out = np.empty(test.n_rows, dtype=np.float64)
    for i, m in enumerate(test.meta):
        pos = m.n_runs_target
        if pos in means:
            out[i] = means[pos]
        else:
            gaps = np.abs(positions - pos)
            out[i] = means[int(positions[int(np.argmin(gaps))])]
    return out
