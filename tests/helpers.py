"""The small config of the CLI tests, the default gauges and recipes
with their noise or schedule shares evened out, test-only views of
in-memory pipeline objects, in the shapes the program reads back from
runs.csv and hi.csv, one simulated run from a seed, the fitters' keyword
arguments at DEFAULT_HYPERPARAMS, an editor of model files, the
reference tree grower that the rank-code split search and the node
tables are checked against, the reference forest and KNN predictions,
the reference bm2 benchmark, the reference row-by-row supervised set
and one-hot encoder, and the small pipeline whose artifact
digests tests/golden/digests.json holds."""

import hashlib
import io
import math
import platform
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np

from chamberhealth import cli
from chamberhealth.core import CHANNELS, RunChunk, composite_columns
from chamberhealth.features import RowMeta, aggregate_runs
from chamberhealth.hi import derive_hi, run_segment_durations
from chamberhealth.models import DEFAULT_HYPERPARAMS
from chamberhealth.simgen import default_recipes, default_sensors, simulate_run

# one asset, 100 runs, four maintenance cycles; small models
SMALL_INI = """
[cli]
seed = 0

[simgen]
n_assets = 1
n_runs_total = 100
cycle_length = 25

[features]
horizon = 1

[models]
rf_n_trees = 20
svr_steps = 500
mlp_epochs = 20
"""


def sensors_with_sigma(sigma: float = 0.0) -> tuple:
    """The default gauges, each reading with noise ``sigma``: a noiseless
    chamber by default."""
    return tuple(replace(s, noise_sigma=sigma) for s in default_sensors())


def equal_share_recipes() -> tuple:
    """The default recipes with equal schedule shares: a uniform draw."""
    return tuple(replace(r, share=1.0) for r in default_recipes())


def simulate_one(state, recipe, config, seed: int):
    """``simulate_run`` from ``np.random.default_rng(seed)``, as run run-0
    of asset1 at the config's time origin."""
    return simulate_run(state, recipe, config, np.random.default_rng(seed), "run-0", "asset1",
                        config.time_origin)


def hyper(kind: str, **overrides) -> dict:
    """The hyperparameters of ``kind``'s fitter, as keyword arguments:
    ``DEFAULT_HYPERPARAMS[kind]`` with ``overrides`` in their place."""
    return {**DEFAULT_HYPERPARAMS[kind], **overrides}


def chunk_of(runs) -> RunChunk:
    """In-memory runs end to end as one RunChunk, as ``dataio.read_dataset``
    hands a stretch of runs.csv to its summary."""
    lengths = [run.n_samples for run in runs]
    return RunChunk(
        run_ids=tuple(run.run_id for run in runs),
        starts=np.cumsum([0] + lengths[:-1]),
        t=np.concatenate([run.t for run in runs]),
        readings=np.concatenate([run.readings for run in runs]),
        channels={name: np.concatenate([run.extra_channels[name] for run in runs])
                  for name in CHANNELS},
    )


def durations_of(runs, sensors, segments) -> np.ndarray:
    """``run_segment_durations`` of in-memory runs."""
    chunk = chunk_of(runs)
    return run_segment_durations(chunk, composite_columns(chunk, sensors), segments)


def aggregates_of(runs, sensors) -> dict:
    """``aggregate_runs`` of in-memory runs."""
    chunk = chunk_of(runs)
    return aggregate_runs(chunk, composite_columns(chunk, sensors))


def derive_hi_of(runs, sensors, segments, *args, **kwargs):
    """``derive_hi`` on the segment durations of in-memory runs."""
    return derive_hi(runs, durations_of(runs, sensors, segments), segments, *args, **kwargs)


def hi_column(runs, series):
    """The HI of each run of ``runs``, NaN for a run without one, from
    ``derive_hi``'s series of the same runs, as ``dataio.read_hi_csv``
    returns it."""
    hi = np.full(len(runs), np.nan)
    hi[series.entries] = series.hi
    return hi


def toy_meta(n_runs, n_runs_target, hi_current, start: int = 0) -> RowMeta:
    """The RowMeta columns of one row per entry of ``n_runs``, all of asset
    a1 and recipe std: row i is run r<start+i> at start_time start+i, and
    its target run is r<start+i+10>."""
    n = len(n_runs)
    runs = range(start, start + n)
    return RowMeta(
        asset_id=np.full(n, "a1"), run_id=np.array([f"r{i}" for i in runs], dtype=str),
        run_id_target=np.array([f"r{i + 10}" for i in runs], dtype=str),
        start_time=np.arange(start, start + n, dtype=np.float64),
        n_runs=np.asarray(n_runs, dtype=int), n_runs_target=np.asarray(n_runs_target, dtype=int),
        hi_current=np.asarray(hi_current, dtype=np.float64), recipe_id=np.full(n, "std"),
        plan=np.full((n, 10), "std"),
    )


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


# -- reference predictions: the forest's whole (trees, rows) walk at once,
# and KNN's full difference and stable argsort per test row;
# RFModel.predict and KNNModel.predict must return the same bits


def reference_forest_predict(forest, X) -> np.ndarray:
    """The mean over trees of every row's leaf value, from one walk of all
    the rows."""
    return forest._leaf_values(X).mean(axis=0)


def reference_knn_predict(knn, X) -> np.ndarray:
    """The mean target of each row's k nearest train rows: the distance to
    every train row, stable-sorted, so ties go to the lower train index.
    A distance that overflows is +inf, without numpy's warning."""
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(X.shape[0], dtype=np.float64)
    with np.errstate(over="ignore"):
        for i in range(X.shape[0]):
            d2 = np.sum((knn.X - X[i]) ** 2, axis=1)
            nearest = np.argsort(d2, kind="stable")[: knn.k]
            out[i] = knn.y[nearest].mean()
    return out


# -- reference bm2: per-position sums in dicts and a per-row nearest-position
# fallback; models.benchmark_predict("bm2", ...) must return the same bits


def reference_bm2(train, test) -> np.ndarray:
    """Mean train target at each test row's target cycle position, or at
    the nearest populated position, the lower one on a tie."""
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for value, pos in zip(train.y.tolist(), train.meta.n_runs_target.tolist()):
        sums[pos] = sums.get(pos, 0.0) + float(value)
        counts[pos] = counts.get(pos, 0) + 1
    positions = np.array(sorted(sums))
    means = {pos: sums[pos] / counts[pos] for pos in sums}
    out = np.empty(test.n_rows, dtype=np.float64)
    for i, pos in enumerate(test.meta.n_runs_target.tolist()):
        if pos in means:
            out[i] = means[pos]
        else:
            gaps = np.abs(positions - pos)
            out[i] = means[int(positions[int(np.argmin(gaps))])]
    return out


# -- reference supervised set: one tuple per row, a Python sort and one
# one-hot call per row; features.build_supervised and chrono_split must
# give the same bits


def reference_encode_recipe_plan(plan, vocab, horizon) -> np.ndarray:
    """One row's one-hot blocks: block b encodes plan[b], all zeros for a
    recipe missing from the vocabulary."""
    assert len(plan) == horizon
    index = {rid: j for j, rid in enumerate(vocab)}
    out = np.zeros(horizon * len(vocab), dtype=np.float64)
    for b, rid in enumerate(plan):
        j = index.get(rid)
        if j is not None:
            out[b * len(vocab) + j] = 1.0
    return out


def reference_build_supervised(runs, aggregates, hi, horizon):
    """``X``, ``y`` and a dict of RowMeta's columns, built row by row: per
    asset in name order, the runs sorted by (start_time, run_id), a row
    per run whose run ``horizon`` positions later exists and both have an
    HI (not NaN in ``hi``); the rows then sorted by (start_time, run_id),
    stably."""
    numeric = np.column_stack([*aggregates.values(), [run.n_runs for run in runs]])
    by_asset: dict[str, list[int]] = {}
    for i, run in enumerate(runs):
        by_asset.setdefault(run.asset_id, []).append(i)
    rows = []
    for asset_id in sorted(by_asset):
        seq = sorted(by_asset[asset_id], key=lambda i: (runs[i].start_time, runs[i].run_id))
        for t in range(len(seq) - horizon):
            cur, tgt = runs[seq[t]], runs[seq[t + horizon]]
            hi_cur, hi_tgt = hi[seq[t]], hi[seq[t + horizon]]
            if math.isnan(hi_cur) or math.isnan(hi_tgt):
                continue
            meta = {"asset_id": asset_id, "run_id": cur.run_id, "run_id_target": tgt.run_id,
                    "start_time": cur.start_time, "n_runs": cur.n_runs,
                    "n_runs_target": tgt.n_runs, "hi_current": hi_cur,
                    "recipe_id": cur.recipe_id,
                    "plan": [runs[i].recipe_id for i in seq[t + 1 : t + 1 + horizon]]}
            rows.append((cur.start_time, cur.run_id, seq[t], hi_tgt, meta))
    rows.sort(key=lambda r: (r[0], r[1]))
    X = numeric[[r[2] for r in rows]]
    y = np.array([r[3] for r in rows], dtype=np.float64)
    columns = {name: np.array([r[4][name] for r in rows]) for name in rows[0][4]} if rows else {}
    return X, y, columns


def same_column(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two columns hold the same cells: equal strings, or numbers
    of one dtype with the same bits."""
    if a.shape != b.shape or a.dtype.kind != b.dtype.kind:
        return False
    return a.tolist() == b.tolist() if a.dtype.kind == "U" else a.tobytes() == b.tobytes()


# -- golden artifact digests: the sha256 of every file that pipeline writes
# at 2 assets and 300 runs, at each of two seeds. tests/golden/regenerate.py
# writes them to GOLDEN; test_golden checks that a rerun gives the same.

GOLDEN = Path(__file__).parent / "golden" / "digests.json"
GOLDEN_SEEDS = (0, 3)
GOLDEN_ARGS = ("pipeline", "--n-assets", "2", "--n-runs-total", "300")


def pipeline_digests(root: Path) -> dict[str, dict[str, str]]:
    """Seed -> file -> sha256 hex digest of every artifact of ``GOLDEN_ARGS``
    at each of GOLDEN_SEEDS, run under ``root``; a file is named by its
    path in the working directory."""
    digests = {}
    for seed in GOLDEN_SEEDS:
        work = Path(root) / f"seed{seed}"
        with redirect_stdout(io.StringIO()):
            code = cli.main([*GOLDEN_ARGS, "--seed", str(seed), "--out", str(work)])
        if code != 0:
            raise RuntimeError(f"pipeline at seed {seed} exited {code}")
        digests[str(seed)] = {
            path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(work.rglob("*")) if path.is_file()
        }
    return digests


def golden_versions() -> dict[str, str]:
    """The Python and numpy versions that artifact bytes may depend on."""
    return {"python": platform.python_version(), "numpy": np.__version__}
