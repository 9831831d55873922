"""Supervised dataset construction for horizon-10 HI forecasting.

Each row describes one run t and predicts the health index of the run
ten positions later on the same asset. Inputs available at time t are
the run's per-channel aggregates (mean, min, max, population std), the
maintenance counter, the current recipe, and the planned recipes of the
next ten runs; nothing from the future leaks in. One-hot vocabularies
and standardization statistics come from the chronological train
partition only. The rows' bookkeeping travels as columns (``RowMeta``),
built, split and encoded by array operations, not row by row.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Annotated, Iterable, Mapping, Sequence

import numpy as np

from .core import CHANNELS, RunChunk, RunMeta, RunRecord
from .errors import DataError

AGGREGATE_SUFFIXES = ("mean", "min", "max", "std")
PRESSURE = "pressure"  # the aggregates' name of a run's composite curve
AGGREGATED = tuple(sorted([PRESSURE, *CHANNELS]))  # the composite curve and every channel


# No stage calls it: it is the tests' per-run reference, and a name perfbench traces.
def aggregate_channels(run: RunRecord, pressure: np.ndarray) -> dict[str, float]:
    """Per-channel mean, min, max and population std for one run, keyed
    by column name in ``aggregate_names`` order, channels sorted by name.

    Channels are ``pressure``, the run's fused composite curve (see
    ``core.composite_curve``), plus every extra process channel;
    population std keeps n=1 channels well defined.
    """
    channels = {PRESSURE: pressure, **run.extra_channels}
    out = {}
    for name in sorted(channels):
        values = np.asarray(channels[name], dtype=np.float64)
        stats = (values.mean(), values.min(), values.max(), values.std())
        out.update(zip(aggregate_names([name]), map(float, stats)))
    return out


def aggregate_names(channels: Iterable[str]) -> list[str]:
    """Column names ``<channel>_<mean|min|max|std>``, channel-major."""
    return [f"{ch}_{suffix}" for ch in channels for suffix in AGGREGATE_SUFFIXES]


def aggregate_runs(chunk: RunChunk, pressure: np.ndarray) -> dict[str, np.ndarray]:
    """``aggregate_channels`` of every run of ``chunk``, given the chunk's
    composite curve, as columns: name -> one float64 per run, in run order.

    min and max are reduced per run in one call. The runs of each length
    are gathered as the rows of one matrix, whose mean and std numpy sums
    row by row exactly as it sums one run alone, so every value has the
    bits of the per-run function.
    """
    channels = {PRESSURE: pressure, **chunk.channels}
    values = np.stack([channels[name] for name in AGGREGATED])  # channel-major rows
    lengths = chunk.lengths
    mean, std = np.empty((2, len(AGGREGATED), lengths.size))
    for n in np.unique(lengths):
        runs = np.flatnonzero(lengths == n)
        # channels x runs x samples, C-contiguous: each run's samples are one row
        block = np.take(values, chunk.starts[runs, None] + np.arange(n), axis=1)
        mean[:, runs] = block.mean(axis=2)
        std[:, runs] = block.std(axis=2)
    lo = np.minimum.reduceat(values, chunk.starts, axis=1)
    hi = np.maximum.reduceat(values, chunk.starts, axis=1)
    stats = np.stack([mean, lo, hi, std], axis=1)  # in AGGREGATE_SUFFIXES order
    return dict(zip(aggregate_names(AGGREGATED), stats.reshape(-1, lengths.size)))


def encode_recipe_plan(plans: np.ndarray, vocab: Sequence[str]) -> np.ndarray:
    """One-hot encode a rows x k array of recipe ids against a fixed
    vocabulary: row r holds k blocks of len(vocab) columns, and block b
    is 1.0 at the vocabulary position of plans[r, b] and 0.0 elsewhere.
    A recipe missing from the vocabulary encodes to an all-zero block
    (open-vocabulary fallback)."""
    rows, k = plans.shape
    hits = plans[:, :, None] == np.asarray(vocab, dtype=str)
    return hits.reshape(rows, k * len(vocab)).astype(np.float64)


@dataclass(frozen=True)
class RowMeta:
    """Bookkeeping of the supervised rows (current run t, target run t+h)
    as columns: each field one numpy array with an entry per row, of the
    annotated cell type; ``plan`` is rows x horizon, the recipe ids of
    the asset's next runs."""

    asset_id: Annotated[np.ndarray, str]
    run_id: Annotated[np.ndarray, str]
    run_id_target: Annotated[np.ndarray, str]
    start_time: Annotated[np.ndarray, float]
    n_runs: Annotated[np.ndarray, int]
    n_runs_target: Annotated[np.ndarray, int]
    hi_current: Annotated[np.ndarray, float]
    recipe_id: Annotated[np.ndarray, str]
    plan: Annotated[np.ndarray, str]

    def take(self, rows) -> "RowMeta":
        """The rows that ``rows`` (any numpy index) picks, in every column."""
        return RowMeta(*(getattr(self, f.name)[rows] for f in fields(self)))


@dataclass(frozen=True)
class SupervisedSet:
    """Feature matrix, target vector and row metadata, time ordered.

    Straight out of ``build_supervised`` the matrix holds only the
    numeric block; ``chrono_split`` appends the recipe one-hot blocks
    (``recipe_<id>``, ``plan<b>_<id>``) once the training vocabulary is
    known.
    """

    X: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]
    meta: RowMeta

    @property
    def n_rows(self) -> int:
        return int(self.y.size)


def build_supervised(
    runs: Sequence[RunMeta],
    aggregates: Mapping[str, np.ndarray],
    hi: np.ndarray,
    horizon: int,
) -> SupervisedSet:
    """One row per run that has a same-asset run ``horizon`` positions later.

    ``aggregates`` (``aggregate_runs``) and ``hi`` hold one value per run
    of ``runs``: a column each, and the HI in seconds, NaN for a run
    without one (``dataio.read_hi_csv``). A row's plan is the recipe_ids
    of its asset's next ``horizon`` runs in (start_time, run_id) order,
    the production plan a scheduler knows in advance. Rows spanning a
    maintenance event are kept: the post-cleaning drop is part of the
    target. Rows are sorted by (start_time, run_id).

    The runs are ordered by (asset_id, start_time, run_id) in one
    lexsort; the target of the run at position p is the run at
    p + horizon, if both are of one asset and both have an HI.
    """
    ids, assets, recipes = (np.array([getattr(run, name) for run in runs], dtype=str)
                            for name in ("run_id", "asset_id", "recipe_id"))
    starts = np.array([run.start_time for run in runs], dtype=np.float64)
    counters = np.array([run.n_runs for run in runs], dtype=int)
    his = np.asarray(hi, dtype=np.float64)
    seq = np.lexsort((ids, starts, assets))
    p = np.arange(max(0, len(runs) - horizon))
    cur, tgt = seq[p], seq[p + horizon]
    p = p[(assets[cur] == assets[tgt]) & ~np.isnan(his[cur]) & ~np.isnan(his[tgt])]
    if not p.size:
        raise DataError("no supervised rows could be built")
    p = p[np.lexsort((ids[seq[p]], starts[seq[p]]))]

    cur, tgt = seq[p], seq[p + horizon]
    meta = RowMeta(
        asset_id=assets[cur], run_id=ids[cur], run_id_target=ids[tgt], start_time=starts[cur],
        n_runs=counters[cur], n_runs_target=counters[tgt], hi_current=his[cur],
        recipe_id=recipes[cur], plan=recipes[seq[p[:, None] + np.arange(1, horizon + 1)]],
    )
    X = np.column_stack([*aggregates.values(), counters])[cur]
    return SupervisedSet(X=X, y=his[tgt], feature_names=(*aggregates, "n_runs"), meta=meta)


def chrono_split(
    sset: SupervisedSet, train_frac: float
) -> tuple[SupervisedSet, SupervisedSet]:
    """Split time-ordered rows into the oldest train_frac and the rest.

    The recipe vocabulary is collected from the train partition only
    (current recipes plus planned recipes, both known at train time)
    and applied to both partitions, so a test-only recipe encodes to a
    zero block and never changes a train feature.
    """
    if sset.n_rows < 10:
        raise DataError(f"need >= 10 rows to split, got {sset.n_rows}")
    n_train = int(np.floor(train_frac * sset.n_rows))
    if n_train == 0 or n_train == sset.n_rows:
        raise DataError(f"degenerate split sizes ({n_train}, {sset.n_rows - n_train})")

    seen = sset.meta.take(slice(n_train))
    # column by column: all the train rows' cells at once as Python strings are ~3x their size
    vocab = tuple(sorted(set().union(*(set(c.tolist()) for c in (seen.recipe_id, *seen.plan.T)))))
    prefixes = ["recipe"] + [f"plan{b}" for b in range(1, seen.plan.shape[1] + 1)]
    names = sset.feature_names + tuple(f"{p}_{rid}" for p in prefixes for rid in vocab)

    def take(rows: slice) -> SupervisedSet:
        meta = sset.meta.take(rows)
        one_hot = encode_recipe_plan(np.column_stack([meta.recipe_id, meta.plan]), vocab)
        X = np.hstack([sset.X[rows], one_hot])
        return SupervisedSet(X=X, y=sset.y[rows], feature_names=names, meta=meta)

    return take(slice(n_train)), take(slice(n_train, None))


@dataclass(frozen=True)
class Standardizer:
    """Per-column z-scoring frozen to train statistics.

    Constant train columns (sigma = 0) map to 0 rather than NaN.
    """

    mu: np.ndarray
    sigma: np.ndarray

    @classmethod
    def fit(cls, train_X: np.ndarray) -> "Standardizer":
        if train_X.size == 0:
            raise DataError("cannot standardize an empty matrix")
        return cls(mu=train_X.mean(axis=0), sigma=train_X.std(axis=0))

    def transform(self, X: np.ndarray) -> np.ndarray:
        safe = np.where(self.sigma == 0.0, 1.0, self.sigma)
        out = (X - self.mu) / safe
        return np.where(self.sigma == 0.0, 0.0, out)
