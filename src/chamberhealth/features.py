"""Supervised dataset construction for horizon-10 HI forecasting.

Each row describes one run t and predicts the health index of the run
ten positions later on the same asset. Inputs available at time t are
the run's per-channel aggregates (mean, min, max, population std), the
maintenance counter, the current recipe, and the planned recipes of the
next ten runs; nothing from the future leaks in. One-hot vocabularies
and standardization statistics come from the chronological train
partition only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import RunRecord
from .errors import DataError

AGGREGATE_SUFFIXES = ("mean", "min", "max", "std")

# "<channel>_<mean|min|max|std>" -> value, in aggregate_names column order
Aggregates = dict[str, float]


def aggregate_channels(run: RunRecord, pressure: np.ndarray) -> Aggregates:
    """Per-channel mean, min, max and population std for one run, keyed
    by column name in ``aggregate_names`` order, channels sorted by name.

    Channels are ``pressure``, the run's fused composite curve (see
    ``core.composite_curve``), plus every extra process channel;
    population std keeps n=1 channels well defined.
    """
    channels: dict[str, np.ndarray] = {"pressure": pressure}
    channels.update(run.extra_channels)
    out = {}
    for name in sorted(channels):
        values = np.asarray(channels[name], dtype=np.float64)
        stats = (values.mean(), values.min(), values.max(), values.std())
        out.update(zip(aggregate_names([name]), map(float, stats)))
    return out


def aggregate_names(channels: Iterable[str]) -> list[str]:
    """Column names ``<channel>_<mean|min|max|std>``, channel-major."""
    return [f"{ch}_{suffix}" for ch in channels for suffix in AGGREGATE_SUFFIXES]


@dataclass(frozen=True)
class RunSummary:
    """One run as ``build_supervised`` sees it: identity, recipe,
    maintenance counter and the channel aggregates of ``aggregate_channels``."""

    run_id: str
    asset_id: str
    start_time: float
    recipe_id: str
    n_runs: int
    aggregates: Aggregates


def summarize_run(run: RunRecord, pressure: np.ndarray) -> RunSummary:
    """The RunSummary of a run whose composite curve is ``pressure``."""
    return RunSummary(
        run.run_id, run.asset_id, run.start_time, run.recipe_id, run.n_runs,
        aggregate_channels(run, pressure),
    )


def encode_recipe_plan(
    plan: Sequence[str], vocab: Sequence[str], horizon: int = 10
) -> np.ndarray:
    """One-hot encode the next ``horizon`` recipes against a fixed vocabulary.

    Block b encodes plan[b]; a recipe missing from the vocabulary
    encodes to an all-zero block (open-vocabulary fallback).
    """
    if len(plan) != horizon:
        raise DataError(f"plan length {len(plan)} != horizon {horizon}")
    index = {rid: j for j, rid in enumerate(vocab)}
    out = np.zeros(horizon * len(vocab), dtype=np.float64)
    for b, rid in enumerate(plan):
        j = index.get(rid)
        if j is not None:
            out[b * len(vocab) + j] = 1.0
    return out


@dataclass(frozen=True)
class RowMeta:
    """Bookkeeping for one supervised row (current run t, target run t+h)."""

    asset_id: str
    run_id: str
    run_id_target: str
    start_time: float
    n_runs: int
    n_runs_target: int
    hi_current: float
    recipe_id: str
    plan: tuple[str, ...]


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
    meta: tuple[RowMeta, ...]

    @property
    def n_rows(self) -> int:
        return int(self.y.size)


def build_supervised(
    runs: Sequence[RunSummary],
    hi: Mapping[str, float],
    plan: Mapping[str, Sequence[str]],
    horizon: int = 10,
) -> SupervisedSet:
    """One row per run that has a same-asset run ``horizon`` positions later.

    ``runs`` are per-run summaries (``summarize_run``). ``hi`` maps
    run_id to the derived health index in seconds. ``plan`` maps
    asset_id to that asset's scheduled recipe sequence. Rows spanning a
    maintenance event are kept: the post-cleaning drop is part of the
    target. Rows are sorted by start_time.
    """
    by_asset: dict[str, list[RunSummary]] = {}
    for run in runs:
        by_asset.setdefault(run.asset_id, []).append(run)

    rows = []
    for asset_id in sorted(by_asset):
        seq = sorted(by_asset[asset_id], key=lambda r: (r.start_time, r.run_id))
        recipe_seq = list(plan.get(asset_id, ()))
        if len(recipe_seq) < len(seq):
            raise DataError(f"plan for {asset_id} covers {len(recipe_seq)} of {len(seq)} runs")
        for t in range(len(seq) - horizon):
            cur, tgt = seq[t], seq[t + horizon]
            if cur.run_id not in hi or tgt.run_id not in hi:
                continue
            rows.append(
                (
                    cur.start_time,
                    cur.run_id,
                    np.array([*cur.aggregates.values(), cur.n_runs], dtype=np.float64),
                    hi[tgt.run_id],
                    RowMeta(
                        asset_id=asset_id,
                        run_id=cur.run_id,
                        run_id_target=tgt.run_id,
                        start_time=cur.start_time,
                        n_runs=cur.n_runs,
                        n_runs_target=tgt.n_runs,
                        hi_current=hi[cur.run_id],
                        recipe_id=cur.recipe_id,
                        plan=tuple(recipe_seq[t + 1 : t + 1 + horizon]),
                    ),
                )
            )

    if not rows:
        raise DataError("no supervised rows could be built")
    rows.sort(key=lambda r: (r[0], r[1]))

    names = (*runs[0].aggregates, "n_runs")
    X = np.stack([r[2] for r in rows])
    y = np.array([r[3] for r in rows], dtype=np.float64)
    meta = tuple(r[4] for r in rows)
    return SupervisedSet(X=X, y=y, feature_names=names, meta=meta)


def _encode_with_vocab(sset: SupervisedSet, vocab: tuple[str, ...], horizon: int) -> SupervisedSet:
    """Append current-recipe and plan one-hot blocks to the numeric matrix."""
    blocks = [encode_recipe_plan((m.recipe_id, *m.plan), vocab, horizon + 1) for m in sset.meta]
    prefixes = ["recipe"] + [f"plan{b}" for b in range(1, horizon + 1)]
    names = sset.feature_names + tuple(f"{p}_{rid}" for p in prefixes for rid in vocab)
    X = np.hstack([sset.X, np.stack(blocks)])
    return replace(sset, X=X, feature_names=names)


def chrono_split(
    sset: SupervisedSet, train_frac: float = 0.7
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

    horizon = len(sset.meta[0].plan)
    seen: set[str] = set()
    for m in sset.meta[:n_train]:
        seen.add(m.recipe_id)
        seen.update(m.plan)
    vocab = tuple(sorted(seen))

    def take(lo: int, hi: int) -> SupervisedSet:
        part = SupervisedSet(
            X=sset.X[lo:hi],
            y=sset.y[lo:hi],
            feature_names=sset.feature_names,
            meta=sset.meta[lo:hi],
        )
        return _encode_with_vocab(part, vocab, horizon)

    return take(0, n_train), take(n_train, sset.n_rows)


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
