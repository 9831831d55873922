"""MAE scoring and the model-vs-benchmark comparison report.

The report carries only environment-free fingerprints (row counts,
seeds, a config hash), never wall-clock times, so byte-identical
reproduction from (dataset, config, seed) is a testable property.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .errors import DataError
from .features import SupervisedSet
from .models import BENCHMARK_KINDS, TrainedModel, benchmark_predict


def mae(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Mean absolute error (1/n) * sum |y_i - y_hat_i|."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.size != y_hat.size:
        raise DataError(f"length mismatch: {y.size} targets vs {y_hat.size} predictions")
    if y.size == 0:
        raise DataError("mae needs at least one pair")
    return float(np.mean(np.abs(y - y_hat)))


@dataclass(frozen=True)
class EvalReport:
    """Per-model and per-benchmark MAE on one shared test split."""

    results: tuple[tuple[str, Optional[float]], ...]  # (model, mae), sorted ascending
    benchmarks: dict[str, float]
    dataset: dict
    bm1_identity: float
    predictions: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    def to_json_dict(self) -> dict:
        results = [{"model": kind, "mae": value} for kind, value in self.results]
        results.append({"model": "lstm", "mae": None, "note": "not implemented"})
        return {
            "dataset": self.dataset,
            "results": results,
            "benchmarks": dict(sorted(self.benchmarks.items())),
            "bm1_identity": self.bm1_identity,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=1)


def evaluate_all(
    models: Mapping[str, TrainedModel],
    train: SupervisedSet,
    test: SupervisedSet,
    dataset_fingerprint: Optional[dict] = None,
) -> EvalReport:
    """Score every fitted model and every naive benchmark on the same rows.

    Results are sorted by MAE ascending; an "lstm" placeholder row is
    appended on serialization so comparisons against sequence models
    stay explicit about what was not implemented here. The report also
    carries the definitional cross-check for bm1: the mean absolute
    ten-step target difference recomputed from the row metadata, and
    every model's and benchmark's test predictions.
    """
    predictions = {kind: models[kind].predict(test.X) for kind in sorted(models)}
    predictions.update({kind: benchmark_predict(kind, train, test) for kind in BENCHMARK_KINDS})
    scores = {kind: mae(test.y, pred) for kind, pred in predictions.items()}
    results = sorted(((kind, scores[kind]) for kind in models), key=lambda item: (item[1], item[0]))

    bm1_identity = float(
        np.mean([abs(y - m.hi_current) for y, m in zip(test.y, test.meta)])
    )
    fingerprint = dict(dataset_fingerprint or {})
    fingerprint.setdefault("train_rows", train.n_rows)
    fingerprint.setdefault("test_rows", test.n_rows)
    return EvalReport(
        results=tuple(results),
        benchmarks={kind: scores[kind] for kind in BENCHMARK_KINDS},
        dataset=fingerprint,
        bm1_identity=bm1_identity,
        predictions=predictions,
    )
