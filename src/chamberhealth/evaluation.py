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
            "benchmarks": self.benchmarks,
            "bm1_identity": self.bm1_identity,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=1)

    def degenerate(self) -> list[str]:
        """One line per model, in kind order, whose test predictions are
        constant or equal a benchmark's, as in "svr predictions are
        constant and equal bm3's"."""
        lines = []
        for kind in sorted(kind for kind, _ in self.results):
            pred = self.predictions[kind]
            what = ["are constant"] if (pred == pred[0]).all() else []
            same = [f"{bm}'s" for bm in BENCHMARK_KINDS
                    if np.array_equal(pred, self.predictions[bm])]
            if same:
                what.append("equal " + " and ".join(same))
            if what:
                lines.append(f"{kind} predictions {' and '.join(what)}")
        return lines


def evaluate_all(
    models: Mapping[str, TrainedModel],
    train: SupervisedSet,
    test: SupervisedSet,
    dataset_fingerprint: dict,
) -> EvalReport:
    """Score every fitted model and every naive benchmark on the same rows.

    Results are sorted by MAE ascending; an "lstm" placeholder row is
    appended on serialization so comparisons against sequence models
    stay explicit about what was not implemented here. The report also
    carries the definitional cross-check for bm1: the mean absolute
    ten-step target difference recomputed from the row metadata, and
    every model's and benchmark's test predictions. Its ``dataset`` is
    ``dataset_fingerprint`` with the train and test row counts.
    """
    predictions = {kind: models[kind].predict(test.X) for kind in sorted(models)}
    predictions.update({kind: benchmark_predict(kind, train, test) for kind in BENCHMARK_KINDS})
    scores = {kind: mae(test.y, pred) for kind, pred in predictions.items()}
    results = sorted(((kind, scores[kind]) for kind in models), key=lambda item: (item[1], item[0]))

    bm1_identity = float(np.mean(np.abs(test.y - test.meta.hi_current)))
    return EvalReport(
        results=tuple(results),
        benchmarks={kind: scores[kind] for kind in BENCHMARK_KINDS},
        dataset={**dataset_fingerprint, "train_rows": train.n_rows, "test_rows": test.n_rows},
        bm1_identity=bm1_identity,
        predictions=predictions,
    )
