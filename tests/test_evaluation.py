"""MAE scoring and report assembly tests."""

import numpy as np
import pytest

from chamberhealth.errors import DataError
from chamberhealth.evaluation import evaluate_all, mae
from chamberhealth.features import SupervisedSet
from chamberhealth.models import RegressorSpec, train_model
from helpers import toy_meta


def test_mae_hand_case():
    assert mae(np.array([1.0, 2.0, 3.0]), np.array([2.0, 2.0, 2.0])) == pytest.approx(2.0 / 3.0)


def test_mae_perfect_prediction():
    y = np.array([5.0, -1.0, 0.25])
    assert mae(y, y) == 0.0


def test_mae_matches_naive_loop_oracle():
    rng = np.random.default_rng(31)
    y = rng.normal(size=100)
    y_hat = rng.normal(size=100)
    total = 0.0
    for a, b in zip(y, y_hat):
        total += abs(a - b)
    assert mae(y, y_hat) == pytest.approx(total / 100.0, rel=1e-12)


def test_mae_errors():
    with pytest.raises(DataError, match="length mismatch: 1 targets vs 2 predictions"):
        mae(np.array([1.0]), np.array([1.0, 2.0]))
    with pytest.raises(DataError, match="mae needs at least one pair"):
        mae(np.array([]), np.array([]))


def _toy_sets(n_train=40, n_test=20, seed=0):
    rng = np.random.default_rng(seed)

    def build(n, start):
        X = rng.uniform(size=(n, 3))
        y = 2.0 + X[:, 0]
        meta = toy_meta(np.arange(n) % 100, (np.arange(n) + 10) % 100, y - 0.1, start)
        return SupervisedSet(X=X, y=y, feature_names=("f0", "f1", "f2"),
                             meta=meta)

    return build(n_train, 0), build(n_test, n_train)


class OracleModel:
    kind = "oracle"

    def predict(self, X):
        return 2.0 + X[:, 0]


def test_perfect_model_ranks_first():
    train, test = _toy_sets()
    dt = train_model(RegressorSpec("dt"), train)
    report = evaluate_all({"oracle": OracleModel(), "dt": dt}, train, test, {})
    assert report.results[0][0] == "oracle"
    assert report.results[0][1] == pytest.approx(0.0, abs=1e-12)
    maes = [m for _, m in report.results]
    assert maes == sorted(maes)


def test_bm1_identity_check():
    train, test = _toy_sets()
    report = evaluate_all({}, train, test, {})
    expected = float(np.mean([abs(y - h) for y, h in zip(test.y, test.meta.hi_current)]))
    assert report.benchmarks["bm1"] == pytest.approx(expected, rel=1e-12)
    assert report.bm1_identity == pytest.approx(expected, rel=1e-12)


def test_bm3_prediction_is_constant():
    from chamberhealth.models import benchmark_predict

    train, test = _toy_sets()
    pred = benchmark_predict("bm3", train, test)
    assert np.ptp(pred) == 0.0
    assert float(np.var(pred)) < 1e-20


def test_report_is_reproducible():
    train, test = _toy_sets()
    models = {"dt": train_model(RegressorSpec("dt"), train)}
    a = evaluate_all(models, train, test, {"seed": 0, "config_hash": "x"})
    b = evaluate_all(models, train, test, {"seed": 0, "config_hash": "x"})
    assert a.to_json() == b.to_json()


def test_report_json_shape():
    train, test = _toy_sets()
    models = {"dt": train_model(RegressorSpec("dt"), train)}
    report = evaluate_all(models, train, test, {"seed": 3, "config_hash": "abc"})
    doc = report.to_json_dict()
    assert set(doc) == {"dataset", "results", "benchmarks", "bm1_identity"}
    assert set(doc["benchmarks"]) == {"bm1", "bm2", "bm3"}
    assert doc["dataset"]["seed"] == 3
    assert doc["dataset"]["train_rows"] == 40
    assert doc["dataset"]["test_rows"] == 20
    # the sequence-model placeholder row stays explicit and last
    assert doc["results"][-1] == {"model": "lstm", "mae": None, "note": "not implemented"}
    assert all(r["mae"] is not None for r in doc["results"][:-1])


def test_predictions_are_kept():
    train, test = _toy_sets()
    models = {"dt": train_model(RegressorSpec("dt"), train)}
    full = evaluate_all(models, train, test, {})
    assert set(full.predictions) == {"dt", "bm1", "bm2", "bm3"}
    assert full.predictions["dt"].shape == (20,)


class ConstantModel:
    def __init__(self, value):
        self.value = value

    def predict(self, X):
        return np.full(X.shape[0], self.value)


class PersistenceModel:
    def predict(self, X):
        return (2.0 + X[:, 0]) - 0.1  # _toy_sets' hi_current, bit for bit


def test_degenerate_models_are_named_and_no_other():
    train, test = _toy_sets()
    models = {"oracle": OracleModel(), "dt": train_model(RegressorSpec("dt"), train),
              "seven": ConstantModel(7.0), "persist": PersistenceModel(),
              "mean": ConstantModel(float(train.y.mean()))}
    report = evaluate_all(models, train, test, {})
    assert report.degenerate() == [
        "mean predictions are constant and equal bm3's",
        "persist predictions equal bm1's",
        "seven predictions are constant",
    ]
    # one test row is no evidence of a constant model; equal to a benchmark still is
    one_row = evaluate_all(models, train, _toy_sets(n_test=1)[1], {})
    assert one_row.degenerate() == ["mean predictions equal bm3's", "persist predictions equal bm1's"]
