"""Acceptance criteria, one test per criterion with a printed verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
PASS/FAIL line per criterion. The forecasting criteria run the real
pipeline (including all file I/O) on the default configuration.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from chamberhealth import dataio
from chamberhealth.cli import run_pipeline
from chamberhealth.config import default_config
from chamberhealth.hi import extract_segment_duration, fit_ols, impact
from chamberhealth.core import composite_curve
from chamberhealth.models import (
    fit_decision_tree,
    fit_random_forest,
    mlp_gradients,
    mlp_init,
    mlp_loss,
)
from chamberhealth.simgen import (
    ChamberConfig,
    ChamberState,
    RecipeSpec,
    default_segments,
    simulate_history,
    true_segment_duration,
)
from helpers import derive_hi_of, sensors_with_sigma, simulate_one


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# reference regression table, rows (k [s/run], t_bar [s], printed alpha [%])
REFERENCE_ROWS = [
    (1, 0.06, 139.0, 5.0),
    (2, 0.12, 21.0, 55.0),
    (5, 0.19, 160.0, 12.0),
]


def test_criterion_1_impact_formula_reproduction():
    """Rows 3/4 are excluded: their printed alphas are inconsistent with
    the stated formula (apparently transposed); see README."""
    worst = 0.0
    for _, k, t_bar, printed in REFERENCE_ROWS:
        worst = max(worst, abs(impact(k, t_bar, cycle_length=100) - printed))
    verdict(1, worst <= 3.0, f"max |alpha - printed| = {worst:.2f} pct points (limit 3)")


def test_criterion_2_segment_selection():
    config = ChamberConfig()
    recipes = (RecipeSpec("std", deposition_weight=0.8, duration_scale=1.0),)
    t0 = time.time()
    ok = True
    details = []
    for seed in range(5):
        history = tuple(simulate_history(config, recipes, n_assets=1, n_runs_total=400,
                                         cycle_length=100, seed=seed))
        fits, series = derive_hi_of(history, config.sensors, default_segments(),
                                    cycle_length=100, analysis_limit=400)
        r2 = {f.segment.index: f.r2 for f in fits}
        sel = series.selected_segment.index
        seed_ok = (
            sel == 2
            and 0.5 <= r2[2] <= 0.7
            and all(v < 0.45 for i, v in r2.items() if i != 2)
        )
        ok = ok and seed_ok
        details.append(f"seed{seed}: sel=dp{sel} r2(dp2)={r2[2]:.3f}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    verdict(2, ok, "; ".join(details) + f"; runtime {elapsed:.1f}s (limit 10s)")


def test_criterion_3_ols_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 1001))
        x = rng.uniform(0, 100, size=n)
        if np.ptp(x) == 0:
            x[0] += 1.0
        y = rng.uniform(-100, 100, size=n) + 0.05 * x
        k, d = fit_ols(x, y)
        a = np.array([[np.sum(x * x), np.sum(x)], [np.sum(x), float(n)]])
        b = np.array([np.sum(x * y), np.sum(y)])
        k_ref, d_ref = np.linalg.solve(a, b)
        for got, ref in ((k, k_ref), (d, d_ref)):
            worst = max(worst, abs(got - ref) / max(abs(ref), 1e-9))
    verdict(3, worst < 1e-9, f"max relative deviation from normal equations = {worst:.2e}")


def test_criterion_4_pumpdown_oracle_consistency():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        config = ChamberConfig(
            tau_stage1=float(rng.uniform(1.5, 5.0)),
            tau_stage2=float(rng.uniform(2.0, 6.0)),
            crossover_pressure=float(rng.uniform(0.01, 0.05)),
            base_outgassing_q0=float(rng.uniform(1e-6, 1.5e-5)),
            outgassing_per_unit=float(rng.uniform(1e-7, 6e-7)),
            target_pressure=float(rng.uniform(9.0e-5, 9.8e-5)),
            sensors=sensors_with_sigma(),
            seasonal_amplitude=0.0,
            weather_sigma=0.0,
        )
        c_max = (7.0e-5 - config.base_outgassing_q0) / config.outgassing_per_unit
        state = ChamberState(contamination=float(rng.uniform(0.0, max(c_max, 0.0))))
        run = simulate_one(state, RecipeSpec("std", 0.8), config, seed=0)
        curve = composite_curve(run, config.sensors)
        for seg in default_segments():
            measured = extract_segment_duration(run.t, curve, seg)
            assert measured is not None, f"dp{seg.index} incomplete at p_ss={run.true_p_ss}"
            expected = true_segment_duration(seg, config, run.true_p_ss)
            worst = max(worst, abs(measured - expected))
    verdict(4, worst <= 0.5, f"max |measured - closed form| = {worst:.4f}s (limit one 0.5s sample)")


@pytest.fixture(scope="module")
def default_pipeline(tmp_path_factory):
    cfg = replace(default_config(), seed=0,
                  out_dir=str(tmp_path_factory.mktemp("accept") / "run_a"))
    t0 = time.time()
    run_pipeline(cfg)
    elapsed = time.time() - t0
    report = json.loads((Path(cfg.out_dir) / dataio.REPORT_JSON).read_text())
    return cfg, report, elapsed


def test_criterion_5_forecasting_ranking(default_pipeline):
    cfg, report, elapsed = default_pipeline
    maes = {r["model"]: r["mae"] for r in report["results"] if r["mae"] is not None}
    bm = report["benchmarks"]
    best = min(maes.values())
    checks = {
        "dt<bm2": maes["dt"] < bm["bm2"],
        "dt<bm3": maes["dt"] < bm["bm3"],
        "rf<bm2": maes["rf"] < bm["bm2"],
        "rf<bm3": maes["rf"] < bm["bm3"],
        "bm1<=1.5*best": bm["bm1"] <= 1.5 * best,
        "runtime<60s": elapsed < 60.0,
    }
    detail = (
        f"dt={maes['dt']:.4f} rf={maes['rf']:.4f} bm1={bm['bm1']:.4f} "
        f"bm2={bm['bm2']:.4f} bm3={bm['bm3']:.4f} best={best:.4f} "
        f"runtime={elapsed:.1f}s; " + ", ".join(k for k, v in checks.items() if not v)
    )
    verdict(5, all(checks.values()), detail.rstrip("; ") or detail)


def test_criterion_6_mlp_gradient_check():
    worst = 0.0
    h = 1e-5
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(8, 5))
        y = rng.normal(size=8)
        params = list(mlp_init(5, 7, seed=seed))
        grads = mlp_gradients(params, X, y)
        for param, grad in zip(params, grads):
            flat = param.ravel()
            gflat = grad.ravel()
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                up = mlp_loss(params, X, y)
                flat[j] = orig - h
                down = mlp_loss(params, X, y)
                flat[j] = orig
                numeric = (up - down) / (2 * h)
                denom = max(abs(numeric), abs(gflat[j]), 1e-8)
                worst = max(worst, abs(numeric - gflat[j]) / denom)
    verdict(6, worst < 1e-4, f"max relative gradient error = {worst:.2e} over 10 seeded batches")


def test_criterion_7_pipeline_determinism(default_pipeline, tmp_path):
    cfg_a, _, _ = default_pipeline
    report_a = (Path(cfg_a.out_dir) / dataio.REPORT_JSON).read_bytes()

    cfg_b = replace(cfg_a, out_dir=str(tmp_path / "run_b"))
    run_pipeline(cfg_b)
    report_b = (Path(cfg_b.out_dir) / dataio.REPORT_JSON).read_bytes()

    ok = report_a == report_b
    verdict(7, ok, f"report.json identical across reruns: {ok}")


def test_criterion_8_degenerate_forest_identity():
    rng = np.random.default_rng(11)
    identical = True
    for trial in range(20):
        n = int(rng.integers(20, 120))
        m = int(rng.integers(1, 6))
        X = rng.uniform(size=(n, m))
        y = rng.normal(size=n)
        q = rng.uniform(size=(40, m))
        tree = fit_decision_tree(X, y, max_depth=8, min_samples_leaf=5)
        forest = fit_random_forest(X, y, n_trees=1, max_depth=8, min_samples_leaf=5,
                                   features_per_split=m, seed=trial, bootstrap=False)
        if not np.array_equal(tree.predict(q), forest.predict(q)):
            identical = False
    verdict(8, identical, "RF(1 tree, no bootstrap, all features) == DT on 20 datasets")
