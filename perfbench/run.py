"""chamberhealth benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload pipeline-2k --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another
    python3 perfbench/run.py --list                  # every metric with unit and what it should move

Each repetition is a fresh interpreter (``rep.py``) that calls the
pipeline's public ``cli.stage_*`` functions on a config built from the
workload and ``--seed``, then checks the artifacts. Repetitions run one
at a time until another would end after ``--seconds`` (at least two). With
``--trace 0`` the end-to-end metrics are reported as medians over the
repetitions; with ``--trace 1`` untraced and traced repetitions
alternate and the per-layer metrics come from the traced ones.

Every metric is printed as ``<workload> <name> = <value> <unit>``; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The full result, with the
environment stamp and every sample, goes to
``.perfbench-results/<workload>-seed<n>-trace<t>.json`` and the spans
of the last traced repetition to ``spans-<workload>-seed<n>.jsonl``
beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench-work"
RESULTS_DIR = ROOT / ".perfbench-results"
REP = HERE / "rep.py"

DEFAULT_SECONDS = 30
MIN_REPS = 2  # so that every run reports a median, even when one repetition outlasts --seconds
SETUP_SAMPLES = 5  # fresh processes timed to their first timed call, per run
BLAS_THREADS = 1  # one pipeline at a time; a second BLAS thread only adds noise on shared cores
RUN_BUDGET_S = 170.0  # a run kills whatever is left and reports failures after this

sys.path.insert(0, str(HERE))
from catalog import END_TO_END, PER_LAYER, REPORTED_ONLY, WORKLOADS, checks_for  # noqa: E402


def summarize(values) -> dict:
    """Median with its sample count, and the extremes."""
    values = sorted(values)
    if not values:
        return {"median": None, "n": 0}
    return {"median": statistics.median(values), "n": len(values),
            "min": values[0], "max": values[-1]}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def environment_stamp(workload, seed: int) -> dict:
    # imported here: --list and the missing-program check must work without them
    import numpy
    from dataclasses import replace
    from chamberhealth.config import config_hash, default_config

    git_sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git_sha = proc.stdout.strip() or "unknown"
    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = "unknown"
    cfg = replace(default_config(), seed=seed, n_runs_total=workload.n_runs_total)
    return {
        "git_sha": git_sha,
        "config_hash": config_hash(cfg),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": openblas,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


class Runner:
    """The repetitions of one workload run, and its tally of operations.

    An operation is a stage call or an artifact check; a repetition that
    crashes or runs out of time fails every operation it would have made.
    """

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.base = WORK_DIR / f"{workload.name}-seed{seed}-{os.getpid()}"
        self.launches = 0
        self.attempted = 0
        self.failures: list[str] = []

    def launch(self, workdir: Path, *flags: str) -> dict | None:
        """Run rep.py once; None if it crashed or ran out of time."""
        self.launches += 1
        result_path = self.base / f"result{self.launches}.json"
        launched = time.monotonic()
        cmd = [sys.executable, str(REP), "--workload", self.workload.name, "--seed", str(self.seed),
               "--workdir", str(workdir), "--result", str(result_path),
               "--launched", repr(launched), *flags]
        try:
            subprocess.run(cmd, env=child_env(), stdout=subprocess.DEVNULL, check=True,
                           timeout=max(1.0, self.deadline - launched))
            return json.loads(result_path.read_text(encoding="utf-8"))
        except (subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"perfbench: repetition {self.launches} failed: {exc}", file=sys.stderr)
            return None

    def stages(self, workdir: Path, stages, *flags: str) -> dict | None:
        result = self.launch(workdir, *flags)
        if result is None:
            expected = len(stages) + len(checks_for(stages))
            self.attempted += expected
            self.failures += [f"repetition {self.launches}: no result"] * expected
        else:
            self.attempted += result["attempted"]
            self.failures += [f"repetition {self.launches}: {name}: {why}"
                              for name, why in result["failures"].items()]
        return result

    def run(self, seconds: float, trace: bool) -> dict:
        wl = self.workload
        fixture_s, fixture = 0.0, None
        if wl.fixture_stages:
            fixture_dir = self.base / "fixture"
            fixture = self.stages(fixture_dir, wl.fixture_stages, "--fixture")
            if fixture is not None:
                fixture_s = fixture["setup_s"] + fixture["wall_s"]

        spans_path = RESULTS_DIR / f"spans-{wl.name}-seed{self.seed}.jsonl"
        reps: list[tuple[bool, dict | None]] = []
        start = time.monotonic()
        while True:
            traced = trace and len(reps) % 2 == 1
            workdir = self.base / f"rep{len(reps)}"
            workdir.mkdir()
            if wl.fixture_stages:
                for name in ("features.csv", "meta.csv"):
                    if (fixture_dir / name).is_file():
                        shutil.copy(fixture_dir / name, workdir / name)
            flags = ("--trace-spans", str(spans_path)) if traced else ()
            result = self.stages(workdir, wl.stages, *flags)
            shutil.rmtree(workdir, ignore_errors=True)
            reps.append((traced, result))
            if result is None:
                break
            if trace and len(reps) % 2 == 1:
                continue  # a traced repetition always follows its untraced twin
            now = time.monotonic()
            next_end = now + (now - start) / len(reps) * (2 if trace else 1)
            if next_end > self.deadline or (len(reps) >= MIN_REPS and next_end - start > seconds):
                break
        done = [r for _, r in reps if r is not None]
        self.compare_artifacts(done)

        metrics: dict[str, dict] = {}
        if trace:
            traced_results = [r for t, r in reps if t and r is not None]
            for m in PER_LAYER:
                metrics[m.name] = summarize(r["per_layer"][m.name] for r in traced_results)
            overhead = [t["wall_s"] - u["wall_s"]
                        for (_, u), (_, t) in zip(reps[0::2], reps[1::2]) if u and t]
            metrics["trace.overhead_s"] = summarize(overhead)
        else:
            setups = [r["setup_s"] for r in done]
            while len(setups) < SETUP_SAMPLES and time.monotonic() < self.deadline - 10:
                probe = self.launch(self.base / "probe", "--setup-only")
                if probe is None:
                    break
                setups.append(probe["setup_s"])
            checked = done + ([fixture] if fixture else [])
            metrics["wall_s"] = summarize(r["wall_s"] for r in done)
            metrics["setup_s"] = summarize(fixture_s + s for s in setups)
            metrics["peak_rss_mb"] = summarize(r["peak_rss_mb"] for r in done)
            metrics["hi_truth_mae_s"] = summarize(
                r["values"]["hi_truth_mae_s"] for r in checked if "hi_truth_mae_s" in r["values"])
            metrics["error_rate"] = {"median": len(self.failures) / self.attempted, "n": 1}
            metrics["mae_best_s"] = summarize(
                r["values"]["mae_best_s"] for r in done if "mae_best_s" in r["values"])
        return {
            "workload": wl.name,
            "seconds": seconds,
            "trace": int(trace),
            "fixture_s": fixture_s,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures,
            "metrics": metrics,
            "repetitions": [dict(r, traced=t) if r else None for t, r in reps],
        }

    def compare_artifacts(self, done: list[dict]) -> None:
        """Every repetition of one seed must write byte-identical artifacts,
        traced or not; each later repetition is one checked operation."""
        produced = [name for name, stage in (("report.json", "evaluate"), ("hi.csv", "derive_hi"))
                    if stage in self.workload.stages]
        if not produced or not done:
            return
        first = {name: done[0]["sha256"][name] for name in produced}
        for i, result in enumerate(done[1:], start=2):
            self.attempted += 1
            shas = {name: result["sha256"][name] for name in produced}
            if shas != first:
                self.failures.append(f"repetition {i}: artifacts differ from repetition 1: {shas} != {first}")


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(workload, seed)
    runner.base.mkdir(parents=True)
    RESULTS_DIR.mkdir(exist_ok=True)
    try:
        result = runner.run(seconds, trace)
    finally:
        shutil.rmtree(runner.base, ignore_errors=True)
    result["stamp"] = environment_stamp(workload, seed)
    out = RESULTS_DIR / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def _value(summary: dict) -> float:
    # a metric with no sample (every repetition failed) reads 0; correct is false then
    return float(summary["median"]) if summary.get("median") is not None else 0.0


def print_result(result: dict) -> None:
    name = result["workload"]
    for key, value in result["stamp"].items():
        print(f"{name} stamp {key} = {value}")
    first = next((r for r in result["repetitions"] if r), {})
    for artifact, digest in first.get("sha256", {}).items():
        if digest:
            print(f"{name} sha256 {artifact} = {digest}")
    shown = PER_LAYER if result["trace"] else END_TO_END + REPORTED_ONLY
    for m in shown:
        summary = result["metrics"][m.name]
        if summary.get("median") is None:
            print(f"{name} {m.name} = n/a")
        else:
            print(f"{name} {m.name} = {summary['median']:.6g} {m.unit} (n={summary['n']})")
    for failure in result["failures"]:
        print(f"{name} FAILED {failure}")


def result_line(results: list[dict], prefix: bool) -> dict:
    metrics = {}
    for result in results:
        listed = PER_LAYER if result["trace"] else END_TO_END
        for m in listed:
            key = f"{result['workload']}.{m.name}" if prefix else m.name
            metrics[key] = {"value": _value(result["metrics"][m.name]), "unit": m.unit}
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
            "failed": failed, "metrics": metrics}


def list_metrics() -> None:
    for m in END_TO_END:
        print(f"end-to-end {m.name} [{m.unit}] {m.better} is better, bound {m.bound}")
    for m in REPORTED_ONLY:
        print(f"reported {m.name} [{m.unit}] {m.better} is better")
    for m in PER_LAYER:
        print(f"per-layer {m.name} [{m.unit}] {m.better} is better; moves {m.moves}")
    for wl in WORKLOADS.values():
        print(f"workload {wl.name}: {wl.why}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="print every metric and workload, then exit")
    args = parser.parse_args(argv)
    if args.list:
        list_metrics()
        return 0

    if not (ROOT / "src" / "chamberhealth").is_dir():
        print(f"perfbench: no chamberhealth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print_result(result)
        results.append(result)
    print(json.dumps(result_line(results, prefix=len(results) > 1)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
