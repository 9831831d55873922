"""One benchmark repetition, run by ``run.py`` in a fresh interpreter.

Usage (internal): rep.py --workload NAME --seed N --workdir DIR
    --launched T --result FILE [--fixture] [--setup-only] [--trace-spans FILE]

``--launched`` is the parent's ``time.monotonic()`` just before it
started this process, so setup_s covers interpreter start, imports and
config resolution. The timed region is the workload's stage calls;
the artifact checks run after it. The result is one JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from chamberhealth import cli  # noqa: E402
from chamberhealth.config import default_config  # noqa: E402

import artifacts  # noqa: E402
import tracing  # noqa: E402
from catalog import PER_LAYER, WORKLOADS, checks_for  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--fixture", action="store_true", help="run the workload's fixture stages")
    parser.add_argument("--setup-only", action="store_true", help="stop before the first timed call")
    parser.add_argument("--trace-spans", default=None, help="trace this repetition; write spans here")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    cfg = replace(default_config(), seed=args.seed, out_dir=args.workdir,
                  n_runs_total=workload.n_runs_total)
    tracer = None
    if args.trace_spans:
        tracer = tracing.Tracer(trace_id=f"{args.workload}-seed{args.seed}-{Path(args.workdir).name}")
        missing = tracing.install(tracer)
    result: dict = {"setup_s": time.monotonic() - args.launched}
    if not args.setup_only:
        stages = workload.fixture_stages if args.fixture else workload.stages
        result.update(run_stages(stages, cfg, Path(args.workdir)))
    if tracer is not None and not args.setup_only:
        result["per_layer"] = tracing.per_layer_metrics(
            tracer, [m.name for m in PER_LAYER], cfg.n_runs_total)
        result["missing_targets"] = missing
        tracer.write_spans(Path(args.trace_spans))
    tmp = Path(args.result + ".tmp")
    tmp.write_text(json.dumps(result), encoding="utf-8")
    os.replace(tmp, args.result)
    return 0


def run_stages(stages, cfg, workdir: Path) -> dict:
    stage_s: dict[str, float] = {}
    failures: dict[str, str] = {}
    for stage in stages:
        if failures:
            failures[f"stage.{stage}"] = "skipped after an earlier failure"
            continue
        fn = getattr(cli, f"stage_{stage}")  # looked up now, so a traced run gets the wrapper
        start = time.perf_counter()
        try:
            fn(cfg)
        except Exception as exc:  # a failing stage is a counted failure, not a crash
            traceback.print_exc()
            failures[f"stage.{stage}"] = f"{type(exc).__name__}: {exc}"
        stage_s[stage] = time.perf_counter() - start
    peak_rss_mb = tracing.maxrss_mb()
    names = checks_for(stages)
    check_failures, values = artifacts.run_checks(workdir, cfg, names)
    failures.update(check_failures)
    return {
        "wall_s": sum(stage_s.values()),
        "stage_s": stage_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(stages) + len(names),
        "failures": failures,
        "values": values,
        "sha256": {name: artifacts.sha256(workdir / name) for name in ("report.json", "hi.csv")},
    }


if __name__ == "__main__":
    sys.exit(main())
