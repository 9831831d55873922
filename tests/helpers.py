"""Test-only views of in-memory pipeline objects, in the shapes the
program reads back from plan.csv and hi.csv."""


def plan_by_asset(ds):
    """A SimDataset's recipe plan as asset_id -> recipe_ids in position
    order, as ``dataio.read_plan`` returns it."""
    out = {}
    for entry in ds.plan:
        out.setdefault(entry.asset_id, []).append(entry.recipe_id)
    return out


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
