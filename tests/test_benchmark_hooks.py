"""The benchmark's tracer (perfbench/tracing.py) finds the functions it
times by module and name, and its after-hooks read their arguments by
parameter name. A rename in the program would drop a per-layer metric
without failing a run, so these names are pinned here."""

import importlib
import importlib.util
import inspect
import json
import re
import subprocess
import sys
from dataclasses import fields
from functools import reduce
from pathlib import Path
from typing import get_type_hints

from chamberhealth import models

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def _tracing():
    """perfbench/tracing.py as a module; importing it wraps nothing."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_target_and_every_parameter_its_hooks_read():
    # install() rebinds the program's functions, so it runs in a subprocess
    # that keeps the wrappers out of this test session
    script = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(TRACING.parent)!r}, {str(ROOT / 'src')!r}]\n"
        "import tracing\n"
        "print(json.dumps(tracing.install(tracing.Tracer('hooks'))))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []

    for module_name, attr, _, after in _tracing().TARGETS:
        if after is None:
            continue
        read = set(re.findall(r'arguments\["(\w+)"\]', inspect.getsource(after)))
        fn = reduce(getattr, attr.split("."), importlib.import_module(module_name))
        assert read <= set(inspect.signature(fn).parameters), (attr, read)

    # the span names of train_model and TrainedModel.predict read the first argument's kind
    first = next(iter(inspect.signature(models.train_model).parameters))
    assert get_type_hints(models.train_model)[first] is models.RegressorSpec
    assert "kind" in {f.name for f in fields(models.RegressorSpec)}
    assert "kind" in {f.name for f in fields(models.TrainedModel)}
