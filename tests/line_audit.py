"""Line audit of src/chamberhealth: the function-body lines that the
pipeline runs, those that the Tier-1 tests run, and those that neither runs.

    python tests/line_audit.py

A body line is a line of a function's code (``co_lines()``) other than its
``def`` line, so class and module bodies do not count. The lines executed
are recorded with ``sys.settrace``: while the package is imported, which
counts for both runs, then while ``pipeline --seed 0`` runs in this
process over a temporary directory, then while pytest runs the Tier-1
tests (pyproject's testpaths) here. The process is first pinned to
one CPU, so that ``workers.map_in_order`` runs every chunk in it, where
the recorder sees it; a test that fakes more CPUs forks workers, whose
lines it cannot see. It prints the counts, each line that neither runs as
``file:line`` with its source, and the lines that only the tests run,
grouped by function. It takes about a minute, so it is not a test module:
pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import sys
import tempfile
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chamberhealth"


def body_lines(path: Path) -> dict[int, str]:
    """Each function-body line of the Python file ``path``, with the name of
    the function that holds it; a comprehension's or a lambda's lines
    belong to the function it is written in."""
    owners: dict[int, str] = {}

    def walk(code: types.CodeType, owner: str) -> None:
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            name = owner
            if const.co_flags & inspect.CO_OPTIMIZED:  # a function; a class body is not
                if not const.co_name.startswith("<") or not owner:
                    name = const.co_qualname
                lines = {line for *_, line in const.co_lines() if line is not None}
                owners.update(dict.fromkeys(sorted(lines - {const.co_firstlineno}), name))
            walk(const, name)

    walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "")
    return owners


class Recorder:
    """Within ``with``, the (file name, line) of every line executed in one
    of ``paths`` is added to ``lines``; the tracer set before is restored
    on leaving."""

    def __init__(self, paths) -> None:
        self.files = {str(path) for path in paths}
        self.lines: set[tuple[str, int]] = set()

    def _call(self, frame, event, arg):
        return self._line if frame.f_code.co_filename in self.files else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def __enter__(self) -> "Recorder":
        self._previous = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._previous)


def main() -> int:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    paths = sorted(PACKAGE.glob("*.py"))
    owners = {str(path): body_lines(path) for path in paths}
    body = {(name, line) for name, lines in owners.items() for line in lines}

    with Recorder(paths) as imported:
        from chamberhealth import cli
    with tempfile.TemporaryDirectory() as out, Recorder(paths) as pipeline:
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["pipeline", "--seed", "0", "--out", out])
    if status:
        print(f"line audit: pipeline --seed 0 exited {status}", file=sys.stderr)
        return 1
    with Recorder(paths) as tier1:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])

    ran = (pipeline.lines | imported.lines) & body, (tier1.lines | imported.lines) & body
    neither = sorted(body - ran[0] - ran[1])
    tests_only = sorted(ran[1] - ran[0])
    print(f"\nfunction-body lines in {PACKAGE.relative_to(ROOT)}/: {len(body)}")
    print(f"run by pipeline --seed 0: {len(ran[0])}; by Tier-1: {len(ran[1])}")
    print(f"run by neither: {len(neither)}")
    sources = {name: Path(name).read_text(encoding="utf-8").splitlines() for name in owners}
    for name, line in neither:
        print(f"  {Path(name).name}:{line}: {sources[name][line - 1].strip()}")
    print(f"run only by Tier-1: {len(tests_only)}")
    by_function = defaultdict(list)
    for name, line in tests_only:
        by_function[f"{Path(name).name} {owners[name][line]}"].append(line)
    for function, lines in by_function.items():
        print(f"  {function}: {', '.join(map(str, lines))}")
    if status:
        print(f"line audit: Tier-1 exited {status}", file=sys.stderr)
    return int(status != 0)


if __name__ == "__main__":
    sys.exit(main())
