"""The ordered map over forked workers; the forest and runs.csv tests
check that results keep their order."""

import os
from functools import partial

import pytest

from chamberhealth.workers import map_in_order


def _exit_unless_in(parent_pid, chunk):
    if os.getpid() != parent_pid:
        os._exit(1)
    return chunk


def test_a_worker_that_dies_raises_instead_of_hanging(monkeypatch):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(ChildProcessError, match="a worker died before returning chunk "):
        list(map_in_order(partial(_exit_unless_in, os.getpid()), [1, 2, 3]))

