"""The ordered map over forked workers; the forest and runs.csv tests
check that results keep their order."""

import os
import threading
import time
from functools import partial
from multiprocessing.connection import Connection
from multiprocessing.context import ForkProcess

import pytest

from chamberhealth import workers
from chamberhealth.workers import map_in_order


@pytest.fixture()
def two_cpus(monkeypatch):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1})


def _exit_unless_in(parent_pid, chunk):
    if os.getpid() != parent_pid:
        os._exit(1)
    return chunk


def _finished(chunk):
    """The chunk and when it finished: chunk 0 finishes last."""
    if chunk == 0:
        time.sleep(0.5)
    return chunk, time.monotonic()


def _fail(slow, fast, chunk):
    if chunk == slow:
        time.sleep(0.5)
    if chunk in (slow, fast):
        raise ValueError(f"chunk {chunk} failed")
    return chunk


def test_a_worker_that_dies_raises_instead_of_hanging(two_cpus):
    with pytest.raises(ChildProcessError, match="a worker died before returning chunk "):
        list(map_in_order(partial(_exit_unless_in, os.getpid()), [1, 2, 3]))


def test_a_worker_whose_pipe_is_reset_raises_child_process_error(two_cpus, monkeypatch):
    recv, parent = Connection.recv, os.getpid()

    def reset_here(conn):
        # a worker that dies with a chunk unread resets its pipe
        try:
            return recv(conn)
        except EOFError:
            if os.getpid() == parent:
                raise ConnectionResetError(104, "Connection reset by peer") from None
            raise

    monkeypatch.setattr(Connection, "recv", reset_here)
    with pytest.raises(ChildProcessError, match="a worker died before returning chunk "):
        list(map_in_order(partial(_exit_unless_in, os.getpid()), [1, 2, 3]))


def test_results_come_in_chunk_order_when_a_later_chunk_finishes_first(two_cpus):
    results = list(map_in_order(_finished, iter(range(6))))
    assert [chunk for chunk, _ in results] == list(range(6))
    assert results[1][1] < results[0][1]  # chunk 1 finished first, on the other worker


def test_the_first_failed_chunk_in_chunk_order_is_raised(two_cpus):
    # chunk 3 fails at once on one worker while chunk 1 takes its time on the other
    results = map_in_order(partial(_fail, 1, 3), range(8))
    assert next(results) == 0
    with pytest.raises(ValueError, match="chunk 1 failed"):
        next(results)


def test_an_iterable_that_fails_raises_after_the_chunks_before_it(two_cpus):
    # after three chunks on the workers; after one, here, as no second chunk waits for a worker
    for n in (3, 1):
        def chunks():
            yield from range(n)
            raise KeyError("pulled too far")

        results = map_in_order(lambda chunk: -chunk, chunks())
        assert [next(results) for _ in range(n)] == [0, -1, -2][:n]
        with pytest.raises(KeyError, match="pulled too far"):
            next(results)


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_iterable_is_pulled_a_bounded_number_of_chunks_ahead(monkeypatch, cpus):
    monkeypatch.setattr(workers, "cpu_count", lambda: cpus)
    pulled = []

    def chunks():
        for chunk in range(200):
            pulled.append(chunk)
            yield chunk

    ahead = 0 if cpus == 1 else workers.READ_AHEAD * cpus
    for consumed, (chunk, _) in enumerate(map_in_order(_finished, chunks()), 1):
        assert chunk == consumed - 1
        # while chunk 0 sleeps, the other worker runs only this far ahead
        assert len(pulled) <= consumed + ahead
    assert len(pulled) == 200


def test_no_more_workers_are_forked_than_chunks_wait_for_one(monkeypatch):
    monkeypatch.setattr(workers, "cpu_count", lambda: 8)
    started, start = [], ForkProcess.start
    monkeypatch.setattr(ForkProcess, "start", lambda proc: started.append(proc) or start(proc))
    assert [chunk for chunk, _ in map_in_order(_finished, range(3))] == [0, 1, 2]
    assert 1 <= len(started) <= 3


def test_no_thread_is_started(two_cpus):
    before = threading.active_count()
    for _ in map_in_order(_finished, range(4)):
        assert threading.active_count() == before
    assert threading.active_count() == before
