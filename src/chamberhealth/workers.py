"""Chunks of independent work mapped over every CPU this process may use.

Three jobs use it: simulate renders runs.csv in chunks of runs as they
are generated, derive-hi parses and reduces runs.csv in byte ranges of
whole runs, and train fits every requested model kind from one task
list, in which a forest's trees come in ranges of five and every other
kind's whole fit is one task. No chunk calls map_in_order: each worker
would fork W more processes.

``map_in_order(fn, chunks)`` yields ``fn(chunk)`` of each chunk in chunk
order, so what a caller builds from the results does not depend on the
CPU count. It pulls ``chunks``, any iterable, lazily. With one CPU, or
fewer than two chunks, it is a plain lazy ``map`` here. Otherwise up to
W workers are forked, one each time a chunk finds none free, and each
inherits ``fn``. A chunk is pulled when a worker is free and sent to it
pickled, so a worker runs one chunk at a time and the next goes to
whichever worker is free first. No chunk is pulled more than
READ_AHEAD * W chunks past the last result yielded, so this process
holds a bounded number of chunks and results whatever the length of
``chunks``. Results are read from whichever worker has one
(``multiprocessing.connection.wait``) and yielded in chunk order. The
error of the first failed chunk in chunk order is raised (a failure to
pull one counts as that chunk's), and no chunk after a failure is
pulled.

This process sends a worker a chunk only once it has read the worker's
last result, so neither side waits to send while the other does. It
starts no thread, and the program starts none of its own that a fork
could copy mid-operation; OpenBLAS re-initialises its thread pool in a
forked child. Two chunks per worker were tried: simulate gained about a
tenth, but train's SVR and MLP fits, the longest tasks, could
queue on one worker while the other sat idle.
"""

from __future__ import annotations

import os
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
R = TypeVar("R")

READ_AHEAD = 4  # chunks per worker pulled past the last result yielded, at most


def cpu_count() -> int:
    """The number of CPUs in this process's affinity mask."""
    return len(os.sched_getaffinity(0))


def _work(fn: Callable[[T], R], conn) -> None:
    """A worker: (True, result) or (False, the exception) of each chunk it
    is sent, until this process closes the pipe."""
    with conn:
        while True:
            try:
                chunk = conn.recv()
            except EOFError:
                return
            try:
                conn.send((True, fn(chunk)))
            except Exception as exc:
                conn.send((False, exc))


def _pulled(chunks: Iterable[T]) -> Iterator[tuple[bool, object]]:
    """(True, chunk) of each chunk, then (False, the exception) if pulling
    one raised."""
    try:
        for chunk in chunks:
            yield True, chunk
    except Exception as exc:
        yield False, exc


def map_in_order(fn: Callable[[T], R], chunks: Iterable[T]) -> Iterator[R]:
    """``fn(chunk)`` of each chunk, in order. An exception raised by ``fn``
    in a worker, or by pulling a chunk, is raised here in chunk order; a
    worker that dies raises ChildProcessError."""
    pulled = _pulled(chunks)
    head = list(islice(pulled, 2)) if cpu_count() > 1 else []
    if len(head) == 2 and head[1][0]:
        yield from _map_forked(fn, chain(head, pulled), cpu_count())
        return
    for ok, chunk in chain(head, pulled):
        if not ok:
            raise chunk
        yield fn(chunk)


def _map_forked(fn: Callable[[T], R], pulled: Iterator[tuple[bool, object]],
                workers: int) -> Iterator[R]:
    import multiprocessing  # here: at the top it would add to every start-up
    from multiprocessing.connection import wait

    context = multiprocessing.get_context("fork")
    procs, running = [], {}  # running: each worker's connection -> its chunk's index, or None
    done = {}  # chunk index -> (ok, value) received and not yet yielded
    n_pulled = n_yielded = 0
    stopped = False  # no more chunks: the iterable ended or failed, or a chunk failed

    def died(conn) -> ChildProcessError:
        return ChildProcessError(f"a worker died before returning chunk {running[conn]}")

    try:
        while True:
            while not stopped and n_pulled < n_yielded + READ_AHEAD * workers:
                idle = next((conn for conn, k in running.items() if k is None), None)
                if idle is None and len(procs) == workers:
                    break
                ok, chunk = next(pulled, (False, None))
                if not ok:
                    stopped = True
                    if chunk is not None:  # raised when its turn comes
                        done[n_pulled] = (False, chunk)
                    break
                if idle is None:  # a worker is forked once a chunk waits for it
                    idle, child = context.Pipe()
                    proc = context.Process(target=_work, args=(fn, child), daemon=True)
                    proc.start()
                    procs.append(proc)
                    child.close()  # the worker's copy is then the last: EOF once it is gone
                running[idle] = n_pulled
                n_pulled += 1
                try:
                    idle.send(chunk)  # the worker is idle, so it reads it
                except OSError:
                    raise died(idle) from None
            if n_yielded in done:
                ok, value = done.pop(n_yielded)
                if not ok:
                    raise value
                n_yielded += 1
                yield value
                continue
            busy = [conn for conn, k in running.items() if k is not None]
            if not busy:
                return
            for conn in wait(busy):
                try:
                    result = conn.recv()
                except (EOFError, OSError):
                    raise died(conn) from None
                done[running[conn]] = result
                running[conn] = None
                stopped = stopped or not result[0]
    finally:
        for proc, conn in zip(procs, running):
            proc.terminate()  # stops a worker still running after an error here
            proc.join()
            conn.close()
