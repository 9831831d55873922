"""Chunks of independent work mapped over every CPU this process may use.

``map_in_order(fn, chunks)`` yields ``fn(chunk)`` of each chunk in chunk
order, so what a caller builds from the results does not depend on the
CPU count. With one CPU or one chunk the chunks run here. Otherwise
worker w of W, forked, runs chunks w, w + W, ... and sends each result
down its own pipe, which this process reads in chunk order. The workers
inherit the chunks instead of receiving them pickled, and a worker's
send blocks while its pipe is full, so this process holds about one
result at a time. It starts no thread, and the program starts none of
its own that a fork could copy mid-operation; OpenBLAS re-initialises
its thread pool in a forked child.
"""

from __future__ import annotations

import os
from typing import Callable, Iterator, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def cpu_count() -> int:
    """The number of CPUs in this process's affinity mask."""
    return len(os.sched_getaffinity(0))


def _work(fn: Callable[[T], R], chunks: Sequence[T], conn) -> None:
    """A worker: (True, result) per chunk, or (False, the exception)."""
    with conn:
        try:
            for chunk in chunks:
                conn.send((True, fn(chunk)))
        except Exception as exc:
            conn.send((False, exc))


def map_in_order(fn: Callable[[T], R], chunks: Sequence[T]) -> Iterator[R]:
    """``fn(chunk)`` of each chunk, in order. An exception raised by ``fn``
    in a worker is raised here; a worker that dies raises ChildProcessError."""
    workers = min(cpu_count(), len(chunks))
    if workers < 2:
        yield from map(fn, chunks)
        return
    import multiprocessing  # here: at the top it would add to every start-up

    context = multiprocessing.get_context("fork")
    procs, conns = [], []
    try:
        for w in range(workers):
            receiver, sender = context.Pipe(duplex=False)
            proc = context.Process(target=_work, args=(fn, chunks[w::workers], sender),
                                   daemon=True)
            proc.start()
            procs.append(proc)
            sender.close()  # the worker's copy is then the last: EOF once it is gone
            conns.append(receiver)
        for k in range(len(chunks)):
            try:
                ok, value = conns[k % workers].recv()
            except EOFError:
                raise ChildProcessError(f"a worker died before returning chunk {k}") from None
            if not ok:
                raise value
            yield value
    finally:
        for proc, conn in zip(procs, conns):
            proc.terminate()  # stops a worker still sending after an error here
            proc.join()
            conn.close()
