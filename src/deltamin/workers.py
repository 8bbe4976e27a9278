"""Forked workers for the batch commands.

fork_map maps a function over the rows of some equal-length columns in
child processes started with os.fork (POSIX only), and yields the results
of each contiguous chunk of rows in input order.  Each worker has two
pipes to the parent.  On one the parent writes the index of the worker's
next chunk whenever the worker hands a chunk back, so slow rows that bunch
in one chunk hold up one worker, not the others.  On the other the worker
writes each chunk's result list, pickled and length-prefixed; the parent
waits on these pipes with select.  A worker leaves only through os._exit:
with status 0 when its task pipe closes, with 1 at any exception.

A worker that dies before handing back its chunk stops the batch with a
BatchError naming that chunk's graphs, once every earlier chunk has been
yielded.  However the batch ends (done, its reader gone, interrupted, a
worker lost), one finally closes every pipe, kills the workers still at
work and reaps them all.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import sys
from typing import Callable, Iterator, Optional, Sequence

from .errors import BatchError

_INDEX_BYTES = 4  # a chunk index on a task pipe
_LENGTH_BYTES = 8  # the length prefix of a pickled chunk on a result pipe


class _Worker:
    """A forked worker: its pid (None once reaped), the parent's end of its
    task and result pipes, and the chunk it holds (None when idle)."""

    __slots__ = ("pid", "tasks", "results", "chunk")

    def __init__(self, pid: int, tasks: int, results: int) -> None:
        self.pid: Optional[int] = pid
        self.tasks = tasks
        self.results = results
        self.chunk: Optional[int] = None


def _read(fd: int, n: int) -> Optional[bytes]:
    """The next n bytes from fd, or None if it closes before them."""
    parts = []
    while n:
        part = os.read(fd, n)
        if not part:
            return None
        parts.append(part)
        n -= len(part)
    return b"".join(parts)


def _write(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _serve(run: Callable, columns: Sequence[Sequence], size: int, tasks: int, results: int) -> None:
    """A worker's loop: map run over each chunk it is handed, until its task
    pipe closes."""
    while (index := _read(tasks, _INDEX_BYTES)) is not None:
        start = int.from_bytes(index, "little") * size
        data = pickle.dumps(list(map(run, *(c[start:start + size] for c in columns))), pickle.HIGHEST_PROTOCOL)
        _write(results, len(data).to_bytes(_LENGTH_BYTES, "little") + data)


def _fork(run: Callable, columns: Sequence[Sequence], size: int, pool: list[_Worker]) -> None:
    """Start one worker and add it to pool."""
    tasks_r, tasks_w = os.pipe()
    results_r, results_w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        for fd in (tasks_r, tasks_w, results_r, results_w):
            os.close(fd)
        raise
    if pid == 0:
        status = 1
        try:
            # a worker that kept another's task pipe open would keep it
            # from ever reading the end of its tasks
            for fd in (tasks_w, results_r, *(fd for w in pool for fd in (w.tasks, w.results))):
                os.close(fd)
            _serve(run, columns, size, tasks_r, results_w)
            status = 0
        finally:
            os._exit(status)
    os.close(tasks_r)
    os.close(results_w)
    pool.append(_Worker(pid, tasks_w, results_r))


def _lost(w: _Worker, n: int, size: int) -> str:
    """Reap a worker that has gone with its chunk and say what it lost."""
    _, status = os.waitpid(w.pid, 0)
    w.pid = None
    code = os.waitstatus_to_exitcode(status)
    first, last = w.chunk * size, min(n, (w.chunk + 1) * size) - 1
    graphs = f"graph {first}" if first == last else f"graphs {first}-{last}"
    how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
    return f"the worker for {graphs} {how} before returning them"


def fork_map(run: Callable, columns: Sequence[Sequence], size: int, workers: int) -> Iterator[list]:
    """The results of run over the rows of columns, one list per chunk of
    size rows, in order, computed by the given number of forked workers."""
    n = len(columns[0])
    chunks = -(-n // size)
    handed = 0  # chunks handed out so far, always the first ones
    done: dict[int, list] = {}
    lost: dict[int, str] = {}  # chunk -> why, for chunks no worker returned

    def hand_out(w: _Worker) -> None:
        nonlocal handed
        w.chunk = None
        if handed == chunks or lost:  # after a loss only earlier chunks matter
            return
        w.chunk, handed = handed, handed + 1
        try:
            _write(w.tasks, w.chunk.to_bytes(_INDEX_BYTES, "little"))
        except BrokenPipeError:
            lost[w.chunk] = _lost(w, n, size)
            w.chunk = None

    sys.stdout.flush()
    sys.stderr.flush()
    pool: list[_Worker] = []
    try:
        for _ in range(workers):
            _fork(run, columns, size, pool)
        for w in pool:
            hand_out(w)
        for chunk in range(chunks):
            # every chunk below handed is done, lost or held by a live worker
            while chunk not in done:
                if chunk in lost:
                    raise BatchError(lost[chunk])
                busy = {w.results: w for w in pool if w.chunk is not None}
                for fd in select.select(list(busy), [], [])[0]:
                    w = busy[fd]
                    head = _read(fd, _LENGTH_BYTES)
                    data = None if head is None else _read(fd, int.from_bytes(head, "little"))
                    if data is None:
                        lost[w.chunk] = _lost(w, n, size)
                        w.chunk = None
                    else:
                        done[w.chunk] = pickle.loads(data)
                        hand_out(w)
            yield done.pop(chunk)
    finally:
        for w in pool:
            os.close(w.tasks)  # an idle worker reads the end of its tasks and exits
            os.close(w.results)
            if w.pid is not None and w.chunk is not None:
                os.kill(w.pid, signal.SIGKILL)
        for w in pool:
            if w.pid is not None:
                os.waitpid(w.pid, 0)
