"""Forked workers for the batch commands.

fork_map maps a function over rows that come in chunks, in child processes
started with os.fork (POSIX only), and yields each chunk's results in input
order.  Each worker has two pipes to the parent.  On one the parent writes
the rows of the worker's next chunk whenever the worker hands a chunk back,
so slow rows that bunch in one chunk hold up one worker, not the others.
On the other the worker writes each chunk's result list.  Both go as
length-prefixed marshal frames, so rows and results must be values
marshal encodes: None, bools, ints, strings, and tuples and lists of them
(marshal keeps lone surrogates, and both ends run the same interpreter).
A worker whose results marshal cannot encode exits with status 1, which
stops the batch as a lost chunk does.  The parent waits on the result
pipes with poll, which, unlike select, takes a descriptor of any number.

A chunk is drawn from its iterator only when it is handed out, only to an
idle worker, and only while fewer than 2 * workers chunks are out and not
yet yielded, so the rows and results held at once do not grow with the
input.  An idle worker is waiting on its task pipe, so a task write never
waits on a worker that is busy writing results.  A worker leaves only
through os._exit: with status 0 when its task pipe closes, with 1 at any
exception, which, unless it is an interrupt, it first names (type and
message) on one line of standard error.

A worker that dies before handing back its chunk stops the batch with a
BatchError naming that chunk's graphs, once every earlier chunk has been
yielded; a worker that cannot be forked stops it with one naming the
worker.  However the batch ends (done, its reader gone, interrupted, a
worker lost or not forked, its input failing), one finally kills the
workers still at work, closes every pipe and reaps every worker.
"""

from __future__ import annotations

import marshal
import os
import select
import signal
import sys
from typing import Callable, Iterable, Iterator, Optional

from .errors import BatchError

_LENGTH_BYTES = 8  # the length prefix of a marshal frame on either pipe


class _Worker:
    """A forked worker: its pid (None once reaped), the parent's end of its
    task and result pipes, the chunk it holds (None when idle) and the
    first and last row of that chunk."""

    __slots__ = ("pid", "tasks", "results", "chunk", "rows")

    def __init__(self, pid: int, tasks: int, results: int) -> None:
        self.pid: Optional[int] = pid
        self.tasks = tasks
        self.results = results
        self.chunk: Optional[int] = None
        self.rows = (0, 0)


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


def _send(fd: int, obj: list) -> None:
    data = marshal.dumps(obj)
    _write(fd, len(data).to_bytes(_LENGTH_BYTES, "little"))
    _write(fd, data)


def _receive(fd: int) -> Optional[list]:
    """The next list _send wrote to fd, or None if fd closes before it."""
    head = _read(fd, _LENGTH_BYTES)
    data = None if head is None else _read(fd, int.from_bytes(head, "little"))
    return None if data is None else marshal.loads(data)


def _serve(run: Callable, tasks: int, results: int) -> None:
    """A worker's loop: map run over the rows of each chunk it is handed,
    until its task pipe closes."""
    while (rows := _receive(tasks)) is not None:
        _send(results, [run(*row) for row in rows])


def _fork(run: Callable, pool: list[_Worker]) -> None:
    """Start one worker and add it to pool."""
    fds: list[int] = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except BaseException as exc:
        for fd in fds:
            os.close(fd)
        if isinstance(exc, OSError):
            raise BatchError(f"cannot fork worker {len(pool) + 1}: {exc.strerror or exc}") from None
        raise
    tasks_r, tasks_w, results_r, results_w = fds
    if pid == 0:
        status = 1
        try:
            # a worker that kept another's task pipe open would keep it
            # from ever reading the end of its tasks
            for fd in (tasks_w, results_r, *(fd for w in pool for fd in (w.tasks, w.results))):
                os.close(fd)
            _serve(run, tasks_r, results_w)
            status = 0
        except Exception as exc:
            # the cause, on one line before the parent's line about the lost chunk
            cause = " ".join(f"{type(exc).__name__}: {exc}".splitlines())
            _write(2, f"deltamin worker: {cause}\n".encode(errors="backslashreplace"))
        finally:
            os._exit(status)
    os.close(tasks_r)
    os.close(results_w)
    pool.append(_Worker(pid, tasks_w, results_r))


def _lost(w: _Worker) -> str:
    """Reap a worker that has gone with its chunk and say what it lost."""
    _, status = os.waitpid(w.pid, 0)
    w.pid = None
    code = os.waitstatus_to_exitcode(status)
    first, last = w.rows
    graphs = f"graph {first}" if first == last else f"graphs {first}-{last}"
    how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
    return f"the worker for {graphs} {how} before returning them"


def fork_map(run: Callable, chunks: Iterable[list[tuple]], workers: int) -> Iterator[list]:
    """The results of run(*row) over the rows of each chunk, one list per
    chunk, in order, computed by the given number of forked workers.  Rows
    and results cross the pipes as marshal frames, so both must be None,
    bools, ints, strings, or tuples and lists of them."""
    todo = iter(chunks)
    window = 2 * workers
    handed = 0  # chunks handed out so far, always the first ones
    yielded = 0  # chunks yielded so far
    rows = 0  # rows handed out so far
    done: dict[int, list] = {}
    lost: dict[int, str] = {}  # chunk -> why, for chunks no worker returned
    pool: list[_Worker] = []

    def hand_out() -> None:
        """Give each idle worker its next chunk while the window allows;
        after a loss only earlier chunks matter."""
        nonlocal handed, rows
        for w in pool:
            if w.pid is None or w.chunk is not None:
                continue
            if lost or handed - yielded == window:
                return
            chunk = next(todo, None)
            if chunk is None:
                return
            w.chunk, w.rows = handed, (rows, rows + len(chunk) - 1)
            handed += 1
            rows += len(chunk)
            try:
                _send(w.tasks, chunk)
            except BrokenPipeError:
                lost[w.chunk] = _lost(w)
                w.chunk = None

    sys.stdout.flush()
    sys.stderr.flush()
    try:
        for _ in range(workers):
            _fork(run, pool)
        while True:
            hand_out()
            if yielded == handed:  # the chunks have run out
                return
            # every chunk below handed is done, lost or held by a live worker
            while yielded not in done:
                if yielded in lost:
                    raise BatchError(lost[yielded])
                busy = {w.results: w for w in pool if w.chunk is not None}
                waiting = select.poll()
                for fd in busy:
                    waiting.register(fd, select.POLLIN)
                for fd, _ in waiting.poll():
                    w = busy[fd]
                    result = _receive(fd)
                    if result is None:
                        lost[w.chunk] = _lost(w)
                    else:
                        done[w.chunk] = result
                    w.chunk = None
                hand_out()
            result = done.pop(yielded)
            yielded += 1
            yield result
    finally:
        # a busy worker is killed before its pipes close, so that it never
        # sees them closed and reports that as its cause
        for w in pool:
            if w.pid is not None and w.chunk is not None:
                os.kill(w.pid, signal.SIGKILL)
        for w in pool:
            os.close(w.tasks)  # an idle worker reads the end of its tasks and exits
            os.close(w.results)
            if w.pid is not None:
                os.waitpid(w.pid, 0)
