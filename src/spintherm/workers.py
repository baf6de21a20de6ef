"""Batch tasks on worker processes forked from the run process, one pipe each.

Each worker inherits the task lists, one list per (variant, L), so it is
sent nothing: worker w of n runs tasks w, w + n, ... of every list in order
and pickles each result, or the exception that ended it, down its own pipe.
The run process reads task i of each list from pipe i mod n, the order each
worker writes in, so no pipe can deadlock.  Only a run with more than one
worker imports this module.
"""

from __future__ import annotations

import os
import pickle
import signal

__all__ = ["fork"]


def fork(n: int, jobs: list[list]):
    """Yield the results of each list of zero-argument tasks in jobs, in order, computed on n forked workers.

    A task's exception is raised here, caused by a ChildProcessError that
    holds the worker's traceback; a worker that cannot be forked, or that
    ends before its last result, raises ChildProcessError.  However the
    generator ends, every worker is killed and reaped.
    """
    pids, pipes = [], []
    try:
        for w in range(n):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError as exc:  # the run's failure, not an OSError of its input or output
                os.close(read)
                os.close(write)
                raise ChildProcessError(f"worker {w} could not be forked: {exc}") from exc
            if pid == 0:  # the worker, which never returns from _work
                _work(write, [read, *(pipe.fileno() for pipe in pipes)], jobs, w, n)
            pids.append(pid)
            os.close(write)
            pipes.append(os.fdopen(read, "rb"))
        for tasks in jobs:
            yield [_receive(pipes[i % n], i % n) for i in range(len(tasks))]
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _work(fd: int, inherited: list[int], jobs: list[list], w: int, n: int) -> None:
    """Worker w's life: close the read ends it inherited, send its tasks' results down fd, exit.

    os._exit skips the cleanup that belongs to the run process: buffered
    output, atexit handlers, open generators.
    """
    try:
        for read in inherited:
            os.close(read)
        out = os.fdopen(fd, "wb")
        try:
            for tasks in jobs:
                for task in tasks[w::n]:
                    out.write(pickle.dumps((task(), None)))
                    out.flush()
        except Exception as exc:
            import traceback  # only a failing worker needs it

            # whole or not at all: an unpicklable exception ends the worker mute
            out.write(pickle.dumps((exc, traceback.format_exc())))
            out.flush()
    finally:
        os._exit(0)


def _receive(pipe, w: int):
    """The next result on worker w's pipe; a sent exception is raised."""
    try:
        got, trace = pickle.load(pipe)  # written by a worker fork made: a result, or an exception and its trace
    except (EOFError, pickle.UnpicklingError) as exc:
        raise ChildProcessError(f"worker {w} ended before sending all its results") from exc
    if trace is not None:
        raise got from ChildProcessError(f"worker {w} raised it:\n{trace}")
    return got
