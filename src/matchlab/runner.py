"""One job runner: independent jobs on forked worker processes.

``run_jobs`` hands a list of jobs to one forked worker per usable CPU and
reads their results back in job order, so whatever a caller computes from them
is the same on any number of CPUs.  ``matchlab run`` gives it one job per
(policy, seed); the acceptance criteria give it their seeds.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager

from .errors import InternalCheckError

_worker = None  # (job_fn, stop) in a worker process


@contextmanager
def run_jobs(job_fn, jobs, initializer=None, initargs=()):
    """Run ``job_fn(job)`` for each of ``jobs``; the context's value
    iterates over the results, in job order.

    The workers are forked, one per usable CPU and no more than there are
    jobs.  Fork hands ``job_fn``, ``initializer`` and ``initargs`` to each
    worker as they are, unpickled: a closure, a ``functools.partial`` that
    binds a large instance, or a function patched into a module before the
    call all reach the workers.  Each worker calls
    ``initializer(*initargs)`` once, before its first job.  The jobs and
    the results travel pickled.  An error raised by a job reaches the
    caller, with its type and message, when its result is next in order.

    The pool is shut down when the ``with`` block ends, however it ends,
    and always through ``shutdown(wait=True, cancel_futures=True)``: the
    jobs still waiting are cancelled, and every worker is reaped before the
    caller goes on.  The executor hands a job to its call queue before a
    worker takes it, and ``cancel_futures`` cannot reach the jobs there; so
    the runner first sets ``stop``, a byte of shared memory the workers
    inherit, and each job checks it first and returns at once if it is
    set.  So when a job or the caller raises, only the jobs already running
    run to their end.  The byte takes no lock (a ``multiprocessing.Event``
    does), so a worker killed in mid-check cannot leave the parent waiting.
    A worker that dies (killed by a signal or by the kernel's out-of-memory
    killer) breaks the pool; that raises ``InternalCheckError``.

    A worker shares the parent's modules: whatever the caller imported
    before the ``with`` statement, the workers need not load again.
    """
    sys.stdout.flush()  # a forked worker would write out the parent's buffered text again
    sys.stderr.flush()
    stop = mmap.mmap(-1, 1)  # anonymous and shared: the forked workers see the parent's writes
    workers = max(1, min(len(jobs), len(os.sched_getaffinity(0))))
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(job_fn, stop, initializer, initargs))
    try:
        yield pool.map(_run_job, jobs)
    except BrokenProcessPool:
        raise InternalCheckError("a run worker died before its job finished") from None
    finally:
        stop[0] = 1
        pool.shutdown(wait=True, cancel_futures=True)
        stop.close()


def _start_worker(job_fn, stop, initializer, initargs) -> None:
    global _worker
    _worker = job_fn, stop
    if initializer is not None:
        initializer(*initargs)


def _run_job(job):
    job_fn, stop = _worker
    if stop[0]:
        return None  # the caller has stopped reading results
    return job_fn(job)
