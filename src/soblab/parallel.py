"""Worker threads and processes, under one cap: the usable CPUs.

geometry.run_blocks runs row blocks on threads; fork_map runs shares of
independent jobs on forked processes, for the CSV parts, the flow modes,
the sweep groups and the validation checks.  Each runs on at most
worker_count(threads) workers, so no --threads value starts more threads
or processes than this process may run on at once.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import tempfile
import threading


def usable_cpus() -> int:
    """The CPUs this process may run on: the default of --threads."""
    if hasattr(os, "sched_getaffinity"):  # not on every platform
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count(threads: int) -> int:
    """The workers for a --threads value: threads, but no more than the usable CPUs."""
    return max(1, min(threads, usable_cpus()))


def split(jobs, parts: int) -> list[list]:
    """jobs in min(parts, len(jobs)) contiguous shares (one share when there
    are none), whose sizes differ by at most one."""
    jobs = list(jobs)
    parts = max(1, min(parts, len(jobs)))
    return [jobs[len(jobs) * p // parts:len(jobs) * (p + 1) // parts] for p in range(parts)]


@contextlib.contextmanager
def fork_map(fn, shares):
    """An iterator of fn(job) for every job of every share, in order.

    shares[0] runs here, as the iterator advances.  Each later share runs on
    a child forked on entry, which pickles its results into an unnamed temp
    file and leaves by os._exit; the iterator reads them one at a time once
    the child has exited 0.  The share of a child that fails, and of one
    that cannot be forked, runs here in its turn, so the first error in job
    order raises as it does in a sequential run, with its own exception.
    Every share runs here without os.fork, or while another thread is alive:
    a forked child would copy any lock that thread holds.  On leaving the
    block, each child still running is killed and every child is reaped.
    """
    children = [None] * len(shares)  # per share: [pid, result file], pid None once reaped
    try:
        if hasattr(os, "fork") and threading.active_count() == 1:
            for p in range(1, len(shares)):
                children[p] = _fork(fn, shares[p])
        yield _results(fn, shares, children)
    finally:
        for child in filter(None, children):
            pid, results = child
            if pid is not None:  # still running after an error here
                import signal  # here: not paid by every cold start

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            results.close()


def _fork(fn, share):
    """Fork a child that pickles fn(job) for each job of share into a new
    unnamed temp file: [pid, file], or None when either cannot be made."""
    try:
        results = tempfile.TemporaryFile()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        results.close()
        return None
    if pid == 0:  # the child never returns: it exits 1 on any error
        code = 1
        try:
            for job in share:
                pickle.dump(fn(job), results, pickle.HIGHEST_PROTOCOL)
            results.flush()
            code = 0
        finally:
            os._exit(code)
    return [pid, results]


def _results(fn, shares, children):
    """fn(job) for each job in turn: read from its child if it exited 0, else run here."""
    for share, child in zip(shares, children):
        if child is not None:
            status = os.waitpid(child[0], 0)[1]
            child[0] = None
            if status == 0:
                child[1].seek(0)
                for _ in share:
                    yield pickle.load(child[1])
                continue
        for job in share:
            yield fn(job)
