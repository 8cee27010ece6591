"""parallel.fork_map: results in job order, the sequential run's errors, and
no child process or temp file left on any path; the one worker cap."""

import os
import tempfile
import threading
import time

import pytest
from helpers import assert_no_child_left, counted_failing_fork, record_forks

from soblab import parallel

JOBS = list(range(7))


@pytest.fixture
def temp_dir(tmp_path, monkeypatch):
    """The directory of fork_map's temp files while the test runs."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return tmp_path


def sequential(fn, jobs):
    """The results of fn over jobs one after another, or the exception it raises."""
    try:
        return [fn(job) for job in jobs]
    except BaseException as exc:  # noqa: BLE001 - compared with fork_map's
        return exc


def mapped(fn, jobs, parts):
    """The results of fork_map(fn) over parts shares of jobs, or the exception it raises."""
    try:
        with parallel.fork_map(fn, parallel.split(jobs, parts)) as results:
            return list(results)
    except BaseException as exc:  # noqa: BLE001
        return exc


def same(a, b):
    """Equal results, or exceptions of one type and message."""
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b) and a.args == b.args
    return a == b


def test_split_keeps_job_order_in_near_equal_shares():
    assert parallel.split(range(7), 3) == [[0, 1], [2, 3], [4, 5, 6]]
    assert parallel.split(range(2), 5) == [[0], [1]]
    assert parallel.split([], 4) == [[]]
    assert parallel.split(range(3), 0) == [[0, 1, 2]]


def test_worker_count_is_capped_at_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    assert [parallel.worker_count(t) for t in (1, 2, 3, 4, 10**6)] == [1, 2, 3, 3, 3]


@pytest.mark.parametrize("parts", [1, 2, 3, 7])
def test_results_come_in_job_order_from_parts_minus_one_children(temp_dir, monkeypatch, parts):
    forks = record_forks(monkeypatch)
    # each result larger than a pipe buffer, and tagged with the job
    assert mapped(lambda j: (j, bytes([j]) * 2**20), JOBS, parts) == [
        (j, bytes([j]) * 2**20) for j in JOBS]
    assert len(forks) == parts - 1
    assert_no_child_left()
    assert list(temp_dir.iterdir()) == []


def test_children_run_beside_this_process(temp_dir):
    # two shares of one 0.5 s sleep each take about one sleep, not two
    start = time.perf_counter()
    assert mapped(lambda j: time.sleep(0.5) or j, [0, 1], 2) == [0, 1]
    assert time.perf_counter() - start < 0.9
    assert_no_child_left()


def _failing(fail_at):
    """A job that returns its number, but raises ValueError at each job of fail_at."""

    def job(j):
        if j in fail_at:
            raise ValueError(f"job {j}")
        return j

    return job


@pytest.mark.parametrize("parts", [1, 2, 3])
@pytest.mark.parametrize("fail_at", [{1}, {3, 5}, {1, 5}, {6}])
def test_the_first_failing_job_raises_its_own_exception(temp_dir, monkeypatch, parts, fail_at):
    # a job that raises here or in a child: the child's share runs again
    # here, so the exception is the first in job order, as in a sequential run
    fn = _failing(fail_at)
    forks = record_forks(monkeypatch)
    got = mapped(fn, JOBS, parts)
    assert isinstance(got, ValueError) and same(got, sequential(fn, JOBS))
    assert got.args == (f"job {min(fail_at)}",)
    assert len(forks) == parts - 1
    assert_no_child_left()
    assert list(temp_dir.iterdir()) == []


def test_a_job_that_fails_in_a_child_only_is_rerun_here(temp_dir, monkeypatch):
    # the child's jobs raise, but not here: the results are the sequential ones
    here = os.getpid()

    def fn(j):
        if os.getpid() != here:
            raise ValueError(f"job {j} in a child")
        return j * j

    forks = record_forks(monkeypatch)
    assert mapped(fn, JOBS, 3) == sequential(fn, JOBS)
    assert len(forks) == 2
    assert_no_child_left()
    assert list(temp_dir.iterdir()) == []


def test_a_child_that_dies_has_its_share_run_here(temp_dir, monkeypatch):
    here = os.getpid()

    def fn(j):
        if j == 4 and os.getpid() != here:
            os._exit(1)
        return str(j)

    forks = record_forks(monkeypatch)
    assert mapped(fn, JOBS, 2) == sequential(fn, JOBS) == list(map(str, JOBS))
    assert len(forks) == 1
    assert_no_child_left()
    assert list(temp_dir.iterdir()) == []


@pytest.mark.parametrize("where", ["job", "consumer"])
def test_an_interrupt_mid_map_kills_and_reaps_every_child(temp_dir, monkeypatch, where):
    # the children sleep far longer than the test: they are killed, not waited for
    def fn(j):
        if j == 1 and where == "job":
            raise KeyboardInterrupt
        if j >= 3:
            time.sleep(60)
        return j

    forks = record_forks(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        with parallel.fork_map(fn, parallel.split(JOBS, 3)) as results:
            for j in results:
                if j == 1:
                    raise KeyboardInterrupt
    assert time.perf_counter() - start < 30
    assert len(forks) == 2
    assert_no_child_left()
    assert list(temp_dir.iterdir()) == []
    if where == "job":
        assert isinstance(sequential(fn, JOBS[:2]), KeyboardInterrupt)


def test_shares_whose_fork_fails_run_here(temp_dir, monkeypatch):
    calls = counted_failing_fork(monkeypatch)
    assert mapped(lambda j: -j, JOBS, 4) == [-j for j in JOBS]
    assert len(calls) == 3
    assert list(temp_dir.iterdir()) == []


def test_one_share_no_fork_or_a_live_thread_runs_inline(temp_dir, monkeypatch):
    calls = counted_failing_fork(monkeypatch)
    assert mapped(lambda j: j + 1, JOBS, 1) == [j + 1 for j in JOBS]
    # a live thread might hold a lock that a forked child would copy held
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert mapped(lambda j: j + 1, JOBS, 3) == [j + 1 for j in JOBS]
    finally:
        release.set()
        thread.join(timeout=10)
    assert calls == []
    monkeypatch.delattr(os, "fork")
    assert mapped(lambda j: j + 1, JOBS, 3) == [j + 1 for j in JOBS]
    assert list(temp_dir.iterdir()) == []
