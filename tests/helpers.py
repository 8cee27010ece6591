"""Helpers shared by the test modules."""

import errno
import os

import numpy as np
import pytest

from soblab.cli.io import write_csv


def save_cloud_csv(cloud, path) -> None:
    """Write a point cloud in the format load_cloud_csv reads."""
    header = [f"x{d + 1}" for d in range(cloud.dim)] + ["u"]
    write_csv(path, header, [cloud.points, cloud.values])


def strand_points(count, seed):
    """count 2-D points: the first count - count // 4 uniform in the unit
    square, the rest a collinear strand on y = 0.5, 0.002 apart from
    x = 1.03 on.  At K = 20 the strand's stencils lie on it but for a few
    near the square, and a few stencils of the square reach the strand."""
    xs = 1.03 + 0.002 * np.arange(count // 4)
    uniform = np.random.default_rng(seed).random((count - len(xs), 2))
    return np.vstack([uniform, np.column_stack([xs, np.full_like(xs, 0.5)])])


def brute_force_knn_all(points, k, chunk=256, rows=None):
    """(distance, index) order of every row, or of the given rows, by an
    O(J^2) scan."""
    rows = np.arange(len(points)) if rows is None else np.asarray(rows)
    nbr = np.empty((len(rows), k), dtype=np.intp)
    dist = np.empty((len(rows), k))
    index = np.arange(len(points))
    for lo in range(0, len(rows), chunk):
        d = np.linalg.norm(points[None, :, :] - points[rows[lo : lo + chunk], None, :], axis=2)
        order = np.lexsort((np.broadcast_to(index, d.shape), d), axis=1)[:, :k]
        nbr[lo : lo + chunk] = order
        dist[lo : lo + chunk] = np.take_along_axis(d, order, axis=1)
    return nbr, dist


def grid_points(side, dim):
    axes = np.meshgrid(*[np.linspace(0.0, 1.0, side)] * dim, indexing="ij")
    return np.column_stack([a.ravel() for a in axes])


def record_forks(monkeypatch):
    """The pid of each process forked while the test runs, in fork order:
    os.fork still forks, and the list is filled in the parent."""
    made, fork = [], os.fork

    def recorded():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return made


def counted_failing_fork(monkeypatch):
    """Replace os.fork by a counter that starts no process: each call fails
    as a fork at the process limit does.  Returns the list of calls."""
    calls = []

    def fork():
        calls.append(1)
        raise OSError(errno.EAGAIN, "no process started")

    monkeypatch.setattr(os, "fork", fork)
    return calls


def assert_no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
