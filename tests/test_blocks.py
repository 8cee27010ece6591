"""Row blocks of knn_all and estimate_derivatives: the same bits as one
block and as one thread, and memory that grows with the block, not with
the cloud."""

import math
import tracemalloc

import numpy as np
import pytest

from soblab import geometry, mls
from soblab.geometry import PointCloud, build_index, knn_all
from soblab.mls import MlsConfig, basis_size, estimate_derivatives
from soblab.training import mls_derivative_targets


def _grid(side):
    xs = np.linspace(0.0, 1.0, side)
    return np.column_stack([a.ravel() for a in np.meshgrid(xs, xs, indexing="ij")])


def _knn(points, k):
    return knn_all(build_index(PointCloud(points=points, values=np.zeros(len(points)))), k)


@pytest.mark.parametrize("block", [13, 64])
def test_blocked_knn_equals_one_block_on_a_tie_heavy_grid(monkeypatch, block):
    pts, k = _grid(30), 14  # interior rows need three query rounds (test_geometry)
    monkeypatch.setattr(geometry, "BLOCK_ROWS", len(pts))
    want_nbr, want_dist = _knn(pts, k)
    # rows whose k-th neighbour ties the next one are queried again; a
    # block boundary falls between two such rows
    tied = want_dist[:, k - 1] == _knn(pts, k + 1)[1][:, k]
    assert len(pts) % block and tied[block - 1] and tied[block]
    monkeypatch.setattr(geometry, "BLOCK_ROWS", block)
    nbr, dist = _knn(pts, k)
    assert np.array_equal(nbr, want_nbr)
    assert np.array_equal(dist, want_dist)


def _collinear():
    xs = np.linspace(0.0, 1.0, 300)
    return np.column_stack([xs, np.zeros_like(xs)])


CLOUDS = {
    "uniform": (np.random.default_rng(50).random((700, 2)), MlsConfig(k=20, m=2)),
    "grid": (_grid(26), MlsConfig(k=20, m=2)),
    "graded": (np.random.default_rng(51).random((600, 2)) ** 4, MlsConfig(k=12, m=2)),
    # run with no ridge: every stencil of collinear points is flagged
    "flagged": (_collinear(), MlsConfig(k=8, m=2)),
}


@pytest.mark.parametrize("case", sorted(CLOUDS))
def test_blocked_jets_equal_the_whole_cloud_plan(monkeypatch, case):
    points, cfg = CLOUDS[case]
    if case == "flagged":
        monkeypatch.setattr(mls, "_RIDGE", 0.0)
    values = np.sin(3.0 * points[:, 0]) * np.cos(2.0 * points[:, 1]) + points[:, 0] ** 2
    cloud = PointCloud(points=points, values=values)
    monkeypatch.setattr(geometry, "BLOCK_ROWS", len(points))  # the whole cloud in one block
    whole = estimate_derivatives(cloud, cfg)
    assert whole.flagged.any() == (case == "flagged")
    monkeypatch.setattr(geometry, "BLOCK_ROWS", 61)  # divides none of the cloud sizes
    assert all(len(points) % 61 for points, _ in CLOUDS.values())
    jet = estimate_derivatives(cloud, cfg)
    assert np.array_equal(jet.coefficients, whole.coefficients)
    assert np.array_equal(jet.flagged, whole.flagged)
    assert jet.h == whole.h
    assert jet.support_radius == whole.support_radius


def _peak_bytes(fit, *args):
    tracemalloc.start()
    try:
        fit(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_grows_with_the_results_not_the_plan():
    # Both clouds span several full blocks, so the block temporaries are
    # the same; quadrupling J may add the (J, k) stencils and distances and
    # the (J, I) coefficients, plus a slack of 64 bytes per added row (the
    # KD-tree's copy of the points and its index, each row's support
    # radius and flag) and 1 MiB.  A whole-cloud plan adds over 2 KB per row.
    cfg = MlsConfig(k=20, m=2)
    rng = np.random.default_rng(52)
    build_index(PointCloud(points=[[0.0]], values=[0.0]))  # scipy's import is not traced
    small, large = (2 * geometry.BLOCK_ROWS, 8 * geometry.BLOCK_ROWS)
    peaks = [
        _peak_bytes(estimate_derivatives, PointCloud(points=pts, values=np.sin(pts[:, 0])), cfg)
        for pts in (rng.random((small, 2)), rng.random((large, 2)))
    ]
    per_row = cfg.k * (np.dtype(np.intp).itemsize + 8) + basis_size(2, cfg.m) * 8
    assert peaks[1] - peaks[0] <= (large - small) * (per_row + 64) + 2**20, peaks


@pytest.mark.parametrize("dim", [1, 2])
def test_target_memory_grows_with_the_results_not_the_plan(dim):
    # 64 samples fitted together: quadrupling J may add the (J, k) stencils
    # and distances, the (N, J, I) jets and the (N, J, n) targets picked
    # from them, plus the slack of the test above.  A whole-cloud plan
    # gathers the (N, J, k) samples of every stencil at once, over 10 KB
    # per row.
    k, m, samples = 20, 2, 64
    rng = np.random.default_rng(53)
    build_index(PointCloud(points=[[0.0]], values=[0.0]))  # scipy's import is not traced
    small, large = (2 * geometry.BLOCK_ROWS, 8 * geometry.BLOCK_ROWS)
    peaks = [
        _peak_bytes(mls_derivative_targets, rng.random((count, dim)), rng.normal(size=(samples, count)), k, m)
        for count in (small, large)
    ]
    per_row = k * (np.dtype(np.intp).itemsize + 8) + samples * (basis_size(dim, m) + dim) * 8
    assert peaks[1] - peaks[0] <= (large - small) * (per_row + 64) + 2**20, peaks


# -- blocks on threads: the same bits as one thread ------------------------------------

def _cloud_3d():
    pts = np.random.default_rng(54).random((4500, 3))
    return PointCloud(points=pts, values=np.sin(pts[:, 0]) * np.cos(pts[:, 1]) * pts[:, 2])


def _stack_2d():
    pts = np.random.default_rng(55).random((4500, 2))
    return PointCloud(points=pts, values=np.random.default_rng(56).normal(size=(4, len(pts))))


PARALLEL = {
    # tie-heavy, three blocks, the last one short
    "grid": (lambda: PointCloud(points=_grid(71), values=np.sin(_grid(71)).sum(axis=1)),
             MlsConfig(k=20, m=2)),
    "cloud3d": (_cloud_3d, MlsConfig(k=30, m=3)),
    "stack": (_stack_2d, MlsConfig(k=20, m=2)),
}


@pytest.mark.parametrize("case", sorted(PARALLEL))
def test_threaded_blocks_equal_one_thread(case):
    make, cfg = PARALLEL[case]
    cloud = make()
    assert math.ceil(cloud.size / geometry.BLOCK_ROWS) == 3
    index = build_index(cloud)
    want_knn = knn_all(index, cfg.k)
    want = estimate_derivatives(cloud, cfg)
    for threads in (2, 3):
        nbr, dist = knn_all(index, cfg.k, threads)
        assert np.array_equal(nbr, want_knn[0]) and np.array_equal(dist, want_knn[1])
        jet = estimate_derivatives(cloud, cfg, threads)
        assert np.array_equal(jet.coefficients, want.coefficients)
        assert np.array_equal(jet.flagged, want.flagged)
        assert (jet.h, jet.support_radius) == (want.h, want.support_radius)


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of every thread pool made while the test runs."""
    import concurrent.futures

    made = []

    class Recorder(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
    return made


def test_one_thread_or_one_block_makes_no_pool(pools):
    small = PointCloud(points=_grid(20), values=np.zeros(400))  # one block
    estimate_derivatives(small, MlsConfig(k=12, m=2), threads=1000000)
    large = PointCloud(points=_grid(50), values=np.zeros(2500))  # two blocks
    estimate_derivatives(large, MlsConfig(k=12, m=2), threads=1)
    assert pools == []
    estimate_derivatives(large, MlsConfig(k=12, m=2), threads=1000000)
    assert pools == [2, 2]  # knn_all, then the fits: one worker per block


def test_the_first_failing_block_raises_its_own_exception():
    errors = [ValueError(f"block {b}") for b in range(3)]

    def fail(rows):
        if rows.start:
            raise errors[rows.start // geometry.BLOCK_ROWS]

    with pytest.raises(ValueError) as info:
        geometry.run_blocks(3 * geometry.BLOCK_ROWS, 3, fail)
    assert info.value is errors[1]
