"""Row blocks of knn_all and estimate_derivatives: the same bits as one
block, and memory that grows with the block, not with the cloud."""

import tracemalloc

import numpy as np
import pytest

from soblab import geometry, mls
from soblab.geometry import PointCloud, build_index, knn_all
from soblab.mls import MlsConfig, basis_size, estimate_derivatives, mls_plan


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
    plan = mls_plan(points, cfg)
    assert plan.flagged.any() == (case == "flagged")
    monkeypatch.setattr(geometry, "BLOCK_ROWS", 61)  # divides none of the cloud sizes
    assert all(len(points) % 61 for points, _ in CLOUDS.values())
    jet = estimate_derivatives(PointCloud(points=points, values=values), cfg)
    assert np.array_equal(jet.coefficients, plan.apply(values))
    assert np.array_equal(jet.flagged, plan.flagged)
    assert jet.h == plan.h
    assert jet.support_radius == plan.support_radius


def _peak_bytes(cloud, cfg):
    tracemalloc.start()
    try:
        estimate_derivatives(cloud, cfg)
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
        _peak_bytes(PointCloud(points=pts, values=np.sin(pts[:, 0])), cfg)
        for pts in (rng.random((small, 2)), rng.random((large, 2)))
    ]
    per_row = cfg.k * (np.dtype(np.intp).itemsize + 8) + basis_size(2, cfg.m) * 8
    assert peaks[1] - peaks[0] <= (large - small) * (per_row + 64) + 2**20, peaks
