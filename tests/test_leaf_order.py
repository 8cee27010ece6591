"""knn_all and estimate_derivatives take their row blocks in the KD-tree's
leaf order: the same bits as the file-order loops they replaced, ties still
broken by ascending point index, and one query round per grid block after
the first."""

import sys

import numpy as np
import pytest
from helpers import brute_force_knn_all, grid_points

from soblab import geometry, mls, parallel
from soblab.geometry import (
    PointCloud,
    SpatialIndex,
    build_index,
    knn_all,
    run_blocks,
    stencil_distances,
)
from soblab.mls import MlsConfig, enumerate_multi_indices, estimate_derivatives


def file_order_knn_all(index, k, threads):
    """knn_all with blocks of consecutive file rows, each starting at
    k + 1 candidates: the loop that leaf-order blocks replaced."""
    points = index.cloud.points
    j = points.shape[0]
    nbr = np.empty((j, k), dtype=np.int32)
    near, far = np.empty(j), np.empty(j)

    def fill(rows):
        pending = np.arange(rows.start, rows.stop)
        extra = 1
        while pending.size:
            kq = min(k + extra, j)
            d_tree, cand = index._tree.query(points[pending], k=kq)
            d_tree = d_tree.reshape(-1, kq)
            cand = cand.reshape(-1, kq)
            d = stencil_distances(points, cand, pending)[1]
            ordered = (d[:, 1:] > d[:, :-1]).all(axis=1)
            kth = d[:, k - 1].copy()
            kth[~ordered] = np.partition(d[~ordered], k - 1, axis=1)[:, k - 1]
            done = d_tree[:, -1] > kth * geometry._TIE_SLACK if kq < j else np.ones(len(d), bool)
            fix = np.flatnonzero(done & ~ordered)
            order = np.lexsort((cand[fix], d[fix]), axis=1)
            cand[fix] = np.take_along_axis(cand[fix], order, axis=1)
            d[fix] = np.take_along_axis(d[fix], order, axis=1)
            nbr[pending[done]] = cand[done, :k]
            near[pending[done]] = d[done, 1] if k > 1 else np.nan
            far[pending[done]] = d[done, k - 1]
            pending = pending[~done]
            extra *= 4

    run_blocks(j, geometry.BLOCK_ROWS, threads, fill)
    return nbr, near, far


def file_order_jets(cloud, cfg, threads):
    """estimate_derivatives' coefficients and flags, with the KNN and the
    fit blocks in file order."""
    nbr, near, far = file_order_knn_all(build_index(cloud), cfg.k, threads)
    stencils = nbr, float(near.max()), mls._WEIGHT_MARGIN * float(far.max()) or 1.0
    size = len(enumerate_multi_indices(cloud.dim, cfg.m))
    values = np.atleast_2d(cloud.values)
    coefficients = np.empty((len(values), cloud.size, size))
    flagged = np.empty(cloud.size, dtype=bool)

    def fit(rows):
        wb, operator, flagged[rows] = mls._plan_rows(cloud.points, stencils, rows, cfg)
        coefficients[:, rows] = (operator @ (wb @ values[:, nbr[rows], None]))[..., 0]

    rows = mls.FIT_ELEMENTS // (cfg.k * max(size, len(values)))
    run_blocks(cloud.size, max(1, min(rows, geometry.BLOCK_ROWS)), threads, fit)
    return coefficients.reshape(cloud.values.shape + (-1,)), flagged


def _cloud(points):
    u = np.sin(points[:, 0]) * np.cos(points[:, 1])
    return PointCloud(points=points, values=u * points[:, 2] if points.shape[1] == 3 else u)


_GRID = grid_points(200, 2)
# (points, cfg): the derivs benchmark's grid, the grid in shuffled rows, and
# uniform clouds in 2-D and 3-D
CLOUDS = {
    "grid": (_GRID, MlsConfig(k=20, m=2)),
    "shuffled-grid": (_GRID[np.random.default_rng(70).permutation(len(_GRID))],
                      MlsConfig(k=20, m=2)),
    "uniform2d": (np.random.default_rng(71).random((5000, 2)), MlsConfig(k=20, m=2)),
    "uniform3d": (np.random.default_rng(72).random((3000, 3)), MlsConfig(k=40, m=3)),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", sorted(CLOUDS))
def test_leaf_order_blocks_equal_the_file_order_loops(case, threads):
    points, cfg = CLOUDS[case]
    cloud = _cloud(points)
    index = build_index(cloud)
    got, want = knn_all(index, cfg.k, threads), file_order_knn_all(index, cfg.k, threads)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    jet = estimate_derivatives(cloud, cfg, threads)
    coefficients, flagged = file_order_jets(cloud, cfg, threads)
    assert np.array_equal(jet.coefficients, coefficients)
    assert np.array_equal(jet.flagged, flagged)


def test_blocks_racing_for_the_first_extra_keep_the_bits(monkeypatch):
    # 57 blocks on 8 threads, switching every microsecond: whichever block
    # sets the next block's first extra, every row ends the same
    points = grid_points(60, 2)
    index = build_index(_cloud(points))
    want = file_order_knn_all(index, 20, 1)
    monkeypatch.setattr(geometry, "BLOCK_ROWS", 64)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            got = knn_all(index, 20, 8)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
    finally:
        sys.setswitchinterval(interval)


def test_shuffled_grid_ties_break_by_ascending_point_index():
    points, cfg = CLOUDS["shuffled-grid"]
    nbr, _, far = knn_all(build_index(_cloud(points)), cfg.k)
    rows = np.random.default_rng(73).choice(len(points), 200, replace=False)
    want_nbr, want_dist = brute_force_knn_all(points, cfg.k + 1, chunk=20, rows=rows)
    # the k-th distance ties the next one on most rows: the index decides
    assert (want_dist[:, cfg.k - 1] == want_dist[:, cfg.k]).mean() > 0.5
    assert np.array_equal(nbr[rows], want_nbr[:, : cfg.k])
    assert np.array_equal(far[rows], want_dist[:, cfg.k - 1])


class _CountingTree:
    """A KD-tree that records the rows and the k of each query."""

    def __init__(self, points):
        self._tree = build_index(PointCloud(points=points, values=np.zeros(len(points))))._tree
        self.indices = self._tree.indices
        self.queries = []

    def query(self, x, k):
        self.queries.append((len(x), k))
        return self._tree.query(x, k=k)


def _queries(points, k, knn=knn_all):
    """The (rows, k) of each tree query of one knn run on one thread."""
    tree = _CountingTree(points)
    knn(SpatialIndex(cloud=PointCloud(points=points, values=np.zeros(len(points))), _tree=tree),
        k, 1)
    return tree.queries


def test_grid_blocks_after_the_first_take_one_query_round(monkeypatch):
    monkeypatch.setattr(geometry, "BLOCK_ROWS", 256)
    points = grid_points(100, 2)
    queries = _queries(points, 20)
    assert sum(rows for rows, _ in queries) <= 1.1 * len(points)
    assert len(queries) == 2 + (len(points) - 1) // 256  # two rounds for the first block alone
    # file-order blocks query almost every row twice, at k + 1 and k + 4
    assert sum(rows for rows, _ in _queries(points, 20, file_order_knn_all)) > 1.9 * len(points)


def test_a_tie_free_cloud_queries_each_row_once_at_k_plus_1(monkeypatch):
    monkeypatch.setattr(geometry, "BLOCK_ROWS", 256)
    points = np.random.default_rng(74).random((5000, 2))
    queries = _queries(points, 20)
    assert sum(rows for rows, _ in queries) == len(points)
    assert {k for _, k in queries} == {21}
