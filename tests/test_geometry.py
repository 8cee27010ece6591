"""Point-cloud construction and exact-KNN contracts."""

import numpy as np
import pytest
from helpers import brute_force_knn_all, grid_points, save_cloud_csv

from soblab.errors import ConfigError, InputError
from soblab.geometry import (
    PointCloud,
    SpatialIndex,
    build_index,
    knn_all,
    load_cloud_csv,
    stencil_distances,
)


def line_cloud():
    return PointCloud(points=[[0.0], [1.0], [2.0]], values=[0.0, 1.0, 4.0])


def knn_with_distances(index, k):
    """knn_all's int32 stencils and their (J, k) distances by
    stencil_distances, checked against the nearest non-self and k-th
    distances knn_all returns for each row."""
    nbr, near, far = knn_all(index, k)
    assert nbr.dtype == np.int32
    dist = stencil_distances(index.cloud.points, nbr, slice(None))[1]
    assert np.array_equal(near, dist[:, 1]) if k > 1 else np.isnan(near).all()
    assert np.array_equal(far, dist[:, -1])
    return nbr, dist


def brute_force_knn(points, q, k):
    d = np.linalg.norm(points - points[q], axis=1)
    order = np.lexsort((np.arange(len(points)), d))
    return order[:k], d[order[:k]]


def test_build_index_three_points_on_line():
    index = build_index(line_cloud())
    assert index.cloud.size == 3


def test_build_index_single_point():
    cloud = PointCloud(points=[[0.5, 0.5]], values=[2.0])
    nbr, dist = knn_with_distances(build_index(cloud), 1)
    assert nbr.tolist() == [[0]] and dist.tolist() == [[0.0]]


def test_empty_cloud_rejected():
    with pytest.raises(InputError, match="point cloud is empty"):
        PointCloud(points=np.empty((0, 2)), values=np.empty(0))


def test_duplicate_points_rejected():
    with pytest.raises(InputError, match="bitwise-identical points"):
        PointCloud(points=[[1.0, 2.0], [1.0, 2.0]], values=[0.0, 1.0])


def _accepted(points):
    try:
        PointCloud(points=points, values=np.zeros(len(points)))
    except InputError as exc:
        assert str(exc) == "cloud contains bitwise-identical points"
        return False
    return True


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_duplicate_check_agrees_with_unique(dim):
    rng = np.random.default_rng(40 + dim)
    for trial in range(40):
        j = int(rng.integers(2, 60))
        # coarse coordinates, so rows often share some but not all entries
        points = rng.integers(-3, 4, size=(j, dim)) * 0.5 if trial % 2 else rng.random((j, dim))
        if trial % 4 < 2:
            points[rng.integers(j)] = points[rng.integers(j)]
        want = np.unique(points, axis=0).shape[0] == j
        assert _accepted(points) == want


def test_duplicate_check_signed_zero_and_single_point():
    pair = np.array([[0.0, 1.0], [-0.0, 1.0]])
    assert np.unique(pair, axis=0).shape[0] == 1
    assert not _accepted(pair)
    assert _accepted(np.array([[0.0, 1.0]]))


def test_nonfinite_rejected():
    with pytest.raises(InputError, match="points contain non-finite"):
        PointCloud(points=[[np.nan, 0.0]], values=[1.0])
    with pytest.raises(InputError, match="values contain non-finite"):
        PointCloud(points=[[0.0, 0.0]], values=[np.inf])
    with pytest.raises(InputError, match="values contain non-finite"):
        PointCloud(points=[[0.0], [1.0]], values=[[0.0, 1.0], [2.0, np.nan]])


def test_values_are_one_sample_or_a_stack_on_the_points():
    assert PointCloud(points=[[0.0], [1.0]], values=np.zeros((3, 2))).size == 2
    with pytest.raises(InputError, match="2 points but 3 values"):
        PointCloud(points=[[0.0], [1.0]], values=np.zeros((2, 3)))
    for shape in ((), (1, 2, 2)):
        with pytest.raises(InputError, match=r"values must be a \(J,\) or \(N, J\) array"):
            PointCloud(points=[[0.0], [1.0]], values=np.zeros(shape))


@pytest.mark.filterwarnings("error")
def test_spread_whose_squared_distances_overflow_rejected():
    # at a 1e153 spread the KNN squares finite differences; beyond, the KD
    # tree reports the neighbours it cannot reach as index J
    near = PointCloud(points=[[0.0, 0.0], [1e153, 0.0], [0.0, 1e153]], values=[0.0, 1.0, 2.0])
    assert np.isfinite(knn_with_distances(build_index(near), 3)[1]).all()
    for far in ([[0.0, 0.0], [1e160, 0.0]], [[-1e308, 0.0], [1e308, 0.0]]):
        with pytest.raises(InputError, match="squared distances overflow"):
            PointCloud(points=far, values=[0.0, 1.0])


def test_knn_self_is_nearest_and_ties_break_low():
    index = build_index(line_cloud())
    # query=1, K=2: points 0 and 2 tie at distance 1; index 0 wins
    nbr, dist = knn_with_distances(index, 2)
    assert nbr[1].tolist() == [1, 0] and dist[1].tolist() == [0.0, 1.0]
    nbr, dist = knn_with_distances(index, 1)
    assert nbr[0].tolist() == [0] and dist[0].tolist() == [0.0]


def test_knn_k_too_large():
    index = build_index(line_cloud())
    with pytest.raises(ConfigError, match=r"K=4 outside \[1, 3\]"):
        knn_all(index, 4)
    with pytest.raises(ConfigError, match=r"K=0 outside \[1, 3\]"):
        knn_all(index, 0)


def test_knn_matches_brute_force_random():
    rng = np.random.default_rng(7)
    pts = rng.random((500, 2))
    cloud = PointCloud(points=pts, values=np.zeros(500))
    nbr, got = knn_with_distances(build_index(cloud), 20)
    for q in [0, 17, 123, 499]:
        idx, dist = brute_force_knn(pts, q, 20)
        assert nbr[q].tolist() == idx.tolist()
        np.testing.assert_allclose(got[q], dist, rtol=0, atol=0)


def test_knn_all_matches_brute_force_large():
    rng = np.random.default_rng(11)
    pts = rng.random((10_000, 2))
    cloud = PointCloud(points=pts, values=np.zeros(10_000))
    index = build_index(cloud)
    nbr, dist = knn_with_distances(index, 8)
    for q in rng.integers(0, 10_000, size=60):
        idx, d = brute_force_knn(pts, q, 8)
        assert nbr[q].tolist() == idx.tolist()
        np.testing.assert_array_equal(dist[q], d)


def test_knn_all_grid_ties_deterministic():
    # A 5x5 grid has many exact distance ties; results must match the
    # index-tie-break oracle exactly, including tie selection at the K edge.
    xs = np.linspace(0.0, 1.0, 5)
    pts = np.array([[x, y] for x in xs for y in xs])
    cloud = PointCloud(points=pts, values=np.zeros(len(pts)))
    index = build_index(cloud)
    nbr, dist = knn_with_distances(index, 6)
    for q in range(len(pts)):
        idx, d = brute_force_knn(pts, q, 6)
        assert nbr[q].tolist() == idx.tolist(), f"tie break mismatch at {q}"
        np.testing.assert_array_equal(dist[q], d)


def test_knn_distances_nondecreasing_and_repeatable():
    rng = np.random.default_rng(3)
    pts = rng.random((300, 3))
    cloud = PointCloud(points=pts, values=np.zeros(300))
    index = build_index(cloud)
    first = knn_with_distances(index, 25)
    again = knn_with_distances(index, 25)
    assert np.array_equal(first[0], again[0]) and np.array_equal(first[1], again[1])
    assert np.all(np.diff(first[1], axis=1) >= 0)


def test_cloud_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    cloud = PointCloud(points=rng.random((40, 2)), values=rng.random(40))
    path = tmp_path / "cloud.csv"
    save_cloud_csv(cloud, path)
    back = load_cloud_csv(path)
    np.testing.assert_array_equal(back.points, cloud.points)
    np.testing.assert_array_equal(back.values, cloud.values)


def test_cloud_csv_header_required(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.0,0.0,1.0\n")
    with pytest.raises(InputError, match="expected header x1,...,xn,u"):
        load_cloud_csv(path)


@pytest.mark.parametrize(
    "side, dim, k",
    [
        (60, 2, 20),
        (12, 3, 27),
        # interior rows of a 2-D grid: the 14th neighbour sits in the
        # 8-point shell at distance sqrt(5) spacings, which runs past
        # k + 1 and k + 4 candidates, so those rows are queried three times
        (15, 2, 14),
    ],
)
def test_knn_matches_brute_force_on_tie_heavy_grids(side, dim, k):
    pts = grid_points(side, dim)
    index = build_index(PointCloud(points=pts, values=np.zeros(len(pts))))
    want_nbr, want_dist = brute_force_knn_all(pts, k)
    nbr, dist = knn_with_distances(index, k)
    assert np.array_equal(nbr, want_nbr)
    assert np.array_equal(dist, want_dist)


def test_grid_rows_need_two_requery_rounds():
    # the precondition of the last grid case above: the k-th and the
    # (k + 4)-th brute-force distances tie on some rows
    pts = grid_points(15, 2)
    _, dist = brute_force_knn_all(pts, 14 + 4)
    assert np.any(dist[:, 14 + 4 - 1] <= dist[:, 14 - 1] * (1 + 1e-12))


@pytest.mark.parametrize("side, dim, k", [(60, 2, 20), (12, 3, 27)])
def test_knn_matches_brute_force_on_jittered_grids(side, dim, k):
    # a 1e-13 jitter breaks most grid ties but not all: some rows keep
    # exactly equal distances (sorted), the others strictly increase (read
    # in place)
    rng = np.random.default_rng(0)
    pts = grid_points(side, dim) + rng.uniform(-1e-13, 1e-13, (side**dim, dim))
    index = build_index(PointCloud(points=pts, values=np.zeros(len(pts))))
    want_nbr, want_dist = brute_force_knn_all(pts, k)
    tied = (np.diff(want_dist, axis=1) == 0).any(axis=1)
    assert tied.any() and not tied.all()
    nbr, dist = knn_with_distances(index, k)
    assert np.array_equal(nbr, want_nbr)
    assert np.array_equal(dist, want_dist)


class _LastBitsTree:
    """A KD-tree whose distances differ from the formula's in the last bits,
    so that its candidate order and the formula's disagree."""

    def __init__(self, points, seed):
        self._tree = build_index(PointCloud(points=points, values=np.zeros(len(points))))._tree
        self._rng = np.random.default_rng(seed)
        self.indices = self._tree.indices  # the leaf order knn_all takes its blocks in

    def query(self, x, k):
        d, cand = self._tree.query(x, k=k)
        d = d * (1.0 + 8 * np.finfo(float).eps * self._rng.uniform(-1.0, 1.0, d.shape))
        order = np.argsort(d, axis=1, kind="stable")
        return np.take_along_axis(d, order, axis=1), np.take_along_axis(cand, order, axis=1)


@pytest.mark.parametrize("jitter", [0.0, 1e-13])
def test_knn_exact_when_tree_order_differs_in_the_last_bits(jitter):
    rng = np.random.default_rng(1)
    pts = grid_points(30, 2) + rng.uniform(-jitter, jitter, (900, 2))
    cloud = PointCloud(points=pts, values=np.zeros(len(pts)))
    index = SpatialIndex(cloud=cloud, _tree=_LastBitsTree(pts, seed=2))
    d_tree, cand = index._tree.query(pts, k=15)
    d = np.linalg.norm(pts[cand] - pts[:, None, :], axis=2)
    assert (np.diff(d, axis=1) < 0).any()  # out of order under the formula
    want_nbr, want_dist = brute_force_knn_all(pts, 14)
    nbr, dist = knn_with_distances(index, 14)
    assert np.array_equal(nbr, want_nbr)
    assert np.array_equal(dist, want_dist)
