"""Point clouds and exact K-nearest-neighbor queries.

Clouds are irregular sets of points with one scalar sample per point.
Neighbor queries are exact Euclidean KNN backed by a KD-tree, with ties
broken by ascending point index so that stencils are deterministic.
knn_all queries blocks of BLOCK_ROWS points: a KD-tree query for K + 1
candidates, and a batched re-query with more candidates for only the
rows whose K-th neighbor ties the last candidate (regular grids).  Rows
already in (distance, index) order are read in place; only the finished
rows that are not get a (distance, index) sort.
scipy is imported inside build_index, the only function that makes a
tree, so that importing soblab and the commands that build no index
(flow, landscape, validate) do not load scipy.spatial and the
scipy.sparse it pulls in, about 0.5 s of a cold start.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, InputError

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

# Relative slack when collecting tie candidates at the K-th distance.
_TIE_SLACK = 1.0 + 1e-12
# Rows per block of knn_all and estimate_derivatives; sets memory, not bits.
BLOCK_ROWS = 2048


@dataclass(frozen=True)
class PointCloud:
    """Irregular mesh points with scalar samples u(x_j).

    points has shape (J, n), values shape (J,).  Duplicate points are
    rejected at construction: every stencil must be well posed.
    """

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(np.atleast_2d(np.asarray(self.points, dtype=float)))
        vals = np.asarray(self.values, dtype=float).ravel()
        if pts.size == 0:
            raise InputError("point cloud is empty")
        if pts.ndim != 2:
            raise InputError(f"points must be a (J, n) array, got shape {pts.shape}")
        if pts.shape[0] != vals.shape[0]:
            raise InputError(
                f"{pts.shape[0]} points but {vals.shape[0]} values"
            )
        if not np.isfinite(pts).all():
            raise InputError("points contain non-finite coordinates")
        if not np.isfinite(vals).all():
            raise InputError("values contain non-finite entries")
        with np.errstate(over="ignore"):  # the KNN query squares coordinate differences
            span = pts.max(axis=0) - pts.min(axis=0)
            if not np.isfinite(np.add.reduce(span * span)):
                raise InputError("points spread so far that squared distances overflow")
        # equal rows are adjacent once the rows are sorted
        rows = pts[np.lexsort(pts.T)]
        if (rows[1:] == rows[:-1]).all(axis=1).any():
            raise InputError("cloud contains bitwise-identical points")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class SpatialIndex:
    """Immutable exact-KNN structure over a PointCloud."""

    cloud: PointCloud
    _tree: cKDTree = field(repr=False)


def build_index(cloud: PointCloud) -> SpatialIndex:
    """Build an exact Euclidean KNN index over all cloud points."""
    from scipy.spatial import cKDTree

    return SpatialIndex(cloud=cloud, _tree=cKDTree(cloud.points))


def row_blocks(count: int) -> list[slice]:
    """Consecutive slices of at most BLOCK_ROWS rows covering range(count)."""
    return [slice(start, min(start + BLOCK_ROWS, count)) for start in range(0, count, BLOCK_ROWS)]


def knn_all(index: SpatialIndex, k: int):
    """KNN stencils for every cloud point, in blocks of BLOCK_ROWS rows.

    Returns (indices, distances) of shape (J, k).  Row j holds the k
    nearest cloud points to point j, itself first (distance 0), sorted by
    (distance, index), with distances recomputed by the formula a
    brute-force scan uses (np.linalg.norm's: the square root of the summed
    squared differences), so exact ties break by ascending index.  The
    first k of k + 1 tree candidates are exact unless the last
    candidate's tree distance ties the k-th distance: a tie may continue
    past the candidates, so those rows of a block alone are queried again,
    together, with 4x more extra candidates each round (k + 1, k + 4,
    k + 16, ...).  A row whose recomputed distances strictly increase is
    already in (distance, index) order and is read in place; the k-th
    distance of any other row comes from a partition, and only those of
    them that are done in a round are sorted.
    """
    points = index.cloud.points
    j = points.shape[0]
    if k < 1 or k > j:
        raise ConfigError(f"K={k} outside [1, {j}]")
    nbr = np.empty((j, k), dtype=np.intp)
    dist = np.empty((j, k))
    for rows in row_blocks(j):
        pending = np.arange(rows.start, rows.stop)
        extra = 1
        while pending.size:
            kq = min(k + extra, j)
            x = points[pending]
            d_tree, cand = index._tree.query(x, k=kq)
            d_tree = d_tree.reshape(-1, kq)
            cand = cand.reshape(-1, kq)
            diff = points[cand] - x[:, None, :]
            d = np.sqrt(np.add.reduce(diff * diff, axis=2))
            del diff
            ordered = (d[:, 1:] > d[:, :-1]).all(axis=1)
            kth = d[:, k - 1].copy()
            kth[~ordered] = np.partition(d[~ordered], k - 1, axis=1)[:, k - 1]
            # Every point outside the candidates is at least the last
            # candidate's tree distance away.
            done = d_tree[:, -1] > kth * _TIE_SLACK if kq < j else np.ones(len(x), bool)
            fix = np.flatnonzero(done & ~ordered)
            order = np.lexsort((cand[fix], d[fix]), axis=1)
            cand[fix] = np.take_along_axis(cand[fix], order, axis=1)
            d[fix] = np.take_along_axis(d[fix], order, axis=1)
            nbr[pending[done]] = cand[done, :k]
            dist[pending[done]] = d[done, :k]
            pending = pending[~done]
            extra *= 4
    return nbr, dist


def load_cloud_csv(path) -> PointCloud:
    """Read a point cloud from CSV with header x1,...,xn,u."""
    with open(path, newline="") as fh:
        line = fh.readline()
        if not line:
            raise InputError(f"{path}: empty file")
        header = [c.strip() for c in next(csv.reader([line]), [])]
        if len(header) < 2 or header[-1] != "u":
            raise InputError(
                f"{path}: expected header x1,...,xn,u, got {header!r}"
            )
        for d, name in enumerate(header[:-1]):
            if name != f"x{d + 1}":
                raise InputError(f"{path}: column {d + 1} named {name!r}, expected x{d + 1}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a body with no rows
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise InputError(f"{path}: {str(exc).split(';')[0]}") from None
    if data.size == 0:
        raise InputError(f"{path}: no data rows")
    if data.shape[1] != len(header):
        raise InputError(f"{path}: expected {len(header)} fields, got {data.shape[1]}")
    try:
        return PointCloud(points=data[:, :-1], values=data[:, -1])
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def save_cloud_csv(cloud: PointCloud, path) -> None:
    """Write a point cloud in the format load_cloud_csv reads."""
    from .cli.io import write_csv  # local import: io depends on nothing here

    header = [f"x{d + 1}" for d in range(cloud.dim)] + ["u"]
    write_csv(path, header, zip(*cloud.points.T.tolist(), cloud.values.tolist()))
