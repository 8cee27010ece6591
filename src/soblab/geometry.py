"""Point clouds and exact K-nearest-neighbor queries.

Clouds are irregular sets of points with one scalar sample per point.
Neighbor queries are exact Euclidean KNN backed by a KD-tree, with ties
broken by ascending point index so that stencils are deterministic.
knn_all queries blocks of BLOCK_ROWS points in the tree's leaf order, so
each is spatially compact: a KD-tree query for K + extra candidates, the
extra that finished most rows of the last block, and a batched re-query
with more candidates for only the rows whose K-th neighbor ties the last
candidate.  Rows already in (distance, index) order are read in place;
only the finished rows that are not get a sort.  It keeps int32 (J, K)
stencils but no (J, K) distances: stencil_distances, the formula it orders
by, recomputes any block's distances bit for bit.
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

from . import parallel
from .errors import ConfigError, InputError

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

# Relative slack when collecting tie candidates at the K-th distance.
_TIE_SLACK = 1.0 + 1e-12
# Rows per knn_all block, and at most per fit block; sets memory, not bits.
BLOCK_ROWS = 2048


@dataclass(frozen=True)
class PointCloud:
    """Irregular mesh points with scalar samples u(x_j).

    points has shape (J, n); values has shape (J,), or (N, J) for N
    samples on the same points.  Duplicate points are rejected at
    construction: every stencil must be well posed.
    """

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(np.atleast_2d(np.asarray(self.points, dtype=float)))
        vals = np.asarray(self.values, dtype=float)
        if pts.size == 0:
            raise InputError("point cloud is empty")
        if pts.ndim != 2:
            raise InputError(f"points must be a (J, n) array, got shape {pts.shape}")
        if vals.ndim not in (1, 2):
            raise InputError(f"values must be a (J,) or (N, J) array, got shape {vals.shape}")
        if pts.shape[0] != vals.shape[-1]:
            raise InputError(f"{pts.shape[0]} points but {vals.shape[-1]} values")
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

    @property
    def order(self) -> np.ndarray:
        """The point indices in the tree's leaf order: its runs are spatially compact."""
        return self._tree.indices


def build_index(cloud: PointCloud) -> SpatialIndex:
    """Build an exact Euclidean KNN index over all cloud points."""
    from scipy.spatial import cKDTree

    return SpatialIndex(cloud=cloud, _tree=cKDTree(cloud.points))


def run_blocks(count: int, size: int, threads: int, fn) -> None:
    """Call fn(rows) for each slice of `size` rows (the last may be
    shorter) covering range(count), on up to parallel.worker_count(threads)
    threads, so no more than the usable CPUs; each call writes only its own
    rows.  One thread or one block runs inline and starts no pool.  The
    first exception, in block order, propagates."""
    blocks = [slice(start, min(start + size, count)) for start in range(0, count, size)]
    workers = min(parallel.worker_count(threads), len(blocks))
    if workers <= 1:
        for rows in blocks:
            fn(rows)
        return
    from concurrent.futures import ThreadPoolExecutor  # here: not paid by every cold start

    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(fn, blocks))


def stencil_distances(points, nbr, rows):
    """Offsets points[nbr] - points[rows] (R, K, n) of stencils nbr (R, K)
    and their lengths (R, K) by the formula a brute-force scan uses
    (np.linalg.norm's: the square root of the summed squared offsets)."""
    diff = points[nbr] - points[rows, None, :]
    return diff, np.sqrt(np.add.reduce(diff * diff, axis=-1))


def knn_all(index: SpatialIndex, k: int, threads: int = 1):
    """KNN stencils for every cloud point, in blocks of BLOCK_ROWS rows of
    index.order run on up to `threads` threads.

    Returns (indices, near, far).  indices (J, k), int32 below 2**31
    points: row j holds the k nearest cloud points to point j, itself
    first, sorted by (distance, index) with stencil_distances' distances,
    so exact ties break by ascending index.  near and far (J,) are each
    row's distance to its nearest other point (NaN for k = 1) and its k-th
    distance.  The first k of k + extra tree candidates are exact unless
    the last candidate's tree distance ties the k-th distance: a tie may
    continue past the candidates, so those rows of a block alone are
    queried again, together, with 4x more extra candidates each round
    (k + 1, k + 4, k + 16, ...), starting at the extra that finished most
    rows of the last finished block; no row's result depends on it.  A row
    whose recomputed distances strictly increase is already in (distance,
    index) order and is read in place; the k-th distance of any other row
    comes from a partition, and only those of them that are done in a
    round are sorted.
    """
    points = index.cloud.points
    j = points.shape[0]
    if k < 1 or k > j:
        raise ConfigError(f"K={k} outside [1, {j}]")
    nbr = np.empty((j, k), dtype=np.int32 if j < 2**31 else np.intp)
    near, far = np.empty(j), np.empty(j)
    first = 1  # a block's first extra: threads may race on it, which moves only query counts

    def fill(rows):
        nonlocal first
        pending, extra = index.order[rows], first
        best = (0, extra)  # the rows finished by a round, and its extra
        while pending.size:
            kq = min(k + extra, j)
            d_tree, cand = index._tree.query(points[pending], k=kq)
            d_tree = d_tree.reshape(-1, kq)
            cand = cand.reshape(-1, kq)
            d = stencil_distances(points, cand, pending)[1]
            ordered = (d[:, 1:] > d[:, :-1]).all(axis=1)
            kth = d[:, k - 1].copy()
            kth[~ordered] = np.partition(d[~ordered], k - 1, axis=1)[:, k - 1]
            # Every point outside the candidates is at least the last
            # candidate's tree distance away.
            done = d_tree[:, -1] > kth * _TIE_SLACK if kq < j else np.ones(len(d), bool)
            fix = np.flatnonzero(done & ~ordered)
            order = np.lexsort((cand[fix], d[fix]), axis=1)
            cand[fix] = np.take_along_axis(cand[fix], order, axis=1)
            d[fix] = np.take_along_axis(d[fix], order, axis=1)
            nbr[pending[done]] = cand[done, :k]
            near[pending[done]] = d[done, 1] if k > 1 else np.nan
            far[pending[done]] = d[done, k - 1]
            pending = pending[~done]
            best = max(best, (np.count_nonzero(done), extra))
            extra *= 4
        first = best[1]

    run_blocks(j, BLOCK_ROWS, threads, fill)
    return nbr, near, far


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

