"""Row blocks of knn_all and estimate_derivatives: the same bits and flags
as one block, as one thread and as one sample, fit blocks sized by the
stencil footprint, and memory that grows with the block, not with the
cloud."""

import math
import tracemalloc

import numpy as np
import pytest
from helpers import record_forks, strand_points

from soblab import geometry, mls
from soblab.cli import main as cli_main
from soblab.geometry import PointCloud, build_index, knn_all, stencil_distances
from soblab.mls import MlsConfig, basis_size, estimate_derivatives
from soblab.training import mls_derivative_targets


def _grid(side):
    xs = np.linspace(0.0, 1.0, side)
    return np.column_stack([a.ravel() for a in np.meshgrid(xs, xs, indexing="ij")])


def _knn(points, k):
    """knn_all's stencils and their distances by stencil_distances."""
    nbr = knn_all(build_index(PointCloud(points=points, values=np.zeros(len(points)))), k)[0]
    return nbr, stencil_distances(points, nbr, slice(None))[1]


@pytest.fixture
def fit_blocks(monkeypatch):
    """The row count of each block of every estimate_derivatives fit made
    while the test runs, one list per fit."""
    made = []

    def record(count, size, threads, fn):
        made.append([min(size, count - start) for start in range(0, count, size)])
        geometry.run_blocks(count, size, threads, fn)

    monkeypatch.setattr(mls, "run_blocks", record)
    return made


# (dim, k, m, samples) -> rows per fit block: K * max(I, N) * rows stays
# within a 2-D k=20, m=2 block of 2,048 rows
FOOTPRINTS = {
    (2, 20, 2, 1): 2048,
    (2, 12, 2, 1): 2048,  # a smaller footprint gets no larger block
    (3, 40, 3, 1): 307,
    (2, 20, 2, 64): 192,
    (1, 20, 2, 64): 192,
    (3, 40, 3, 64): 96,
}


@pytest.mark.parametrize("footprint", FOOTPRINTS, ids=str)
def test_fit_blocks_are_sized_by_the_stencil_footprint(fit_blocks, footprint):
    dim, k, m, samples = footprint
    rows = FOOTPRINTS[footprint]
    pts = np.random.default_rng(49).random((rows + 5, dim))
    values = np.random.default_rng(48).normal(size=(samples, len(pts)))
    estimate_derivatives(PointCloud(points=pts, values=values[0] if samples == 1 else values),
                         MlsConfig(k=k, m=m))
    assert fit_blocks == [[rows, 5]]
    assert rows * k * max(basis_size(dim, m), samples) <= mls.FIT_ELEMENTS


def test_a_footprint_over_the_budget_fits_one_row_per_block(monkeypatch, fit_blocks):
    pts = np.random.default_rng(46).random((30, 2))
    cloud = PointCloud(points=pts, values=np.sin(pts[:, 0]) + pts[:, 1] ** 3)
    cfg = MlsConfig(k=12, m=2)  # K * I = 72
    want = estimate_derivatives(cloud, cfg)
    monkeypatch.setattr(mls, "FIT_ELEMENTS", 50)
    jet = estimate_derivatives(cloud, cfg)
    assert fit_blocks == [[30], [1] * 30]
    assert np.array_equal(jet.coefficients, want.coefficients)


def test_knn_blocks_keep_block_rows(monkeypatch):
    sizes, run_blocks = [], geometry.run_blocks

    def record(count, size, threads, fn):
        sizes.append(size)
        run_blocks(count, size, threads, fn)

    monkeypatch.setattr(geometry, "run_blocks", record)
    _knn(np.random.default_rng(47).random((400, 3)), 40)  # a large footprint
    assert sizes == [geometry.BLOCK_ROWS] == [2048]


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


# (points, cfg, samples, BLOCK_ROWS of the blocked run, fit blocks it makes)
CLOUDS = {
    # 61 rows divide none of these cloud sizes
    "uniform": (np.random.default_rng(50).random((700, 2)), MlsConfig(k=20, m=2), 1, 61, 12),
    "grid": (_grid(26), MlsConfig(k=20, m=2), 1, 61, 12),
    "graded": (np.random.default_rng(51).random((600, 2)) ** 4, MlsConfig(k=12, m=2), 1, 61, 10),
    # blocks sized by the footprint alone: 307 and 192 rows
    "cloud3d": (np.random.default_rng(57).random((1000, 3)), MlsConfig(k=40, m=3), 1, 2048, 4),
    "stack": (np.random.default_rng(58).random((700, 2)), MlsConfig(k=20, m=2), 64, 2048, 4),
    # flagged and unflagged stencils, in 3 samples
    "strand": (strand_points(700, seed=62), MlsConfig(k=20, m=2), 3, 61, 12),
}


@pytest.mark.parametrize("case", sorted(CLOUDS))
def test_blocked_jets_equal_the_whole_cloud_plan(monkeypatch, fit_blocks, case):
    points, cfg, samples, block_rows, blocks = CLOUDS[case]
    values = np.sin(3.0 * points[:, 0]) * np.cos(2.0 * points[:, 1]) + points[:, 0] ** 2
    if samples > 1:
        values = values + np.random.default_rng(59).normal(size=(samples, len(points)))
    cloud = PointCloud(points=points, values=values)
    budget = mls.FIT_ELEMENTS
    # the whole cloud in one block
    monkeypatch.setattr(geometry, "BLOCK_ROWS", len(points))
    footprint = cfg.k * max(samples, basis_size(cloud.dim, cfg.m))
    monkeypatch.setattr(mls, "FIT_ELEMENTS", len(points) * footprint)
    whole = estimate_derivatives(cloud, cfg)
    monkeypatch.setattr(geometry, "BLOCK_ROWS", block_rows)
    monkeypatch.setattr(mls, "FIT_ELEMENTS", budget)
    jet = estimate_derivatives(cloud, cfg)
    assert [len(b) for b in fit_blocks] == [1, blocks]
    assert np.array_equal(jet.coefficients, whole.coefficients)
    assert np.array_equal(jet.flagged, whole.flagged)
    assert jet.h == whole.h
    assert jet.support_radius == whole.support_radius
    # a stack's first and last sample alone
    for n in sorted({0, samples - 1}) if samples > 1 else ():
        single = estimate_derivatives(PointCloud(points=points, values=values[n]), cfg)
        assert np.array_equal(single.coefficients, jet.coefficients[n])
        assert np.array_equal(single.flagged, jet.flagged)


def _peak_bytes(fit, *args):
    tracemalloc.start()
    try:
        fit(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_grows_with_the_results_not_the_plan():
    # Both clouds span several full blocks, so the block temporaries are
    # the same; quadrupling J may add the (J, k) int32 stencils, each row's
    # nearest and k-th distance and the (J, I) coefficients, plus a slack of
    # 64 bytes per added row (the KD-tree's copy of the points and its
    # index) and 1 MiB.  A whole-cloud plan adds over 2 KB per row.
    cfg = MlsConfig(k=20, m=2)
    rng = np.random.default_rng(52)
    build_index(PointCloud(points=[[0.0]], values=[0.0]))  # scipy's import is not traced
    small, large = (2 * geometry.BLOCK_ROWS, 8 * geometry.BLOCK_ROWS)
    peaks = [
        _peak_bytes(estimate_derivatives, PointCloud(points=pts, values=np.sin(pts[:, 0])), cfg)
        for pts in (rng.random((small, 2)), rng.random((large, 2)))
    ]
    per_row = cfg.k * 4 + 2 * 8 + basis_size(2, cfg.m) * 8
    assert peaks[1] - peaks[0] <= (large - small) * (per_row + 64) + 2**20, peaks


@pytest.mark.parametrize("dim", [1, 2])
def test_target_memory_grows_with_the_results_not_the_plan(dim):
    # 64 samples fitted together: quadrupling J may add the (J, k) int32
    # stencils, each row's nearest and k-th distance, the (N, J, I) jets and
    # the (N, J, n) targets picked from them, plus the slack of the test
    # above.  A whole-cloud plan
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
    per_row = k * 4 + 2 * 8 + samples * (basis_size(dim, m) + dim) * 8
    assert peaks[1] - peaks[0] <= (large - small) * (per_row + 64) + 2**20, peaks


# -- blocks on threads: the same bits as one thread ------------------------------------

def _cloud_3d():
    pts = np.random.default_rng(54).random((4500, 3))
    return PointCloud(points=pts, values=np.sin(pts[:, 0]) * np.cos(pts[:, 1]) * pts[:, 2])


def _stack_2d():
    pts = np.random.default_rng(55).random((4500, 2))
    return PointCloud(points=pts, values=np.random.default_rng(56).normal(size=(12, len(pts))))


def _strand_2d():
    pts = strand_points(4500, seed=63)
    return PointCloud(points=pts, values=np.sin(pts[:, 0]) * np.cos(pts[:, 1]))


# (cloud, cfg, fit blocks); every cloud is three KNN blocks, the last one short
PARALLEL = {
    # tie-heavy
    "grid": (lambda: PointCloud(points=_grid(71), values=np.sin(_grid(71)).sum(axis=1)),
             MlsConfig(k=20, m=2), 3),
    # 409-row fit blocks, the last one a single row
    "cloud3d": (_cloud_3d, MlsConfig(k=30, m=3), 12),
    # 1,024-row fit blocks: 12 samples outweigh the 6 basis functions
    "stack": (_stack_2d, MlsConfig(k=20, m=2), 5),
    # flagged and unflagged stencils
    "strand": (_strand_2d, MlsConfig(k=20, m=2), 3),
}


@pytest.mark.parametrize("case", sorted(PARALLEL))
def test_threaded_blocks_equal_one_thread(fit_blocks, case):
    make, cfg, blocks = PARALLEL[case]
    cloud = make()
    assert math.ceil(cloud.size / geometry.BLOCK_ROWS) == 3
    index = build_index(cloud)
    want_knn = knn_all(index, cfg.k)
    want = estimate_derivatives(cloud, cfg)
    assert len(fit_blocks[0]) == blocks
    for threads in (2, 3):
        got_knn = knn_all(index, cfg.k, threads)
        assert all(np.array_equal(got, want) for got, want in zip(got_knn, want_knn))
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
            raise errors[rows.start // 5]

    with pytest.raises(ValueError) as info:
        geometry.run_blocks(15, 5, 3, fail)
    assert info.value is errors[1]


def _cloud_50k():
    pts = np.random.default_rng(61).random((50_000, 2))
    return PointCloud(points=pts, values=np.sin(pts[:, 0]) * np.cos(pts[:, 1]))


def test_jets_of_50k_points_hold_no_whole_cloud_distance_table():
    # 50k 2-D points at k=20, m=2 on one thread: the int32 stencils (3.8 MiB),
    # the (J, I) jets (2.3 MiB), each row's nearest and k-th distance and one
    # block's temporaries.  (J, k) intp stencils with their float64 distances
    # held 15.3 MiB and put the peak near 23 MiB.
    cloud = _cloud_50k()
    build_index(PointCloud(points=[[0.0]], values=[0.0]))  # scipy's import is not traced
    peak = _peak_bytes(estimate_derivatives, cloud, MlsConfig(k=20, m=2), 1)
    assert peak <= 15 * 2**20, peak


@pytest.mark.parametrize("workers", [1, 2])
def test_jets_csv_is_written_a_chunk_at_a_time(tmp_path, monkeypatch, workers):
    # run_derivs on a 50k-point JetField it is handed, its table written
    # as execute writes it: the CSV rows are built a chunk at a time, and a
    # worker's part is copied in a bounded read at a time.  Whole-cloud
    # Python float columns put the peak near 15 MiB.
    cloud = _cloud_50k()
    jet = estimate_derivatives(cloud, MlsConfig(k=20, m=2))
    monkeypatch.setattr(cli_main, "load_cloud_csv", lambda path: cloud)
    monkeypatch.setattr(mls, "estimate_derivatives", lambda *args: jet)
    config = {"input": "cloud.csv", "k": 20, "m": 2, "threads": 1}

    def write_outputs():
        for name, table in cli_main.run_derivs(config, 0):
            cli_main.write_csv(tmp_path / name, *table, workers=workers)

    forks = record_forks(monkeypatch)
    peak = _peak_bytes(write_outputs)
    assert peak <= 5 * 2**20, peak
    assert len(forks) == workers - 1
    assert (tmp_path / "jets.csv").read_text().count("\n") == cloud.size + 1


def test_each_thread_adds_about_one_small_block_on_a_large_footprint():
    # 20k 3-D points at k=40, m=3 (I=20): a 307-row fit block, and a 2,048-row
    # KNN block, each hold about 6 MiB of temporaries; 2,048-row fit blocks
    # held about 35 MiB each.  At most 4 threads, so no host starts more.
    pts = np.random.default_rng(60).random((20000, 3))
    cloud = PointCloud(points=pts, values=np.sin(pts[:, 0]) * np.cos(pts[:, 1]) * pts[:, 2])
    cfg = MlsConfig(k=40, m=3)
    build_index(PointCloud(points=[[0.0]], values=[0.0]))  # scipy's import is not traced
    one, four = (_peak_bytes(estimate_derivatives, cloud, cfg, threads) for threads in (1, 4))
    assert one <= 25 * 2**20, one
    assert four - one <= 3 * 6 * 2**20, (one, four)
