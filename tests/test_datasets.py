"""Synthetic operator datasets: closed forms, noise statistics, MLS targets."""

import tracemalloc

import numpy as np
import pytest

from soblab.errors import ConfigError
from soblab.training import (
    DatasetSizes,
    mls_derivative_targets,
    synth_dataset,
)
from soblab.training.datasets import (
    _build_smoothing2d,
    _draw_series,
    _draw_series_2d,
    _series_antiderivative,
    _series_poisson,
    _series_value,
    _series_value_2d,
)


def test_antiderivative_constant_input_closed_form():
    # v = 1 integrates to u(x) = x with derivative 1
    coeffs = (1.0, np.zeros(0), np.zeros(0), np.zeros(0))
    x = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(_series_antiderivative(coeffs, x), x, atol=1e-15)
    np.testing.assert_allclose(_series_value(coeffs, x), 1.0, atol=1e-15)


def test_antiderivative_series_differentiates_back():
    rng = np.random.default_rng(0)
    coeffs = _draw_series(rng)
    x = np.linspace(0.0, 1.0, 201)
    u = _series_antiderivative(coeffs, x)
    du_fd = np.gradient(u, x)
    np.testing.assert_allclose(du_fd[2:-2], _series_value(coeffs, x)[2:-2], atol=5e-3)
    assert _series_antiderivative(coeffs, np.zeros(1))[0] == 0.0


def test_poisson_solution_satisfies_equation_and_bcs():
    rng = np.random.default_rng(1)
    coeffs = _draw_series(rng)
    x = np.linspace(0.0, 1.0, 401)
    u, du = _series_poisson(coeffs, x)
    assert abs(u[0]) < 1e-14 and abs(u[-1]) < 1e-13
    # -u'' = v via second differences
    h = x[1] - x[0]
    upp = (u[2:] - 2 * u[1:-1] + u[:-2]) / h**2
    np.testing.assert_allclose(-upp, _series_value(coeffs, x)[1:-1], atol=2e-3)
    # du is the derivative of u
    np.testing.assert_allclose(np.gradient(u, x)[2:-2], du[2:-2], atol=5e-3)


def test_dataset_shapes_and_split():
    sizes = DatasetSizes(train=10, val=4, test=5, sensors=16, queries=20)
    ds = synth_dataset("antiderivative1d", sizes=sizes, seed=0, derivative_source="exact")
    assert ds.train_inputs.shape == (10, 16)
    assert ds.train_targets.shape == (10, 20)
    assert ds.train_d_targets.shape == (10, 20, 1)
    assert ds.val_inputs.shape == (4, 16)
    assert ds.test_targets.shape == (5, 20)
    assert ds.derivatives_reliable


@pytest.mark.parametrize("requested, side", [(1, 2), (32, 6), (50, 7)])
def test_smoothing2d_rounds_the_sensors_to_a_square_grid(requested, side):
    # max(2, round(sqrt(sensors))) sensors a side: 1 -> 4, 32 -> 36, 50 -> 49
    sizes = DatasetSizes(train=2, val=1, test=1, sensors=requested, queries=6)
    ds = synth_dataset("smoothing2d", sizes=sizes, seed=0, derivative_source="none")
    axis = np.linspace(0.0, 1.0, side)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    assert np.array_equal(ds.sensor_points, grid)
    assert ds.train_inputs.shape == (2, side * side)


def test_exact_derivative_targets_match_value_series():
    ds = synth_dataset(
        "antiderivative1d",
        sizes=DatasetSizes(train=6, val=2, test=2, sensors=64, queries=24),
        seed=3,
        derivative_source="exact",
    )
    # for the antiderivative task du/dx equals the input function itself;
    # spot check via interpolation of sensor samples
    q = ds.query_points[:, 0]
    for k in range(6):
        v_interp = np.interp(q, ds.sensor_points[:, 0], ds.train_inputs[k])
        np.testing.assert_allclose(ds.train_d_targets[k, :, 0], v_interp, atol=0.02)


def test_mls_targets_close_to_exact_on_clean_data():
    sizes = DatasetSizes(train=8, val=2, test=2, sensors=16, queries=96)
    exact = synth_dataset("antiderivative1d", sizes=sizes, seed=5, derivative_source="exact")
    mls = synth_dataset("antiderivative1d", sizes=sizes, seed=5, derivative_source="mls")
    err = np.abs(mls.train_d_targets[:, 5:-5, 0] - exact.train_d_targets[:, 5:-5, 0])
    scale = np.abs(exact.train_d_targets).max()
    assert np.median(err) < 0.05 * scale
    assert err.max() < 0.3 * scale


def test_noise_standard_deviation_matches_request():
    sizes = DatasetSizes(train=100, val=2, test=2, sensors=8, queries=100)
    clean = synth_dataset("antiderivative1d", sizes=sizes, seed=7, derivative_source="none")
    noisy = synth_dataset(
        "antiderivative1d", sizes=sizes, noise=0.03, seed=7, derivative_source="none"
    )
    delta = noisy.train_targets - clean.train_targets
    spread = clean.train_targets.max() - clean.train_targets.min()
    # 10^4 draws: sample std within 5% of the requested value
    assert delta.size == 10_000
    assert np.std(delta) == pytest.approx(0.03 * spread, rel=0.05)
    # validation and test targets stay clean
    np.testing.assert_array_equal(noisy.val_targets, clean.val_targets)
    np.testing.assert_array_equal(noisy.test_targets, clean.test_targets)


def test_discontinuous_target_has_jump_and_flag():
    ds = synth_dataset(
        "discontinuous_inverse",
        sizes=DatasetSizes(train=5, val=2, test=2, sensors=12, queries=64),
        seed=9,
    )
    assert not ds.derivatives_reliable
    jumps = np.abs(np.diff(ds.train_targets, axis=1)).max(axis=1)
    np.testing.assert_allclose(jumps, 1.0, atol=1e-12)


def test_smoothing2d_dataset_dimensions():
    ds = synth_dataset(
        "smoothing2d",
        sizes=DatasetSizes(train=4, val=2, test=2, sensors=36, queries=10),
        seed=11,
        derivative_source="exact",
    )
    assert ds.query_dim == 2
    assert ds.sensor_points.shape[1] == 2
    assert ds.train_d_targets.shape == (4, 10, 2)
    # smoothing preserves the input scale roughly; derivative targets finite
    assert np.isfinite(ds.train_d_targets).all()


def test_smoothing2d_derivative_targets_match_finite_differences():
    sizes = DatasetSizes(train=2, val=1, test=1, sensors=25, queries=6)
    _, queries, _, targets, d_targets = _build_smoothing2d(sizes, np.random.default_rng(13))
    ds = synth_dataset("smoothing2d", sizes=sizes, seed=13, derivative_source="exact")
    assert np.array_equal(ds.train_d_targets, d_targets[:2])
    # the same draws: the queries, then one cosine series per sample
    rng = np.random.default_rng(13)
    assert np.array_equal(rng.uniform(0.05, 0.95, size=(6, 2)), queries)
    coeffs = [_draw_series_2d(rng) for _ in range(4)]
    axis = np.linspace(0.0, 1.0, 64)
    quad = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    v = np.stack([_series_value_2d(c, quad) for c in coeffs])  # (samples, quadrature)
    s2 = 0.12**2

    def weights(x):  # the smoothed field's quadrature weights at points x, (Q, P)
        sq = ((x[:, None, :] - quad[None]) ** 2).sum(axis=2)
        return np.exp(-sq / (2.0 * s2)) / (2.0 * np.pi * s2) * (axis[1] - axis[0]) ** 2

    # the field rebuilt at the queries is the targets
    np.testing.assert_allclose(v @ weights(queries).T, targets, rtol=0.0, atol=1e-12)
    h = 1e-4
    for d in range(2):
        step = h * np.eye(2)[d]
        central = (v @ weights(queries + step).T - v @ weights(queries - step).T) / (2.0 * h)
        # O(h^2): a central difference is within h^2/6 sup|u'''| of u' on [x - h, x + h].
        # The Gaussian's third derivative along d is (3t/s2^2 - t^3/s2^3) times itself;
        # its bound at x, doubled for the interval, plus 1e-9 for rounding
        t = queries[:, None, d] - quad[None, :, d]
        third = np.abs(v) @ (weights(queries) * np.abs(3.0 * t / s2**2 - t**3 / s2**3)).T
        assert np.all(np.abs(central - d_targets[..., d]) <= h**2 / 3.0 * third + 1e-9)


def _per_sample_smoothing2d(sizes, rng, kernel_width=0.12, grid=64):
    """_build_smoothing2d with one matrix-vector product per sample and table,
    as it was built before; also returns the three kernels and the
    quadrature values (samples, quadrature points) for the error bound."""
    side = max(2, int(round(np.sqrt(sizes.sensors))))
    axis = np.linspace(0.0, 1.0, side)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    sensors = np.column_stack([gx.ravel(), gy.ravel()])
    queries = rng.uniform(0.05, 0.95, size=(sizes.queries, 2))
    qaxis = np.linspace(0.0, 1.0, grid)
    qx, qy = np.meshgrid(qaxis, qaxis, indexing="ij")
    quad_pts = np.column_stack([qx.ravel(), qy.ravel()])
    cell = (qaxis[1] - qaxis[0]) ** 2
    diff = queries[:, None, :] - quad_pts[None, :, :]
    sq = (diff**2).sum(axis=2)
    gauss = np.exp(-sq / (2.0 * kernel_width**2)) / (2.0 * np.pi * kernel_width**2)
    kernel = gauss * cell
    kernel_dx = kernel * (-diff[:, :, 0] / kernel_width**2)
    kernel_dy = kernel * (-diff[:, :, 1] / kernel_width**2)
    total = sizes.train + sizes.val + sizes.test
    inputs = np.empty((total, sensors.shape[0]))
    targets = np.empty((total, sizes.queries))
    d_targets = np.empty((total, sizes.queries, 2))
    v_quads = np.empty((total, quad_pts.shape[0]))
    for k in range(total):
        coeffs = _draw_series_2d(rng)
        inputs[k] = _series_value_2d(coeffs, sensors)
        v_quad = v_quads[k] = _series_value_2d(coeffs, quad_pts)
        targets[k] = kernel @ v_quad
        d_targets[k, :, 0] = kernel_dx @ v_quad
        d_targets[k, :, 1] = kernel_dy @ v_quad
    return (sensors, queries, inputs, targets, d_targets), (kernel, kernel_dx, kernel_dy), v_quads


@pytest.mark.parametrize("seed", [0, 1])
def test_smoothing2d_tables_match_per_sample_products(seed):
    sizes = DatasetSizes(train=64, val=8, test=16, sensors=32, queries=96)
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    new = _build_smoothing2d(sizes, rng_new)
    old, kernels, v_quad = _per_sample_smoothing2d(sizes, rng_old)
    # same draws in the same order: the points and the inputs are bit-equal
    assert rng_new.bit_generator.state == rng_old.bit_generator.state
    for got, want in zip(new[:3], old[:3]):
        assert np.array_equal(got, want)
    # each table entry is an n-term dot product; either summation order is
    # within gamma_n * (|K| @ |v|) of the exact sum, so they are within twice that
    n = v_quad.shape[1]
    u = 2.0**-53
    gamma = n * u / (1.0 - n * u)
    pairs = [(new[3], old[3]), (new[4][..., 0], old[4][..., 0]), (new[4][..., 1], old[4][..., 1])]
    for (got, want), kernel in zip(pairs, kernels):
        bound = 2.0 * gamma * (np.abs(v_quad) @ np.abs(kernel).T)
        assert np.all(np.abs(got - want) <= bound)


def _whole_table_smoothing2d(sizes, rng, kernel_width=0.12, grid=64):
    """_build_smoothing2d as it was before its tables were filled in row
    blocks: a (queries, quadrature, 2) offset table and five whole
    (queries, quadrature) tables."""
    side = max(2, int(round(np.sqrt(sizes.sensors))))
    axis = np.linspace(0.0, 1.0, side)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    sensors = np.column_stack([gx.ravel(), gy.ravel()])
    queries = rng.uniform(0.05, 0.95, size=(sizes.queries, 2))

    qaxis = np.linspace(0.0, 1.0, grid)
    qx, qy = np.meshgrid(qaxis, qaxis, indexing="ij")
    quad_pts = np.column_stack([qx.ravel(), qy.ravel()])
    cell = (qaxis[1] - qaxis[0]) ** 2

    diff = queries[:, None, :] - quad_pts[None, :, :]
    sq = (diff**2).sum(axis=2)
    gauss = np.exp(-sq / (2.0 * kernel_width**2)) / (2.0 * np.pi * kernel_width**2)
    kernel = gauss * cell
    kernel_dx = kernel * (-diff[:, :, 0] / kernel_width**2)
    kernel_dy = kernel * (-diff[:, :, 1] / kernel_width**2)
    del diff, sq, gauss

    total = sizes.train + sizes.val + sizes.test
    inputs = np.empty((total, sensors.shape[0]))
    v_quad = np.empty((total, quad_pts.shape[0]))
    for k in range(total):
        coeffs = _draw_series_2d(rng)
        inputs[k] = _series_value_2d(coeffs, sensors)
        v_quad[k] = _series_value_2d(coeffs, quad_pts)
    targets = v_quad @ kernel.T
    d_targets = np.stack([v_quad @ kernel_dx.T, v_quad @ kernel_dy.T], axis=-1)
    return sensors, queries, inputs, targets, d_targets


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("queries", [1, 7, 8, 9, 96, 1000])
def test_smoothing2d_row_blocks_match_whole_tables(queries, seed):
    # query counts below, at and across the 8-row blocks of the 64 x 64 grid
    sizes = DatasetSizes(train=6, val=2, test=3, sensors=20, queries=queries)
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    new = _build_smoothing2d(sizes, rng_new)
    old = _whole_table_smoothing2d(sizes, rng_old)
    assert rng_new.bit_generator.state == rng_old.bit_generator.state
    for got, want in zip(new, old):
        assert got.shape == want.shape and np.array_equal(got, want)


def test_smoothing2d_synthesis_peak_memory():
    # at the train benchmark's sizes the whole tables peaked at 21.1 MiB: a
    # 6 MiB offset table and five 3 MiB tables. The row blocks hold the
    # samples' quadrature values, the kernel and one derivative table at a time
    sizes = DatasetSizes(train=64, val=8, test=16, sensors=32, queries=96)
    tracemalloc.start()
    try:
        _build_smoothing2d(sizes, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_generator_validation():
    with pytest.raises(ConfigError):
        synth_dataset("unknown_task")
    with pytest.raises(ConfigError):
        synth_dataset("poisson1d", derivative_source="sideways")
    with pytest.raises(ConfigError):
        synth_dataset("poisson1d", sizes=DatasetSizes(train=0))


@pytest.mark.parametrize("noise", [-0.5, float("nan"), float("inf")])
def test_noise_must_be_finite_and_nonnegative(noise):
    with pytest.raises(ConfigError):
        synth_dataset("poisson1d", noise=noise)


def test_dataset_determinism():
    a = synth_dataset("poisson1d", seed=21, noise=0.02)
    b = synth_dataset("poisson1d", seed=21, noise=0.02)
    np.testing.assert_array_equal(a.train_targets, b.train_targets)
    np.testing.assert_array_equal(a.train_d_targets, b.train_d_targets)


def test_mls_derivative_targets_reproduce_linear_field():
    rng = np.random.default_rng(23)
    pts = np.sort(rng.uniform(0, 1, 30))[:, None]
    vals = (2.0 * pts[:, 0] + 1.0)[None, :]
    d = mls_derivative_targets(pts, vals, k=8, m=2)
    np.testing.assert_allclose(d[0, :, 0], 2.0, atol=1e-9)


@pytest.mark.parametrize("k, message", [(20, "3 query points are too few"), (4, "K >= I required: K=3")])
def test_mls_targets_on_fewer_points_than_the_basis_name_the_cause(k, message):
    # 3 points in 2-D against the 6-function order-2 basis: K is capped at 3,
    # and the refusal names the point count unless the caller's K is below I too
    pts = np.random.default_rng(0).random((3, 2))
    with pytest.raises(ConfigError, match=message):
        mls_derivative_targets(pts, pts[:, :1].T, k=k, m=2)
