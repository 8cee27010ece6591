"""MLS fitting: basis enumeration, weights, exactness, rates."""

import dataclasses

import numpy as np
import pytest

from soblab import mls
from soblab.errors import ConfigError
from soblab.geometry import PointCloud, build_index
from soblab.mls import (
    MlsConfig,
    _basis_matrix,
    _plan_rows,
    _stencils,
    basis_size,
    convergence_study,
    derivative_field,
    enumerate_multi_indices,
    estimate_derivatives,
    multi_index_factorial,
    polynomial_function,
    sin_1d,
    sin_cos_2d,
    weight,
)


# -- multi-indices -----------------------------------------------------------

def test_enumerate_n2_m2_matches_quadratic_basis():
    got = enumerate_multi_indices(2, 2)
    assert got == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_enumerate_n1_m0():
    assert enumerate_multi_indices(1, 0) == [(0,)]


def test_enumerate_n3_m4_count():
    # direct formula: (4+3)! / (4! 3!) = 35
    got = enumerate_multi_indices(3, 4)
    assert len(got) == 35 == basis_size(3, 4)
    assert len(set(got)) == 35


def test_factorial():
    assert multi_index_factorial((2, 0)) == 2
    assert multi_index_factorial((3, 2, 1)) == 12


# -- weight function ----------------------------------------------------------

def test_weight_endpoints_and_midpoint():
    assert weight(0.0, 2.0) == 1.0
    assert weight(2.0, 2.0) == 0.0
    # (1 - 1/2)^4 (4/2 + 1) = 3/16
    assert weight(1.0, 2.0) == pytest.approx(0.1875, abs=0)


def test_weight_clamps_beyond_support():
    assert weight(3.0, 2.0) == 0.0


def test_weight_rejects_bad_support():
    with pytest.raises(ConfigError, match="support radius must be positive"):
        weight(0.5, 0.0)


def test_weight_strictly_decreasing():
    t = np.linspace(0.0, 1.0, 1000)
    w = weight(t, 1.0)
    assert np.all(np.diff(w) < 0)
    assert w[0] == 1.0 and w[-1] == 0.0


# -- local fits ---------------------------------------------------------------

def random_cloud(rng, count, dim, fn):
    pts = rng.random((count, dim))
    return PointCloud(points=pts, values=fn(pts))


def test_fit_constant_function():
    rng = np.random.default_rng(0)
    cloud = random_cloud(rng, 50, 2, lambda x: np.full(x.shape[0], 3.0))
    cfg = MlsConfig(k=12, m=2)
    c = estimate_derivatives(cloud, cfg).coefficients[7]
    assert c[0] == pytest.approx(3.0, abs=1e-10)
    np.testing.assert_allclose(c[1:], 0.0, atol=1e-10)


def test_fit_linear_reproduced_everywhere():
    rng = np.random.default_rng(1)
    cloud = random_cloud(rng, 80, 2, lambda x: x[:, 0])
    cfg = MlsConfig(k=14, m=2)
    jet = estimate_derivatives(cloud, cfg)
    idx = jet.index_of((1, 0))
    np.testing.assert_allclose(jet.coefficients[:, idx], 1.0, atol=1e-9)
    for other in [(0, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
        if other == (0, 0):
            continue
        np.testing.assert_allclose(jet.coefficients[:, jet.index_of(other)], 0.0, atol=1e-9)


def test_fit_square_coefficient_and_taylor_convention():
    rng = np.random.default_rng(2)
    cloud = random_cloud(rng, 80, 2, lambda x: x[:, 0] ** 2)
    jet = estimate_derivatives(cloud, MlsConfig(k=14, m=2))
    # c_(2,0) is the Taylor coefficient: 1; the derivative is 2! * c = 2
    np.testing.assert_allclose(jet.coefficients[:, jet.index_of((2, 0))], 1.0, atol=1e-8)
    assert derivative_field(jet, (2, 0))[11] == pytest.approx(2.0, abs=1e-8)


def test_derivative_at_order_guard():
    rng = np.random.default_rng(3)
    cloud = random_cloud(rng, 40, 2, lambda x: x[:, 0])
    jet = estimate_derivatives(cloud, MlsConfig(k=10, m=1))
    with pytest.raises(ConfigError, match="exceeds fitted order m=1"):
        derivative_field(jet, (2, 0))
    with pytest.raises(ConfigError, match=r"multi-index \(1,\) not in the order-1 jet"):
        derivative_field(jet, (1,))


def test_zero_order_matches_samples():
    rng = np.random.default_rng(4)
    fn = sin_cos_2d()
    cloud = random_cloud(rng, 200, 2, fn.value)
    jet = estimate_derivatives(cloud, MlsConfig(k=20, m=2))
    fitted = derivative_field(jet, (0, 0))
    np.testing.assert_allclose(fitted, cloud.values, atol=2e-3)


def test_uniform_grid_plane():
    xs = np.linspace(0.0, 1.0, 5)
    pts = np.array([[a, b] for a in xs for b in xs])
    cloud = PointCloud(points=pts, values=pts[:, 0] + pts[:, 1])
    jet = estimate_derivatives(cloud, MlsConfig(k=6, m=1))
    np.testing.assert_allclose(derivative_field(jet, (1, 0)), 1.0, atol=1e-9)
    np.testing.assert_allclose(derivative_field(jet, (0, 1)), 1.0, atol=1e-9)


def test_single_point_constant_jet():
    cloud = PointCloud(points=[[0.3]], values=[2.5])
    jet = estimate_derivatives(cloud, MlsConfig(k=1, m=0))
    assert jet.coefficients.shape == (1, 1)
    assert jet.coefficients[0, 0] == pytest.approx(2.5, abs=1e-12)


def test_k_below_basis_size_rejected():
    rng = np.random.default_rng(5)
    cloud = random_cloud(rng, 30, 2, lambda x: x[:, 0])
    with pytest.raises(ConfigError):
        estimate_derivatives(cloud, MlsConfig(k=3, m=2))


@pytest.mark.parametrize(
    "dim, m, size", [(1, 98, 99), (1, 99, 100), (2, 12, 91), (2, 13, 105), (3, 6, 84), (3, 7, 120)]
)
def test_a_basis_the_ridge_cannot_bound_is_rejected(dim, m, size):
    # cond(E + rho I) <= 1 + I/ridge stays within 1e12 only up to I = 99
    cfg = MlsConfig(k=size, m=m)
    if size < 100:
        cfg.validate(dim)
    else:
        with pytest.raises(ConfigError, match=rf"^--m {m} is too high in {dim}-D: .* I={size} .* I=99$"):
            cfg.validate(dim)


def test_polynomial_exactness_random_stencils():
    # any polynomial of degree <= m is reproduced exactly at every point
    rng = np.random.default_rng(6)
    for n, m in [(1, 3), (2, 2), (3, 2)]:
        indices = enumerate_multi_indices(n, m)
        coeff = {alpha: float(rng.uniform(-1.0, 1.0)) for alpha in indices}
        fn = polynomial_function(coeff, n)
        cloud = random_cloud(rng, 150, n, fn.value)
        jet = estimate_derivatives(cloud, MlsConfig(k=3 * len(indices), m=m))
        for alpha in indices:
            exact = fn.derivative(alpha, cloud.points)
            got = derivative_field(jet, alpha)
            np.testing.assert_allclose(got, exact, atol=1e-8)


def test_translation_equivariance():
    rng = np.random.default_rng(7)
    fn = sin_cos_2d()
    pts = rng.random((120, 2))
    shift = np.array([13.7, -4.2])
    cloud_a = PointCloud(points=pts, values=fn.value(pts))
    cloud_b = PointCloud(points=pts + shift, values=fn.value(pts))
    cfg = MlsConfig(k=15, m=2)
    jet_a = estimate_derivatives(cloud_a, cfg)
    jet_b = estimate_derivatives(cloud_b, cfg)
    np.testing.assert_allclose(jet_a.coefficients, jet_b.coefficients, atol=1e-9)


def test_normal_matrix_symmetric_psd():
    # E = B^T W B per stencil: the fits' weighted basis W B, transposed,
    # times the basis B of its stencils in stencil-scaled coordinates
    rng = np.random.default_rng(8)
    cfg = MlsConfig(k=12, m=2)
    for _ in range(20):
        cloud = PointCloud(points=rng.normal(size=(12, 2)), values=np.zeros(12))
        stencils = _stencils(build_index(cloud), cfg)
        wb = _plan_rows(cloud.points, stencils, slice(None), cfg)[0]
        diffs = cloud.points[stencils[0]] - cloud.points[:, None, :]
        scale = np.linalg.norm(diffs, axis=2).max(axis=1)
        b = _basis_matrix(diffs / scale[:, None, None], enumerate_multi_indices(2, cfg.m))
        for e in wb @ b:
            np.testing.assert_allclose(e, e.T, atol=1e-12)
            assert np.linalg.eigvalsh(e).min() >= -1e-12


def test_degenerate_collinear_stencil_ridge_rescue():
    # collinear 2-D points cannot pin the cross-direction quadratics: the
    # ridge decides those, so every stencil is flagged, and the jet along
    # the line stays exact
    xs = np.linspace(0.0, 1.0, 30)
    pts = np.column_stack([xs, np.zeros_like(xs)])
    cloud = PointCloud(points=pts, values=xs**2)
    jet = estimate_derivatives(cloud, MlsConfig(k=8, m=2))
    assert jet.flagged.all()
    np.testing.assert_allclose(derivative_field(jet, (2, 0)), 2.0, atol=1e-6)


def _per_point_fit(points, values, j, cfg, d_support):
    """The stencil fit at point j alone, as a solve with two refinement
    steps: brute-force neighbors, then one normal system."""
    d = np.linalg.norm(points - points[j], axis=1)
    nbr = np.lexsort((np.arange(len(points)), d))[: cfg.k]
    s = d[nbr] / d_support
    w = (1.0 - s) ** 4 * (4.0 * s + 1.0)
    scale = d[nbr].max()
    indices = enumerate_multi_indices(points.shape[1], cfg.m)
    diffs = (points[nbr] - points[j]) / scale
    b = np.array([[np.prod(x ** np.array(a)) for a in indices] for x in diffs])
    e = (b.T * w) @ b
    rhs = (b.T * w) @ values[nbr]
    e_reg = e + mls._RIDGE * np.trace(e) / len(indices) * np.eye(len(indices))
    sol = np.linalg.solve(e_reg, rhs)
    for _ in range(2):
        sol = sol + np.linalg.solve(e_reg, rhs - e @ sol)
    return sol / scale ** np.array([sum(a) for a in indices], dtype=float)


def test_plan_rows_match_per_point_fit():
    rng = np.random.default_rng(31)
    fn = sin_cos_2d()
    pts = rng.random((120, 2))
    cloud = PointCloud(points=pts, values=fn.value(pts))
    cfg = MlsConfig(k=14, m=2)
    jet = estimate_derivatives(cloud, cfg)
    assert not jet.flagged.any()
    for j in (0, 37, 119):
        single = _per_point_fit(pts, cloud.values, j, cfg, jet.support_radius)
        np.testing.assert_allclose(single, jet.coefficients[j], rtol=1e-12, atol=1e-15)


def test_first_derivative_approaches_analytic_1d():
    fn = sin_1d()
    errs = []
    for count in (200, 800):
        rng = np.random.default_rng(30)
        pts = rng.uniform(0.0, 1.0, (count, 1))
        cloud = PointCloud(points=pts, values=fn.value(pts))
        jet = estimate_derivatives(cloud, MlsConfig(k=9, m=2))
        errs.append(np.abs(derivative_field(jet, (1,)) - np.cos(pts[:, 0])).max())
    assert errs[1] < errs[0]
    assert errs[1] < 1e-3


def test_spacing_statistic_excludes_self():
    xs = np.linspace(0.0, 1.0, 11)
    cloud = PointCloud(points=xs[:, None], values=np.zeros(11))
    jet = estimate_derivatives(cloud, MlsConfig(k=3, m=1))
    assert jet.h == pytest.approx(0.1)


@pytest.mark.parametrize("seed", range(5))
def test_spacing_statistic_halves_per_fourfold_points_in_2d(seed):
    # a fill-distance proxy scales like J^(-1/2) on uniform 2-D clouds
    rng = np.random.default_rng(seed)
    hs = [
        estimate_derivatives(PointCloud(points=rng.random((count, 2)), values=np.zeros(count)), MlsConfig()).h
        for count in (500, 2000, 8000)
    ]
    ratios = np.array(hs[:-1]) / np.array(hs[1:])
    assert np.all((ratios > 1.4) & (ratios < 3.0)), ratios


@pytest.mark.parametrize("seed", range(5))
def test_spacing_statistic_falls_with_resolution_in_1d(seed):
    study = convergence_study(
        sin_1d(), [100, 200, 400], MlsConfig(k=9, m=2), seed=seed, orders=[0]
    )
    _, hs, _ = study.mse_series(0)
    assert np.all(np.diff(hs) < 0), hs


# -- convergence study ---------------------------------------------------------

def test_study_polynomial_exact_at_all_resolutions():
    fn = polynomial_function({(0, 0): 0.5, (1, 0): 1.0, (0, 1): -2.0, (1, 1): 0.75}, 2)
    study = convergence_study(
        fn, [200, 400, 800], MlsConfig(k=18, m=2), seed=0
    )
    assert np.all(study.mse < 1e-10), study.mse


def test_study_sincos_error_decreases_with_resolution():
    study = convergence_study(
        sin_cos_2d(), [500, 2000, 8000], MlsConfig(k=20, m=2), seed=0,
        orders=[1],
    )
    _, hs, errs = study.mse_series(1)
    assert np.all(np.diff(errs) < 0)
    assert study.slopes[1] > 0


def test_study_deterministic():
    fn = sin_1d()
    a = convergence_study(fn, [100, 200, 400], MlsConfig(k=9, m=2), seed=3)
    b = convergence_study(fn, [100, 200, 400], MlsConfig(k=9, m=2), seed=3)
    # every column bit-identical, including the NaN slope placeholders on first rows
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field.name
    assert np.isnan(a.slope_running[a.resolution == 100]).all()
    assert a.slopes == b.slopes


def test_study_validates_resolutions():
    fn = sin_1d()
    with pytest.raises(ConfigError):
        convergence_study(fn, [100, 200], MlsConfig(k=9, m=2))
    with pytest.raises(ConfigError):
        convergence_study(fn, [100, 200, 150], MlsConfig(k=9, m=2))


def test_error_monotone_under_density_quadrupling():
    fn = sin_cos_2d()
    cfg = MlsConfig(k=20, m=2)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        errs = []
        for count in (500, 2000):
            pts = rng.random((count, 2))
            cloud = PointCloud(points=pts, values=fn.value(pts))
            jet = estimate_derivatives(cloud, cfg)
            err = 0.0
            for alpha in [(1, 0), (0, 1)]:
                err += np.mean((derivative_field(jet, alpha) - fn.derivative(alpha, pts)) ** 2)
            errs.append(err)
        assert errs[1] <= errs[0]
