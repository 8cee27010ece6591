"""The planned MLS solve against a copy of the per-call solver it replaced.

_reference_basis and _reference_solve are the basis loop and the stencil
solver as they were before the fit was split into plan and apply.  The
basis must be bit-identical.  The coefficients may differ in the last
bits, because the normal matrices and right-hand sides are now assembled
by batched matrix products instead of einsum; the bounds below are
max|dc| / max|c| per polynomial degree.
"""

import numpy as np
import pytest

from soblab import mls
from soblab.errors import InputError
from soblab.geometry import PointCloud, build_index, knn_all
from soblab.mls import (
    MlsConfig,
    _basis_matrix,
    enumerate_multi_indices,
    estimate_derivatives,
    mls_plan,
)
from soblab.training import mls_derivative_targets

_COND_LIMIT = 1e12
_REFINE_COND_LIMIT = 1e8
_PINV_CUTOFF = 1e-12


def _reference_basis(diffs, indices):
    shape = diffs.shape[:-1] + (len(indices),)
    b = np.empty(shape, dtype=float)
    for i, alpha in enumerate(indices):
        col = np.ones(diffs.shape[:-1], dtype=float)
        for d, a in enumerate(alpha):
            if a:
                col = col * diffs[..., d] ** a
        b[..., i] = col
    return b


def _reference_solve(diffs, dists, values, cfg, d_support, ridge):
    j_count, k_count, dim = diffs.shape
    indices = enumerate_multi_indices(dim, cfg.m)
    i_count = len(indices)
    degrees = np.array([sum(a) for a in indices], dtype=float)

    s = dists / d_support
    w = np.where(s <= 1.0, (1.0 - s) ** 4 * (4.0 * s + 1.0), 0.0)

    scale = dists.max(axis=1)
    scale[scale == 0.0] = 1.0
    b = _reference_basis(diffs / scale[:, None, None], indices)

    e = np.einsum("jk,jki,jkl->jil", w, b, b)
    rhs = np.einsum("jk,jki,jk->ji", w, b, values)

    trace = np.trace(e, axis1=1, axis2=2)
    reg = ridge * trace / i_count
    e_reg = e + reg[:, None, None] * np.eye(i_count)

    eig = np.linalg.eigvalsh(e_reg)
    lo, hi = eig[:, 0], eig[:, -1]
    with np.errstate(divide="ignore", over="ignore"):
        cond = np.where(lo > 0, hi / np.maximum(lo, np.finfo(float).tiny), np.inf)

    coeffs = np.empty((j_count, i_count), dtype=float)
    flagged = cond > _COND_LIMIT
    good = ~flagged
    if np.any(good):
        sol = np.linalg.solve(e_reg[good], rhs[good][..., None])[..., 0]
        refine = cond[good] < _REFINE_COND_LIMIT
        if np.any(refine):
            eg = e[good]
            rg = rhs[good]
            for _ in range(2):
                resid = rg - np.einsum("jil,jl->ji", eg, sol)
                corr = np.linalg.solve(e_reg[good], resid[..., None])[..., 0]
                sol = sol + np.where(refine[:, None], corr, 0.0)
        coeffs[good] = sol
    for row in np.flatnonzero(flagged):
        u_svd, sv, vt = np.linalg.svd(e[row], hermitian=True)
        keep = sv > _PINV_CUTOFF * sv[0] if sv[0] > 0 else sv > 0
        inv = (vt[keep].T / sv[keep]) @ u_svd[:, keep].T
        coeffs[row] = inv @ rhs[row]

    coeffs /= scale[:, None] ** degrees[None, :]
    return coeffs, flagged


def _reference_jets(cloud, cfg, ridge):
    nbr, dist = knn_all(build_index(cloud), cfg.k)
    # the support radius: 1.1 times the largest neighbor distance
    d_support = 1.1 * float(dist.max())
    diffs = cloud.points[nbr] - cloud.points[:, None, :]
    return _reference_solve(diffs, dist, cloud.values[nbr], cfg, d_support, ridge)


def _grid(side):
    xs = np.linspace(0.0, 1.0, side)
    return np.array([[a, b] for a in xs for b in xs])


def _collinear():
    # every stencil of 30 collinear points is degenerate for the
    # cross-direction quadratics; with no ridge they are all flagged
    xs = np.linspace(0.0, 1.0, 30)
    return np.column_stack([xs, np.zeros_like(xs)])


# (points, config, ridge): the degenerate case runs with the ridge disabled
CASES = {
    "grid-m2": (_grid(25), MlsConfig(k=20, m=2), mls._RIDGE),
    "random2d-m2": (np.random.default_rng(40).random((800, 2)), MlsConfig(k=20, m=2), mls._RIDGE),
    "random3d-m3": (np.random.default_rng(41).random((600, 3)), MlsConfig(k=40, m=3), mls._RIDGE),
    "random3d-m2": (np.random.default_rng(42).random((500, 3)), MlsConfig(k=20, m=2), mls._RIDGE),
    "degenerate": (_collinear(), MlsConfig(k=8, m=2), 0.0),
}


def _values(points):
    return np.sin(3.0 * points[:, 0]) * np.cos(2.0 * points[:, 1]) + points.sum(axis=1) ** 2


@pytest.mark.parametrize("case", sorted(CASES))
def test_basis_bit_identical_to_reference(case):
    points, cfg, _ = CASES[case]
    cloud = PointCloud(points=points, values=_values(points))
    nbr, dist = knn_all(build_index(cloud), cfg.k)
    diffs = (cloud.points[nbr] - cloud.points[:, None, :]) / dist.max(axis=1)[:, None, None]
    indices = enumerate_multi_indices(points.shape[1], cfg.m)
    assert np.array_equal(_basis_matrix(diffs, indices), _reference_basis(diffs, indices))


@pytest.mark.parametrize("case", sorted(CASES))
def test_coefficients_match_reference_solver(monkeypatch, case):
    points, cfg, ridge = CASES[case]
    monkeypatch.setattr(mls, "_RIDGE", ridge)
    cloud = PointCloud(points=points, values=_values(points))
    want, want_flagged = _reference_jets(cloud, cfg, ridge)
    jet = estimate_derivatives(cloud, cfg)
    assert np.array_equal(jet.flagged, want_flagged)
    if case == "degenerate":
        assert want_flagged.all()
    else:
        assert not want_flagged.any()
    degrees = np.array([sum(a) for a in jet.multi_indices])
    for degree in range(cfg.m + 1):
        cols = degrees == degree
        rel = np.abs(jet.coefficients[:, cols] - want[:, cols]).max() / np.abs(want[:, cols]).max()
        assert rel <= (1e-10 if degree <= 1 else 1e-7), (degree, rel)


@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_apply_matches_single_applies(monkeypatch, case):
    points, cfg, ridge = CASES[case]
    monkeypatch.setattr(mls, "_RIDGE", ridge)
    plan = mls_plan(points, cfg)
    rng = np.random.default_rng(43)
    samples = rng.normal(size=(5, points.shape[0]))
    batched = plan.apply(samples)
    assert batched.shape == (5, points.shape[0], len(plan.multi_indices))
    for n in range(5):
        assert np.array_equal(batched[n], plan.apply(samples[n]))


def test_batched_targets_match_per_sample_jets():
    for points in (np.random.default_rng(44).random((96, 1)), np.random.default_rng(45).random((96, 2))):
        dim = points.shape[1]
        targets = np.random.default_rng(46).normal(size=(64, 96))
        got = mls_derivative_targets(points, targets, k=20, m=2)
        for n in range(targets.shape[0]):
            jet = estimate_derivatives(PointCloud(points=points, values=targets[n]), MlsConfig(k=20, m=2))
            for d in range(dim):
                alpha = tuple(int(i == d) for i in range(dim))
                assert np.array_equal(got[n, :, d], jet.coefficients[:, jet.index_of(alpha)])


def test_non_finite_values_rejected():
    targets = np.ones((2, 30))
    targets[1, 3] = np.nan
    with pytest.raises(InputError, match="values contain non-finite"):
        mls_derivative_targets(np.linspace(0.0, 1.0, 30)[:, None], targets, k=8, m=2)
