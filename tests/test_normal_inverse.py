"""The MLS fits' per-stencil inverse: one bound refines a stencil or flags it.

_normal_inverse refines a stencil iff its Frobenius bound cond_F < 1e8 and
flags the others.  The version it replaced ran eigvalsh on every row, refined
where cond < 1e8 and fell back to a pseudo-inverse where cond > 1e12; it is
kept here as the reference.  These tests pin the operators to it outside the
band where cond < 1e8 <= cond_F, check that the ridge alone keeps every
admitted stencil below that pseudo-inverse cutoff, and check which stencils
of ordinary and degenerate clouds are flagged.
"""

import numpy as np
import pytest
from helpers import strand_points

from soblab import mls
from soblab.errors import NumericalError
from soblab.geometry import PointCloud, build_index, knn_all
from soblab.mls import (MlsConfig, _normal_inverse, _plan_rows, derivative_field,
                        enumerate_multi_indices, estimate_derivatives)

_COND_LIMIT = 1e12
_REFINE_COND_LIMIT = 1e8
_PINV_CUTOFF = 1e-12


def _reference_normal_inverse(e, ridge):
    """The plan's inverse with eigvalsh on every row."""
    i_count = e.shape[-1]
    reg = ridge * np.trace(e, axis1=1, axis2=2) / i_count
    e_reg = e + reg[:, None, None] * np.eye(i_count)

    eig = np.linalg.eigvalsh(e_reg)
    lo, hi = eig[:, 0], eig[:, -1]
    with np.errstate(divide="ignore", over="ignore"):
        cond = np.where(lo > 0, hi / np.maximum(lo, np.finfo(float).tiny), np.inf)
    flagged = cond > _COND_LIMIT

    e_reg[flagged] = np.eye(i_count)
    m = np.linalg.inv(e_reg)
    rho = np.where(cond < _REFINE_COND_LIMIT, reg, 0.0)[:, None, None]
    t = np.matmul(m, m, out=e_reg)
    t *= rho
    t += m
    g = m @ t
    del t, e_reg
    g *= rho
    g += m
    del m

    for row in np.flatnonzero(flagged):
        u_svd, sv, vt = np.linalg.svd(e[row], hermitian=True)
        keep = sv > _PINV_CUTOFF * sv[0] if sv[0] > 0 else sv > 0
        if not np.any(keep):
            raise NumericalError(f"normal matrix at point {row} is numerically zero")
        g[row] = (vt[keep].T / sv[keep]) @ u_svd[:, keep].T
    return g, flagged, cond


def _check_against_reference(e, ridge):
    """_normal_inverse(e) against the reference: the flags are the bound's
    decision, and the operators are the reference's bits except in the band
    where the reference refined a flagged row, which gets M = (E + rho I)^-1.
    Returns the band, the reference's pseudo-inverse rows and its cond."""
    g, flagged = _normal_inverse(e.copy())
    g_ref, pinv_ref, cond_ref = _reference_normal_inverse(e.copy(), ridge)
    i_count = e.shape[-1]
    reg = ridge * np.trace(e, axis1=1, axis2=2) / i_count
    e_reg = e + reg[:, None, None] * np.eye(i_count)
    m = np.linalg.inv(e_reg)
    cond_f = np.linalg.norm(e_reg, axis=(1, 2)) * np.linalg.norm(m, axis=(1, 2))
    assert np.array_equal(flagged, ~(cond_f < _REFINE_COND_LIMIT))
    band = flagged & (cond_ref < _REFINE_COND_LIMIT)
    assert np.array_equal(g[~band], g_ref[~band])
    assert np.array_equal(g[band], m[band])
    # cond <= cond_F <= I cond
    assert not (cond_ref[~flagged] >= _REFINE_COND_LIMIT).any()
    assert not (cond_ref[flagged] < _REFINE_COND_LIMIT / i_count).any()
    return band, pinv_ref, cond_ref


def _spectra(i_count):
    """Eigenvalue sets around the two limits.

    "spread" spectra have one large and one small eigenvalue, so cond_F is
    within a hair of cond; "split" spectra have half of each, so cond_F is
    I/2 times cond and lands between 1e8 and I * 1e8.
    """
    half = i_count // 2
    out = []
    for cond in (1e3, 0.99e8, 1.01e8, 1e10, 0.9e12, 1.1e12):
        out.append([1.0] + [cond**-0.5] * (i_count - 2) + [1.0 / cond])
        out.append([1.0] * half + [1.0 / cond] * (i_count - half))
    out.append([1.0] * (i_count - 2) + [0.0, 0.0])  # rank deficient
    return np.array(out)


def _matrices(i_count, seed):
    rng = np.random.default_rng(seed)
    spectra = _spectra(i_count)
    q, _ = np.linalg.qr(rng.standard_normal((len(spectra), i_count, i_count)))
    e = (q * spectra[:, None, :]) @ np.swapaxes(q, 1, 2)
    return (e + np.swapaxes(e, 1, 2)) / 2  # exactly symmetric


@pytest.mark.parametrize("i_count", [6, 20])
@pytest.mark.parametrize("ridge", [mls._RIDGE])
def test_flags_and_operator_equal_the_eigvalsh_reference(i_count, ridge):
    e = _matrices(i_count, seed=i_count)
    band, pinv_ref, cond_ref = _check_against_reference(e, ridge)
    # the ridge rules out the pseudo-inverse; of the rows below 1e8, only
    # the split spectrum of cond 0.99e8 (row 3) has cond_F above it
    assert not pinv_ref.any()
    assert np.array_equal(np.flatnonzero(band), [3])
    assert (cond_ref[:3] < _REFINE_COND_LIMIT).all()
    assert (cond_ref[4:] > _REFINE_COND_LIMIT).all()


def _grid(side):
    axis = np.linspace(0.0, 1.0, side)
    a, b = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([a.ravel(), b.ravel()])


@pytest.mark.parametrize(
    "points, cfg",
    [
        (_grid(60), MlsConfig()),
        (np.random.default_rng(0).random((5000, 2)), MlsConfig(m=2)),
        (np.random.default_rng(1).random((5000, 3)), MlsConfig(k=40, m=3)),
    ],
    ids=["grid60", "uniform2d", "uniform3d"],
)
def test_bounds_decide_every_row_of_ordinary_clouds(points, cfg):
    # cond_F < 1e8 on every row: each is refined, as with eigvalsh, and none is flagged
    jet = estimate_derivatives(PointCloud(points=points, values=np.zeros(len(points))), cfg)
    assert not jet.flagged.any()


@pytest.mark.parametrize("k, count", [(8, 23), (10, 0), (12, 0), (20, 0)])
def test_grid30_flags_tie_broken_stencils_only_at_small_k(k, count):
    # the numbers README states: the KNN's index tie-break picks degenerate
    # stencils on a regular grid at K = 8, and their gradients are off
    points = _grid(30)
    cloud = PointCloud(points=points, values=np.sin(points[:, 0]))
    jet = estimate_derivatives(cloud, MlsConfig(k=k, m=2))
    assert np.count_nonzero(jet.flagged) == count
    if count:
        err = np.abs(derivative_field(jet, (1, 0)) - np.cos(points[:, 0]))
        assert round(err[jet.flagged].max(), 3) == 0.200
        assert err[~jet.flagged].max() <= 4.0e-4


@pytest.mark.parametrize("k, m, count", [(40, 7, 395), (70, 9, 400)])
def test_uniform400_flags_most_stencils_of_admitted_high_order_bases(k, m, count):
    # the numbers README states: MlsConfig.validate admits these bases, yet
    # the cond_F bound flags most or all of 400 uniform 2-D points (seed 0)
    points = np.random.default_rng(0).random((400, 2))
    jet = estimate_derivatives(PointCloud(points=points, values=np.zeros(400)), MlsConfig(k=k, m=m))
    assert np.count_nonzero(jet.flagged) == count


def _collinear(count):
    xs = np.linspace(0.0, 1.0, count)
    return np.column_stack([xs, np.zeros_like(xs)])


@pytest.mark.parametrize(
    "points, cfg",
    [
        (np.random.default_rng(2).random((400, 2)), MlsConfig(k=40, m=7)),
        (np.random.default_rng(3).random((400, 2)), MlsConfig(k=70, m=9)),
        (_grid(25), MlsConfig(k=40, m=7)),
        (np.random.default_rng(4).random((400, 3)), MlsConfig(k=70, m=5)),
        (np.random.default_rng(5).random((400, 3)), MlsConfig(k=40, m=3)),
        (_collinear(30), MlsConfig(k=8, m=2)),
    ],
    ids=["random2d-m7", "random2d-m9", "grid25-m7", "random3d-m5", "random3d-m3", "collinear-m2"],
)
def test_the_ridge_bounds_the_condition_of_every_normal_matrix(points, cfg, monkeypatch):
    # the normal matrices E as _plan_rows forms them, at every point
    seen = []
    monkeypatch.setattr(mls, "_normal_inverse", lambda e: seen.append(e.copy()) or _normal_inverse(e))
    cloud = PointCloud(points=points, values=np.zeros(len(points)))
    cfg.validate(cloud.dim)  # the basis is admitted
    nbr, _, far = knn_all(build_index(cloud), cfg.k)
    _plan_rows(cloud.points, nbr, slice(None), mls._WEIGHT_MARGIN * far.max(),
               enumerate_multi_indices(cloud.dim, cfg.m))
    (e,) = seen
    i_count = e.shape[-1]
    _, pinv_ref, cond_ref = _check_against_reference(e, mls._RIDGE)
    # no stencil needs the reference's pseudo-inverse
    assert not pinv_ref.any()
    # each stencil holds its own point with weight 1 and basis row e_0
    trace = np.trace(e, axis1=1, axis2=2)
    assert (trace >= 1.0).all()
    if i_count <= 20:
        # cond(E + rho I) <= (1 + ridge) / (ridge / I) = 1 + I/ridge in exact
        # arithmetic.  The tolerance: each eigenvalue eigvalsh returns may be
        # off by s tr(E), s = (K + 2 I^2) eps (K eps for the Gram sums, I^2 eps
        # for eigvalsh's backward error, the rest for the trace and the shift)
        s = (cfg.k + 2 * i_count**2) * np.finfo(float).eps
        assert (cond_ref <= (1 + mls._RIDGE + s) / (mls._RIDGE / i_count - s)).all()


def _sin_cos(points):
    return np.sin(points[:, 0]) * np.cos(points[:, 1])


def _degenerate(case):
    rng = np.random.default_rng(6)
    x = rng.random(5000)
    if case == "near-line":
        return np.column_stack([x, x + 1e-9 * rng.standard_normal(5000)])
    if case == "on-line":
        return np.column_stack([x, x])
    if case == "circle":
        t = 2.0 * np.pi * x
        return np.column_stack([0.5 + 0.5 * np.cos(t), 0.5 + 0.5 * np.sin(t)])
    return np.column_stack([x, rng.random((5000, 2)) * [1.0, 1e-3]])  # a 3-D slab


@pytest.mark.parametrize("case", ["near-line", "on-line", "circle", "slab"])
def test_degenerate_clouds_flag_every_stencil(case):
    # 5,000 points at k = 20, m = 2 (k = 40, m = 3 for the slab): no stencil
    # determines its basis, so the ridge decides some coefficient everywhere
    points = _degenerate(case)
    cfg = MlsConfig(k=40, m=3) if case == "slab" else MlsConfig()
    jet = estimate_derivatives(PointCloud(points=points, values=_sin_cos(points)), cfg)
    assert jet.flagged.all()
    error = np.abs(derivative_field(jet, (1,) + (0,) * (points.shape[1] - 1))
                   - np.cos(points[:, 0]) * np.cos(points[:, 1]))
    if case == "slab":
        # a flag does not say the gradient is wrong: the slab's thin axis
        # is the one the ridge decides
        assert np.median(error) < 1e-5
    else:
        assert np.median(error) > 0.1


def test_a_collinear_strand_flags_its_stencils_and_no_uniform_one():
    points = strand_points(2000, seed=1)
    cfg = MlsConfig()
    cloud = PointCloud(points=points, values=_sin_cos(points))
    jet = estimate_derivatives(cloud, cfg)
    on_strand = np.arange(len(points)) >= 1500
    stencils = on_strand[knn_all(build_index(cloud), cfg.k)[0]]
    uniform = ~stencils.any(axis=1)
    assert (~uniform & ~stencils.all(axis=1)).any()  # some stencils span both parts
    assert jet.flagged[on_strand].all()
    assert not jet.flagged[uniform].any()
