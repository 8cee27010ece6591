"""The MLS plan's per-stencil inverse: flags and refinement decided by bounds.

_normal_inverse decides the pseudo-inverse flag (cond > 1e12) and the
refinement (cond < 1e8) from a ridge bound and a Frobenius bound, and
runs eigvalsh only on the rows those bounds leave open.  These tests pin
its flags and operators to the eigvalsh-on-every-row version it replaced,
kept here as the reference, and check which rows reach eigvalsh.
"""

import numpy as np
import pytest

from soblab.errors import NumericalError
from soblab.mls import MlsConfig, _normal_inverse, mls_plan

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


@pytest.fixture
def eigvalsh_rows(monkeypatch):
    """Every matrix passed to np.linalg.eigvalsh while the test runs."""
    seen = []
    original = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        seen.append(np.array(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return seen


@pytest.mark.parametrize("i_count", [6, 20])
@pytest.mark.parametrize("ridge", [0.0, 1e-13, 1e-10])
def test_flags_and_operator_equal_the_eigvalsh_reference(i_count, ridge, eigvalsh_rows):
    e = _matrices(i_count, seed=i_count)
    g_ref, flagged_ref, cond_ref = _reference_normal_inverse(e.copy(), ridge)
    eigvalsh_rows.clear()
    g, flagged = _normal_inverse(e.copy(), ridge, i_count)
    assert np.array_equal(flagged, flagged_ref)
    assert np.array_equal(g, g_ref)

    reg = ridge * np.trace(e, axis1=1, axis2=2) / i_count
    e_reg = e + reg[:, None, None] * np.eye(i_count)
    if ridge < 1e-11:
        # I (1 + ridge) / ridge exceeds 1e12, or rho = 0: every row runs
        # eigvalsh once, before the inverse
        assert flagged_ref.any() and (cond_ref < _REFINE_COND_LIMIT).any()
        expected = np.ones(len(e), dtype=bool)
    else:
        # the ridge bound rules out flags; only rows with cond_F between
        # 1e8 and I * 1e8 run eigvalsh, and they go both ways
        assert not flagged_ref.any()
        cond_f = np.linalg.norm(e_reg, axis=(1, 2)) * np.linalg.norm(
            np.linalg.inv(e_reg), axis=(1, 2)
        )
        expected = (cond_f > _REFINE_COND_LIMIT) & (cond_f < i_count * _REFINE_COND_LIMIT)
        assert (cond_ref[expected] < _REFINE_COND_LIMIT).any()
        assert (cond_ref[expected] > _REFINE_COND_LIMIT).any()
        assert (cond_ref[~expected] < _REFINE_COND_LIMIT).any()
    assert np.array_equal(np.concatenate(eigvalsh_rows), e_reg[expected])


@pytest.mark.parametrize("ridge", [0.0, 1e-10])
def test_zero_normal_matrix_still_raises(ridge):
    e = np.zeros((3, 6, 6))
    e[0] = e[2] = np.eye(6)
    with pytest.raises(NumericalError, match="normal matrix at point 1 is numerically zero"):
        _normal_inverse(e, ridge, 6)


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
def test_bounds_decide_every_row_of_ordinary_clouds(points, cfg, eigvalsh_rows):
    plan = mls_plan(points, cfg)
    assert not plan.flagged.any()
    assert eigvalsh_rows == []
