"""Moving-least-squares derivative estimation on irregular meshes.

At every mesh point a polynomial of total degree <= m is fitted to the K
nearest samples by weighted least squares in the shifted basis
(x - x_j)^alpha.  The fitted coefficients form an order-m jet: the
derivative of order alpha at x_j is alpha! times the coefficient c_alpha
(Taylor convention).  A convergence-rate study against functions with
known derivatives is included.

The fit is linear in the sample values: each stencil's jet is a fixed
matrix times the stencil's samples (the GMLS form).
estimate_derivatives(cloud, cfg) checks the basis before it builds a
KD-tree, runs the KNN once (the global support radius needs every K-th
distance) and keeps only the int32 stencils; then, in leaf-order blocks
sized by the stencil footprint, it recomputes the stencils' distances, forms
the value-independent half of the fits (weights, basis, normal matrices and
the per-stencil inverse) and applies it to every sample on the cloud with
two batched matrix products and no solve.  A cloud may carry one sample
(J,) or a stack (N, J) on the same points; either way memory grows with the
`threads` blocks in flight and the results, not with the cloud's plan or
the footprint, and a sample's jets are the same bits alone, in a stack or
at any thread count.
The relative ridge bounds every stencil's condition number by 1 + I/ridge,
and MlsConfig.validate admits only the bases it keeps below _COND_LIMIT.
One bound per stencil, the Frobenius norm of its regularized normal matrix
times that of the inverse, decides whether it is refined; a stencil too ill
conditioned to refine is flagged, because the ridge decides at least one
of its coefficients.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import ConfigError, NumericalError
from .geometry import PointCloud, build_index, knn_all, run_blocks, stencil_distances

# The largest condition number of a regularized normal matrix: the ridge
# bounds it by 1 + I / _RIDGE, so validate refuses bases of I >= 100.
_COND_LIMIT = 1e12
# Iterative refinement toward the unregularized normal equations is applied
# only while the stencil's condition bound stays below this; beyond it the
# ridge is doing real stabilization work, is left in place, and the stencil
# is flagged.
_REFINE_COND_LIMIT = 1e8
# Relative Tikhonov regularizer: the normal matrix E gets ridge * tr(E) / I
# added to its diagonal.
_RIDGE = 1e-10
# The support radius is this factor times the largest neighbor distance.
_WEIGHT_MARGIN = 1.1
# Elements K * max(I, N) * rows of a fit block: 2-D k=20, m=2 in 2048 rows.
FIT_ELEMENTS = 2048 * 20 * 6


def enumerate_multi_indices(n: int, m: int) -> list[tuple[int, ...]]:
    """All multi-indices alpha with |alpha| <= m, graded-lexicographic.

    Degrees ascend; within a degree the exponent tuples descend
    lexicographically, so the n=2, m=2 basis comes out as
    (0,0),(1,0),(0,1),(2,0),(1,1),(0,2).
    """
    if n < 1:
        raise ConfigError(f"dimension must be >= 1, got {n}")
    if m < 0:
        raise ConfigError(f"order must be >= 0, got {m}")

    def compositions(total, slots):
        if slots == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in compositions(total - first, slots - 1):
                yield (first,) + rest

    out: list[tuple[int, ...]] = []
    for degree in range(m + 1):
        out.extend(compositions(degree, n))
    return out


def basis_size(n: int, m: int) -> int:
    """Number of monomials of total degree <= m in n variables."""
    return math.comb(m + n, n)


def multi_index_factorial(alpha) -> int:
    """alpha! = prod(alpha_i!)."""
    out = 1
    for a in alpha:
        out *= math.factorial(int(a))
    return out


def weight(t, d_support):
    """Compactly supported stencil weight (1 - t/D)^4 (4 t/D + 1).

    Equals 1 at t=0, 0 at t=D, strictly decreasing in between; clamped
    to 0 for t > D.  t may be a scalar or an array; D is one radius.
    """
    d_support = float(d_support)
    if d_support <= 0:
        raise ConfigError(f"support radius must be positive, got {d_support}")
    s = np.asarray(t, dtype=float) / d_support
    w = np.where(s <= 1.0, (1.0 - s) ** 4 * (4.0 * s + 1.0), 0.0)
    if w.ndim == 0:
        return float(w)
    return w


@dataclass(frozen=True)
class MlsConfig:
    """Stencil parameters for the local fits.

    k: neighbor count (self included); m: polynomial order.  Every
    stencil is weighted with one support radius and regularized with
    the relative ridge _RIDGE.
    """

    k: int = 20
    m: int = 2

    def validate(self, dim: int) -> None:
        if self.m < 1 and not (self.m == 0 and self.k >= 1):
            raise ConfigError(f"polynomial order must be >= 1 (or 0 with K >= 1), got m={self.m}")
        needed = basis_size(dim, self.m)
        # each stencil holds its own point with weight 1, so tr E >= 1 and
        # the ridge bounds cond(E + rho I) by 1 + I/_RIDGE
        if needed * (1 + _RIDGE) > _COND_LIMIT * _RIDGE:
            most = math.floor(_COND_LIMIT * _RIDGE / (1 + _RIDGE))
            raise ConfigError(f"--m {self.m} is too high in {dim}-D: its basis has I={needed} "
                              f"functions, but the ridge bounds the condition number by "
                              f"{_COND_LIMIT:g} only up to I={most}")
        if self.k < needed:
            raise ConfigError(
                f"K >= I required: K={self.k} but the order-{self.m} basis in "
                f"{dim}-D has I={needed} functions"
            )


@dataclass(frozen=True)
class JetField:
    """Per-point MLS coefficient vectors, graded-lex multi-index order.

    coefficients[..., j, i] is c_{j, alpha_i}, (J, I) for one sample and
    (N, J, I) for a stack of N; flagged (J,) marks the stencils whose
    condition bound reached _REFINE_COND_LIMIT, where the ridge decides at
    least one coefficient (the jet's gradient may still be accurate), and
    is the flagged column of jets.csv; h is the mesh spacing statistic
    max over points of the nearest non-self neighbor distance (a
    fill-distance proxy, ~ J^(-1/n) on uniform clouds).
    """

    points: np.ndarray
    coefficients: np.ndarray
    flagged: np.ndarray
    multi_indices: tuple[tuple[int, ...], ...]
    order: int
    h: float
    support_radius: float

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def index_of(self, alpha) -> int:
        try:
            return self.multi_indices.index(tuple(int(a) for a in alpha))
        except ValueError:
            raise ConfigError(
                f"multi-index {tuple(alpha)} not in the order-{self.order} jet"
            ) from None


def derivative_field(jet: JetField, alpha) -> np.ndarray:
    """Derivative estimates D^alpha u at every point, (J,) or (N, J)."""
    alpha = tuple(int(a) for a in alpha)
    if sum(alpha) > jet.order:
        raise ConfigError(f"|alpha|={sum(alpha)} exceeds fitted order m={jet.order}")
    return multi_index_factorial(alpha) * jet.coefficients[..., jet.index_of(alpha)]


def _basis_matrix(diffs: np.ndarray, indices) -> np.ndarray:
    """Monomial basis (..., K, I) evaluated on centered offsets (..., K, n).

    Each power diffs[..., d] ** a is computed once and shared by the
    columns that use it; the columns are built in contiguous (I, ..., K)
    memory and returned as a view.
    """
    top = max(max(alpha) for alpha in indices)
    axes = [np.ascontiguousarray(diffs[..., d]) for d in range(diffs.shape[-1])]
    powers = [[None] + [x**a for a in range(1, top + 1)] for x in axes]
    b = np.empty((len(indices),) + diffs.shape[:-1], dtype=float)
    for i, alpha in enumerate(indices):
        col = 1.0
        for d, a in enumerate(alpha):
            if a:
                col = col * powers[d][a]
        b[i] = col
    return np.moveaxis(b, 0, -1)


def _plan_rows(points, nbr, rows, support_radius: float, indices):
    """The value-independent half of the fits of the stencils nbr[rows] in
    the basis `indices`, each row on its own: (weighted basis (R, I, K),
    operator (R, I, I), flagged (R,)).

    Row r fits the samples u = values[nbr[rows][r]] as operator[r] @
    weighted_basis[r] @ u.  The weighted basis holds w_k b_i(x_k), weighted
    with support_radius, in stencil-scaled coordinates; the operator is the
    regularized inverse of the normal matrix, with two refinement steps
    toward it precomposed on the rows whose condition bound allows them,
    divided by scale ** |alpha|; the others are flagged (see _normal_inverse)."""
    diff, dist = stencil_distances(points, nbr[rows], rows)
    w = weight(dist, support_radius)
    # Scale each stencil to the unit ball before forming the normal matrix;
    # the raw basis has entries ~ h^|alpha| and is needlessly ill conditioned.
    scale = dist.max(axis=1)
    scale[scale == 0.0] = 1.0
    diff /= scale[:, None, None]
    b = _basis_matrix(diff, indices)
    wb = np.swapaxes(b, 1, 2) * w[:, None, :]
    e = wb @ b
    del b, diff, dist  # the largest temporaries; the operator is built after they are freed
    operator, flagged = _normal_inverse(e)
    # c_alpha in original coordinates: undo the scaling (overflows if scale ** m underflows).
    degrees = np.array([sum(a) for a in indices], dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        operator /= (scale[:, None] ** degrees[None, :])[:, :, None]
    return wb, operator, flagged


def _normal_inverse(e: np.ndarray):
    """Per-stencil inverses G (R, I, I) of the normal matrices e, and the
    stencils (R,) that are flagged.

    With rho = _RIDGE * tr(E) / I and M = (E + rho I)^-1, the bound cond_F =
    ||E + rho I||_F ||M||_F lies in [cond, I cond], cond being the condition
    number of E + rho I.  A stencil with cond_F < _REFINE_COND_LIMIT gets
    two steps of iterative refinement toward E, precomposed (M E = I - rho M,
    so two steps from x = M r give G = M (I + rho M + (rho M)^2)); the others
    get G = M and are flagged, a NaN cond_F among them.  So no stencil with
    cond >= _REFINE_COND_LIMIT is refined, and every one with cond <
    _REFINE_COND_LIMIT / I is.
    """
    i_count = e.shape[-1]
    reg = _RIDGE * np.trace(e, axis1=1, axis2=2) / i_count
    e_reg = e + reg[:, None, None] * np.eye(i_count)
    m = np.linalg.inv(e_reg)
    cond_f = np.sqrt(np.einsum("rij,rij->r", e_reg, e_reg) * np.einsum("rij,rij->r", m, m))
    flagged = ~(cond_f < _REFINE_COND_LIMIT)
    # G = M + rho M (M + rho M^2), with rho = 0 (so G = M) on flagged rows;
    # the first product reuses e_reg's memory.
    rho = np.where(flagged, 0.0, reg)[:, None, None]
    t = np.matmul(m, m, out=e_reg)
    t *= rho
    t += m
    g = m @ t
    del t, e_reg
    g *= rho
    g += m
    return g, flagged


def estimate_derivatives(cloud: PointCloud, cfg: MlsConfig, threads: int = 1) -> JetField:
    """Order-m jets at every cloud point (Algorithm: KNN + local fits) of
    each sample the cloud carries.  A refused basis or K builds no KD-tree; one
    KNN pass gives the stencils, h and the support radius (1 for a one-point
    cloud), then the fits are planned in blocks of index.order and applied
    to every sample, both on `threads` threads.
    A fit block holds FIT_ELEMENTS // (K max(I, N)) rows, 1 to
    geometry.BLOCK_ROWS, so its (R, K, I) bases and (N, R, K) samples keep
    one size.  Every (sample, stencil) pair is its own product, so the jets
    do not depend on the blocks, the thread count or the other samples,
    and the flags, which come from the stencils alone, do not either.
    Values so large, or stencils so small, that a jet overflows raise NumericalError."""
    cfg.validate(cloud.dim)
    if cfg.k > cloud.size:  # knn_all's refusal, before the tree is built
        raise ConfigError(f"K={cfg.k} outside [1, {cloud.size}]")
    index = build_index(cloud)
    nbr, near, far = knn_all(index, cfg.k, threads)
    support_radius = _WEIGHT_MARGIN * float(far.max()) or 1.0
    indices = tuple(enumerate_multi_indices(cloud.dim, cfg.m))
    values = np.atleast_2d(cloud.values)
    coefficients = np.empty((len(values), cloud.size, len(indices)))
    flagged = np.empty(cloud.size, dtype=bool)

    def fit(block):
        rows = index.order[block]
        wb, operator, flagged[rows] = _plan_rows(cloud.points, nbr, rows, support_radius, indices)
        samples = values[:, nbr[rows], None]  # (N, R, K, 1)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            coefficients[:, rows] = (operator @ (wb @ samples))[..., 0]

    size = FIT_ELEMENTS // (cfg.k * max(len(indices), len(values)))
    run_blocks(cloud.size, max(1, min(size, geometry.BLOCK_ROWS)), threads, fit)
    if not np.isfinite(coefficients).all():
        bad = np.flatnonzero(~np.isfinite(coefficients).all(axis=(0, 2)))
        raise NumericalError(f"{bad.size} of {cloud.size} jets are not finite, the first at point "
                             f"{bad[0]}: values too large or stencils too small for order {cfg.m}")
    return JetField(cloud.points, coefficients.reshape(cloud.values.shape + (-1,)), flagged,
                    indices, cfg.m, float(near.max()), support_radius)


@dataclass(frozen=True)
class AnalyticFunction:
    """Test function on R^dim: derivative(alpha, X) returns the exact D^alpha
    values on an (J, dim) array X, and value(X) is its derivative of order 0."""

    dim: int
    derivative: Callable[[tuple[int, ...], np.ndarray], np.ndarray]

    def value(self, x):
        return self.derivative((0,) * self.dim, x)


def sin_cos_2d() -> AnalyticFunction:
    """u(x) = sin(x1) cos(x2); all derivatives are phase-shifted sin/cos."""

    def deriv(alpha, x):
        a1, a2 = alpha
        return np.sin(x[:, 0] + a1 * np.pi / 2) * np.cos(x[:, 1] + a2 * np.pi / 2)

    return AnalyticFunction(2, deriv)


def sin_1d() -> AnalyticFunction:
    """u(x) = sin(x) on the line."""

    def deriv(alpha, x):
        return np.sin(x[:, 0] + alpha[0] * np.pi / 2)

    return AnalyticFunction(1, deriv)


def polynomial_function(coeff: dict[tuple[int, ...], float], dim: int) -> AnalyticFunction:
    """Polynomial from {multi-index: coefficient}; derivatives are exact."""

    def deriv(alpha, x):
        out = np.zeros(x.shape[0])
        for beta, c in coeff.items():
            if any(a > b for a, b in zip(alpha, beta)):
                continue
            factor = c
            for a, b in zip(alpha, beta):
                factor *= math.factorial(b) / math.factorial(b - a)
            term = np.full(x.shape[0], factor)
            for d, (a, b) in enumerate(zip(alpha, beta)):
                if b - a:
                    term = term * x[:, d] ** (b - a)
            out += term
        return out

    return AnalyticFunction(dim, deriv)


BUILTIN_FUNCTIONS = {
    "sincos": sin_cos_2d,
    "sin1d": sin_1d,
    "plane": lambda: polynomial_function({(0, 0): 0.5, (1, 0): 1.0, (0, 1): 1.0}, 2),
}


@dataclass(frozen=True)
class ConvergenceStudy:
    """MSE-vs-spacing table for one analytic function: one row per
    (resolution, order), orders inner, held as its five columns."""

    resolution: np.ndarray
    h: np.ndarray
    order: np.ndarray
    mse: np.ndarray
    slope_running: np.ndarray

    def mse_series(self, order: int):
        rows = self.order == order
        return self.resolution[rows], self.h[rows], self.mse[rows]

    @property
    def slopes(self) -> dict[int, float]:
        """Each order's fitted slope: its running slope over all resolutions."""
        last = self.resolution == self.resolution[-1:]  # the last resolution's rows, one per order
        return dict(zip(self.order[last].tolist(), self.slope_running[last].tolist()))


def convergence_study(
    fn: AnalyticFunction,
    resolutions,
    cfg: MlsConfig,
    seed: int = 0,
    threads: int = 1,
) -> ConvergenceStudy:
    """Estimate jets on independent uniform clouds in the unit cube, one
    per resolution, and tabulate errors vs h.

    resolutions must be at least three strictly increasing point counts.
    For each resolution, each derivative order 0..m contributes
    mse = mean_j sum_{|alpha|=order} |alpha! c - D^alpha u(x_j)|^2;
    slope_running is the log-log slope of mse against h over the rows
    seen so far.  K < 2 raises ConfigError: it leaves h without a neighbor
    other than the point itself.  The same seed reproduces the table bit
    for bit, at any `threads` (see estimate_derivatives).
    """
    resolutions = [int(r) for r in resolutions]
    if len(resolutions) < 3:
        raise ConfigError("need at least 3 resolutions")
    if any(b >= a for a, b in zip(resolutions[1:], resolutions)):
        raise ConfigError("resolutions must be strictly increasing")
    if cfg.k < 2:
        raise ConfigError(f"K >= 2 required: the spacing h needs a neighbor besides the "
                          f"point itself, got K={cfg.k}")

    orders = np.arange(cfg.m + 1)
    rng = np.random.default_rng(seed)
    all_indices = enumerate_multi_indices(fn.dim, cfg.m)
    hs = np.empty(len(resolutions))
    mse = np.empty((len(resolutions), orders.size))
    for r, res in enumerate(resolutions):
        pts = rng.random((res, fn.dim))
        jet = estimate_derivatives(PointCloud(points=pts, values=fn.value(pts)), cfg, threads)
        hs[r] = jet.h
        for order in orders:
            sq = np.zeros(res)
            for alpha in all_indices:
                if sum(alpha) == order:
                    sq += (derivative_field(jet, alpha) - fn.derivative(alpha, pts)) ** 2
            mse[r, order] = sq.mean()
    slope = [[_loglog_slope(hs[: r + 1], mse[: r + 1, order]) for order in orders]
             for r in range(len(resolutions))]
    return ConvergenceStudy(np.repeat(resolutions, orders.size), np.repeat(hs, orders.size),
                            np.tile(orders, len(resolutions)), mse.ravel(), np.ravel(slope))


def _loglog_slope(hs: np.ndarray, errors: np.ndarray) -> float:
    if len(hs) < 2 or np.any(errors <= 0) or np.any(hs <= 0):
        return float("nan")
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])
