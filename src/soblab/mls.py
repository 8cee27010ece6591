"""Moving-least-squares derivative estimation on irregular meshes.

At every mesh point a polynomial of total degree <= m is fitted to the K
nearest samples by weighted least squares in the shifted basis
(x - x_j)^alpha.  The fitted coefficients form an order-m jet: the
derivative of order alpha at x_j is alpha! times the coefficient c_alpha
(Taylor convention).  A convergence-rate study against functions with
known derivatives is included.

The fit is linear in the sample values: each stencil's jet is a fixed
matrix times the stencil's samples (the GMLS form).  mls_plan(points,
cfg) forms those matrices once per geometry (KNN, weights, basis, normal
matrices, the flags and the per-stencil inverse), and
MlsPlan.apply(values) maps one or many value vectors on those points to
coefficients with two batched matrix products and no solve.
estimate_derivatives runs the KNN once (the global support radius needs
every distance), then plans and applies the fits in blocks of
geometry.BLOCK_ROWS rows, so its memory grows with a block, not the
cloud.  The condition checks behind the flags and the refinement come
from bounds (the ridge bounds the condition number; the Frobenius norms
of each matrix and its inverse bound it within a factor I), and eigvalsh
runs only on the stencils those bounds leave undecided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError, NumericalError
from .geometry import PointCloud, SpatialIndex, build_index, knn_all, row_blocks

# Stencils whose (scaled) normal matrix is worse conditioned than this fall
# back to a truncated pseudo-inverse and are flagged in the output.
_COND_LIMIT = 1e12
# Iterative refinement toward the unregularized normal equations is applied
# only while the stencil is comfortably well conditioned; beyond this the
# ridge is doing real stabilization work and must be left in place.
_REFINE_COND_LIMIT = 1e8
_PINV_CUTOFF = 1e-12
# Relative Tikhonov regularizer: the normal matrix E gets ridge * tr(E) / I
# added to its diagonal.
_RIDGE = 1e-10
# The support radius is this factor times the largest neighbor distance.
_WEIGHT_MARGIN = 1.1


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
        if self.k < needed:
            raise ConfigError(
                f"K >= I required: K={self.k} but the order-{self.m} basis in "
                f"{dim}-D has I={needed} functions"
            )


@dataclass(frozen=True)
class JetField:
    """Per-point MLS coefficient vectors, graded-lex multi-index order.

    coefficients[j, i] is c_{j, alpha_i}; h is the mesh spacing statistic
    max over points of the nearest non-self neighbor distance (a
    fill-distance proxy, ~ J^(-1/n) on uniform clouds); flagged marks
    points rescued by the pseudo-inverse fallback.
    """

    points: np.ndarray
    coefficients: np.ndarray
    multi_indices: tuple[tuple[int, ...], ...]
    order: int
    h: float
    support_radius: float
    flagged: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.coefficients.shape[0]

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
    """Vector of derivative estimates D^alpha u at every point."""
    alpha = tuple(int(a) for a in alpha)
    if sum(alpha) > jet.order:
        raise ConfigError(f"|alpha|={sum(alpha)} exceeds fitted order m={jet.order}")
    return multi_index_factorial(alpha) * jet.coefficients[:, jet.index_of(alpha)]


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


@dataclass(frozen=True)
class MlsPlan:
    """The value-independent half of the local fits: a linear operator
    from sample values to jet coefficients.

    Row r fits the samples u[neighbors[r]] (K of the cloud's J points) as
    _operator[r] @ _weighted_basis[r] @ u[neighbors[r]].  Everything that
    depends on the points only is computed once: the weights, the scaled
    basis, the normal matrices, the flags and the operator, which is the
    regularized inverse of the normal matrix with two refinement steps
    toward it precomposed (the truncated pseudo-inverse on flagged rows),
    divided by scale ** |alpha|.  Whether a row is flagged or refined is
    decided from condition bounds, with eigvalsh only where they cannot
    (see _normal_inverse).  h is the largest nearest non-self neighbor
    distance.
    """

    neighbors: np.ndarray
    multi_indices: tuple[tuple[int, ...], ...]
    h: float
    support_radius: float
    flagged: np.ndarray
    _weighted_basis: np.ndarray = field(repr=False)  # (R, I, K): w_k b_i(x_k)
    _operator: np.ndarray = field(repr=False)  # (R, I, I)

    def apply(self, values) -> np.ndarray:
        """Coefficients (R, I) for values (J,), or (N, R, I) for (N, J).

        Two batched matrix products and no solve.  Every (sample, stencil)
        pair is its own product, so a sample's jets are bit-identical
        whether it is fitted alone or in a batch.
        """
        values = np.asarray(values, dtype=float)
        if not np.isfinite(values).all():
            raise InputError("values contain non-finite entries")
        samples = np.atleast_2d(values)[:, self.neighbors, None]  # (N, R, K, 1)
        coeffs = (self._operator @ (self._weighted_basis @ samples))[..., 0]
        return coeffs[0] if values.ndim == 1 else coeffs


def mls_plan(points, cfg: MlsConfig) -> MlsPlan:
    """Plan the order-m fits at every point of a cloud without values.

    Duplicate or non-finite points are rejected as in PointCloud.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    cloud = PointCloud(points=points, values=np.zeros(points.shape[0]))
    return _plan_rows(cloud.points, _stencils(build_index(cloud), cfg), slice(None), cfg)


def _stencils(index: SpatialIndex, cfg: MlsConfig):
    """KNN stencils (J, K) at every cloud point, their distances, the
    spacing h and the support radius: _WEIGHT_MARGIN times the largest
    neighbor distance over all stencils (1 for a single-point cloud)."""
    cfg.validate(index.cloud.dim)
    nbr, dist = knn_all(index, cfg.k)
    h = float(dist[:, 1].max()) if cfg.k >= 2 else float("nan")
    return nbr, dist, h, _WEIGHT_MARGIN * float(dist.max()) or 1.0


def _plan_rows(points, stencils, rows: slice, cfg: MlsConfig) -> MlsPlan:
    """The plan of the fits at points[rows]: weights, basis, normal
    matrices, their inverses and the scale undo, each row on its own."""
    nbr, dist, h, support_radius = stencils
    nbr, dist = nbr[rows], dist[rows]
    w = weight(dist, support_radius)
    indices = enumerate_multi_indices(points.shape[1], cfg.m)
    # Scale each stencil to the unit ball before forming the normal matrix;
    # the raw basis has entries ~ h^|alpha| and is needlessly ill conditioned.
    scale = dist.max(axis=1)
    scale[scale == 0.0] = 1.0
    b = _basis_matrix((points[nbr] - points[rows, None, :]) / scale[:, None, None], indices)
    wb = np.swapaxes(b, 1, 2) * w[:, None, :]
    e = wb @ b
    del b  # the largest temporary; the operator is built after it is freed
    operator, flagged = _normal_inverse(e, _RIDGE, cfg.k)
    # Undo the stencil scaling: c_alpha in original coordinates.
    degrees = np.array([sum(a) for a in indices], dtype=float)
    operator /= (scale[:, None] ** degrees[None, :])[:, :, None]
    return MlsPlan(nbr, tuple(indices), h, support_radius, flagged, wb, operator)


def _normal_inverse(e: np.ndarray, ridge: float, k: int):
    """Per-stencil inverses G (R, I, I) of the normal matrices e, and the flags.

    With rho = ridge * tr(E) / I, M = (E + rho I)^-1 and cond the
    condition number lambda_max / lambda_min of E + rho I as eigvalsh
    gives it: a stencil with cond < _REFINE_COND_LIMIT gets two steps of
    iterative refinement toward E, precomposed (M E = I - rho M, so two
    steps from x = M r give G = M (I + rho M + (rho M)^2)); the others get
    G = M, and those with cond > _COND_LIMIT are flagged and get the
    truncated pseudo-inverse of E.  Raises NumericalError for a
    numerically zero E.

    eigvalsh runs only on the rows that two bounds leave open:

    - Flag.  e holds Gram matrices B^T W B with w >= 0 whose entries sum
      k products, so for rho > 0 the eigenvalues eigvalsh returns lie in
      [rho, tr(E)(1 + ridge)] up to s tr(E), s = (k + 2 I^2) eps: k eps
      for the Gram sums, I^2 eps for eigvalsh's backward error, the rest
      for the trace and the shift.  If (1 + ridge + s) / (ridge / I - s)
      <= _COND_LIMIT no row can be flagged, and only rows with rho = 0
      run eigvalsh before the inverse; otherwise every row does.
    - Refinement.  cond_F = ||E + rho I||_F ||M||_F lies in [cond, I cond].
      inv and eigvalsh are backward stable within about
      I^2 eps ||E + rho I||, which near cond = _REFINE_COND_LIMIT puts a
      relative error below I^2 eps _REFINE_COND_LIMIT on the computed
      cond_F and on the computed cond each; delta = 4 I^2 eps
      _REFINE_COND_LIMIT (3e-6 at I = 6, 4e-5 at I = 20) covers both.  A
      row with cond_F < _REFINE_COND_LIMIT (1 - delta) is refined, one
      with cond_F > I _REFINE_COND_LIMIT (1 + delta) is not, and the rows
      in between run eigvalsh.

    inv works matrix by matrix, so no row's M or G depends on which rows
    ran eigvalsh.
    """
    i_count = e.shape[-1]
    eps = np.finfo(float).eps
    reg = ridge * np.trace(e, axis1=1, axis2=2) / i_count
    e_reg = e + reg[:, None, None] * np.eye(i_count)

    slack = (k + 2 * i_count**2) * eps
    if (1 + ridge + slack) <= _COND_LIMIT * (ridge / i_count - slack):
        exact = ~(reg > 0)
    else:
        exact = np.ones(len(e), dtype=bool)
    cond_exact = _eig_cond(e_reg[exact])
    flagged = np.zeros(len(e), dtype=bool)
    flagged[exact] = cond_exact > _COND_LIMIT

    e_reg[flagged] = np.eye(i_count)  # inverted, then replaced by the pinv rows
    m = np.linalg.inv(e_reg)
    # cond_F, replaced by eigvalsh's cond on every row that ran it
    cond = np.sqrt(np.einsum("rij,rij->r", e_reg, e_reg) * np.einsum("rij,rij->r", m, m))
    cond[exact] = cond_exact
    delta = 4 * i_count**2 * eps * _REFINE_COND_LIMIT
    undecided = ~exact & ~(
        (cond < _REFINE_COND_LIMIT * (1 - delta))
        | (cond > i_count * _REFINE_COND_LIMIT * (1 + delta))
    )
    cond[undecided] = _eig_cond(e_reg[undecided])
    # G = M + rho M (M + rho M^2), with rho = 0 (so G = M) on rows not
    # refined; the first product reuses e_reg's memory.
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
    return g, flagged


def _eig_cond(e_reg: np.ndarray) -> np.ndarray:
    """lambda_max / lambda_min of each matrix by eigvalsh, inf where
    lambda_min <= 0."""
    if not len(e_reg):
        return np.empty(0)
    eig = np.linalg.eigvalsh(e_reg)
    lo, hi = eig[:, 0], eig[:, -1]
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(lo > 0, hi / np.maximum(lo, np.finfo(float).tiny), np.inf)


def estimate_derivatives(cloud: PointCloud, cfg: MlsConfig) -> JetField:
    """Order-m jets at every cloud point (Algorithm: KNN + local fits):
    one KNN pass, then mls_plan's fits planned and applied in blocks of
    geometry.BLOCK_ROWS rows, with the same jets bit for bit."""
    stencils = _stencils(build_index(cloud), cfg)
    coefficients = np.empty((cloud.size, basis_size(cloud.dim, cfg.m)))
    flagged = np.empty(cloud.size, dtype=bool)
    for rows in row_blocks(cloud.size):
        plan = _plan_rows(cloud.points, stencils, rows, cfg)
        coefficients[rows] = plan.apply(cloud.values)
        flagged[rows] = plan.flagged
    return JetField(cloud.points, coefficients, plan.multi_indices, cfg.m, plan.h,
                    plan.support_radius, flagged)


class AnalyticFunction:
    """Test function with exact derivatives of every order.

    value(X) evaluates on an (J, n) array; derivative(alpha, X) returns
    the exact D^alpha values.
    """

    def __init__(self, name, dim, value, derivative):
        self.name = name
        self.dim = dim
        self.value = value
        self.derivative = derivative


def sin_cos_2d() -> AnalyticFunction:
    """u(x) = sin(x1) cos(x2); all derivatives are phase-shifted sin/cos."""

    def deriv(alpha, x):
        a1, a2 = alpha
        return np.sin(x[:, 0] + a1 * np.pi / 2) * np.cos(x[:, 1] + a2 * np.pi / 2)

    return AnalyticFunction(
        "sincos", 2, lambda x: np.sin(x[:, 0]) * np.cos(x[:, 1]), deriv
    )


def sin_1d() -> AnalyticFunction:
    """u(x) = sin(x) on the line."""

    def deriv(alpha, x):
        return np.sin(x[:, 0] + alpha[0] * np.pi / 2)

    return AnalyticFunction("sin", 1, lambda x: np.sin(x[:, 0]), deriv)


def polynomial_function(coeff: dict[tuple[int, ...], float], dim: int) -> AnalyticFunction:
    """Polynomial from {multi-index: coefficient}; derivatives are exact."""

    def value(x):
        out = np.zeros(x.shape[0])
        for beta, c in coeff.items():
            term = np.full(x.shape[0], c)
            for d, b in enumerate(beta):
                if b:
                    term = term * x[:, d] ** b
            out += term
        return out

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

    name = "poly" + "+".join(
        "".join(str(b) for b in beta) for beta in sorted(coeff)
    )
    return AnalyticFunction(name, dim, value, deriv)


BUILTIN_FUNCTIONS = {
    "sincos": sin_cos_2d,
    "sin1d": sin_1d,
    "plane": lambda: polynomial_function({(0, 0): 0.5, (1, 0): 1.0, (0, 1): 1.0}, 2),
}


@dataclass(frozen=True)
class ConvergenceRow:
    resolution: int
    h: float
    order: int
    mse: float
    slope_running: float


@dataclass(frozen=True)
class ConvergenceStudy:
    """MSE-vs-spacing table for one analytic function, plus fitted slopes."""

    rows: tuple[ConvergenceRow, ...]
    slopes: dict[int, float]
    seed: int
    config: MlsConfig
    function: str

    def mse_series(self, order: int):
        rows = [r for r in self.rows if r.order == order]
        return (
            np.array([r.resolution for r in rows]),
            np.array([r.h for r in rows]),
            np.array([r.mse for r in rows]),
        )


def convergence_study(
    fn: AnalyticFunction,
    box,
    resolutions,
    cfg: MlsConfig,
    seed: int = 0,
    orders=None,
) -> ConvergenceStudy:
    """Estimate jets on nested random clouds and tabulate errors vs h.

    box is ((lo_1, ..., lo_n), (hi_1, ..., hi_n)); resolutions must be at
    least three strictly increasing point counts.  For each resolution,
    each derivative order contributes
    mse = mean_j sum_{|alpha|=order} |alpha! c - D^alpha u(x_j)|^2;
    slope_running is the log-log slope of mse against h over the rows
    seen so far.  orders defaults to 0..m; an order outside [0, m] raises
    ConfigError, and so does a repeated order.  The same seed
    reproduces the table bit for bit.
    """
    resolutions = [int(r) for r in resolutions]
    if len(resolutions) < 3:
        raise ConfigError("need at least 3 resolutions")
    if any(b >= a for a, b in zip(resolutions[1:], resolutions)):
        raise ConfigError("resolutions must be strictly increasing")
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    if orders is None:
        orders = list(range(cfg.m + 1))
    for order in orders:
        if not 0 <= order <= cfg.m:
            raise ConfigError(f"order {order} outside [0, m={cfg.m}]")
    if len(set(orders)) != len(orders):
        raise ConfigError(f"orders must not repeat, got {list(orders)}")

    rng = np.random.default_rng(seed)
    all_indices = enumerate_multi_indices(fn.dim, cfg.m)
    rows: list[ConvergenceRow] = []
    seen: dict[int, tuple[list[float], list[float]]] = {o: ([], []) for o in orders}
    for res in resolutions:
        pts = lo + (hi - lo) * rng.random((res, fn.dim))
        cloud = PointCloud(points=pts, values=fn.value(pts))
        jet = estimate_derivatives(cloud, cfg)
        for order in orders:
            sq = np.zeros(res)
            for alpha in all_indices:
                if sum(alpha) != order:
                    continue
                sq += (derivative_field(jet, alpha) - fn.derivative(alpha, pts)) ** 2
            mse = float(sq.mean())
            hs, es = seen[order]
            hs.append(jet.h)
            es.append(mse)
            slope = _loglog_slope(hs, es)
            rows.append(ConvergenceRow(res, jet.h, order, mse, slope))
    slopes = {o: _loglog_slope(*seen[o]) for o in orders}
    return ConvergenceStudy(
        rows=tuple(rows), slopes=slopes, seed=seed, config=cfg, function=fn.name
    )


def _loglog_slope(hs, errors) -> float:
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(hs) < 2 or np.any(errors <= 0) or np.any(hs <= 0):
        return float("nan")
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])
