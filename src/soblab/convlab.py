"""Closed-form gradient-flow lab for derivative-supervised training.

For a rank-one ReLU kernel model with Gaussian query points, the
population gradients of the value loss and of the derivative loss have
closed forms built from half-space geometry: the angle between weight
vectors, the joint activation probability, and the expectation of the
ReLU-gated correlation vector.  This module evaluates those formulas,
integrates the two gradient flows, scans the scalar inequalities the
convergence argument rests on, and cross-checks everything against
Monte-Carlo sampling.

Both gradients are combinations of w and the target w*, so they are
written once on two scalar coordinates in the plane of w and w*:
flow_gradients embeds both pairs back in n-D, and a flow integrates each
row on its two coordinates.  The planar body and the RK4 loop run over a
small backend: (B,) arrays for bundles, grids and flow_gradients, and
Python floats for a single flow start, with the same operations in the
same order, so both give the same bits.  The backend also carries the
constants, as 0-d arrays on the array side: a ufunc on (B,) arrays costs
mostly dispatch, and converting a Python-float operand on every call adds
about half.  The loop integrates
the gradient g, with slopes -g.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

try:  # the clip ufunc itself, without the Python dispatch of np.clip
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

from . import parallel
from .errors import ConfigError, NumericalError, StepTooLargeError

TWO_PI = 2.0 * math.pi
# a flow's angle stays in [_THETA_CLAMP, pi - _THETA_CLAMP], off the kinks at 0 and pi
_THETA_CLAMP = 1e-8
# Monte-Carlo draws per summation group: each group is summed in row order
# and added to the total in turn, which fixes the bits of every mean
_MC_CHUNK = 200_000
# float64 elements (1 MiB) in one block of Monte-Carlo draws, and four times the n-D
# weights of one column block of a flow's records, with their planar distances and
# rates; no bit depends on it.  mc_quadrant_prob blocks only z2: it draws z1 whole
# (3.2 MB at 400k draws, 8 MB under validate --full), as its reference test pins
_BLOCK_ELEMENTS = 1 << 17
# sample_basin's starts lie within this fraction of |w*| of w*
_BASIN_RADIUS = 0.999


# ---------------------------------------------------------------------------
# the two backends of the planar population gradients and the RK4 loop
# ---------------------------------------------------------------------------

class _Arrays:
    """A bundle: each planar coordinate a (B,) array, each constant a 0-d array."""

    sqrt, arccos, sin, cos, clip, isfinite = np.sqrt, np.arccos, np.sin, np.cos, _clip, np.isfinite
    any, all = np.logical_or.reduce, np.logical_and.reduce
    const = functools.partial(np.asarray, dtype=float)
    pi, two_pi, half, one, neg_one, two = map(const, (math.pi, TWO_PI, 0.5, 1.0, -1.0, 2.0))
    # x + y where mask, else x, written over x, a fresh temporary
    add_where = staticmethod(lambda mask, x, y: np.add(x, y, out=x, where=mask))


class _Floats:
    """One row: each planar coordinate is a Python float, rounded as the
    array ufuncs round it."""

    sqrt, isfinite = math.sqrt, math.isfinite
    # numpy's own float64 loops: math.acos rounds differently on some hosts
    arccos, sin, cos = ((lambda x, f=f: float(f(x))) for f in (np.arccos, np.sin, np.cos))
    const = float
    pi, two_pi, half, one, neg_one, two = math.pi, TWO_PI, 0.5, 1.0, -1.0, 2.0
    clip = staticmethod(lambda x, lo, hi: min(max(x, lo), hi))  # NaN stays NaN
    add_where = staticmethod(lambda mask, x, y: x + y if mask else x)
    any = all = bool


# ---------------------------------------------------------------------------
# half-space geometry
# ---------------------------------------------------------------------------

def _norm(w, keepdims=False):
    # np.linalg.norm(w, axis=-1) without its Python dispatch, same operations
    w = np.asarray(w, dtype=float)
    return np.sqrt(np.add.reduce(w * w, axis=-1, keepdims=keepdims))


def _check_nonzero(*vectors):
    """The vectors as float arrays; raises ConfigError if any is zero."""
    vectors = [np.asarray(w, dtype=float) for w in vectors]
    for w in vectors:
        if np.any(_norm(w) == 0.0):
            raise ConfigError("angle undefined for a zero vector")
    return vectors


def angle_between(w1, w2) -> float:
    """Angle in [0, pi] between two nonzero vectors."""
    w1, w2 = _check_nonzero(w1, w2)
    cos = np.sum(w1 * w2, axis=-1) / (_norm(w1) * _norm(w2))
    out = np.arccos(np.clip(cos, -1.0, 1.0))
    return float(out) if out.ndim == 0 else out


def _coeffs_of_angle(theta, bk=_Arrays):
    """(mixed, joint, ortho) half-space coefficients at angle theta: joint
    is the probability that a standard Gaussian lands in both half-spaces,
    joint and ortho weight the parallel and orthogonal parts of the gated
    correlation, and mixed = joint*cos(theta) + ortho scales the amplitude."""
    rest = bk.pi - theta
    sin = bk.sin(theta)
    return (rest * bk.cos(theta) + sin) / bk.two_pi, rest / bk.two_pi, sin / bk.two_pi


def gated_correlation(e, w):
    """E over x ~ N(0, I) of 1{x.e > 0} 1{x.w > 0} (x.w) x, in closed form.

    Requires e to be a unit vector.  Equals joint * w + ortho * |w| * e
    with the half-space coefficients of the pair.
    """
    e = np.asarray(e, dtype=float)
    w = np.asarray(w, dtype=float)
    if np.any(np.abs(_norm(e) - 1.0) > 1e-9):
        raise ConfigError("direction argument must be a unit vector")
    _check_nonzero(w)
    t = angle_between(e, w)
    t = np.asarray(t)
    nw = _norm(w, keepdims=True)
    term = (math.pi - t)[..., None] * w + (nw * np.sin(t)[..., None]) * e
    return term / TWO_PI


def gated_correlation_sum(x_rows, e, w):
    """Finite-sample version: sum_j 1{x_j.e > 0} 1{x_j.w > 0} (x_j.w) x_j."""
    x_rows = np.asarray(x_rows, dtype=float)
    e = np.asarray(e, dtype=float)
    w = np.asarray(w, dtype=float)
    if x_rows.ndim != 2 or x_rows.shape[1] != e.shape[-1] or e.shape != w.shape:
        raise ConfigError(
            f"rows {x_rows.shape} incompatible with directions {e.shape}/{w.shape}"
        )
    return _gated_rows(x_rows, e, w).sum(axis=0)


def _gated_rows(x, e, w):
    """The rows 1{x.e > 0} 1{x.w > 0} (x.w) x of a (draws, n) table."""
    xw = x @ w
    gate = (x @ e > 0) & (xw > 0)
    return (gate * xw)[:, None] * x


def effective_amplitude(w1, w2) -> float:
    """w1 . gated_correlation(w1/|w1|, w2) = |w1| |w2| * mixed coefficient."""
    _check_nonzero(w1, w2)
    t = angle_between(w1, w2)
    p0, _, _ = _coeffs_of_angle(np.asarray(t))
    out = _norm(w1) * _norm(w2) * p0
    return float(out) if np.ndim(out) == 0 else out


def quadrant_prob(rho) -> float:
    """P[x > 0, y > 0] for standard bivariate normals with correlation rho."""
    rho = float(rho)
    if not -1.0 <= rho <= 1.0:
        raise ConfigError(f"correlation must lie in [-1, 1], got {rho}")
    return 0.25 + math.asin(rho) / TWO_PI


# ---------------------------------------------------------------------------
# population gradients of the two losses
# ---------------------------------------------------------------------------

class _Target(NamedTuple):
    """The target-only constants of _planar_gradients, computed once."""

    unit: np.ndarray  # w*/|w*|, the first axis of every row's plane
    norm: float  # |w*|, the target's coordinate along unit
    amp: float  # amp* = |w*|^2 / 2
    clamp: tuple[float, float] | None  # the angle range of a flow, None elsewhere

    def on(self, bk):
        """This target with its scalars as constants of backend bk."""
        clamp = self.clamp and tuple(map(bk.const, self.clamp))
        return self._replace(norm=bk.const(self.norm), amp=bk.const(self.amp), clamp=clamp)


def _target(w_star, clamp=None) -> _Target:
    nws = float(_norm(w_star))
    return _Target(w_star / nws, nws, 0.5 * nws * nws, clamp)


def _planar_gradients(a, b, target, der=True, bk=_Arrays):
    """Population gradients (value, derivative) of the two losses as
    coordinate pairs in the plane of w and w*, where w = (a, b) and
    w* = (|w*|, 0) (see _project); a and b are arrays of one shape, or
    Python floats with bk=_Floats.  The operations are those of the n-D formulas
    on the two in-plane components, in the same order.  With der=False the
    derivative term is skipped and returned as None.
    """
    nws, amp_star = target.norm, target.amp
    nw = bk.sqrt(a * a + b * b)
    scale = nw * nws
    t = bk.arccos(bk.clip(a * nws / scale, bk.neg_one, bk.one))
    if target.clamp is not None:
        t = bk.clip(t, *target.clamp)
    p0, p1, p2 = _coeffs_of_angle(t, bk)
    amp = scale * p0
    half_amp = bk.half * amp
    ortho = nws * p2
    # the gated correlation with the target, and the value loss's inner factor
    ca = p1 * nws + ortho * (a / nw)
    cb = ortho * (b / nw)
    # half_amp * a is amp * (0.5 * a): halving is exact, and both round amp * a / 2 once
    ia = half_amp * a - amp_star * ca
    ib = half_amp * b - amp_star * cb
    s = a * ia + b * ib
    g_val = amp * ia + ca * s, amp * ib + cb * s
    if not der:
        return g_val, None
    cw = ca * a + cb * b
    cws = ca * nws
    alpha = half_amp * amp + half_amp * cw - amp * p1 * cws
    beta = amp * amp_star * p1
    return g_val, (alpha * a - beta * nws, alpha * b)


def _project(w, target):
    """(a, b, e_b) of rows w (..., n): their coordinates along target.unit
    and along e_b, the unit vector of their component orthogonal to it (0
    for a row parallel to it).  Sums run per row, not by a matmul whose
    rounding depends on the row count."""
    a = np.add.reduce(w * target.unit, axis=-1)
    u = w - a[..., None] * target.unit
    b = _norm(u)
    e_b = np.divide(u, b[..., None], out=np.zeros_like(u), where=b[..., None] > 0.0)
    return a, b, e_b


def _embed(a, b, e_b, target, out=None):
    out = np.multiply(a[..., None], target.unit, out=out)
    out += b[..., None] * e_b
    out += 0.0  # turns a -0.0 component into +0.0
    return out


def flow_gradients(w, w_star):
    """Closed-form expectations over queries of the value-loss and the
    derivative-loss gradients at rows w (..., n): (g_value, g_der).

    The value gradient is (amp * I + corr w^T)(amp * corr_self - amp* *
    corr_star); both vanish exactly at w = w_star.
    """
    w, w_star = _check_nonzero(w, w_star)
    target = _target(w_star)
    a, b, e_b = _project(w, target)
    return tuple(_embed(*g, e_b, target) for g in _planar_gradients(a, b, target))


def _draw_terms(w, w_star):
    """The terms of the finite-sample gradients that no draw changes:
    (w, w*, w_hat, amp, amp*, gated_correlation(w_hat, w*))."""
    w, w_star = _check_nonzero(w, w_star)
    w_hat = w / _norm(w)
    amp, amp_star = effective_amplitude(w, w_star), effective_amplitude(w_star, w_star)
    return w, w_star, w_hat, amp, amp_star, gated_correlation(w_hat, w_star)


def finite_sample_value_gradient(x_rows, terms):
    """Per-draw value-loss gradient with the query average left empirical.

    Averaging this over fresh Gaussian draws converges to the value
    gradient of flow_gradients; used as the Monte-Carlo oracle.  terms is
    _draw_terms(w, w_star), computed once for many draws.
    """
    w, w_star, w_hat, amp, amp_star, corr_star = terms
    f_self = gated_correlation_sum(x_rows, w_hat, w)
    f_star = gated_correlation_sum(x_rows, w_hat, w_star)
    inner = amp * f_self - amp_star * f_star
    return (amp * inner + corr_star * float(w @ inner)) / x_rows.shape[0]


def finite_sample_derivative_gradient(x_rows, terms):
    """Per-draw derivative-loss gradient with empirical activation gates;
    terms is _draw_terms(w, w_star)."""
    w, w_star, _, amp, amp_star, corr_star = terms
    gate_w = (x_rows @ w > 0)
    gate_both = gate_w & (x_rows @ w_star > 0)
    n_w = float(np.count_nonzero(gate_w))
    n_both = float(np.count_nonzero(gate_both))
    term = (
        amp * amp * n_w * w
        + amp * n_w * float(corr_star @ w) * w
        - amp * amp_star * n_both * w_star
        - amp * n_both * float(corr_star @ w_star) * w
    )
    return term / x_rows.shape[0]


# ---------------------------------------------------------------------------
# scalar inequality machinery
# ---------------------------------------------------------------------------

def _check_angle_domain(theta):
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < -1e-12) or np.any(theta > math.pi + 1e-12):
        raise ConfigError("angle must lie in [0, pi]")
    return np.clip(theta, 0.0, math.pi)


def value_flow_angular_term(theta):
    """(cos t - 1)((pi - t)(cos t - 1) + 2 sin t); nonpositive on [0, pi].

    This is the angular contribution to the squared-distance decrease
    under the value flow; its nonpositivity drives convergence.
    """
    t = _check_angle_domain(theta)
    out = (np.cos(t) - 1.0) * ((math.pi - t) * (np.cos(t) - 1.0) + 2.0 * np.sin(t))
    return float(out) if out.ndim == 0 else out


def derivative_cubic_coefficients(theta):
    """(a, b, c, d) with f(x) = a x^3 - b x^2 - c x + d the normalized
    distance-decrease contribution of the derivative-loss gradient, as a
    function of the norm ratio x."""
    t = _check_angle_domain(theta)
    p0, p1, p2 = _coeffs_of_angle(t)
    cos = np.cos(t)
    a = p0
    b = p0 * cos + p1 * (p1 + p2 * cos)
    c = p1 * cos * (0.5 - p1 - p2 * cos)
    d = 0.5 * p1
    return a, b, c, d


def _scaled_cubic_min(a, b, c, d, disc):
    """27 a^2 times the local-minimum value of a t^3 - b t^2 - c t + d,
    given disc = b^2 + 3 a c >= 0; broadcasts over arrays."""
    return 27.0 * a * a * d - 2.0 * b**3 - 9.0 * a * b * c - 2.0 * disc * np.sqrt(disc)


def cubic_local_min(a, b, c, d):
    """Location and value of the local minimum of f(t) = a t^3 - b t^2 - c t + d.

    Requires a > 0 and b^2 + 3 a c >= 0.  The value comes from the closed
    form; validation_suite checks it against direct evaluation of f at the
    returned point (cubic_min_closed_vs_direct).
    """
    a, b, c, d = float(a), float(b), float(c), float(d)
    if a <= 0:
        raise ConfigError(f"leading coefficient must be positive, got {a}")
    disc = b * b + 3.0 * a * c
    if disc < 0:
        raise ConfigError(f"discriminant b^2 + 3ac = {disc} is negative")
    t0 = (b + math.sqrt(disc)) / (3.0 * a)
    return t0, float(_scaled_cubic_min(a, b, c, d, disc)) / (27.0 * a * a)


def derivative_flow_margin_scan(thetas):
    """Scaled minimum of the derivative-flow cubic at each angle, as (values
    with NaN where undefined, defined mask).  Nonnegative where defined and
    zero only at theta = 0, its sign certifies that the derivative term can
    only accelerate the distance decrease; undefined where the discriminant
    is negative (the cubic is then increasing and needs no certificate)."""
    t = _check_angle_domain(thetas)
    a, b, c, d = derivative_cubic_coefficients(t)
    disc = b * b + 3.0 * a * c
    # a vanishes only toward theta = pi, where the cubic degenerates
    defined = (disc >= 0) & (a > 1e-12)
    vals = _scaled_cubic_min(a, b, c, d, np.where(defined, disc, 0.0))
    return np.where(defined, vals, np.nan), defined


# ---------------------------------------------------------------------------
# gradient flows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowTrajectory:
    """Sampled flows of a bundle of starts: times (S,), weights (B, S, n),
    and the squared distance to the target and its closed-form time
    derivative (B, S) at each sample."""

    times: np.ndarray
    weights: np.ndarray
    dist2: np.ndarray
    ddt_dist2: np.ndarray


def flow_mode(mode: str) -> str:
    """The spelling "L2" or "Sob" of a flow mode given in any case; raises
    ConfigError for any other mode."""
    for name in ("L2", "Sob"):
        if mode.lower() == name.lower():
            return name
    raise ConfigError(f"unknown flow mode {mode!r} (expected L2 or Sob)")


def _count(name, value):
    """value as an int; raises ConfigError unless it is an integer >= 1 (a
    bool is no count)."""
    try:
        count = operator.index(value)
    except TypeError:
        count = 0
    if count < 1 or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
    return count


def _flow_grid(dt, t_final, record_every):
    """(step count, record stride) of the integration grid.

    Raises ConfigError unless dt is finite and positive, t_final finite
    and nonnegative, and record_every an integer >= 1.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ConfigError(f"dt must be finite and positive, got {dt}")
    if not (math.isfinite(t_final) and t_final >= 0.0):
        raise ConfigError(f"t_final must be finite and nonnegative, got {t_final}")
    stride = _count("record_every", record_every)
    steps = t_final / dt
    if not math.isfinite(steps):
        raise ConfigError(f"t_final / dt = {steps} steps")
    return int(round(steps)), stride


@np.errstate(all="ignore")
def _rk4_flow(w, target, sob, dt, t_final, record_every):
    """Classical fixed-step RK4 on rows w (B, n); sob (B,) marks the Sob rows.

    Each row is integrated on its two planar coordinates (a, b) (see
    _project), and its gradient (ga, gb) is recorded with them.  At the end
    the n-D weights are rebuilt in column blocks, and dist2 and ddt_dist2
    come from the planar records: the step guard's (a - |w*|)^2 + b^2 and
    its rate -2((a - |w*|) ga + b gb).  Returns
    (times (S,), weights (B, S, n), dist2 (B, S), ddt_dist2 (B, S))
    recorded every record_every steps and at the last step, weights[:, 0]
    being the starts w.  The step guard raises at the first step at which
    any row trips it, and a step that leaves any row's distance non-finite
    trips it too; a non-finite record raises NumericalError.  Float
    overflow is therefore reported by these errors, not by warnings.  A
    single row runs on Python floats, a bundle on (B,) arrays.  The record
    table is allocated before the first step, so a grid too large to
    record fails at once.
    """
    n_steps, stride = _flow_grid(dt, t_final, record_every)
    # (a, b, ga, gb) at steps 0, stride, 2 stride, ... and n_steps: (S, 4, B)
    try:
        table = rec = np.empty((-(-n_steps // stride) + 1, 4, len(w)))
    except (ValueError, MemoryError):
        raise ConfigError(f"{n_steps:.6g} steps recorded every {stride} are too many "
                          "to record; reduce t_final / dt or raise record_every") from None
    der = bool(np.any(sob))
    a, b, e_b = _project(w, target)
    if len(w) == 1:
        bk, a, b, sob, rec = _Floats, float(a[0]), float(b[0]), bool(sob[0]), table[..., 0]
    else:
        bk = _Arrays
    target, floor = target.on(bk), (1e-9 * target.norm) ** 2
    h, h2, h6, grow, depart, floor = map(bk.const, (dt, 0.5 * dt, dt / 6.0, 1.21, 0.25, floor))
    nws, two = target.norm, bk.two

    def rhs(a, b):
        (va, vb), g_der = _planar_gradients(a, b, target, der, bk)
        if g_der is not None:
            va, vb = bk.add_where(sob, va, g_der[0]), bk.add_where(sob, vb, g_der[1])
        return va, vb

    def sum_sq(x, y):
        return x * x + y * y

    d2 = sum_sq(a - nws, b)
    ga, gb = rhs(a, b)
    # the gradient g, not the slope -g: x + h * (-g) rounds as x - h * g, and
    # dw/dt at a recorded step is the next step's k1 = -g1
    rec[0], row = (a, b, ga, gb), 1
    for step in range(1, n_steps + 1):
        ga2, gb2 = rhs(a - h2 * ga, b - h2 * gb)
        ga3, gb3 = rhs(a - h2 * ga2, b - h2 * gb2)
        ga4, gb4 = rhs(a - h * ga3, b - h * gb3)
        da = h6 * (ga + two * ga2 + two * ga3 + ga4)
        db = h6 * (gb + two * gb2 + two * gb3 + gb4)
        a, b = a - da, b - db
        d2_new = sum_sq(a - nws, b)
        # A too-large step can also land on a spurious fixed point of the
        # discrete map, where the distance stops changing; the increment
        # then departs from its Euler predictor dt * k1 by O(1) relative.
        ea, eb = h * ga, h * gb
        departs = sum_sq(da - ea, db - eb) > depart * sum_sq(ea, eb)
        tripped = (d2 > floor) & ((d2_new > grow * d2) | departs)
        # a NaN distance fails every comparison, so finiteness is tested apart
        if bk.any(tripped) or not bk.all(bk.isfinite(d2_new)):
            raise StepTooLargeError(
                f"step {step} too large: the distance grew more than 10% or the RK4 "
                "increment left its Euler predictor by more than half; reduce dt",
                step_index=step,
            )
        d2 = d2_new
        ga, gb = rhs(a, b)
        if step % stride == 0 or step == n_steps:
            rec[row], row = (a, b, ga, gb), row + 1
    a, b, ga, gb = table.transpose(1, 2, 0)  # four (B, S) coordinate tables
    e_b = e_b[:, None]
    weights, dist2, ddt = np.empty(a.shape + w.shape[1:]), np.empty(a.shape), np.empty(a.shape)
    # column blocks of (B, cols, n) weights, a quarter of _BLOCK_ELEMENTS, and their
    # (B, cols) planar statistics; all per element, so no bit depends on the blocks
    cols = max(1, _BLOCK_ELEMENTS // (4 * w.size))
    for s in range(0, a.shape[1], cols):
        c = slice(s, s + cols)
        _embed(a[:, c], b[:, c], e_b, target, out=weights[:, c])
        da = a[:, c] - nws
        dist2[:, c] = sum_sq(da, b[:, c])
        ddt[:, c] = -2.0 * (da * ga[:, c] + b[:, c] * gb[:, c])
    weights[:, 0] = w
    if not (np.isfinite(dist2).all() and np.isfinite(ddt).all()):
        raise NumericalError("the flow left the float range: a recorded distance or rate "
                             "is not finite; start nearer the target")
    steps = np.minimum(np.arange(len(table)) * stride, n_steps)
    return steps * dt, weights, dist2, ddt


def integrate_flow_batch(
    w0_batch,
    w_star,
    dt=1e-3,
    t_final=10.0,
    mode="L2",
    record_every=1,
    allow_outside_basin=False,
) -> FlowTrajectory:
    """Integrate dw/dt = -grad(loss) by classical fixed-step RK4 from each
    start in w0_batch ((n,) or (B, n)) as the rows of one array.

    mode is "L2" (value loss only) or "Sob" (value plus derivative loss),
    in any case, one mode for all rows or a sequence of one mode per row.
    The angle is clamped to [_THETA_CLAMP, pi - _THETA_CLAMP], away from
    the kinks at 0 and pi.  Samples are taken every record_every steps and
    at the last step.

    Raises ConfigError for a zero or non-finite target or start, starts,
    target and modes that disagree in shape or count, an empty mode list,
    a start outside the basin |w - w_star| < |w_star| (unless
    allow_outside_basin), and a bad grid or one with too many records to
    allocate.  Raises StepTooLargeError, naming the first step at which
    any row trips it, when in a single step a squared distance grows by
    more than 21% (distance by 10%) or becomes non-finite, or the RK4
    increment differs from the Euler increment dt * k1 by more than half
    its norm; each signals that dt is too coarse for the configuration.
    Raises NumericalError when a recorded distance or rate overflows.

    Each row stays in the plane of its start and the target and is
    integrated on its two coordinates there, so it equals its one-start
    run bit for bit at every n.  A start in a coordinate plane with the
    target on an axis of it (as in the flow command) gets the bits of the
    n-D formulas; other starts agree with them to rounding.
    """
    w, w_star = _check_nonzero(np.atleast_2d(np.asarray(w0_batch, dtype=float)), w_star)
    if not (np.isfinite(w).all() and np.isfinite(w_star).all()):
        raise ConfigError("flow starts and target must be finite")
    modes = [mode] * len(w) if isinstance(mode, str) else list(mode)
    if not modes:
        raise ConfigError("need at least one flow mode")
    if w.ndim != 2 or w.shape[1:] != w_star.shape or len(modes) != len(w):
        raise ConfigError(
            f"starts {w.shape}, target {w_star.shape} and {len(modes)} modes disagree"
        )
    if not allow_outside_basin and np.any(_norm(w - w_star) >= _norm(w_star)):
        raise ConfigError(
            "initialization outside the basin |w - w_star| < |w_star|; "
            "set allow_outside_basin to integrate anyway"
        )
    sob = np.array([flow_mode(m) == "Sob" for m in modes], dtype=bool)
    target = _target(w_star, (_THETA_CLAMP, math.pi - _THETA_CLAMP))
    times, weights, dist2, ddt = _rk4_flow(w, target, sob, dt, t_final, record_every)
    return FlowTrajectory(times, weights, dist2, ddt)


# ---------------------------------------------------------------------------
# descent landscape
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LandscapeTable:
    """Dense (theta, ratio) table of normalized descent rates.

    v_l2 and v_sob are d/dt of the squared distance under each flow,
    divided by 2 * mixed * |w| * |w_star|^5; cells where the mixed
    coefficient is below 1e-12 are reported as undefined, not zero.
    """

    v_l2: np.ndarray
    v_sob: np.ndarray
    defined: np.ndarray


def descent_landscape(theta_grid, ratio_grid) -> LandscapeTable:
    """Normalized descent rates over an angle-ratio grid.

    Evaluates both population gradients at the planar coordinates
    (x cos theta, x sin theta) of each (theta, x) cell, for a unit target
    w* = (1, 0), and normalizes; the plane stands for every dimension.
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    ratio_grid = np.asarray(ratio_grid, dtype=float)
    if not (np.isfinite(theta_grid).all() and np.isfinite(ratio_grid).all()):
        raise ConfigError("grids must be finite")
    if np.any(theta_grid >= math.pi):
        raise ConfigError("theta = pi is excluded: the normalization vanishes")
    if np.any(theta_grid <= 0.0) or np.any(ratio_grid <= 0.0):
        raise ConfigError("grids must lie in (0, pi) x (0, inf)")

    target = _target(np.array([1.0]))
    tt, xx = np.meshgrid(theta_grid, ratio_grid, indexing="ij")
    a = xx * np.cos(tt)
    b = xx * np.sin(tt)
    (va, vb), (da, db) = _planar_gradients(a, b, target)
    diff_a = a - 1.0
    ddt_l2 = -2.0 * (diff_a * va + b * vb)
    ddt_sob = ddt_l2 - 2.0 * (diff_a * da + b * db)

    p0 = _coeffs_of_angle(tt)[0]
    norm = 2.0 * p0 * xx
    defined = p0 > 1e-12
    safe = np.where(defined, norm, 1.0)
    v_l2 = np.where(defined, ddt_l2 / safe, np.nan)
    v_sob = np.where(defined, ddt_sob / safe, np.nan)
    return LandscapeTable(v_l2=v_l2, v_sob=v_sob, defined=defined)


# ---------------------------------------------------------------------------
# Monte-Carlo cross checks and the validation suite
# ---------------------------------------------------------------------------

def _blocks(draws, rows):
    """(start, stop) of consecutive blocks of at most rows of range(draws)."""
    return ((s, min(s + rows, draws)) for s in range(0, draws, rows))


def mc_gated_correlation(e, w, draws, seed=0):
    """Empirical mean and standard error of the per-row gated correlation.

    The draws are made and reduced in blocks of _BLOCK_ELEMENTS numbers.
    Each group of _MC_CHUNK draws is summed in row order: a block adds the
    group's running sums into its first row before its own sum."""
    draws = _count("draws", draws)
    e = np.asarray(e, dtype=float)
    w = np.asarray(w, dtype=float)
    n = e.shape[0]
    rng = np.random.default_rng(seed)
    total = np.zeros(n)
    total_sq = np.zeros(n)
    # numpy sums a single column pairwise, not in row order: one block per group
    block = _MC_CHUNK if n == 1 else max(1, _BLOCK_ELEMENTS // n)
    for g0, g1 in _blocks(draws, _MC_CHUNK):
        part = part_sq = None
        for b0, b1 in _blocks(g1 - g0, block):
            rows = _gated_rows(rng.standard_normal((b1 - b0, n)), e, w)
            sq = rows * rows
            if part is not None:
                rows[0] += part
                sq[0] += part_sq
            part, part_sq = rows.sum(axis=0), sq.sum(axis=0)
        total += part
        total_sq += part_sq
    mean = total / draws
    var = total_sq / draws - mean * mean
    se = np.sqrt(np.maximum(var, 0.0) / draws)
    return mean, se


def random_admissible_cubic(rng):
    """Moderate-scale (a, b, c, d) satisfying the local-minimum preconditions."""
    a = rng.uniform(0.2, 2.0)
    b = rng.normal()
    c_lo = -(b * b) / (3.0 * a)
    c = rng.uniform(c_lo, abs(c_lo) + 2.0)
    d = rng.normal()
    return a, b, c, d


def mc_quadrant_prob(rho, draws, seed=0):
    """Empirical P[x>0, y>0] for correlated standard normals.  z1 is drawn
    whole, before z2, and z2 in blocks of _BLOCK_ELEMENTS numbers."""
    draws = _count("draws", draws)
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal(draws)
    scale = math.sqrt(max(0.0, 1.0 - rho * rho))
    hits = 0
    for s, t in _blocks(draws, _BLOCK_ELEMENTS):
        y = rho * z1[s:t] + scale * rng.standard_normal(t - s)
        hits += int(np.count_nonzero((z1[s:t] > 0) & (y > 0)))
    return hits / draws


def sample_basin(w_star, count, rng, theta_range=None):
    """Random starts strictly inside the basin |w - w_star| < |w_star|.

    With theta_range, rejection-samples until the angle to w_star lies
    in the given open interval, which must meet (0, asin(_BASIN_RADIUS)).
    """
    reach = math.asin(_BASIN_RADIUS)
    if theta_range is not None and not theta_range[0] < min(theta_range[1], reach):
        raise ConfigError(f"theta_range {theta_range} misses the angles (0, {reach:.6g})")
    w_star = np.asarray(w_star, dtype=float)
    n = w_star.shape[0]
    nws = float(np.linalg.norm(w_star))
    out = np.empty((count, n))
    got = 0
    while got < count:
        direction = rng.standard_normal(n)
        direction /= np.linalg.norm(direction)
        radius = _BASIN_RADIUS * nws * rng.random() ** (1.0 / n)
        w = w_star + radius * direction
        if theta_range is not None:
            t = angle_between(w, w_star)
            if not (theta_range[0] < t < theta_range[1]):
                continue
        out[got] = w
        got += 1
    return out


def validation_suite(seed=0, full=False, threads=1):
    """Run every closed-form-vs-sampling check; returns verdict records.

    Each record is {"name", "statistic", "bound", "pass"}.  full=True
    uses the publication-size sample counts (slower).

    One generator seeded by seed draws every input, in this order: each
    gated-correlation pair's direction, weight and sampling seed, each
    quadrant check's sampling seed, then the cubic trials, the
    population-gradient weights and draws, and the basin starts.  The
    checks run as parallel.fork_map jobs in that order: first every check
    that is no such pair or quadrant check, one job because the last three
    share the generator (the basin flow keeps its L2 and Sob rows in one
    bundle), then each pair and each quadrant check with its own seed.  On
    worker_count(threads) > 1 workers the first job runs here and the others
    on the rest, so the verdicts are the same at any thread count.
    """
    rng = np.random.default_rng(seed)
    # gated correlation closed form vs Monte Carlo, and the quadrant probability
    pair_count = 20 if full else 6
    draws = 1_000_000 if full else 200_000
    dims = (2, 5, 10)
    pairs = []
    for i in range(pair_count):
        n = dims[i % len(dims)]
        e = rng.standard_normal(n)
        e /= np.linalg.norm(e)
        pairs.append((e, rng.standard_normal(n), int(rng.integers(2**63))))
    qd = 1_000_000 if full else 400_000
    rhos = (-0.9, 0.0, 0.5, 0.9)
    quadrant_seeds = [int(rng.integers(2**63)) for _ in rhos]

    def pair_ratio(e, w, pair_seed):
        mean, se = mc_gated_correlation(e, w, draws, seed=pair_seed)
        return float((np.abs(mean - gated_correlation(e, w)) / np.maximum(se, 1e-300)).max())

    def quadrant_error(rho, quadrant_seed):
        return abs(mc_quadrant_prob(rho, qd, seed=quadrant_seed) - quadrant_prob(rho))

    jobs = [functools.partial(_scans_and_flows, rng, full)]
    jobs += [functools.partial(pair_ratio, *pair) for pair in pairs]
    jobs += [functools.partial(quadrant_error, rho, s) for rho, s in zip(rhos, quadrant_seeds)]
    workers = parallel.worker_count(threads)
    shares = [jobs] if workers == 1 else [jobs[:1]] + parallel.split(jobs[1:], workers - 1)
    with parallel.fork_map(lambda job: job(), shares) as results:
        rest_verdicts, *errors = results
    return [
        _verdict("gated_correlation_mc_3se", max([0.0, *errors[:pair_count]]), 3.0),
        _verdict("quadrant_prob_mc_absdiff", max([0.0, *errors[pair_count:]]), 5e-3),
        *rest_verdicts,
    ]


def _verdict(name, statistic, bound, lower=False):
    """A check that passes when statistic <= bound (>= when lower)."""
    statistic, bound = float(statistic), float(bound)
    ok = statistic >= bound if lower else statistic <= bound
    return {"name": name, "statistic": statistic, "bound": bound, "pass": ok}


def _scans_and_flows(rng, full):
    """The verdicts of validation_suite's checks that draw from rng or from
    nothing: the scalar inequality scans, the cubic trials, the population
    gradients and the basin flow."""
    verdicts = []

    def add(name, statistic, bound, lower=False):
        verdicts.append(_verdict(name, statistic, bound, lower))

    grid = np.linspace(0.0, math.pi, 10_000)
    add("value_angular_term_max", np.max(value_flow_angular_term(grid)), 1e-12)
    add("mixed_coefficient_min", np.min(_coeffs_of_angle(grid)[0]), -1e-12, lower=True)
    margins, defined = derivative_flow_margin_scan(grid)
    add("derivative_margin_min", np.nanmin(margins), -1e-10, lower=True)
    near_zero = margins[defined] < 1e-8
    zero_only_at_origin = np.all(grid[defined][near_zero] < 1e-3)
    add("derivative_margin_zero_only_at_0", zero_only_at_origin, 1.0, lower=True)

    # cubic closed form vs direct evaluation
    worst = 0.0
    trials = 10_000 if full else 2_000
    for _ in range(trials):
        a, b, c, d = random_admissible_cubic(rng)
        t0, f0 = cubic_local_min(a, b, c, d)
        direct = a * t0**3 - b * t0**2 - c * t0 + d
        worst = max(worst, abs(f0 - direct))
    add("cubic_min_closed_vs_direct", worst, 1e-10)

    # population gradients vs Monte Carlo (2% relative)
    draws = 200 if full else 60
    j_rows = 2_000
    worst = 0.0
    for n in (3, 5):
        w_star = rng.standard_normal(n)
        w = sample_basin(w_star, 1, rng)[0]
        acc_v = np.zeros(n)
        acc_d = np.zeros(n)
        terms = _draw_terms(w, w_star)
        for _ in range(draws):
            x = rng.standard_normal((j_rows, n))
            acc_v += finite_sample_value_gradient(x, terms)
            acc_d += finite_sample_derivative_gradient(x, terms)
        for acc, closed in zip((acc_v, acc_d), flow_gradients(w, w_star)):
            worst = max(worst, float(np.linalg.norm(acc / draws - closed) / np.linalg.norm(closed)))
    add("population_gradient_mc_rel", worst, 0.02)

    # basin flow: monotone decrease, convergence and derivative dominance
    count = 40 if full else 16
    w_star = np.zeros(3)
    w_star[0] = 1.0
    starts = sample_basin(w_star, count, rng, theta_range=(0.05, math.pi - 0.05))
    d2 = integrate_flow_batch(
        np.concatenate([starts, starts]), w_star, dt=0.02, t_final=80.0,
        mode=["L2"] * count + ["Sob"] * count,
    ).dist2
    d_l2, d_sob = d2[:count], d2[count:]
    add("flow_l2_monotone_max_increase", np.max(np.diff(d_l2, axis=-1)), 1e-12)
    add("flow_l2_final_distance", np.max(np.sqrt(d_l2[:, -1])), 1e-3)
    add("flow_sob_dominance_max_excess", np.max(d_sob - d_l2), 1e-12)
    return verdicts
