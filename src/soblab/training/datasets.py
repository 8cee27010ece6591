"""Synthetic operator-learning datasets with exact or estimated derivatives.

Input functions are drawn from a seeded random smooth family (a short
cosine series); outputs come from closed forms or fine-grid quadrature
depending on the task.  Target noise, when requested, is i.i.d.
Gaussian with standard deviation sigma times the clean training-target
range, injected into the training targets only.  Derivative targets are
either the exact closed forms or meshfree estimates recomputed from the
(possibly noisy) sampled targets, which is the pipeline the training
experiments exercise: every training sample is one value row of a
PointCloud on the query points, and estimate_derivatives fits them all
in one pass of row blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..geometry import PointCloud
from ..mls import MlsConfig, estimate_derivatives

GENERATORS = ("antiderivative1d", "poisson1d", "smoothing2d", "discontinuous_inverse")
_TERMS_1D, _TERMS_2D = 4, 6  # cosine terms of a random input on the line, on the square
_KERNEL_WIDTH, _QUAD_SIDE = 0.12, 64  # smoothing2d's Gaussian width, quadrature grid side


@dataclass(frozen=True)
class DatasetSizes:
    """Split sizes, sensor and query counts.  smoothing2d rounds sensors to
    a square grid of max(2, round(sqrt(sensors))) a side (1 -> 4, 32 -> 36,
    50 -> 49); the 1-D tasks place exactly `sensors`."""

    train: int = 64
    val: int = 16
    test: int = 16
    sensors: int = 32
    queries: int = 96

    def validate(self):
        for name in ("train", "val", "test", "sensors", "queries"):
            if getattr(self, name) < 1:
                raise ConfigError(f"sizes.{name} must be positive")


@dataclass(frozen=True)
class OperatorDataset:
    """Sampled input/output function pairs at fixed sensors and queries."""

    generator: str
    sensor_points: np.ndarray          # (Jt, d_in)
    query_points: np.ndarray           # (J, n)
    train_inputs: np.ndarray           # (N_train, Jt)
    train_targets: np.ndarray          # (N_train, J), noisy when noise > 0
    val_inputs: np.ndarray
    val_targets: np.ndarray
    test_inputs: np.ndarray
    test_targets: np.ndarray
    derivatives_reliable: bool
    train_d_targets: np.ndarray | None = None  # (N_train, J, n)

    @property
    def query_dim(self) -> int:
        return self.query_points.shape[1]

    @property
    def has_derivatives(self) -> bool:
        return self.train_d_targets is not None


# -- random smooth input family ---------------------------------------------

def _draw_series(rng):
    """Coefficients of v(x) = c0 + sum_r a_r cos(w_r x + b_r) on [0, 1]."""
    c0 = rng.normal(scale=0.8)
    amps = rng.normal(scale=1.0, size=_TERMS_1D) / np.arange(1, _TERMS_1D + 1)
    freqs = rng.uniform(np.pi, 3.0 * np.pi, size=_TERMS_1D)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=_TERMS_1D)
    return c0, amps, freqs, phases


def _series_value(coeffs, x):
    c0, amps, freqs, phases = coeffs
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, c0)
    for a, w, b in zip(amps, freqs, phases):
        out += a * np.cos(w * x + b)
    return out


def _series_antiderivative(coeffs, x):
    """Integral from 0 to x of the series, in closed form."""
    c0, amps, freqs, phases = coeffs
    x = np.asarray(x, dtype=float)
    out = c0 * x
    for a, w, b in zip(amps, freqs, phases):
        out += (a / w) * (np.sin(w * x + b) - np.sin(b))
    return out


def _series_poisson(coeffs, x):
    """Solution of -u'' = v on [0, 1] with u(0) = u(1) = 0, and u'."""
    c0, amps, freqs, phases = coeffs
    x = np.asarray(x, dtype=float)

    def particular(y):
        out = -0.5 * c0 * y**2
        for a, w, b in zip(amps, freqs, phases):
            out += (a / w**2) * np.cos(w * y + b)
        return out

    def particular_d(y):
        out = -c0 * y
        for a, w, b in zip(amps, freqs, phases):
            out += -(a / w) * np.sin(w * y + b)
        return out

    up0 = particular(np.zeros(1))[0]
    up1 = particular(np.ones(1))[0]
    lin_b = -(up1 - up0)
    return particular(x) - up0 + lin_b * x, particular_d(x) + lin_b


def _draw_series_2d(rng):
    amps = rng.normal(scale=1.0, size=_TERMS_2D) / np.arange(1, _TERMS_2D + 1)
    freqs = rng.uniform(np.pi, 2.5 * np.pi, size=(_TERMS_2D, 2))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=_TERMS_2D)
    return amps, freqs, phases


def _series_value_2d(coeffs, xy):
    amps, freqs, phases = coeffs
    xy = np.atleast_2d(xy)
    out = np.zeros(xy.shape[0])
    for a, w, b in zip(amps, freqs, phases):
        out += a * np.cos(xy @ w + b)
    return out


# -- task constructors --------------------------------------------------------

def _build_1d(kind, sizes, rng):
    sensors = np.linspace(0.0, 1.0, sizes.sensors)[:, None]
    queries = np.sort(rng.uniform(0.02, 0.98, size=sizes.queries))[:, None]
    total = sizes.train + sizes.val + sizes.test
    inputs = np.empty((total, sizes.sensors))
    targets = np.empty((total, sizes.queries))
    d_targets = np.empty((total, sizes.queries, 1))
    for k in range(total):
        coeffs = _draw_series(rng)
        inputs[k] = _series_value(coeffs, sensors[:, 0])
        if kind == "antiderivative1d":
            targets[k] = _series_antiderivative(coeffs, queries[:, 0])
            d_targets[k, :, 0] = _series_value(coeffs, queries[:, 0])
        elif kind == "poisson1d":
            u, du = _series_poisson(coeffs, queries[:, 0])
            targets[k] = u
            d_targets[k, :, 0] = du
        else:  # discontinuous_inverse: a jump whose location tracks the input
            c = 0.35 + 0.3 / (1.0 + np.exp(-3.0 * inputs[k].mean()))
            targets[k] = 1.0 + (queries[:, 0] > c)
            d_targets[k, :, 0] = 0.0
    return sensors, queries, inputs, targets, d_targets


def _build_smoothing2d(sizes, rng):
    side = max(2, int(round(np.sqrt(sizes.sensors))))
    axis = np.linspace(0.0, 1.0, side)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    sensors = np.column_stack([gx.ravel(), gy.ravel()])
    queries = rng.uniform(0.05, 0.95, size=(sizes.queries, 2))

    qaxis = np.linspace(0.0, 1.0, _QUAD_SIDE)
    qx, qy = np.meshgrid(qaxis, qaxis, indexing="ij")
    quad_pts = np.column_stack([qx.ravel(), qy.ravel()])
    cell = (qaxis[1] - qaxis[0]) ** 2

    diff = queries[:, None, :] - quad_pts[None, :, :]
    sq = (diff**2).sum(axis=2)
    gauss = np.exp(-sq / (2.0 * _KERNEL_WIDTH**2)) / (2.0 * np.pi * _KERNEL_WIDTH**2)
    kernel = gauss * cell
    kernel_dx = kernel * (-diff[:, :, 0] / _KERNEL_WIDTH**2)
    kernel_dy = kernel * (-diff[:, :, 1] / _KERNEL_WIDTH**2)
    del diff, sq, gauss

    total = sizes.train + sizes.val + sizes.test
    inputs = np.empty((total, sensors.shape[0]))
    v_quad = np.empty((total, quad_pts.shape[0]))
    for k in range(total):
        coeffs = _draw_series_2d(rng)
        inputs[k] = _series_value_2d(coeffs, sensors)
        v_quad[k] = _series_value_2d(coeffs, quad_pts)
    # one (samples, quadrature) @ (quadrature, queries) product per table
    targets = v_quad @ kernel.T
    d_targets = np.stack([v_quad @ kernel_dx.T, v_quad @ kernel_dy.T], axis=-1)
    return sensors, queries, inputs, targets, d_targets


def mls_derivative_targets(query_points, targets, k, m):
    """Meshfree first-derivative estimates (N, J, n) from sampled target
    values (N, J) on the query points (J, n): the first-order part of the
    MLS jets of every sample, with K capped at J."""
    if m < 1:
        raise ConfigError(f"|alpha|=1 exceeds fitted order m={m}")
    cloud = PointCloud(points=query_points, values=targets)
    jet = estimate_derivatives(cloud, MlsConfig(k=min(k, cloud.size), m=m))
    # first derivatives are the degree-1 coefficients (1! = 1), in axis order
    n = cloud.dim
    axes = [jet.index_of(tuple(int(d == i) for i in range(n))) for d in range(n)]
    return jet.coefficients[..., axes]


def synth_dataset(
    kind: str,
    sizes: DatasetSizes | None = None,
    noise: float = 0.0,
    seed: int = 0,
    derivative_source: str = "mls",
    mls_k: int = 20,
    mls_m: int = 2,
) -> OperatorDataset:
    """Generate one synthetic operator-learning dataset.

    derivative_source selects how the training derivative targets are
    produced: "exact" closed forms, "mls" estimates from the (noisy)
    sampled targets, or "none".  Noise perturbs training targets only.
    smoothing2d rounds sizes.sensors to a square grid (see DatasetSizes).
    """
    if kind not in GENERATORS:
        raise ConfigError(f"unknown dataset kind {kind!r}; choose from {GENERATORS}")
    if derivative_source not in ("exact", "mls", "none"):
        raise ConfigError(f"derivative_source must be exact|mls|none, got {derivative_source!r}")
    if not (math.isfinite(noise) and noise >= 0.0):
        raise ConfigError(f"noise must be finite and >= 0, got {noise}")
    sizes = sizes or DatasetSizes()
    sizes.validate()
    rng = np.random.default_rng(seed)

    if kind == "smoothing2d":
        sensors, queries, inputs, targets, exact_d = _build_smoothing2d(sizes, rng)
    else:
        sensors, queries, inputs, targets, exact_d = _build_1d(kind, sizes, rng)

    n_train = sizes.train
    n_val = sizes.val
    train_targets = targets[:n_train].copy()
    if noise > 0.0:
        spread = float(train_targets.max() - train_targets.min())
        train_targets = train_targets + rng.normal(
            scale=noise * spread, size=train_targets.shape
        )

    reliable = kind != "discontinuous_inverse"
    if derivative_source == "none":
        d_targets = None
    elif derivative_source == "exact":
        d_targets = exact_d[:n_train].copy()
    else:
        d_targets = mls_derivative_targets(queries, train_targets, k=mls_k, m=mls_m)

    return OperatorDataset(
        generator=kind,
        sensor_points=sensors,
        query_points=queries,
        train_inputs=inputs[:n_train],
        train_targets=train_targets,
        val_inputs=inputs[n_train : n_train + n_val],
        val_targets=targets[n_train : n_train + n_val],
        test_inputs=inputs[n_train + n_val :],
        test_targets=targets[n_train + n_val :],
        derivatives_reliable=reliable,
        train_d_targets=d_targets,
    )
