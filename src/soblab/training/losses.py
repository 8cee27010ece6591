"""Value and derivative losses, relative errors, and gradient surgery.

The value loss averages squared residuals over query points and then
over samples; the derivative loss additionally averages over the input
dimensions, so magnitudes stay comparable across resolutions.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError


def _check_same_shape(pred, target):
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ConfigError(f"prediction {pred.shape} vs target {target.shape}")
    return pred, target


def residual(pred, target):
    """pred - target; raises ConfigError unless the shapes agree."""
    pred, target = _check_same_shape(pred, target)
    return pred - target


def mean_square(res) -> float:
    """Mean squared residual: both losses as functions of their residual."""
    return float(np.add.reduce(res**2, axis=None) / res.size)  # np.mean without its dispatch


def relative_l2_error(pred, target) -> float:
    """Mean over samples of ||pred_i - target_i||_2 / ||target_i||_2."""
    pred, target = _check_same_shape(pred, target)
    pred = np.atleast_2d(pred)
    target = np.atleast_2d(target)
    norms = np.linalg.norm(target, axis=-1)
    if np.any(norms == 0.0):
        raise ConfigError("a target function is identically zero")
    ratios = np.linalg.norm(pred - target, axis=-1) / norms
    return float(np.add.reduce(ratios, axis=None) / ratios.size)


def pcgrad_merge(g1, g2) -> np.ndarray:
    """Merge two task gradients, projecting out any conflicting component.

    Without conflict (g1 . g2 >= 0) the merge is the plain sum.  In
    conflict, each gradient loses its projection onto the other before
    summing, so the merge has nonnegative inner product with both tasks.
    """
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    if g1.shape != g2.shape:
        raise ConfigError(f"gradient shapes differ: {g1.shape} vs {g2.shape}")
    dot = float(np.dot(g1, g2))
    if dot >= 0.0:
        return g1 + g2
    # conflict implies both are nonzero; normalize by the largest entry so
    # squared norms cannot underflow or overflow
    u1 = g1 / np.abs(g1).max()
    u2 = g2 / np.abs(g2).max()
    g1_proj = g1 - (float(np.dot(u2, g1)) / float(np.dot(u2, u2))) * u2
    g2_proj = g2 - (float(np.dot(u1, g2)) / float(np.dot(u1, u1))) * u1
    return g1_proj + g2_proj
