"""Loss conventions and gradient surgery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soblab.errors import ConfigError
from soblab.training import pcgrad_merge, relative_l2_error
from soblab.training.losses import mean_square, residual


def _loss(pred, target):
    """The value or derivative loss, as evaluate_losses forms either."""
    return mean_square(residual(pred, target))


def test_l2_loss_zero_on_match():
    x = np.arange(6.0).reshape(2, 3)
    assert _loss(x, x) == 0.0


def test_l2_loss_single_unit_residual():
    assert _loss(np.array([[1.0]]), np.array([[0.0]])) == 1.0


def test_l2_loss_two_sample_hand_value():
    # sample means: (1 + 1)/2 = 1 and (0 + 4)/2 = 2; average 1.5
    pred = np.array([[1.0, 1.0], [0.0, 2.0]])
    target = np.array([[0.0, 0.0], [0.0, 0.0]])
    assert _loss(pred, target) == 1.5


def test_l2_loss_shape_guard():
    with pytest.raises(ConfigError, match=r"prediction \(2, 3\) vs target \(3, 2\)"):
        _loss(np.zeros((2, 3)), np.zeros((3, 2)))


def test_der_loss_component_mean():
    # one sample, one point, two components: (1 + 0)/2
    pred = np.array([[[1.0, 0.0]]])
    target = np.zeros((1, 1, 2))
    assert _loss(pred, target) == 0.5


def test_der_loss_quadratic_homogeneity():
    rng = np.random.default_rng(0)
    pred = rng.normal(size=(3, 4, 2))
    target = rng.normal(size=(3, 4, 2))
    base = _loss(pred, target)
    assert _loss(3.0 * pred, 3.0 * target) == pytest.approx(9.0 * base, rel=1e-12)


def test_combined_loss_zero_iff_both_residuals_vanish():
    rng = np.random.default_rng(2)
    values = rng.normal(size=(2, 5))
    grads = rng.normal(size=(2, 5, 1))
    assert _loss(values, values) + _loss(grads, grads) == 0.0
    assert _loss(values + 1e-3, values) + _loss(grads, grads) > 0.0
    assert _loss(values, values) + _loss(grads + 1e-3, grads) > 0.0


def test_relative_l2_error_basics():
    t = np.array([[3.0, 4.0], [1.0, 0.0]])
    assert relative_l2_error(t, t) == 0.0
    assert relative_l2_error(1.01 * t, t) == pytest.approx(0.01, rel=1e-12)
    # per-sample errors 0.02 and 0.04 average to 0.03
    pred = np.array([[1.02], [2.08]])
    target = np.array([[1.0], [2.0]])
    assert relative_l2_error(pred, target) == pytest.approx(0.03, rel=1e-12)


def test_relative_l2_error_zero_target():
    with pytest.raises(ConfigError, match="identically zero"):
        relative_l2_error(np.ones((1, 2)), np.zeros((1, 2)))


# -- gradient surgery -----------------------------------------------------------

def test_pcgrad_no_conflict_is_sum():
    g1, g2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    np.testing.assert_array_equal(pcgrad_merge(g1, g2), [1.0, 1.0])
    assert g1 @ g2 >= 0.0


def test_pcgrad_hand_worked_conflict():
    # g2' = (0, 1); g1' = (1,0) - (-1/2)(-1,1) = (0.5, 0.5); sum (0.5, 1.5)
    g1, g2 = np.array([1.0, 0.0]), np.array([-1.0, 1.0])
    merged = pcgrad_merge(g1, g2)
    assert g1 @ g2 < 0.0
    np.testing.assert_allclose(merged, [0.5, 1.5], atol=1e-15)
    assert merged @ g1 >= 0.0
    assert merged @ g2 >= 0.0


def test_pcgrad_fully_opposed_cancels():
    g = np.array([0.3, -0.7, 1.1])
    np.testing.assert_allclose(pcgrad_merge(g, -g), 0.0, atol=1e-15)


def test_pcgrad_both_zero_sums_to_zero():
    # no conflict (the dot product is 0), so the merge is the plain sum
    np.testing.assert_array_equal(pcgrad_merge(np.zeros(3), np.zeros(3)), np.zeros(3))


def test_pcgrad_one_zero_passes_through():
    g = np.array([1.0, 2.0])
    np.testing.assert_array_equal(pcgrad_merge(g, np.zeros(2)), g)


def test_pcgrad_contract_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(10_000):
        dim = int(rng.integers(2, 513))
        g1 = rng.standard_normal(dim)
        g2 = rng.standard_normal(dim)
        merged = pcgrad_merge(g1, g2)
        assert merged @ g1 >= -1e-12
        assert merged @ g2 >= -1e-12
        if g1 @ g2 >= 0:
            np.testing.assert_array_equal(merged, g1 + g2)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=8),
    st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=8),
)
def test_pcgrad_contract_hypothesis(a, b):
    n = min(len(a), len(b))
    g1 = np.asarray(a[:n])
    g2 = np.asarray(b[:n])
    if not (g1 @ g1 or g2 @ g2):
        return
    merged = pcgrad_merge(g1, g2)
    scale = max(1.0, np.linalg.norm(g1) * np.linalg.norm(merged))
    assert merged @ g1 >= -1e-9 * scale
    scale = max(1.0, np.linalg.norm(g2) * np.linalg.norm(merged))
    assert merged @ g2 >= -1e-9 * scale
