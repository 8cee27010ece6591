"""Operator network: forward structure, exact input gradients, backprop."""

import numpy as np
import pytest

from soblab.errors import ConfigError
from soblab.training import ReluMLP, forward_state, make_operator_net
from soblab.training.losses import mean_square, residual
from soblab.training.mlp import param_count
from soblab.training.operator_net import evaluate_losses, loss_gradients


def small_net(seed=0, rank=3, hidden=(8, 8), sensors=12, query_dim=2):
    rng = np.random.default_rng(seed)
    sensor_points = rng.random((sensors, 1))
    return make_operator_net(query_dim, sensor_points, rank=rank, hidden=hidden, seed=seed)


def random_batch(net, seed=1, n_samples=4, n_queries=6, with_derivs=True):
    """(query points, (inputs, targets, d_targets) at them)."""
    rng = np.random.default_rng(seed)
    query_dim = net.phi.in_dim
    inputs = rng.normal(size=(n_samples, net.sensor_points.shape[0]))
    queries = rng.normal(size=(n_queries, query_dim))
    targets = rng.normal(size=(n_samples, n_queries))
    d_targets = rng.normal(size=(n_samples, n_queries, query_dim)) if with_derivs else None
    return queries, (inputs, targets, d_targets)


def grads_of(net, state, batch):
    """[g_value, g_der] (g_value alone without d_targets), from the two
    calls of a training step."""
    return loss_gradients(net, state, batch[0], *evaluate_losses(state, *batch)[:3])


def predict(net, inputs, queries):
    """(values (N, J), gradients (N, J, n)) from a fresh forward state."""
    state = forward_state(net, queries)
    coeffs = state.coefficients(inputs)
    return state.values(coeffs), state.gradients(coeffs)


def test_zero_phi_network_predicts_zero():
    net = small_net()
    net.params[: net.phi.n_params] = 0.0
    value, grad = predict(net, np.ones(net.sensor_points.shape[0]), np.array([0.3, -0.2]))
    assert value[0, 0] == 0.0
    np.testing.assert_array_equal(grad, 0.0)


def test_rank_one_single_layer_reduces_to_gated_form():
    # phi = psi = relu(w . x) reproduces relu(w.x) * mean_l relu(w.y_l) v_l
    w = np.array([0.7, -0.4])
    sensors = np.random.default_rng(3).normal(size=(9, 2))
    net = make_operator_net(2, sensors, rank=1, hidden=(1,), seed=0)
    for mlp in (net.phi, net.psi):
        mlp.weights[0][...] = w
        mlp.biases[0][...] = 0.0
        mlp.weights[1][...] = 1.0
        mlp.biases[1][...] = 0.0
    v = np.random.default_rng(4).normal(size=9)
    x = np.array([0.5, 0.1])
    value, _ = predict(net, v, x)
    expected = max(0.0, w @ x) * np.mean(np.maximum(sensors @ w, 0.0) * v)
    assert value[0, 0] == pytest.approx(expected, rel=1e-12)


def test_input_gradient_matches_finite_differences():
    net = small_net(seed=5, query_dim=3)
    rng = np.random.default_rng(6)
    v = rng.normal(size=net.sensor_points.shape[0])
    x = rng.normal(size=3)
    _, grad = predict(net, v, x)
    step = 1e-5
    for d in range(3):
        e = np.zeros(3)
        e[d] = step
        up, _ = predict(net, v, x + e)
        down, _ = predict(net, v, x - e)
        fd = (up[0, 0] - down[0, 0]) / (2 * step)
        assert grad[0, 0, d] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_batch_state_matches_single_point_state():
    net = small_net(seed=7)
    queries, batch = random_batch(net, seed=8)
    values, grads = predict(net, batch[0], queries)
    value0, grad0 = predict(net, batch[0][2], queries[4])
    np.testing.assert_allclose(grads[2, 4], grad0[0, 0], atol=1e-12)
    assert values[2, 4] == pytest.approx(value0[0, 0], rel=1e-12)


def test_sensor_count_guard():
    net = small_net()
    state = forward_state(net, np.zeros((3, 2)))
    with pytest.raises(ConfigError, match="sensor values but the net expects"):
        state.coefficients(np.ones((2, net.sensor_points.shape[0] + 1)))


def test_state_guards():
    net = small_net()
    queries, batch = random_batch(net)
    with pytest.raises(ConfigError, match="forward state built with jvps"):
        evaluate_losses(forward_state(net, queries, jvps=False), *batch)


def param_loss(net, queries, batch, kind):
    l2, der = evaluate_losses(forward_state(net, queries), *batch)[3:]
    return l2 if kind == "l2" else der


@pytest.mark.parametrize("kind", ["l2", "der"])
def test_backward_matches_finite_differences(kind):
    net = small_net(seed=9)
    queries, batch = random_batch(net, seed=10)
    grad = grads_of(net, forward_state(net, queries), batch)[("l2", "der").index(kind)]
    params = net.params.copy()
    rng = np.random.default_rng(11)
    coords = rng.choice(net.n_params, size=32, replace=False)
    step = 1e-6
    for c in coords:
        net.params[c] = params[c] + step
        up = param_loss(net, queries, batch, kind)
        net.params[c] = params[c] + step - 2 * step
        down = param_loss(net, queries, batch, kind)
        fd = (up - down) / (2 * step)
        net.params[:] = params
        assert grad[c] == pytest.approx(fd, rel=1e-4, abs=1e-10)


def test_backward_zero_residual_gives_zero_gradient():
    net = small_net(seed=12)
    queries, batch = random_batch(net, seed=13)
    values, grads = predict(net, batch[0], queries)
    exact = (batch[0], values, grads)
    state = forward_state(net, queries)
    l2, der = evaluate_losses(state, *exact)[3:]
    g_l2, g_der = grads_of(net, state, exact)
    assert l2 == 0.0 and der == 0.0
    np.testing.assert_allclose(g_l2, 0.0, atol=1e-14)
    np.testing.assert_allclose(g_der, 0.0, atol=1e-14)


def test_combined_gradient_is_sum_of_parts():
    net = small_net(seed=14)
    queries, batch = random_batch(net, seed=15)
    state = forward_state(net, queries)
    l2, der = evaluate_losses(state, *batch)[3:]
    g1, g2 = grads_of(net, state, batch)
    # the combined objective is optimized by stepping along g1 + g2
    step = 1e-7
    direction = g1 + g2
    direction = direction / np.linalg.norm(direction)
    net.params[:] = net.params - step * direction
    l2b, derb = evaluate_losses(forward_state(net, queries), *batch)[3:]
    drop = (l2 + der) - (l2b + derb)
    assert drop == pytest.approx(step * np.linalg.norm(g1 + g2), rel=1e-3)


def test_loss_evaluation_matches_loss_functions():
    net = small_net(seed=16)
    queries, batch = random_batch(net, seed=17)
    inputs, targets, d_targets = batch
    l2, der = evaluate_losses(forward_state(net, queries), *batch)[3:]
    values, pred_grads = predict(net, inputs, queries)
    assert l2 == mean_square(residual(values, targets))
    assert der == mean_square(residual(pred_grads, d_targets))
    l2_only, der_nan = evaluate_losses(forward_state(net, queries), inputs, targets, None)[3:]
    assert l2_only == l2 and np.isnan(der_nan)


def test_mlp_param_round_trip():
    size = param_count([3, 5, 2])
    mlp = ReluMLP([3, 5, 2], rng=np.random.default_rng(0), params=np.empty(size))
    mlp2 = ReluMLP([3, 5, 2], rng=np.random.default_rng(99), params=np.empty(size))
    mlp2.params[:] = mlp.params
    x = np.random.default_rng(1).normal(size=(4, 3))
    np.testing.assert_array_equal(mlp.forward(x)[0], mlp2.forward(x)[0])
    # the weights and biases are views into params, in layer order
    np.testing.assert_array_equal(mlp2.weights[1].ravel(), mlp.params[20:30])
    np.testing.assert_array_equal(mlp2.biases[1], mlp.params[30:])


def test_operator_net_params_are_one_vector():
    net = small_net()
    net.params[-1] = 7.0
    assert net.psi.biases[-1][-1] == 7.0
    net.params[0] = 5.0
    assert net.phi.weights[0][0, 0] == 5.0
    assert net.n_params == net.phi.n_params + net.psi.n_params


def test_value_gradient_alone_without_derivative_residuals():
    net = small_net(seed=18)
    queries, batch = random_batch(net, seed=19)
    state = forward_state(net, queries)
    g_value, _ = grads_of(net, state, batch)
    (alone,) = grads_of(net, state, (batch[0], batch[1], None))
    np.testing.assert_allclose(alone, g_value, rtol=1e-13, atol=1e-15)


# ReluMLP's two reverse loops before they became one, kept as the reference
def _two_loop_backward(mlp, cache, out_cot):
    activations, masks = cache
    delta = np.asarray(out_cot, dtype=float)
    grads = []
    for i in range(len(mlp.weights) - 1, -1, -1):
        if i != len(mlp.weights) - 1:
            delta = delta * masks[i]
        grads.append(delta.sum(axis=-2))
        grads.append(delta.swapaxes(-1, -2) @ activations[i])
        if i:
            delta = delta @ mlp.weights[i]
    return np.concatenate([g.reshape(*delta.shape[:-2], -1) for g in grads[::-1]], axis=-1)


def _two_loop_jvp_param_grads(mlp, cache, tangent_cache, out_weights):
    _, masks = cache
    r = np.asarray(out_weights, dtype=float)
    grads = []
    for i in range(len(mlp.weights) - 1, -1, -1):
        if i != len(mlp.weights) - 1:
            r = r * masks[i]
        grads.append(np.zeros((*r.shape[:-2], mlp.biases[i].size)))
        grads.append(r.swapaxes(-1, -2) @ tangent_cache[i])
        if i:
            r = r @ mlp.weights[i]
    return np.concatenate([g.reshape(*r.shape[:-2], -1) for g in grads[::-1]], axis=-1)


@pytest.mark.parametrize("stack", [(), (3,)], ids=["single", "stacked"])
def test_one_reverse_loop_equals_the_two_it_replaced(stack):
    sizes = [2, 7, 5, 3]
    rng = np.random.default_rng(20)
    mlp = ReluMLP(sizes, rng=rng, params=np.empty(param_count(sizes)))
    mlp.params[:] += 0.1 * rng.standard_normal(mlp.n_params)  # nonzero biases too
    _, cache = mlp.forward(rng.normal(size=(9, 2)))
    _, tangent_cache = mlp.jvp(cache, rng.normal(size=(*stack, 9, 2)))
    cot = rng.normal(size=(*stack, 9, 3))
    grad = mlp.backward(cache, cot)
    assert grad.shape == (*stack, mlp.n_params)
    assert np.array_equal(grad, _two_loop_backward(mlp, cache, cot))
    grad = mlp.jvp_param_grads(cache, tangent_cache, cot)
    assert grad.shape == (*stack, mlp.n_params)
    assert np.array_equal(grad, _two_loop_jvp_param_grads(mlp, cache, tangent_cache, cot))
