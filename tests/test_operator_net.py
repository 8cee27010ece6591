"""Operator network: forward structure, exact input gradients, backprop."""

import numpy as np
import pytest

from soblab.errors import DimMismatchError
from soblab.training import (
    Batch,
    ReluMLP,
    der_loss,
    forward_state,
    l2_loss,
    loss_and_grads,
    make_operator_net,
)


def small_net(seed=0, rank=3, hidden=(8, 8), sensors=12, query_dim=2):
    rng = np.random.default_rng(seed)
    sensor_points = rng.random((sensors, 1))
    return make_operator_net(query_dim, sensor_points, rank=rank, hidden=hidden, seed=seed)


def random_batch(net, seed=1, n_samples=4, n_queries=6, with_derivs=True):
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(n_samples, net.n_sensors))
    queries = rng.normal(size=(n_queries, net.query_dim))
    targets = rng.normal(size=(n_samples, n_queries))
    d_targets = rng.normal(size=(n_samples, n_queries, net.query_dim)) if with_derivs else None
    return Batch(inputs=inputs, queries=queries, targets=targets, d_targets=d_targets)


def predict(net, inputs, queries):
    """(values (N, J), gradients (N, J, n)) from a fresh forward state."""
    state = forward_state(net, queries)
    coeffs = state.coefficients(inputs)
    return state.values(coeffs), state.gradients(coeffs)


def test_zero_phi_network_predicts_zero():
    net = small_net()
    net.params[: net.phi.n_params] = 0.0
    value, grad = predict(net, np.ones(net.n_sensors), np.array([0.3, -0.2]))
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
    v = rng.normal(size=net.n_sensors)
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
    batch = random_batch(net, seed=8)
    values, grads = predict(net, batch.inputs, batch.queries)
    value0, grad0 = predict(net, batch.inputs[2], batch.queries[4])
    np.testing.assert_allclose(grads[2, 4], grad0[0, 0], atol=1e-12)
    assert values[2, 4] == pytest.approx(value0[0, 0], rel=1e-12)


def test_sensor_count_guard():
    net = small_net()
    state = forward_state(net, np.zeros((3, 2)))
    with pytest.raises(DimMismatchError):
        state.coefficients(np.ones((2, net.n_sensors + 1)))


def test_state_guards():
    net = small_net()
    batch = random_batch(net)
    with pytest.raises(DimMismatchError):  # the batch's queries are not the state's
        loss_and_grads(net, forward_state(net, batch.queries + 1.0), batch, ("l2",))
    with pytest.raises(DimMismatchError):  # derivatives from a state built without JVPs
        loss_and_grads(net, forward_state(net, batch.queries, jvps=False), batch)
    with pytest.raises(DimMismatchError):  # derivative gradient without derivative targets
        no_derivs = Batch(inputs=batch.inputs, queries=batch.queries, targets=batch.targets)
        loss_and_grads(net, forward_state(net, batch.queries), no_derivs, ("der",))
    with pytest.raises(ValueError):
        loss_and_grads(net, forward_state(net, batch.queries), batch, ("sobolev",))


def param_loss(net, batch, kind):
    l2, der, _ = loss_and_grads(net, forward_state(net, batch.queries), batch)
    return l2 if kind == "l2" else der


@pytest.mark.parametrize("kind", ["l2", "der"])
def test_backward_matches_finite_differences(kind):
    net = small_net(seed=9)
    batch = random_batch(net, seed=10)
    (grad,) = loss_and_grads(net, forward_state(net, batch.queries), batch, (kind,))[2]
    params = net.params.copy()
    rng = np.random.default_rng(11)
    coords = rng.choice(net.n_params, size=32, replace=False)
    step = 1e-6
    for c in coords:
        net.params[c] = params[c] + step
        up = param_loss(net, batch, kind)
        net.params[c] = params[c] + step - 2 * step
        down = param_loss(net, batch, kind)
        fd = (up - down) / (2 * step)
        net.params[:] = params
        assert grad[c] == pytest.approx(fd, rel=1e-4, abs=1e-10)


def test_backward_zero_residual_gives_zero_gradient():
    net = small_net(seed=12)
    batch = random_batch(net, seed=13)
    values, grads = predict(net, batch.inputs, batch.queries)
    exact = Batch(inputs=batch.inputs, queries=batch.queries, targets=values, d_targets=grads)
    l2, der, (g_l2, g_der) = loss_and_grads(
        net, forward_state(net, batch.queries), exact, ("l2", "der")
    )
    assert l2 == 0.0 and der == 0.0
    np.testing.assert_allclose(g_l2, 0.0, atol=1e-14)
    np.testing.assert_allclose(g_der, 0.0, atol=1e-14)


def test_combined_gradient_is_sum_of_parts():
    net = small_net(seed=14)
    batch = random_batch(net, seed=15)
    state = forward_state(net, batch.queries)
    l2, der, (g1, g2) = loss_and_grads(net, state, batch, ("l2", "der"))
    # the combined objective is optimized by stepping along g1 + g2
    step = 1e-7
    direction = g1 + g2
    direction = direction / np.linalg.norm(direction)
    net.params[:] = net.params - step * direction
    l2b, derb, _ = loss_and_grads(net, forward_state(net, batch.queries), batch)
    drop = (l2 + der) - (l2b + derb)
    assert drop == pytest.approx(step * np.linalg.norm(g1 + g2), rel=1e-3)


def test_loss_evaluation_matches_loss_functions():
    net = small_net(seed=16)
    batch = random_batch(net, seed=17)
    l2, der, grads = loss_and_grads(net, forward_state(net, batch.queries), batch)
    assert grads == []
    values, pred_grads = predict(net, batch.inputs, batch.queries)
    assert l2 == l2_loss(values, batch.targets)
    assert der == der_loss(pred_grads, batch.d_targets)
    no_derivs = Batch(inputs=batch.inputs, queries=batch.queries, targets=batch.targets)
    l2_only, der_nan, _ = loss_and_grads(net, forward_state(net, batch.queries), no_derivs)
    assert l2_only == l2 and np.isnan(der_nan)


def test_mlp_param_round_trip():
    mlp = ReluMLP([3, 5, 2], rng=np.random.default_rng(0))
    mlp2 = ReluMLP([3, 5, 2], rng=np.random.default_rng(99))
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
