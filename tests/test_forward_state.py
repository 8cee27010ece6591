"""The forward-state training pass against the per-call passes it replaced.

The reference below is the training arithmetic before forward states:
every pass reruns the psi and phi forwards and recomputes the ReLU gates
from the pre-activations, each step copies the parameters out and back,
and the epoch-end losses and the validation and test predictions run
their own forwards.  The new pass keeps the arithmetic and its order, so
losses, gradients and whole training reports must match bit for bit.
"""

from dataclasses import asdict

import numpy as np
import pytest

from soblab.training import (
    Batch,
    DatasetSizes,
    ReluMLP,
    TrainConfig,
    TrainReport,
    forward_state,
    make_operator_net,
    pcgrad_merge,
    synth_dataset,
    train,
)
from soblab.training import loop
from soblab.training.losses import mean_square, relative_l2_error, residual
from soblab.training.operator_net import evaluate_losses, loss_gradients

# -- reference ------------------------------------------------------------------


def _ref_forward(mlp, x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    activations = [x]
    pre = []
    a = x
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = a @ w.T + b
        pre.append(z)
        a = z if i == last else np.maximum(z, 0.0)
        if i != last:
            activations.append(a)
    return a, (activations, pre)


def _ref_backward(mlp, cache, out_cot):
    activations, pre = cache
    delta = np.asarray(out_cot, dtype=float)
    grads_w = [None] * len(mlp.weights)
    grads_b = [None] * len(mlp.biases)
    for i in range(len(mlp.weights) - 1, -1, -1):
        if i != len(mlp.weights) - 1:
            delta = delta * (pre[i] > 0)
        grads_w[i] = delta.T @ activations[i]
        grads_b[i] = delta.sum(axis=0)
        delta = delta @ mlp.weights[i]
    return np.concatenate([np.concatenate((w.ravel(), b)) for w, b in zip(grads_w, grads_b)])


def _ref_jvp(mlp, cache, tangent):
    activations, pre = cache
    t = np.atleast_2d(np.asarray(tangent, dtype=float))
    tangents = [t]
    last = len(mlp.weights) - 1
    for i, w in enumerate(mlp.weights):
        t = t @ w.T
        if i != last:
            t = t * (pre[i] > 0)
            tangents.append(t)
    return t, tangents


def _ref_jvp_param_grads(mlp, cache, tangents, out_weights):
    activations, pre = cache
    r = np.asarray(out_weights, dtype=float)
    grads_w = [None] * len(mlp.weights)
    for i in range(len(mlp.weights) - 1, -1, -1):
        if i != len(mlp.weights) - 1:
            r = r * (pre[i] > 0)
        grads_w[i] = r.T @ tangents[i]
        r = r @ mlp.weights[i]
    return np.concatenate(
        [np.concatenate((gw.ravel(), np.zeros_like(b))) for gw, b in zip(grads_w, mlp.biases)]
    )


def _ref_coefficients(net, inputs):
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    psi_out, psi_cache = _ref_forward(net.psi, net.sensor_points)
    return inputs @ psi_out / net.n_sensors, psi_out, psi_cache


def ref_predict_values(net, inputs, queries):
    coeffs, _, _ = _ref_coefficients(net, inputs)
    phi_out, _ = _ref_forward(net.phi, np.atleast_2d(queries))
    return coeffs @ phi_out.T


def ref_predict_gradients(net, inputs, queries):
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    coeffs, _, _ = _ref_coefficients(net, inputs)
    _, phi_cache = _ref_forward(net.phi, queries)
    j, n = queries.shape
    out = np.empty((coeffs.shape[0], j, n))
    for d in range(n):
        tangent = np.zeros_like(queries)
        tangent[:, d] = 1.0
        t_out, _ = _ref_jvp(net.phi, phi_cache, tangent)
        out[:, :, d] = coeffs @ t_out.T
    return out


def ref_evaluate_losses(net, queries, batch):
    values = ref_predict_values(net, batch.inputs, queries)
    l2 = mean_square(residual(values, batch.targets))
    if batch.d_targets is None:
        return l2, float("nan")
    grads = ref_predict_gradients(net, batch.inputs, queries)
    return l2, mean_square(residual(grads, batch.d_targets))


def ref_backward(net, queries, batch, kind):
    inputs = np.atleast_2d(np.asarray(batch.inputs, dtype=float))
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    coeffs, psi_out, psi_cache = _ref_coefficients(net, inputs)
    phi_out, phi_cache = _ref_forward(net.phi, queries)
    n_samples, jt = inputs.shape
    j, n = queries.shape
    if kind == "l2":
        residual = coeffs @ phi_out.T - np.asarray(batch.targets, dtype=float)
        cot_values = 2.0 * residual / residual.size
        phi_grads = _ref_backward(net.phi, phi_cache, cot_values.T @ coeffs)
        d_coeffs = cot_values @ phi_out
    else:
        d_targets = np.asarray(batch.d_targets, dtype=float)
        phi_grads = np.zeros(net.phi.n_params)
        d_coeffs = np.zeros_like(coeffs)
        denom = n_samples * j * n
        for d in range(n):
            tangent = np.zeros_like(queries)
            tangent[:, d] = 1.0
            t_out, t_cache = _ref_jvp(net.phi, phi_cache, tangent)
            residual_d = coeffs @ t_out.T - d_targets[:, :, d]
            cot_d = 2.0 * residual_d / denom
            phi_grads += _ref_jvp_param_grads(net.phi, phi_cache, t_cache, cot_d.T @ coeffs)
            d_coeffs += cot_d @ t_out
    psi_cot = inputs.T @ d_coeffs / jt
    psi_grads = _ref_backward(net.psi, psi_cache, psi_cot)
    return np.concatenate([phi_grads, psi_grads])


class _RefAdam:
    def __init__(self, size, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, params, grad):
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad * grad
        m_hat = self.m / (1 - self.beta1**self.t)
        v_hat = self.v / (1 - self.beta2**self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def ref_train(cfg, dataset, mode):
    net = make_operator_net(
        dataset.query_dim, dataset.sensor_points, rank=cfg.rank, hidden=cfg.hidden, seed=cfg.seed
    )
    rng = np.random.default_rng(cfg.seed + 1)
    n_train = dataset.train_inputs.shape[0]
    batch_size = cfg.batch_size or n_train
    queries = dataset.query_points
    full = Batch(dataset.train_inputs, dataset.train_targets, dataset.train_d_targets)
    init_l2, init_der = ref_evaluate_losses(net, queries, full)
    init_val = relative_l2_error(
        ref_predict_values(net, dataset.val_inputs, dataset.query_points), dataset.val_targets
    )
    adam = _RefAdam(net.n_params, cfg.learning_rate) if cfg.optimizer == "adam" else None
    hist_l2, hist_der, hist_val = [], [], []
    for _ in range(cfg.epochs):
        order = rng.permutation(n_train)
        for start in range(0, n_train, batch_size):
            pick = order[start : start + batch_size]
            batch = Batch(
                inputs=dataset.train_inputs[pick],
                targets=dataset.train_targets[pick],
                d_targets=dataset.train_d_targets[pick],
            )
            g_value = ref_backward(net, queries, batch, "l2")
            if mode == "ordinary":
                step_grad = g_value
            elif mode == "sobolev":
                step_grad = g_value + cfg.der_weight * ref_backward(net, queries, batch, "der")
            else:
                g_der = cfg.der_weight * ref_backward(net, queries, batch, "der")
                if np.any(g_value) or np.any(g_der):
                    step_grad = pcgrad_merge(g_value, g_der)
                else:
                    step_grad = g_value
            params = net.params.copy()
            if adam is None:
                params = params - cfg.learning_rate * step_grad
            else:
                params = adam.step(params, step_grad)
            net.params[:] = params
        l2, der = ref_evaluate_losses(net, queries, full)
        hist_l2.append(l2)
        hist_der.append(der)
        hist_val.append(relative_l2_error(
            ref_predict_values(net, dataset.val_inputs, dataset.query_points), dataset.val_targets
        ))
    final_test = relative_l2_error(
        ref_predict_values(net, dataset.test_inputs, dataset.query_points), dataset.test_targets
    )
    config = asdict(cfg)
    config["hidden"] = list(cfg.hidden)
    return TrainReport(
        mode=mode, seed=cfg.seed, config=config, initial_l2=init_l2, initial_der=init_der,
        initial_val_rel_l2=init_val, epoch_l2=tuple(hist_l2), epoch_der=tuple(hist_der),
        epoch_val_rel_l2=tuple(hist_val), final_test_rel_l2=final_test, n_params=net.n_params,
    )


# -- equivalence ----------------------------------------------------------------

SIZES = DatasetSizes(train=16, val=8, test=8, sensors=32, queries=96)
_DATASETS = {}


def dataset(task):
    if task not in _DATASETS:
        _DATASETS[task] = synth_dataset(
            task, sizes=SIZES, noise=0.03, seed=4, derivative_source="mls", mls_k=20
        )
    return _DATASETS[task]


@pytest.mark.parametrize("task", ["antiderivative1d", "smoothing2d"])
@pytest.mark.parametrize("mode", ["ordinary", "sobolev", "sobolev+pcgrad"])
@pytest.mark.parametrize("batch_size", [None, 4])
@pytest.mark.parametrize("optimizer,lr", [("gd", 0.05), ("adam", 3e-3)])
def test_train_matches_reference_bit_for_bit(task, mode, batch_size, optimizer, lr):
    cfg = TrainConfig(epochs=20, learning_rate=lr, batch_size=batch_size, optimizer=optimizer,
                      seed=2)
    ds = dataset(task)
    new = train(cfg, ds, mode)
    ref = ref_train(cfg, ds, mode)
    for field in ("initial_l2", "initial_der", "initial_val_rel_l2", "epoch_l2", "epoch_der",
                  "epoch_val_rel_l2", "final_test_rel_l2", "mode", "config", "n_params"):
        assert getattr(new, field) == getattr(ref, field), field
    assert new == ref


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_loss_and_grads_match_reference_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    query_dim = 1 + seed % 2
    net = make_operator_net(query_dim, rng.random((12, 1)), rank=3, hidden=(16, 16), seed=seed)
    net.params[:] += 0.1 * rng.standard_normal(net.n_params)  # nonzero biases too
    queries = rng.normal(size=(10, query_dim))
    state = forward_state(net, queries)
    for n_samples in (1, 5):
        batch = Batch(
            inputs=rng.normal(size=(n_samples, 12)),
            targets=rng.normal(size=(n_samples, 10)),
            d_targets=rng.normal(size=(n_samples, 10, query_dim)),
        )
        *rows, l2, der = evaluate_losses(state, batch)
        g_l2, g_der = loss_gradients(net, state, batch.inputs, *rows, ("l2", "der"))
        assert (l2, der) == ref_evaluate_losses(net, queries, batch)
        assert np.array_equal(g_l2, ref_backward(net, queries, batch, "l2"))
        assert np.array_equal(g_der, ref_backward(net, queries, batch, "der"))


# -- work per update ------------------------------------------------------------


@pytest.mark.parametrize("mode", ["ordinary", "sobolev+pcgrad"])
@pytest.mark.parametrize("batch_size", [None, 4])
def test_two_forwards_per_parameter_state(monkeypatch, mode, batch_size):
    calls = []
    original = ReluMLP.forward

    def counting(self, x):
        calls.append(self)
        return original(self, x)

    monkeypatch.setattr(ReluMLP, "forward", counting)
    ds = dataset("antiderivative1d")
    epochs = 3
    train(TrainConfig(epochs=epochs, batch_size=batch_size, seed=0), ds, mode)
    updates = epochs * -(-SIZES.train // (batch_size or SIZES.train))
    assert len(calls) == 2 * (updates + 1)


@pytest.mark.parametrize("mode", ["ordinary", "sobolev", "sobolev+pcgrad"])
@pytest.mark.parametrize("batch_size", [None, 4])
def test_one_evaluation_and_stacked_passes_per_parameter_state(monkeypatch, mode, batch_size):
    calls = {"backward": 0, "jvp": 0, "jvp_param_grads": 0}
    for name in calls:
        original = getattr(ReluMLP, name)

        def counting(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(ReluMLP, name, counting)
    evaluated = []  # rows of every evaluated batch
    evaluate = loop.evaluate_losses

    def counting_evaluate(state, batch):
        evaluated.append(batch.inputs.shape[0])
        return evaluate(state, batch)

    monkeypatch.setattr(loop, "evaluate_losses", counting_evaluate)
    ds = dataset("antiderivative1d")
    epochs = 3
    steps = -(-SIZES.train // (batch_size or SIZES.train))
    train(TrainConfig(epochs=epochs, batch_size=batch_size, seed=0), ds, mode)
    updates = epochs * steps
    # phi's value pass and one psi pass on the stacked cotangents of all loss kinds
    assert calls["backward"] == 2 * updates
    # one stacked JVP per parameter state, one stacked JVP gradient per Sobolev update
    assert calls["jvp"] == updates + 1
    assert calls["jvp_param_grads"] == (0 if mode == "ordinary" else updates)
    # the training set once per recorded state; an epoch's first step reuses it
    assert evaluated.count(SIZES.train) == epochs + 1
    assert len(evaluated) == epochs + 1 + epochs * (steps - 1)
