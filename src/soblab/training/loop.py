"""Minibatch gradient-descent training of the operator network.

Three modes: "ordinary" optimizes the value loss; "sobolev" adds the
derivative loss; "sobolev+pcgrad" keeps the two task gradients separate
and merges them through conflict projection every step.  The optimizer
is fixed-step descent ("gd") or adaptive moments ("adam"); the command
line defaults to adam.  Everything is deterministic given the seed.

All batches share the dataset's query points, so one forward state per
parameter state (two MLP forwards plus one stacked JVP pass) serves the
step gradients of the next update, the epoch-end losses on the training
set, the validation prediction and, after the last epoch, the test
prediction.  The training set is evaluated once per recorded state (the
initial one, each epoch's end); the next epoch's first step reuses its rows.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ..errors import ConfigError, NumericalError
from .datasets import OperatorDataset
from .losses import pcgrad_merge, relative_l2_error
from .operator_net import Batch, evaluate_losses, forward_state, loss_gradients, make_operator_net

MODES = ("ordinary", "sobolev", "sobolev+pcgrad")


@dataclass(frozen=True)
class TrainConfig:
    """Training settings; the defaults are those of the `train` command."""

    epochs: int = 300
    learning_rate: float = 3e-3
    batch_size: int | None = None       # None = full batch
    der_weight: float = 1.0
    rank: int = 8
    hidden: tuple[int, ...] = (64, 64)
    optimizer: str = "adam"             # "gd" or "adam"
    seed: int = 0

    def validate(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"--learning-rate must be finite and positive, got {self.learning_rate}")
        if not (math.isfinite(self.der_weight) and self.der_weight >= 0):
            raise ConfigError(f"--der-weight must be finite and >= 0, got {self.der_weight}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1 or None, got {self.batch_size}")
        if min((self.rank, *self.hidden)) < 1:
            raise ConfigError(f"rank and hidden widths must be >= 1, got {self.rank}, {self.hidden}")
        if self.optimizer not in ("gd", "adam"):
            raise ConfigError(f"optimizer must be gd or adam, got {self.optimizer!r}")


@dataclass(frozen=True)
class TrainReport:
    """Loss history plus initial/final errors and the resolved config."""

    mode: str
    seed: int
    config: dict
    initial_l2: float
    initial_der: float
    initial_val_rel_l2: float
    epoch_l2: tuple[float, ...]
    epoch_der: tuple[float, ...]
    epoch_val_rel_l2: tuple[float, ...]
    final_test_rel_l2: float
    n_params: int


class _Adam:
    def __init__(self, size, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0
        self._scratch = (np.empty(size), np.empty(size))

    def step(self, params, grad):
        """Update params in place: params -= lr * m_hat / (sqrt(v_hat) + eps),
        with the operations of that formula in its order, and no allocation."""
        self.t += 1
        a, b = self._scratch
        np.multiply(grad, 1 - self.beta1, out=a)
        self.m *= self.beta1
        self.m += a
        np.multiply(grad, 1 - self.beta2, out=a)
        a *= grad
        self.v *= self.beta2
        self.v += a
        np.divide(self.m, 1 - self.beta1**self.t, out=a)
        a *= self.lr
        np.divide(self.v, 1 - self.beta2**self.t, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        params -= a


def train(cfg: TrainConfig, dataset: OperatorDataset, mode: str) -> TrainReport:
    """Train a fresh operator network on the dataset in the given mode.

    Raises NumericalError, naming the epoch, if a loss diverges, and
    ConfigError when a derivative-supervised mode is requested on a
    dataset without derivative targets or with targets marked unreliable.
    """
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    cfg.validate()
    if mode != "ordinary" and not dataset.has_derivatives:
        raise ConfigError(f"mode {mode!r} needs derivative targets in the dataset")
    if mode != "ordinary" and not dataset.derivatives_reliable:
        raise ConfigError(
            f"mode {mode!r} needs reliable derivative targets; the {dataset.generator!r} "
            "dataset marks its derivative targets unreliable"
        )

    net = make_operator_net(
        query_dim=dataset.query_dim,
        sensor_points=dataset.sensor_points,
        rank=cfg.rank,
        hidden=cfg.hidden,
        seed=cfg.seed,
    )
    rng = np.random.default_rng(cfg.seed + 1)
    n_train = dataset.train_inputs.shape[0]
    batch_size = cfg.batch_size or n_train
    full = Batch(dataset.train_inputs, dataset.train_targets, dataset.train_d_targets)

    state = forward_state(net, dataset.query_points, jvps=dataset.has_derivatives)
    # divergence is detected explicitly; inf/NaN transients must not warn
    with np.errstate(over="ignore", invalid="ignore"):
        evaluation = evaluate_losses(state, full)
    init_l2, init_der = evaluation[3:]
    _check_losses(init_l2, init_der, mode, "at the initial parameters")
    init_val = relative_l2_error(_predict(state, dataset.val_inputs), dataset.val_targets)

    adam = _Adam(net.n_params, cfg.learning_rate) if cfg.optimizer == "adam" else None
    hist_l2: list[float] = []
    hist_der: list[float] = []
    hist_val: list[float] = []

    with np.errstate(over="ignore", invalid="ignore"):
        state = _run_epochs(
            cfg, dataset, mode, net, state, evaluation, rng, n_train, batch_size, full, adam,
            hist_l2, hist_der, hist_val,
        )

    final_test = relative_l2_error(_predict(state, dataset.test_inputs), dataset.test_targets)
    config = asdict(cfg)
    config["hidden"] = list(cfg.hidden)
    return TrainReport(
        mode=mode,
        seed=cfg.seed,
        config=config,
        initial_l2=init_l2,
        initial_der=init_der,
        initial_val_rel_l2=init_val,
        epoch_l2=tuple(hist_l2),
        epoch_der=tuple(hist_der),
        epoch_val_rel_l2=tuple(hist_val),
        final_test_rel_l2=final_test,
        n_params=net.n_params,
    )


def _check_losses(l2, der, mode, when):
    if not np.isfinite(l2) or (mode != "ordinary" and not np.isfinite(der)):
        raise NumericalError(f"loss became non-finite {when}")


def _predict(state, inputs):
    return state.values(state.coefficients(inputs))


def _run_epochs(cfg, dataset, mode, net, state, evaluation, rng, n_train, batch_size, full,
                adam, hist_l2, hist_der, hist_val):
    """Train for cfg.epochs epochs from the forward state and training-set
    evaluation of net's current parameters; returns the final forward state."""
    kinds = ("l2",) if mode == "ordinary" else ("l2", "der")
    for epoch in range(cfg.epochs):
        order = rng.permutation(n_train)
        for start in range(0, n_train, batch_size):
            pick = order[start : start + batch_size]
            inputs = dataset.train_inputs[pick]
            if start == 0:  # no update since the training-set evaluation: reuse its rows
                rows = [None if a is None else a[pick] for a in evaluation[:3]]
            else:
                d_targets = None if mode == "ordinary" else dataset.train_d_targets[pick]
                batch = Batch(inputs, dataset.train_targets[pick], d_targets)
                rows = evaluate_losses(state, batch)[:3]
            grads = loss_gradients(net, state, inputs, *rows, kinds)
            g_value = grads[0]
            if mode == "ordinary":
                step_grad = g_value
            elif mode == "sobolev":
                step_grad = g_value + cfg.der_weight * grads[1]
            else:
                g_der = cfg.der_weight * grads[1]
                if np.any(g_value) or np.any(g_der):
                    step_grad = pcgrad_merge(g_value, g_der)
                else:
                    step_grad = g_value  # exactly stationary: nothing to merge
            if adam is None:
                net.params -= cfg.learning_rate * step_grad
            else:
                adam.step(net.params, step_grad)
            state = forward_state(net, dataset.query_points, jvps=dataset.has_derivatives)

        evaluation = evaluate_losses(state, full)
        l2, der = evaluation[3:]
        _check_losses(l2, der, mode, f"at epoch {epoch}")
        val = relative_l2_error(_predict(state, dataset.val_inputs), dataset.val_targets)
        hist_l2.append(l2)
        hist_der.append(der)
        hist_val.append(val)
    return state
