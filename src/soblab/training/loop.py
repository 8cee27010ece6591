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
from .operator_net import evaluate_losses, forward_state, loss_gradients, make_operator_net

MODES = ("ordinary", "sobolev", "sobolev+pcgrad")
# Adam's decay rates of the first and second moments, and its denominator guard.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


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
    def __init__(self, size, lr):
        self.lr = lr
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0
        self._scratch = (np.empty(size), np.empty(size))

    def step(self, params, grad):
        """Update params in place: params -= lr * m_hat / (sqrt(v_hat) + eps),
        with the operations of that formula in its order, and no allocation."""
        self.t += 1
        a, b = self._scratch
        np.multiply(grad, 1 - _BETA1, out=a)
        self.m *= _BETA1
        self.m += a
        np.multiply(grad, 1 - _BETA2, out=a)
        a *= grad
        self.v *= _BETA2
        self.v += a
        np.divide(self.m, 1 - _BETA1**self.t, out=a)
        a *= self.lr
        np.divide(self.v, 1 - _BETA2**self.t, out=b)
        np.sqrt(b, out=b)
        b += _EPS
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
    adam = _Adam(net.n_params, cfg.learning_rate) if cfg.optimizer == "adam" else None
    state = forward_state(net, dataset.query_points, jvps=dataset.has_derivatives)
    records = []  # (l2, der, val) of the initial parameters, then after each epoch

    # divergence is detected explicitly; inf/NaN transients must not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in (None, *range(cfg.epochs)):  # None: the initial parameters
            if epoch is not None:
                order = rng.permutation(n_train)
                for start in range(0, n_train, batch_size):
                    pick = order[start : start + batch_size]
                    inputs = dataset.train_inputs[pick]
                    if start == 0:  # no update since the training-set evaluation: reuse its rows
                        coeffs, res, d_res = (None if a is None else a[pick] for a in evaluation[:3])
                    else:
                        d_targets = None if mode == "ordinary" else dataset.train_d_targets[pick]
                        coeffs, res, d_res = evaluate_losses(
                            state, inputs, dataset.train_targets[pick], d_targets)[:3]
                    grads = loss_gradients(
                        net, state, inputs, coeffs, res, None if mode == "ordinary" else d_res)
                    if mode == "ordinary":
                        step_grad = grads[0]
                    elif mode == "sobolev":
                        step_grad = grads[0] + cfg.der_weight * grads[1]
                    else:
                        step_grad = pcgrad_merge(grads[0], cfg.der_weight * grads[1])
                    if adam is None:
                        net.params -= cfg.learning_rate * step_grad
                    else:
                        adam.step(net.params, step_grad)
                    state = forward_state(net, dataset.query_points, jvps=dataset.has_derivatives)

            evaluation = evaluate_losses(
                state, dataset.train_inputs, dataset.train_targets, dataset.train_d_targets)
            l2, der = evaluation[3:]
            if not np.isfinite(l2) or (mode != "ordinary" and not np.isfinite(der)):
                when = "at the initial parameters" if epoch is None else f"at epoch {epoch}"
                raise NumericalError(f"loss became non-finite {when}")
            val = state.values(state.coefficients(dataset.val_inputs))
            records.append((l2, der, relative_l2_error(val, dataset.val_targets)))

    test = state.values(state.coefficients(dataset.test_inputs))
    l2s, ders, vals = zip(*records)
    config = asdict(cfg)
    config["hidden"] = list(cfg.hidden)
    return TrainReport(
        mode=mode,
        seed=cfg.seed,
        config=config,
        initial_l2=l2s[0],
        initial_der=ders[0],
        initial_val_rel_l2=vals[0],
        epoch_l2=l2s[1:],
        epoch_der=ders[1:],
        epoch_val_rel_l2=vals[1:],
        final_test_rel_l2=relative_l2_error(test, dataset.test_targets),
        n_params=net.n_params,
    )
