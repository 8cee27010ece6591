"""Minibatch gradient-descent training of the operator network.

Three modes: "ordinary" optimizes the value loss; "sobolev" adds the
derivative loss; "sobolev+pcgrad" keeps the two task gradients separate
and merges them through conflict projection every step.  Plain fixed
step descent is the default optimizer; an adaptive-moment variant is
available behind a flag for the toy benchmarks.  Everything is
deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..errors import ConfigError, NanLossError
from .datasets import OperatorDataset
from .losses import pcgrad_merge, relative_l2_error
from .operator_net import Batch, backward, evaluate_losses, make_operator_net, predict_values

MODES = ("ordinary", "sobolev", "sobolev+pcgrad")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    learning_rate: float = 1e-2
    batch_size: int | None = None       # None = full batch
    der_weight: float = 1.0
    rank: int = 8
    hidden: tuple[int, ...] = (64, 64)
    optimizer: str = "gd"               # "gd" or "adam"
    seed: int = 0

    def validate(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.learning_rate <= 0:
            raise ConfigError("learning rate must be positive")
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

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "seed": self.seed,
            "config": self.config,
            "initial_l2": self.initial_l2,
            "initial_der": self.initial_der,
            "initial_val_rel_l2": self.initial_val_rel_l2,
            "epoch_l2": list(self.epoch_l2),
            "epoch_der": list(self.epoch_der),
            "epoch_val_rel_l2": list(self.epoch_val_rel_l2),
            "final_test_rel_l2": self.final_test_rel_l2,
            "n_params": self.n_params,
        }


class _Adam:
    def __init__(self, size, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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


def _full_batch(ds: OperatorDataset) -> Batch:
    return Batch(
        inputs=ds.train_inputs,
        queries=ds.query_points,
        targets=ds.train_targets,
        d_targets=ds.train_d_targets,
    )


def train(cfg: TrainConfig, dataset: OperatorDataset, mode: str) -> TrainReport:
    """Train a fresh operator network on the dataset in the given mode.

    Raises NanLossError (with the epoch index) if a loss diverges, and
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
    full = _full_batch(dataset)

    init_l2, init_der = evaluate_losses(net, full)
    init_val = relative_l2_error(
        predict_values(net, dataset.val_inputs, dataset.query_points), dataset.val_targets
    )

    adam = _Adam(net.n_params, cfg.learning_rate) if cfg.optimizer == "adam" else None
    hist_l2: list[float] = []
    hist_der: list[float] = []
    hist_val: list[float] = []

    # divergence is detected explicitly below; inf/NaN transients must not warn
    with np.errstate(over="ignore", invalid="ignore"):
        _run_epochs(
            cfg, dataset, mode, net, rng, n_train, batch_size, full, adam,
            hist_l2, hist_der, hist_val,
        )

    final_test = relative_l2_error(
        predict_values(net, dataset.test_inputs, dataset.query_points), dataset.test_targets
    )
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


def _run_epochs(cfg, dataset, mode, net, rng, n_train, batch_size, full, adam,
                hist_l2, hist_der, hist_val):
    for epoch in range(cfg.epochs):
        order = rng.permutation(n_train)
        for start in range(0, n_train, batch_size):
            pick = order[start : start + batch_size]
            batch = Batch(
                inputs=dataset.train_inputs[pick],
                queries=dataset.query_points,
                targets=dataset.train_targets[pick],
                d_targets=None if dataset.train_d_targets is None else dataset.train_d_targets[pick],
            )
            g_value = backward(net, batch, "l2")
            if mode == "ordinary":
                step_grad = g_value
            elif mode == "sobolev":
                step_grad = g_value + cfg.der_weight * backward(net, batch, "der")
            else:
                g_der = cfg.der_weight * backward(net, batch, "der")
                if np.any(g_value) or np.any(g_der):
                    step_grad = pcgrad_merge(g_value, g_der).merged
                else:
                    step_grad = g_value  # exactly stationary: nothing to merge
            params = net.get_params()
            if adam is None:
                params = params - cfg.learning_rate * step_grad
            else:
                params = adam.step(params, step_grad)
            net.set_params(params)

        l2, der = evaluate_losses(net, full)
        if not np.isfinite(l2) or (mode != "ordinary" and not np.isfinite(der)):
            raise NanLossError(f"loss became non-finite at epoch {epoch}", epoch=epoch)
        val = relative_l2_error(
            predict_values(net, dataset.val_inputs, dataset.query_points), dataset.val_targets
        )
        hist_l2.append(l2)
        hist_der.append(der)
        hist_val.append(val)
