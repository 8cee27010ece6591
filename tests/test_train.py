"""Training loop: modes, determinism, divergence handling."""

import numpy as np
import pytest

from soblab.errors import ConfigError, NumericalError
from soblab.training import DatasetSizes, TrainConfig, synth_dataset, train
from soblab.training.datasets import OperatorDataset


def toy_linear_dataset(seed=0, n_train=32):
    """Target u = 2 * mean(v), constant in x: exactly solvable."""
    rng = np.random.default_rng(seed)
    jt, j = 16, 12
    sensors = np.linspace(0, 1, jt)[:, None]
    queries = np.sort(rng.uniform(0, 1, j))[:, None]

    def make(n):
        v = rng.normal(size=(n, jt))
        u = np.repeat(2.0 * v.mean(axis=1, keepdims=True), j, axis=1)
        return v, u

    vtr, utr = make(n_train)
    vva, uva = make(8)
    vte, ute = make(8)
    return OperatorDataset(
        generator="toy_linear",
        sensor_points=sensors,
        query_points=queries,
        train_inputs=vtr,
        train_targets=utr,
        val_inputs=vva,
        val_targets=uva,
        test_inputs=vte,
        test_targets=ute,
        derivatives_reliable=True,
        train_d_targets=None,
    )


def test_toy_target_reachable_by_least_squares():
    ds = toy_linear_dataset()
    design = np.column_stack([ds.train_inputs, np.ones(ds.train_inputs.shape[0])])
    _, residual, _, _ = np.linalg.lstsq(design, ds.train_targets[:, 0], rcond=None)
    assert residual[0] < 1e-20


def test_zero_epochs_echoes_initial_state():
    ds = toy_linear_dataset()
    rep = train(TrainConfig(epochs=0, rank=4, hidden=(16, 16), seed=0), ds, "ordinary")
    assert rep.epoch_l2 == ()
    assert rep.epoch_val_rel_l2 == ()
    assert rep.initial_l2 > 0
    assert rep.final_test_rel_l2 == pytest.approx(rep.initial_val_rel_l2, rel=0.5)


def test_ordinary_training_solves_linear_toy_task():
    ds = toy_linear_dataset()
    cfg = TrainConfig(
        epochs=2000, learning_rate=0.1, rank=4, hidden=(16, 16), optimizer="gd", seed=0
    )
    rep = train(cfg, ds, "ordinary")
    assert rep.final_test_rel_l2 < 1e-2
    # loss history is epoch-long and decreasing overall
    assert len(rep.epoch_l2) == 2000
    assert rep.epoch_l2[-1] < rep.initial_l2


def test_training_deterministic():
    ds = synth_dataset(
        "antiderivative1d",
        sizes=DatasetSizes(train=8, val=4, test=4, sensors=12, queries=24),
        seed=1,
        derivative_source="mls",
        mls_k=8,
    )
    cfg = TrainConfig(
        epochs=20, learning_rate=0.05, rank=4, hidden=(12,), optimizer="gd", seed=5, batch_size=4
    )
    a = train(cfg, ds, "sobolev+pcgrad")
    b = train(cfg, ds, "sobolev+pcgrad")
    assert a == b


def test_modes_need_derivative_targets():
    ds = toy_linear_dataset()
    with pytest.raises(ConfigError):
        train(TrainConfig(epochs=1), ds, "sobolev")
    with pytest.raises(ConfigError):
        train(TrainConfig(epochs=1), ds, "nonsense")


@pytest.mark.parametrize(
    "settings", [dict(batch_size=-5), dict(batch_size=0), dict(rank=0), dict(hidden=(8, 0))]
)
def test_settings_that_train_nothing_are_rejected(settings):
    # None is the full batch; below 1, a batch size, rank or hidden width trains nothing
    with pytest.raises(ConfigError):
        train(TrainConfig(epochs=1, **settings), toy_linear_dataset(), "ordinary")


def test_sobolev_modes_run_and_report_der_loss():
    ds = synth_dataset(
        "antiderivative1d",
        sizes=DatasetSizes(train=8, val=4, test=4, sensors=12, queries=24),
        seed=2,
        derivative_source="exact",
    )
    for mode in ("sobolev", "sobolev+pcgrad"):
        rep = train(
            TrainConfig(
                epochs=5, learning_rate=0.02, rank=4, hidden=(12,), optimizer="gd", seed=3
            ),
            ds,
            mode,
        )
        assert len(rep.epoch_der) == 5
        assert np.isfinite(rep.epoch_der).all()
        assert rep.mode == mode


def test_nan_loss_aborts_with_epoch():
    ds = toy_linear_dataset()
    cfg = TrainConfig(
        epochs=50, learning_rate=1e6, rank=4, hidden=(16, 16), optimizer="gd", seed=0
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match=r"loss became non-finite at epoch \d+$"):
            train(cfg, ds, "ordinary")


def test_adam_option_reaches_lower_error():
    ds = toy_linear_dataset()
    gd = train(
        TrainConfig(
            epochs=400, learning_rate=0.1, rank=4, hidden=(16, 16), optimizer="gd", seed=0
        ),
        ds,
        "ordinary",
    )
    adam = train(
        TrainConfig(epochs=400, learning_rate=0.02, rank=4, hidden=(16, 16), optimizer="adam", seed=0),
        ds,
        "ordinary",
    )
    assert adam.final_test_rel_l2 < gd.final_test_rel_l2
