"""Derivative-supervised training of a low-rank kernel operator network."""

from .datasets import (  # noqa: F401
    GENERATORS,
    DatasetSizes,
    OperatorDataset,
    mls_derivative_targets,
    synth_dataset,
)
from .losses import (  # noqa: F401
    der_loss,
    l2_loss,
    pcgrad_merge,
    relative_l2_error,
)
from .loop import MODES, TrainConfig, TrainReport, train  # noqa: F401
from .mlp import ReluMLP  # noqa: F401
from .operator_net import (  # noqa: F401
    Batch,
    ForwardState,
    OperatorNet,
    forward_state,
    loss_and_grads,
    make_operator_net,
)
