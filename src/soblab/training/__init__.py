"""Derivative-supervised training of a low-rank kernel operator network."""

from .datasets import (  # noqa: F401
    GENERATORS,
    DatasetSizes,
    OperatorDataset,
    mls_derivative_targets,
    synth_dataset,
)
from .losses import pcgrad_merge, relative_l2_error  # noqa: F401
from .loop import MODES, TrainConfig, TrainReport, train  # noqa: F401
from .mlp import ReluMLP  # noqa: F401
from .operator_net import (  # noqa: F401
    ForwardState,
    OperatorNet,
    forward_state,
    make_operator_net,
)
