"""Low-rank kernel operator network.

The prediction at a query point x for an input function sampled at the
sensor points y_l is

    u(x) = (1/Jt) * sum_l sum_i phi_i(x) psi_i(y_l) v(y_l),

two small ReLU networks contracted through the rank index: a
discretized integral operator with a separable learned kernel.  Both
the value and its exact gradient with respect to x are differentiable
in the parameters via the hand-written passes in mlp.py.

The psi forward on the sensors, the phi forward on the query points and
phi's JVPs along the query axes (one stacked pass) depend on the
parameters only, not on the batch: forward_state computes them once per
parameter state, and predictions, losses and gradients of any batch on
those query points contract with it.  evaluate_losses gives a batch's
coefficients, residuals and losses, and loss_gradients the gradients
from those arrays or rows of them.  Both networks' parameters are one
flat vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .losses import mean_square, residual
from .mlp import ReluMLP, param_count


@dataclass
class OperatorNet:
    """Query-side and sensor-side basis networks plus the sensor grid.

    params is the flat parameter vector, phi's parameters first; the
    weights and biases of both networks are views into it.
    """

    phi: ReluMLP
    psi: ReluMLP
    sensor_points: np.ndarray
    rank: int
    params: np.ndarray

    @property
    def query_dim(self) -> int:
        return self.phi.in_dim

    @property
    def n_sensors(self) -> int:
        return self.sensor_points.shape[0]

    @property
    def n_params(self) -> int:
        return self.params.size


def make_operator_net(
    query_dim: int,
    sensor_points,
    rank: int = 8,
    hidden=(64, 64),
    seed: int = 0,
) -> OperatorNet:
    """Fresh network with seeded Gaussian initialization."""
    sensor_points = np.atleast_2d(np.asarray(sensor_points, dtype=float))
    rng = np.random.default_rng(seed)
    phi_sizes = [query_dim, *hidden, rank]
    psi_sizes = [sensor_points.shape[1], *hidden, rank]
    n_phi = param_count(phi_sizes)
    params = np.empty(n_phi + param_count(psi_sizes))
    phi = ReluMLP(phi_sizes, rng=rng, params=params[:n_phi])
    psi = ReluMLP(psi_sizes, rng=rng, params=params[n_phi:])
    return OperatorNet(phi=phi, psi=psi, sensor_points=sensor_points, rank=rank, params=params)


@dataclass(frozen=True)
class Batch:
    """One training batch: sampled input functions, value targets and
    (optionally) derivative targets at the forward state's query points."""

    inputs: np.ndarray        # (N, Jt)
    targets: np.ndarray       # (N, J)
    d_targets: np.ndarray | None = None  # (N, J, n)


@dataclass(frozen=True)
class ForwardState:
    """The forwards of one parameter state: psi on the sensors, phi on the
    query points and, when built with jvps, phi's JVPs along the n query
    axes as one stacked (outputs (n, J, rank), tangent cache)."""

    psi_out: np.ndarray
    psi_cache: tuple
    phi_out: np.ndarray
    phi_cache: tuple
    jvp: tuple | None = None

    def coefficients(self, inputs):
        """Rank coefficients s_k = (1/Jt) sum_l psi(y_l) v_k(y_l), (N, rank)."""
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        n_sensors = self.psi_out.shape[0]
        if inputs.shape[1] != n_sensors:
            raise ConfigError(
                f"{inputs.shape[1]} sensor values but the net expects {n_sensors}"
            )
        return inputs @ self.psi_out / n_sensors

    def values(self, coeffs):
        """Predicted values (N, J) at the query points."""
        return coeffs @ self.phi_out.T

    def gradients(self, coeffs):
        """Predicted query-space gradients (N, J, n), exact differentiation."""
        if self.jvp is None:
            raise ConfigError("gradients need a forward state built with jvps")
        # C order (N, J, n): the derivative loss sums in that order
        return np.ascontiguousarray((coeffs @ self.jvp[0].swapaxes(1, 2)).transpose(1, 2, 0))


def forward_state(net: OperatorNet, queries, jvps: bool = True) -> ForwardState:
    """One psi forward, one phi forward and (if jvps) one stacked phi JVP."""
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    psi_out, psi_cache = net.psi.forward(net.sensor_points)
    phi_out, phi_cache = net.phi.forward(queries)
    jvp = None
    if jvps:
        axes = np.eye(queries.shape[1])[:, None, :]  # tangent d is the unit vector e_d
        jvp = net.phi.jvp(phi_cache, np.repeat(axes, queries.shape[0], axis=1))
    return ForwardState(psi_out, psi_cache, phi_out, phi_cache, jvp)


def evaluate_losses(state: ForwardState, batch: Batch):
    """(coeffs, res, d_res, value loss, derivative loss) of the batch at the state.

    res (N, J) and d_res (N, J, n) are the residuals; without derivative
    targets d_res is None and the derivative loss NaN.
    """
    coeffs = state.coefficients(batch.inputs)
    res = residual(state.values(coeffs), batch.targets)
    d_res = None if batch.d_targets is None else residual(state.gradients(coeffs), batch.d_targets)
    der = float("nan") if d_res is None else mean_square(d_res)
    return coeffs, res, d_res, mean_square(res), der


def loss_gradients(net: OperatorNet, state: ForwardState, inputs, coeffs, res, d_res, kinds):
    """Exact flat parameter gradient of each loss kind in kinds, from the
    inputs and evaluate_losses' coeffs, res and d_res (or rows of them).

    "l2" differentiates the value loss, "der" the derivative loss through
    the almost-everywhere rule for the gated tangents.  One psi reverse
    pass serves all kinds, on their stacked cotangents.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    phi_grads, d_coeffs = [], []
    for kind in kinds:
        if kind == "l2":
            cot_values = 2.0 * res / res.size
            phi_grads.append(net.phi.backward(state.phi_cache, cot_values.T @ coeffs))
            d_coeffs.append(cot_values @ state.phi_out)
        elif kind == "der":
            if d_res is None:
                raise ConfigError("derivative loss requested but the batch has none")
            t_out, t_cache = state.jvp
            cot = 2.0 * np.ascontiguousarray(d_res.transpose(2, 0, 1)) / d_res.size
            grads_d = net.phi.jvp_param_grads(state.phi_cache, t_cache, cot.swapaxes(1, 2) @ coeffs)
            # per-axis terms added to zeros in axis order
            phi_grads.append(sum(grads_d, np.zeros(net.phi.n_params)))
            d_coeffs.append(sum(cot @ t_out, np.zeros_like(coeffs)))
        else:
            raise ValueError(f"loss kind must be 'l2' or 'der', got {kind!r}")
    psi_grads = net.psi.backward(state.psi_cache, inputs.T @ np.stack(d_coeffs) / inputs.shape[1])
    return [np.concatenate(pair) for pair in zip(phi_grads, psi_grads)]
