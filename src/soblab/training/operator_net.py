"""Low-rank kernel operator network.

The prediction at a query point x for an input function sampled at the
sensor points y_l is

    u(x) = (1/Jt) * sum_l sum_i phi_i(x) psi_i(y_l) v(y_l),

two small ReLU networks contracted through the rank index: a
discretized integral operator with a separable learned kernel.  Both
the value and its exact gradient with respect to x are differentiable
in the parameters via the hand-written passes in mlp.py.

The psi forward on the sensors, the phi forward on the query points and
phi's per-axis JVPs depend on the parameters only, not on the batch:
forward_state computes them once per parameter state, and predictions,
losses and gradients of any batch on those query points contract with
it (loss_and_grads).  Both networks' parameters are one flat vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimMismatchError
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
    """One training batch: sampled input functions, shared query points,
    value targets and (optionally) derivative targets."""

    inputs: np.ndarray        # (N, Jt)
    queries: np.ndarray       # (J, n)
    targets: np.ndarray       # (N, J)
    d_targets: np.ndarray | None = None  # (N, J, n)


@dataclass(frozen=True)
class ForwardState:
    """The forwards of one parameter state: psi on the sensors, phi on the
    query points and, when built with jvps, phi's JVP along each query axis
    as (output (J, rank), tangent cache)."""

    queries: np.ndarray
    psi_out: np.ndarray
    psi_cache: tuple
    phi_out: np.ndarray
    phi_cache: tuple
    jvps: tuple = ()

    def coefficients(self, inputs):
        """Rank coefficients s_k = (1/Jt) sum_l psi(y_l) v_k(y_l), (N, rank)."""
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        n_sensors = self.psi_out.shape[0]
        if inputs.shape[1] != n_sensors:
            raise DimMismatchError(
                f"{inputs.shape[1]} sensor values but the net expects {n_sensors}"
            )
        return inputs @ self.psi_out / n_sensors

    def values(self, coeffs):
        """Predicted values (N, J) at the query points."""
        return coeffs @ self.phi_out.T

    def gradients(self, coeffs):
        """Predicted query-space gradients (N, J, n), exact differentiation."""
        if len(self.jvps) != self.queries.shape[1]:
            raise DimMismatchError("gradients need a forward state built with jvps")
        out = np.empty((coeffs.shape[0], *self.queries.shape))
        for d, (t_out, _) in enumerate(self.jvps):
            out[:, :, d] = coeffs @ t_out.T
        return out


def forward_state(net: OperatorNet, queries, jvps: bool = True) -> ForwardState:
    """One psi forward, one phi forward and (if jvps) one phi JVP per query axis."""
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    psi_out, psi_cache = net.psi.forward(net.sensor_points)
    phi_out, phi_cache = net.phi.forward(queries)
    tangents = []
    for d in range(queries.shape[1] if jvps else 0):
        tangent = np.zeros_like(queries)
        tangent[:, d] = 1.0
        tangents.append(net.phi.jvp(phi_cache, tangent))
    return ForwardState(queries, psi_out, psi_cache, phi_out, phi_cache, tuple(tangents))


def loss_and_grads(net: OperatorNet, state: ForwardState, batch: Batch, kinds=()):
    """(value loss, derivative loss, gradients) of the batch at the state.

    The derivative loss is NaN when the batch carries no derivative
    targets.  gradients holds the exact flat parameter gradient of each
    loss kind in kinds, in order: "l2" differentiates the value loss,
    "der" the derivative loss through the almost-everywhere parameter
    rule for the gated tangents.  batch.queries must be the state's.
    """
    if batch.queries is not state.queries and not np.array_equal(batch.queries, state.queries):
        raise DimMismatchError("the batch's query points differ from the forward state's")
    inputs = np.atleast_2d(np.asarray(batch.inputs, dtype=float))
    coeffs = state.coefficients(inputs)
    res = residual(state.values(coeffs), batch.targets)
    l2 = mean_square(res)
    der = float("nan")
    if batch.d_targets is not None:
        d_res = residual(state.gradients(coeffs), batch.d_targets)
        der = mean_square(d_res)

    grads = []
    for kind in kinds:
        if kind == "l2":
            cot_values = 2.0 * res / res.size
            phi_grads = net.phi.backward(state.phi_cache, cot_values.T @ coeffs)
            d_coeffs = cot_values @ state.phi_out
        elif kind == "der":
            if batch.d_targets is None:
                raise DimMismatchError("derivative loss requested but the batch has none")
            phi_grads = np.zeros(net.phi.n_params)
            d_coeffs = np.zeros_like(coeffs)
            for d, (t_out, t_cache) in enumerate(state.jvps):
                cot_d = 2.0 * d_res[:, :, d] / d_res.size
                phi_grads += net.phi.jvp_param_grads(state.phi_cache, t_cache, cot_d.T @ coeffs)
                d_coeffs += cot_d @ t_out
        else:
            raise ValueError(f"loss kind must be 'l2' or 'der', got {kind!r}")
        psi_grads = net.psi.backward(state.psi_cache, inputs.T @ d_coeffs / inputs.shape[1])
        grads.append(np.concatenate([phi_grads, psi_grads]))
    return l2, der, grads
