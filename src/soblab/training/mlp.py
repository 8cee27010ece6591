"""Small fully connected ReLU network with hand-written reverse mode.

Besides the usual value/backward passes, the network exposes
input-tangent (JVP) passes and the parameter gradient of JVP outputs,
which is what derivative-supervised losses need: the derivative of the
prediction with respect to the query point is itself a function of the
parameters.  Activation patterns are treated as locally constant, which
is exact almost everywhere for ReLU; forward stores the gate masks in
its cache and every later pass reuses them.  backward, jvp and
jvp_param_grads also take a leading stack axis: one pass, many items.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError


def param_count(layer_sizes) -> int:
    """Length of the flat parameter vector of a ReluMLP with these sizes."""
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]))


class ReluMLP:
    """Dense layers with ReLU on all but the last.

    weights[i] has shape (fan_out, fan_in); layer_sizes includes input
    and output widths.  All parameters live in one flat vector, params,
    in layer order (weights then bias per layer); weights and biases are
    views into it, so writing params in place updates the network.
    params is the buffer to use, such as a slice of a larger vector; its
    contents are overwritten by the initialization, drawn from rng.
    """

    def __init__(self, layer_sizes, rng, params):
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        if len(self.layer_sizes) < 2:
            raise ConfigError("need at least input and output sizes")
        size = param_count(self.layer_sizes)
        if params.shape != (size,):
            raise ConfigError(f"expected {size} parameters, got {params.shape}")
        self.params = params
        weights, biases = [], []
        pos = 0
        for fan_in, fan_out in zip(self.layer_sizes, self.layer_sizes[1:]):
            w = params[pos : pos + fan_in * fan_out].reshape(fan_out, fan_in)
            pos += w.size
            b = params[pos : pos + fan_out]
            pos += fan_out
            w[...] = rng.standard_normal((fan_out, fan_in)) / np.sqrt(fan_in)
            b[...] = 0.0
            weights.append(w)
            biases.append(b)
        self.weights = tuple(weights)
        self.biases = tuple(biases)

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_params(self) -> int:
        return self.params.size

    # -- forward / reverse ---------------------------------------------------

    def forward(self, x):
        """Batched forward pass: returns (output (B, out), cache).

        The cache holds the input of every layer and the ReLU gate mask
        of every hidden layer.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.in_dim:
            raise ConfigError(f"input width {x.shape[1]} != {self.in_dim}")
        activations = [x]
        masks = []
        a = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w.T + b
            if i == last:
                a = z
            else:
                masks.append(z > 0)
                a = np.maximum(z, 0.0)
                activations.append(a)
        return a, (activations, masks)

    def backward(self, cache, out_cot):
        """Reverse pass: flat parameter gradient of sum(out_cot * output), (..., n_params)."""
        activations, masks = cache
        return self._reverse(masks, activations, out_cot, biases=True)

    # -- input tangents and their parameter gradients ------------------------

    def jvp(self, cache, tangent):
        """Directional derivative of the output along an input tangent.

        tangent (..., B, in) gives (T (..., B, out), tangent cache) with
        the per-layer tangents needed by jvp_param_grads.
        """
        _, masks = cache
        t = np.atleast_2d(np.asarray(tangent, dtype=float))
        tangents = [t]
        last = len(self.weights) - 1
        for i, w in enumerate(self.weights):
            t = t @ w.T
            if i != last:
                t = t * masks[i]
                tangents.append(t)
        return t, tangents

    def jvp_param_grads(self, cache, tangent_cache, out_weights):
        """Flat parameter gradient of sum_b out_weights_b . JVP_b, (..., n_params).

        Activation gates are held fixed, the almost-everywhere exact
        rule for ReLU; bias gradients on this path are identically zero.
        """
        _, masks = cache
        return self._reverse(masks, tangent_cache, out_weights, biases=False)

    def _reverse(self, masks, layer_inputs, cot, biases):
        """The reverse loop of backward and jvp_param_grads, gates held fixed:
        each layer's weight block contracts its cotangent with its input (an
        activation or a tangent); its bias block is the summed cotangent, or
        zeros when biases is false."""
        delta = np.asarray(cot, dtype=float)
        grads = []
        for i in range(len(self.weights) - 1, -1, -1):
            if i != len(self.weights) - 1:
                delta = delta * masks[i]
            bias = delta.sum(axis=-2) if biases else np.zeros((*delta.shape[:-2], self.biases[i].size))
            grads.append(bias)
            grads.append(delta.swapaxes(-1, -2) @ layer_inputs[i])
            if i:
                delta = delta @ self.weights[i]
        return np.concatenate([g.reshape(*delta.shape[:-2], -1) for g in grads[::-1]], axis=-1)
