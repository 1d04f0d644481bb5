"""Plain feed-forward network with exact reverse-mode gradients.

Forward: h0 = x, hl = act(Wl h(l-1) + bl), output = wy . hL + by.
Everything is float64 numpy; no autodiff framework.  Each layer adds its
bias and applies its activation in place on its matmul output.  The
backward pass writes the parameter gradients into arrays it is given,
such as views of the trainer's one gradient vector, or into fresh ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class MlpError(ValueError):
    pass


@dataclass
class MlpParams:
    """Layer matrices/biases plus the scalar output head.

    head_b is a 0-d array so the optimizer can update it in place.
    """

    weights: list[np.ndarray]        # W^l, shape (p_l, p_{l-1})
    biases: list[np.ndarray]         # b^l, shape (p_l,)
    head_w: np.ndarray               # w^y, shape (p_L,)
    head_b: np.ndarray               # scalar
    activation: str = "relu"

    def __post_init__(self):
        self.head_b = np.asarray(self.head_b, dtype=np.float64).reshape(())
        if self.activation not in ("relu", "tanh"):
            raise MlpError(f"unknown activation {self.activation!r}")
        prev = None
        for l, (W, b) in enumerate(zip(self.weights, self.biases)):
            if W.ndim != 2 or b.shape != (W.shape[0],):
                raise MlpError(f"layer {l}: inconsistent shapes {W.shape}, {b.shape}")
            if prev is not None and W.shape[1] != prev:
                raise MlpError(f"layer {l}: input width {W.shape[1]} != {prev}")
            prev = W.shape[0]
        if self.head_w.shape != (prev,):
            raise MlpError(f"head width {self.head_w.shape} != ({prev},)")

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]


@dataclass
class MlpGrads:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    head_w: np.ndarray
    head_b: np.ndarray
    x: np.ndarray = field(repr=False, default=None)


def _act(z: np.ndarray, kind: str, out: np.ndarray | None = None) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0, out=out)
    return np.tanh(z, out=out)


def _input_batch(x: np.ndarray, params: MlpParams) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise MlpError("non-finite input")
    h = np.atleast_2d(x)
    if h.shape[1] != params.input_dim:
        raise MlpError(f"input width {h.shape[1]} != {params.input_dim}")
    return h


def mlp_forward(x: np.ndarray, params: MlpParams):
    """Evaluate the network; returns (output, cache of layer activations).

    Accepts a single length-m vector (scalar output) or an (N, m) batch.
    """
    h = _input_batch(x, params)
    cache = [h]
    for W, b in zip(params.weights, params.biases):
        z = h @ W.T
        z += b
        h = _act(z, params.activation, out=z)
        cache.append(h)
    out = h @ params.head_w + params.head_b
    return (float(out[0]) if np.ndim(x) == 1 else out), cache


def mlp_predict(x: np.ndarray, params: MlpParams):
    """The output of mlp_forward, bit for bit, without the activation cache:
    for inference, where no backward pass follows.  Each layer adds its
    bias and applies its activation in place on its matmul output, so one
    array per layer is allocated and one layer's activations are alive at
    a time."""
    h = _input_batch(x, params)
    for W, b in zip(params.weights, params.biases):
        z = h @ W.T
        z += b
        h = _act(z, params.activation, out=z)
    out = h @ params.head_w
    out += params.head_b
    return float(out[0]) if np.ndim(x) == 1 else out


def mlp_backward(params: MlpParams, cache: list[np.ndarray],
                 upstream: np.ndarray, out: MlpGrads | None = None) -> MlpGrads:
    """Exact reverse-mode gradients for every parameter and the input.

    `upstream` is dLoss/dOutput, a scalar or length-N vector matching the
    forward batch; gradients are summed over the batch.  They are written
    into `out`'s parameter arrays (fresh ones when `out` is None), and
    `out.x` is set to the input gradient; `out` is returned.
    """
    if len(cache) != len(params.weights) + 1:
        raise MlpError("cache does not match network depth")
    up = np.atleast_1d(np.asarray(upstream, dtype=np.float64))
    hL = cache[-1]
    if up.shape != (hL.shape[0],):
        raise MlpError(f"upstream shape {up.shape} does not match batch "
                       f"size {hL.shape[0]}")
    if out is None:
        out = MlpGrads(weights=[np.empty_like(W) for W in params.weights],
                       biases=[np.empty_like(b) for b in params.biases],
                       head_w=np.empty_like(params.head_w),
                       head_b=np.empty(()))
    np.matmul(hL.T, up, out=out.head_w)
    np.sum(up, out=out.head_b)
    delta = np.outer(up, params.head_w)
    for l in range(len(params.weights) - 1, -1, -1):
        h = cache[l + 1]
        if params.activation == "relu":
            delta *= h > 0      # subgradient 0 at 0; the mask casts to 1.0/0.0
        else:
            delta *= 1.0 - h * h
        np.matmul(delta.T, cache[l], out=out.weights[l])
        np.sum(delta, axis=0, out=out.biases[l])
        delta = delta @ params.weights[l]
    out.x = delta
    return out


def init_gaussian(widths: list[int], sigma: float, seed) -> MlpParams:
    """Gaussian-initialized network: weights iid N(0, sigma^2), biases zero.

    `widths` is the full chain [input, hidden_1, ..., hidden_L]; the scalar
    head maps hidden_L to the output.
    """
    if sigma <= 0:
        raise MlpError(f"sigma must be > 0, got {sigma}")
    if len(widths) < 2:
        raise MlpError("need an input width and at least one hidden layer")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for p_in, p_out in zip(widths[:-1], widths[1:]):
        weights.append(rng.normal(0.0, sigma, size=(p_out, p_in)))
        biases.append(np.zeros(p_out))
    head_w = rng.normal(0.0, sigma, size=widths[-1])
    return MlpParams(weights=weights, biases=biases, head_w=head_w,
                     head_b=np.float64(0.0))
