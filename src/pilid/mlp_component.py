"""Plain feed-forward network with exact reverse-mode gradients.

Forward: h0 = x, hl = act(Wl h(l-1) + bl), output = wy . hL + by.
Plain numpy; no autodiff framework.  Every pass computes in the dtype of
the network's arrays: the input is cast to it, and the activations, the
deltas and their scratch take it, so float64 arrays give float64 passes
and float32 arrays float32 ones.  Each layer adds its bias and applies
its activation in place on its matmul output.  The backward pass writes
the parameter gradients into arrays it is given, such as views of the
trainer's one float64 gradient vector, or into fresh ones in the
network's dtype.

B networks of the same widths and activation that read the same input
run side by side when their arrays carry a leading block axis of length
B: this is how a model holds its blocks.  Such an MlpParams has length B;
indexing it with an int gives one network as views of its arrays, and
with an index array or mask the networks it selects, side by side.  Each
layer's activations are then one (N, B*p) array, network i in columns
i*p to (i+1)*p: the first layer is one matmul of the input with all B
weight matrices, each later layer one matmul over (B, N, p) views of that
array, and each bias add and activation covers the whole array.  Every
network's output and gradients are bit for bit those of running it alone;
with B = 1 the calls are those of one network.  The forward and backward
passes need B >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MlpError(ValueError):
    pass


@dataclass
class MlpParams:
    """Layer matrices/biases plus the scalar output head: of one network,
    or of B networks side by side, when every array has a leading block
    axis of length B (`blocks`).

    head_b is an array (0-d for one network) so the optimizer can update
    it in place; it is cast to head_w's dtype, a copy when it is of
    another.
    """

    weights: list[np.ndarray]        # W^l, shape ([B,] p_l, p_{l-1})
    biases: list[np.ndarray]         # b^l, shape ([B,] p_l)
    head_w: np.ndarray               # w^y, shape ([B,] p_L)
    head_b: np.ndarray               # b^y, shape ([B])
    activation: str = "relu"

    def __post_init__(self):
        self.head_b = np.asarray(self.head_b, dtype=self.head_w.dtype)
        lead = self.head_b.shape
        if len(lead) > 1:
            raise MlpError(f"head bias of shape {lead} is neither a scalar "
                           f"nor one per block")
        if self.activation not in ("relu", "tanh"):
            raise MlpError(f"unknown activation {self.activation!r}")
        prev = None
        for l, (W, b) in enumerate(zip(self.weights, self.biases)):
            if W.ndim != len(lead) + 2 or W.shape[:-2] != lead \
                    or b.shape != W.shape[:-1]:
                raise MlpError(f"layer {l}: inconsistent shapes {W.shape}, "
                               f"{b.shape}")
            if prev is not None and W.shape[-1] != prev:
                raise MlpError(f"layer {l}: input width {W.shape[-1]} != "
                               f"{prev}")
            prev = W.shape[-2]
        if self.head_w.shape != (*lead, prev):
            raise MlpError(f"head width {self.head_w.shape} != "
                           f"{(*lead, prev)}")

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[-1]

    @property
    def blocks(self) -> int | None:
        """B for networks side by side, None for one network."""
        return len(self.head_b) if np.ndim(self.head_b) else None

    def __len__(self) -> int:
        if self.blocks is None:
            raise TypeError("one network has no block axis")
        return self.blocks

    def __getitem__(self, i) -> MlpParams:
        """Network i of networks side by side, as views of their arrays;
        for an index array or mask, the networks it selects.  `None` adds
        a block axis of length 1 to one network, as views of its arrays."""
        return MlpParams(weights=[W[i] for W in self.weights],
                         biases=[b[i] for b in self.biases],
                         head_w=self.head_w[i], head_b=self.head_b[i, ...],
                         activation=self.activation)

    def __iter__(self):
        return (self[i] for i in range(len(self)))


@dataclass
class MlpGrads:
    """Gradients in the shapes of the MlpParams arrays they belong to."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    head_w: np.ndarray
    head_b: np.ndarray


def _act(z: np.ndarray, kind: str, out: np.ndarray | None = None) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0, out=out)
    return np.tanh(z, out=out)


def _input_batch(x: np.ndarray, params: MlpParams) -> np.ndarray:
    x = np.asarray(x, dtype=params.head_w.dtype)
    if not np.all(np.isfinite(x)):
        raise MlpError("non-finite input")
    h = np.atleast_2d(x)
    if h.shape[1] != params.input_dim:
        raise MlpError(f"input width {h.shape[1]} != {params.input_dim}")
    return h


def _side(a: np.ndarray, nb: int) -> np.ndarray:
    """The (N, nb*p) activations `a` as nb (N, p) matrices, a (nb, N, p)
    view; `a` itself for one network."""
    return a if nb == 1 else \
        a.reshape(a.shape[0], nb, a.shape[1] // nb).swapaxes(0, 1)


def _mats(W: np.ndarray, nb: int) -> np.ndarray:
    """Layer weights ([nb,] q, p) as one (q, p) matrix when nb is 1."""
    return W.reshape(W.shape[-2:]) if nb == 1 else W


def _hidden(h: np.ndarray, params: MlpParams):
    """Yield each layer's activations on the (N, m) batch h, as (N, B*p_l)
    arrays.  The first layer is one matmul of h with every block's
    weights; a later layer is one matmul over the blocks' (N, p) views."""
    nb = params.blocks or 1
    for l, (W, b) in enumerate(zip(params.weights, params.biases)):
        if l == 0:
            z = h @ W.reshape(-1, W.shape[-1]).T
        else:
            z = np.empty((h.shape[0], b.size), dtype=h.dtype)
            np.matmul(_side(h, nb), _mats(W, nb).swapaxes(-1, -2),
                      out=_side(z, nb))
        z += b.reshape(-1)
        h = _act(z, params.activation, out=z)
        yield h


def _head(h: np.ndarray, x_ndim: int, params: MlpParams):
    """The output from the last activations h: a scalar or (N,) for one
    network, (B,) or (B, N) for B networks side by side."""
    nb = params.blocks
    if nb is None or nb == 1:
        out = h @ params.head_w.reshape(-1)
    else:
        out = np.matmul(_side(h, nb), params.head_w[..., None])[..., 0]
    if nb is None:
        out += params.head_b
        return float(out[0]) if x_ndim == 1 else out
    out = out.reshape(nb, -1)
    out += params.head_b[:, None]
    return out[:, 0] if x_ndim == 1 else out


def mlp_forward(x: np.ndarray, params: MlpParams):
    """Evaluate the network; returns (output, cache of layer activations).

    Accepts a single length-m vector or an (N, m) batch.  One network
    gives a scalar or an (N,) output; B networks side by side give one
    output row each, (B,) or (B, N).
    """
    h = _input_batch(x, params)
    cache = [h, *_hidden(h, params)]
    return _head(cache[-1], np.ndim(x), params), cache


def mlp_predict(x: np.ndarray, params: MlpParams):
    """The output of mlp_forward, bit for bit, without the activation cache:
    for inference, where no backward pass follows.  Each layer adds its
    bias and applies its activation in place on its matmul output, so one
    array per layer is allocated and one layer's activations are alive at
    a time."""
    h = _input_batch(x, params)
    for h in _hidden(h, params):
        pass
    return _head(h, np.ndim(x), params)


def mlp_backward(params: MlpParams, cache: list[np.ndarray],
                 upstream: np.ndarray, out: MlpGrads | None = None) -> MlpGrads:
    """Exact reverse-mode gradients for every parameter.

    `upstream` is dLoss/dOutput, a scalar or length-N vector matching the
    forward batch, the same for every network side by side; gradients are
    summed over the batch.  The deltas are in the dtype of the cache, to
    which `upstream` is cast.  The gradients are written into `out`'s
    arrays, which have the shapes of the parameters and any float dtype
    (fresh ones in the parameters' dtype when `out` is None), and `out`
    is returned; given arrays must be C-contiguous, so that their
    reshapes are views.  The first layer's weight gradient of all blocks
    is one matmul of that layer's deltas with the input; the input's own
    gradient is not formed.
    """
    if len(cache) != len(params.weights) + 1:
        raise MlpError("cache does not match network depth")
    hL = cache[-1]
    up = np.atleast_1d(np.asarray(upstream, dtype=hL.dtype))
    if up.shape != (hL.shape[0],):
        raise MlpError(f"upstream shape {up.shape} does not match batch "
                       f"size {hL.shape[0]}")
    if out is None:
        out = MlpGrads(weights=[np.empty(W.shape, W.dtype)
                                for W in params.weights],
                       biases=[np.empty(b.shape, b.dtype)
                               for b in params.biases],
                       head_w=np.empty(params.head_w.shape,
                                       params.head_w.dtype),
                       head_b=np.empty(params.head_b.shape,
                                       params.head_b.dtype))
    elif not all(a.flags.c_contiguous
                 for a in (*out.weights, *out.biases, out.head_w)):
        raise MlpError("gradient arrays must be C-contiguous")
    nb = params.blocks or 1
    np.matmul(_side(hL, nb).swapaxes(-1, -2), up,
              out=out.head_w if nb > 1 else out.head_w.reshape(-1))
    out.head_b[...] = np.sum(up)
    delta = np.outer(up, params.head_w)
    for l in range(len(params.weights) - 1, -1, -1):
        h = cache[l + 1]
        if params.activation == "relu":
            delta *= h > 0      # subgradient 0 at 0; the mask casts to 1.0/0.0
        else:
            delta *= 1.0 - h * h
        gW = out.weights[l]
        if l == 0:
            np.matmul(delta.T, cache[0], out=gW.reshape(-1, gW.shape[-1]))
        else:
            np.matmul(_side(delta, nb).swapaxes(-1, -2), _side(cache[l], nb),
                      out=_mats(gW, nb))
        np.sum(delta, axis=0, out=out.biases[l].reshape(-1))
        if l:
            below = np.empty((h.shape[0], cache[l].shape[1]), dtype=h.dtype)
            np.matmul(_side(delta, nb), _mats(params.weights[l], nb),
                      out=_side(below, nb))
            delta = below
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
