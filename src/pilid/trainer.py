"""The hybrid model and its joint training.

One model serves both variants of the paper.  Its score is a wide
piecewise-linear component plus B blocks, each a small network that sees
the input times its gate row:

    score(x) = segment_forward(locate(x)) + sum_i mlp_forward(x * G[i])

PiLiD is the case B = 1 with an all-ones gate row and no order penalty.
PiLiB has B blocks whose gates are trainable logits, relaxed while they
learn under the order penalty and then frozen to 0/1 (see
pilib.train_pilib).  The model holds its blocks as one network whose
arrays carry a leading block axis of length B >= 0 (see mlp_component),
and they run side by side: one network forward and one backward per
batch whatever B is (none when B = 0), with the gates folded into the
first layer's weights, x * G[i] @ W0[i].T = x @ (W0[i] * G[i]).T, so the
input is never copied per block.  The gate gradient then comes from that
layer's weight gradient.  The score adds the wide component, then block
0, block 1 and so on.

Every array is optimized jointly with mini-batch Adam, without the
(N, gamma) encoding, through one loss/gradient function and one epoch
loop.  The knots stay fixed for a run, so a run locates its training rows'
segments once (`init_training`): the least-squares start and every batch
read them.  `_slots` lists the trainable arrays, and one layout follows
from it (`_layout`): one float64 vector holding every array in that order,
the weights first, and each layer of the blocks' network, every block's
W0, then every block's W1 and so on to every head, and the biases
likewise, is one (B, ...) view of it.  The loss reads the model's own
arrays, whatever they are views of, and its backward passes write into
the views of one fresh gradient vector of that layout.  The regulariser
(on the wide weights while the gates are relaxed, otherwise on every
weight, never on biases, omega, w0 or gate logits) adds to each weight's
view in turn.  Training copies the arrays into a parameter vector of the
same layout and rebinds the model's fields to its views (`pack`), so that
Adam, updating that vector in place, updates the model.  The regulariser
and Adam pass over their arrays in chunks of CHUNK values with
chunk-sized scratch, so each pass works within the cache.  The wide
component starts from a least-squares fit so the optimizer begins in an
interpretable region; the blocks start from small Gaussian weights.
Prediction computes the same score from the shape curves (curve_forward)
and the cache-free block outputs (mlp_predict), in fixed-size row
blocks.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from pilid.dataset import Dataset, REGRESSION, CLASSIFICATION, batches
from pilid.encoding import (
    BLOCK_ROWS,
    CharacteristicPoints,
    build_points,
    check_rows,
)
from pilid.mlp_component import (
    MlpError,
    MlpGrads,
    MlpParams,
    init_gaussian,
    mlp_backward,
    mlp_forward,
    mlp_predict,
)
from pilid.pl_component import (
    PiecewiseLinearParams,
    curve_forward,
    init_least_squares,
    locate,
    segment_backward,
    segment_forward,
)


class TrainingError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    learning_rate: float = 0.005
    epochs: int = 100
    batch_size: int = 256
    lam: float = 1e-4
    reg: str = "l2"              # "l1" | "l2" | "none"
    sigma: float = 0.05
    ridge: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise TrainingError("learning_rate must be > 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise TrainingError("epochs and batch_size must be >= 1")
        if self.lam < 0:
            raise TrainingError("lambda must be >= 0")
        if self.reg not in ("l1", "l2", "none"):
            raise TrainingError(f"unknown regularization {self.reg!r}")


# deterministic stretched-sigmoid gate relaxation
GATE_STRETCH_LO = -0.1
GATE_STRETCH_HI = 1.1
TEMPERATURE_START = 1.0


@dataclass
class PilibGates:
    """Gate logits for B blocks over m features, plus the order penalty
    hyperparameters (max allowed order K and pairwise pressure lambda0)."""

    log_alpha: np.ndarray   # (B, m)
    temperature: float = TEMPERATURE_START
    K: int = 3
    lambda0: float = 0.1

    def __post_init__(self):
        self.log_alpha = np.asarray(self.log_alpha, dtype=np.float64)
        if self.log_alpha.ndim != 2:
            raise TrainingError("log_alpha must be a B x m matrix")
        if self.K < 1 or self.lambda0 < 0 or self.temperature <= 0:
            raise TrainingError("need K >= 1, lambda0 >= 0, temperature > 0")

    @property
    def B(self) -> int:
        return self.log_alpha.shape[0]


@dataclass
class PilidModel:
    """The hybrid model: a wide component plus blocks that each see the
    input times their gate row.

    `pl` is None for the plain-MLP baseline.  `blocks` holds the B >= 0
    blocks as one network with a leading block axis (see mlp_component);
    a list of networks of equal widths and activation is stacked into
    one, here and nowhere else.  Without gate logits (PiLiD) `hard_gates`
    defaults to all ones and the model is one always-open block.  With
    logits (PiLiB) the gates are relaxed while `hard_gates` is None, and
    frozen to its 0/1 rows once it is set.
    """

    pl: PiecewiseLinearParams | None
    blocks: MlpParams
    points: CharacteristicPoints
    task: str
    feature_names: list[str] = field(default_factory=list)
    gates: PilibGates | None = None
    hard_gates: np.ndarray | None = None    # (B, m) 0/1 rows
    train_means: np.ndarray | None = None   # reference values for surfaces

    def __post_init__(self):
        if not isinstance(self.blocks, MlpParams):
            self.blocks = _stacked(list(self.blocks), self.m)
        if self.gates is None and self.hard_gates is None:
            self.hard_gates = np.ones((len(self.blocks), self.m))

    @property
    def m(self) -> int:
        return self.points.m

    @property
    def mlp(self) -> MlpParams | None:
        """The network of a one-block (PiLiD) model, as views."""
        return self.blocks[0] if len(self.blocks) else None

    @property
    def gates_relaxed(self) -> bool:
        """True while the gate logits train (PiLiB phase 1)."""
        return self.gates is not None and self.hard_gates is None


def _stacked(nets: list[MlpParams], m: int) -> MlpParams:
    """The networks `nets` on m features side by side, in copies of their
    arrays; with none, a zero-width layer on the m features."""
    if len({(n.activation, *(W.shape for W in n.weights))
            for n in nets}) > 1:
        raise TrainingError("the blocks differ in widths or activation")
    if not nets:
        return MlpParams(weights=[np.zeros((0, 0, m))],
                         biases=[np.zeros((0, 0))], head_w=np.zeros((0, 0)),
                         head_b=np.zeros(0))
    return MlpParams(
        weights=[np.stack(W) for W in zip(*(n.weights for n in nets))],
        biases=[np.stack(b) for b in zip(*(n.biases for n in nets))],
        head_w=np.stack([n.head_w for n in nets]),
        head_b=np.stack([n.head_b for n in nets]),
        activation=nets[0].activation)


# Kingma & Ba's defaults (arXiv:1412.6980), used by every run.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

# Values per chunk of the passes over the parameter and gradient vectors
# (Adam, the regulariser): 256 KiB per float64 array, so that the several
# operations on one chunk find its values still in cache.
CHUNK = 1 << 15


class Adam:
    """Adam with bias correction over one flat parameter vector, updated in
    place once per batch, CHUNK values at a time.  The moments and two
    chunk-sized scratch arrays are allocated once, so a step allocates no
    array."""

    def __init__(self, params: np.ndarray, config: TrainConfig):
        self.params = params
        self.lr = config.learning_rate
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._num = np.empty(min(CHUNK, params.size))
        self._den = np.empty_like(self._num)

    def step(self, grad: np.ndarray):
        if grad.shape != self.params.shape:
            raise TrainingError(f"gradient shape mismatch: {grad.shape} vs "
                                f"{self.params.shape}")
        self.t += 1
        fix1, fix2 = 1 - ADAM_BETA1 ** self.t, 1 - ADAM_BETA2 ** self.t
        for lo in range(0, self.params.size, CHUNK):
            p, g = self.params[lo:lo + CHUNK], grad[lo:lo + CHUNK]
            m, v = self.m[lo:lo + CHUNK], self.v[lo:lo + CHUNK]
            num, den = self._num[:p.size], self._den[:p.size]
            # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
            np.multiply(m, ADAM_BETA1, out=m)
            m += np.multiply(g, 1 - ADAM_BETA1, out=num)
            np.multiply(v, ADAM_BETA2, out=v)
            np.multiply(g, 1 - ADAM_BETA2, out=num)
            v += np.multiply(num, g, out=num)
            # p -= lr m_hat / (sqrt(v_hat) + eps)
            np.divide(m, fix1, out=num)
            num *= self.lr
            np.divide(v, fix2, out=den)
            np.sqrt(den, out=den)
            den += ADAM_EPSILON
            p -= np.divide(num, den, out=num)


def sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def gate_values(gates: PilibGates, mode: str = "eval") -> np.ndarray:
    """Relaxed gates in train mode, hard 0/1 (threshold 0.5, ties active)
    in eval mode.  Deterministic; no stochastic sampling."""
    s = sigmoid(gates.log_alpha / gates.temperature)
    relaxed = np.clip(s * (GATE_STRETCH_HI - GATE_STRETCH_LO) + GATE_STRETCH_LO,
                      0.0, 1.0)
    if mode == "train":
        return relaxed
    if mode == "eval":
        return (relaxed >= 0.5).astype(np.float64)
    raise TrainingError(f"unknown gate mode {mode!r}")


def _gate_grad_factor(gates: PilibGates) -> np.ndarray:
    """d(relaxed gate)/d(log_alpha); zero where the stretch is clipped."""
    s = sigmoid(gates.log_alpha / gates.temperature)
    stretched = s * (GATE_STRETCH_HI - GATE_STRETCH_LO) + GATE_STRETCH_LO
    inside = (stretched > 0.0) & (stretched < 1.0)
    return inside * (GATE_STRETCH_HI - GATE_STRETCH_LO) * s * (1 - s) \
        / gates.temperature


def block_gates(model: PilidModel) -> np.ndarray:
    """The 0/1 gate rows the blocks see when scoring: the hard gates, or
    the eval-mode gates while the logits are relaxed."""
    if model.hard_gates is not None:
        return model.hard_gates
    return gate_values(model.gates, "eval")


def lk_penalty(khat: np.ndarray, K: int, lambda0: float) -> float:
    """max{max_i khat_i - K, 0} + lambda0 * sum_i (khat_i - 2) / #nonzero.

    When no block is active the second term is dropped.
    """
    khat = np.asarray(khat, dtype=np.float64)
    if K < 1:
        raise TrainingError(f"K must be >= 1, got {K}")
    first = max(float(khat.max()) - K, 0.0)
    active = int(np.count_nonzero(khat))
    if active == 0 or lambda0 == 0:
        return first
    return first + lambda0 * float(np.sum(khat - 2.0)) / active


def _lk_penalty_gate_grad(khat: np.ndarray, K: int, lambda0: float) -> np.ndarray:
    """Subgradient of lk_penalty with respect to each gate value.

    The max term flows into the first block achieving the maximum; the
    active-block count is treated as a constant.
    """
    grad = np.zeros((len(khat), 1))
    if khat.max() > K:
        grad[int(np.argmax(khat)), 0] += 1.0
    active = int(np.count_nonzero(khat))
    if active > 0 and lambda0 > 0:
        grad += lambda0 / active
    return grad


def _data_loss_and_grad(score: np.ndarray, y: np.ndarray, task: str):
    n = len(y)
    if n == 0:
        raise TrainingError("empty batch")
    if task == REGRESSION:
        r = score - y
        return float(np.mean(r * r)), 2.0 * r / n
    # numerically stable binary cross-entropy on logits
    loss = float(np.mean(np.maximum(score, 0.0) - y * score
                         + np.log1p(np.exp(-np.abs(score)))))
    return loss, (sigmoid(score) - y) / n


class ParamVector(Mapping):
    """Named arrays held as views into one float64 vector, `flat`, in the
    order of `param_arrays`.  `spans` maps each name to its (start, stop,
    shape).  The blocks' arrays are one view per layer with a leading
    block axis."""

    def __init__(self, flat: np.ndarray, spans: dict):
        self.flat, self.spans = flat, spans

    def __getitem__(self, name: str) -> np.ndarray:
        start, stop, shape = self.spans[name]
        return self.flat[start:stop].reshape(shape)

    def __iter__(self):
        return iter(self.spans)

    def __len__(self) -> int:
        return len(self.spans)


def _slots(model: PilidModel):
    """Where each trainable array lives, as (name, owner, key) in layout
    order, and how many leading slots are regularised.  Weights come
    first (the wide weights, then the blocks' layer and head weights),
    then the biases, omega and w0, then the blocks' biases, then the gate
    logits, which train only while they are relaxed.  The blocks' arrays
    are one per layer, each with a leading block axis: blocks.W0, ...,
    blocks.head_w, and the biases likewise.  Only weights are
    regularised, and while the gates are relaxed only the wide
    weights."""
    weights, rest = [], []
    if model.pl is not None:
        weights.append(("pl.w", model.pl, "w"))
        rest += [(f"pl.{k}", model.pl, k) for k in ("b", "omega", "w0")]
    net = model.blocks
    weights += [(f"blocks.W{l}", net.weights, l)
                for l in range(len(net.weights))]
    weights.append(("blocks.head_w", net, "head_w"))
    rest += [(f"blocks.b{l}", net.biases, l) for l in range(len(net.biases))]
    rest.append(("blocks.head_b", net, "head_b"))
    if not model.gates_relaxed:
        return weights + rest, len(weights)
    rest.append(("gates.log_alpha", model.gates, "log_alpha"))
    return weights + rest, int(model.pl is not None)


def _get(owner, key):
    return owner[key] if isinstance(key, int) else getattr(owner, key)


def param_arrays(model: PilidModel) -> dict[str, np.ndarray]:
    """Live references to every trainable array, keyed by stable names, in
    layout order; the gate logits are trainable only while they are
    relaxed."""
    return {name: _get(owner, key) for name, owner, key in _slots(model)[0]}


def _layout(slots) -> ParamVector:
    """A fresh float64 vector, its values unset, laid out for the arrays
    of `slots` (see `_slots`) in their order and shapes."""
    spans, stop = {}, 0
    for name, owner, key in slots:
        a = _get(owner, key)
        start, stop = stop, stop + a.size
        spans[name] = (start, stop, a.shape)
    return ParamVector(np.empty(stop), spans)


def pack(model: PilidModel) -> ParamVector:
    """Copy every trainable array into one float64 vector of the model's
    layout and rebind the model's fields to views of it, so that updating
    the vector in place updates the model.  Pack again when the gate state
    changes: PiLiB's phase 2 drops the gate logits."""
    slots = _slots(model)[0]
    params = _layout(slots)
    for name, owner, key in slots:
        view = params[name]
        view[...] = _get(owner, key)
        if isinstance(key, int):
            owner[key] = view
        else:
            setattr(owner, key, view)
    return params


def _gated(blocks: MlpParams, G: np.ndarray) -> MlpParams:
    """The blocks side by side with their gate rows G folded into a copy
    of the first layer's weights; the other arrays are the blocks' own."""
    return dataclasses.replace(blocks, weights=[
        blocks.weights[0] * G[:, None, :], *blocks.weights[1:]])


def _finite_rows(X: np.ndarray) -> np.ndarray:
    # Checked once, before the wide component locates the rows, so that
    # every model, with or without blocks, rejects them with one error.
    if not np.all(np.isfinite(X)):
        raise MlpError("non-finite input")
    return X


def model_forward(model: PilidModel, x: np.ndarray):
    """Returns (score, prediction) for a single vector or an (N, m) batch:
    the raw score is the wide component plus every block's output on its
    gated input, and the prediction is the score for regression or its
    sigmoid for classification.  Read from the shape curves
    (`curve_forward`) and cache-free blocks, BLOCK_ROWS rows at a time, so
    that inference memory is bounded by that, not by N; the blocks'
    outputs are added in block order."""
    single = np.ndim(x) == 1
    X = _finite_rows(check_rows(x, model.points))
    net = _gated(model.blocks, block_gates(model)) if len(model.blocks) \
        else None
    score = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], BLOCK_ROWS):
        rows = X[lo:lo + BLOCK_ROWS]
        part = np.zeros(rows.shape[0]) if model.pl is None \
            else curve_forward(rows, model.pl, model.points)
        for out in () if net is None else mlp_predict(rows, net):
            part = part + out
        score[lo:lo + BLOCK_ROWS] = part
    pred = sigmoid(score) if model.task == CLASSIFICATION else score
    if single:
        return float(score[0]), float(pred[0])
    return score, pred


def loss_and_grads(model: PilidModel, X: np.ndarray, y: np.ndarray,
                   config: TrainConfig, segments=None):
    """Loss and exact gradients for every trainable array on one batch.

    While the gates are relaxed: data term + lambda*Omega(wide weights) +
    order penalty on the relaxed gate sums, with gradients flowing into
    the gate logits.  Otherwise: data term + lambda*Omega(all weights)
    under the hard gates.  The loss reads the model's own arrays, packed
    or not, and never rebinds them.  The gradients come as one fresh
    ParamVector in the layout of `param_arrays`, whose views the backward
    passes write into; the regulariser adds to each weight's view in
    turn.  The blocks run side by side: one mlp_forward and one
    mlp_backward for all of them, none when there is no block.  The wide
    component reads `segments`, the rows' (U, F) of `locate`, when the
    caller holds them, and otherwise locates the rows itself.
    """
    X = _finite_rows(check_rows(X, model.points))
    y = np.asarray(y, dtype=np.float64)
    relaxed = model.gates_relaxed
    G = gate_values(model.gates, "train") if relaxed else model.hard_gates
    slots, n_weights = _slots(model)
    if model.pl is None:
        score = np.zeros(X.shape[0])
    else:
        U, F = locate(X, model.points) if segments is None else segments
        score, T = segment_forward(U, F, model.pl, model.points)
    blocks = model.blocks
    if len(blocks):
        net = _gated(blocks, G)
        out, cache = mlp_forward(X, net)
        for row in out:
            score = score + row
    data, dscore = _data_loss_and_grad(score, y, model.task)

    # fresh per call: callers may hold a result across calls
    grad = _layout(slots)
    if model.pl is not None:
        segment_backward(U, F, T, dscore, model.pl, model.points,
                         out={k: grad[f"pl.{k}"]
                              for k in ("w", "b", "omega", "w0")})
    dG = np.zeros_like(model.gates.log_alpha) if relaxed else None
    if len(blocks):
        depth = len(net.weights)
        gW0 = grad["blocks.W0"]
        mlp_backward(net, cache, dscore, out=MlpGrads(
            weights=[grad[f"blocks.W{l}"] for l in range(depth)],
            biases=[grad[f"blocks.b{l}"] for l in range(depth)],
            head_w=grad["blocks.head_w"], head_b=grad["blocks.head_b"]))
        # gW0 holds the gradient of W0 * G; split it by the product rule,
        # the gates' share summed over each block's units
        if relaxed:
            dG = np.sum(gW0 * blocks.weights[0], axis=1)
        gW0 *= G[:, None, :]

    total = data
    if relaxed:
        khat = G.sum(axis=1)
        total += lk_penalty(khat, model.gates.K, model.gates.lambda0)
        dG = dG + _lk_penalty_gate_grad(khat, model.gates.K,
                                        model.gates.lambda0)
        np.multiply(dG, _gate_grad_factor(model.gates),
                    out=grad["gates.log_alpha"])
    if config.lam != 0 and config.reg != "none":
        omega = 0.0
        for name, owner, key in slots[:n_weights]:
            start, stop, _ = grad.spans[name]
            omega += _regularise(np.ravel(_get(owner, key)),
                                 grad.flat[start:stop], config.lam, config.reg)
        total += config.lam * omega
    return total, grad


def _regularise(w: np.ndarray, g: np.ndarray, lam: float, reg: str) -> float:
    """Add the gradient of lam * Omega(w) to g and return Omega(w), where
    Omega is sum(w * w) for "l2" and sum(|w|) for "l1".  The gradient is
    made CHUNK values at a time in chunk-sized scratch."""
    tmp = np.empty(min(CHUNK, w.size))
    value = float(np.einsum("i,i->", w, w)) if reg == "l2" else 0.0
    for lo in range(0, w.size, CHUNK):
        wc, gc = w[lo:lo + CHUNK], g[lo:lo + CHUNK]
        t = tmp[:wc.size]
        if reg == "l2":
            gc += np.multiply(wc, 2.0 * lam, out=t)
        else:
            value += float(np.sum(np.abs(wc, out=t)))
            np.sign(wc, out=t)
            t *= lam
            gc += t
    return value


def parse_widths(spec) -> list[int]:
    """Hidden widths from an architecture string such as "32-32-1" or a
    list of ints; a trailing output width of 1 is implicit."""
    if isinstance(spec, str):
        try:
            widths = [int(t) for t in spec.split("-") if t]
        except ValueError:
            widths = []
        if not widths:
            raise TrainingError(f"bad architecture string {spec!r}")
    else:
        widths = [int(w) for w in spec]
    if not widths:
        raise TrainingError("need at least one hidden width")
    if widths[-1] == 1 and len(widths) > 1:
        widths = widths[:-1]  # trailing output width is implicit
    if any(w < 1 for w in widths):
        raise TrainingError(f"invalid hidden widths {widths}")
    return widths


def init_training(data: Dataset, gammas, mlp_widths, config: TrainConfig,
                  mlp_only: bool = False, pl_init: str = "least_squares",
                  activation: str = "relu", B: int | None = None, K: int = 3,
                  lambda0: float = 0.1):
    """Build points and initialize the model: one always-open block
    (PiLiD), or, given B, B blocks with gate logits under order cap K and
    pairwise pressure lambda0 (PiLiB).  Returns the model and the segments
    (U, F) of the training rows in its wide component (None without one),
    located once for the run: the least-squares start and every batch
    read them, as the knots stay fixed."""
    points = build_points(data, gammas)
    segments = None if mlp_only else locate(data.rows, points)
    hidden = parse_widths(mlp_widths)
    streams = [[config.seed, 1]] if B is None else \
        [[config.seed, 100 + i] for i in range(B)]
    blocks = [init_gaussian([data.m] + hidden, config.sigma, s)
              for s in streams]
    for blk in blocks:
        blk.activation = activation
    if mlp_only:
        pl = None
    elif pl_init == "least_squares":
        pl = init_least_squares(data.rows, data.targets, config.ridge, points,
                                segments)
    elif pl_init == "gaussian":
        rng = np.random.default_rng([config.seed, 2])
        pl = PiecewiseLinearParams(
            w=rng.normal(0.0, config.sigma, points.total),
            b=np.zeros(points.total), omega=np.ones(points.m),
            w0=np.float64(data.targets.mean()))
    else:
        raise TrainingError(f"unknown pl_init {pl_init!r}")
    gates = means = None
    if B is not None:
        rng = np.random.default_rng([config.seed, 3])
        gates = PilibGates(
            log_alpha=0.5 + 0.1 * rng.standard_normal((B, data.m)),
            K=K, lambda0=lambda0)
        means = data.rows.mean(axis=0)
    model = PilidModel(pl=pl, blocks=blocks, points=points, task=data.task,
                       feature_names=data.feature_names, gates=gates,
                       train_means=means)
    return model, segments


def init_model(data: Dataset, gammas, mlp_widths, config: TrainConfig,
               **options) -> PilidModel:
    """The model of `init_training`, which takes the same options."""
    return init_training(data, gammas, mlp_widths, config, **options)[0]


def train_epoch(model: PilidModel, data: Dataset, segments,
                config: TrainConfig, optimizer: Adam, stream: int,
                label: str) -> float:
    """One Adam pass over the mini-batches of (config.seed, stream); returns
    the mean batch loss.  Each batch's segments are its rows of
    `segments`, the located rows of `init_training`.  `label` names the
    epoch in errors."""
    losses = []
    for idx in batches(data.n, config.batch_size, config.seed, stream):
        located = None if segments is None else \
            (segments[0][idx], segments[1][idx])
        value, grads = loss_and_grads(model, data.rows[idx],
                                      data.targets[idx], config, located)
        if not np.isfinite(value):
            raise TrainingError(
                f"non-finite loss in {label}; try a smaller learning rate "
                f"(current {config.learning_rate})")
        optimizer.step(grads.flat)
        losses.append(value)
    return float(np.mean(losses))


def train(data: Dataset, gammas, mlp_widths, config: TrainConfig,
          mlp_only: bool = False, pl_init: str = "least_squares",
          activation: str = "relu") -> tuple[PilidModel, list[float]]:
    """Full training run: initialization then Adam over mini-batches,
    back-propagating through both components simultaneously.

    Returns the model and the per-epoch mean training loss trace.
    Deterministic for a fixed config seed.
    """
    model, segments = init_training(data, gammas, mlp_widths, config,
                                    mlp_only=mlp_only, pl_init=pl_init,
                                    activation=activation)
    optimizer = Adam(pack(model).flat, config)
    trace = [train_epoch(model, data, segments, config, optimizer, epoch,
                         f"epoch {epoch + 1}")
             for epoch in range(config.epochs)]
    return model, trace
