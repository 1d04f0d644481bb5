"""The hybrid model and its joint training.

One model serves both variants of the paper.  Its score is a wide
piecewise-linear component plus B blocks, each a small network that sees
the input times its gate row:

    score(x) = segment_forward(locate(x)) + sum_i mlp_forward(x * G[i])

PiLiD is the case B = 1 with an all-ones gate row (the multiply is exact
on finite rows) and no order penalty.  PiLiB has B blocks whose gates are
trainable logits, relaxed while they learn under the order penalty and
then frozen to 0/1 (see pilib.train_pilib).  Every array is optimized
jointly with mini-batch Adam, without the (N, gamma) encoding, through
one loss/gradient function and one epoch loop.  The wide component starts
from a least-squares fit so the optimizer begins in an interpretable
region; the blocks start from small Gaussian weights.
Prediction computes the same score from the shape curves (curve_forward)
and the cache-free block outputs (mlp_predict), in fixed-size row blocks.
"""

from __future__ import annotations

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
        if self.log_alpha.ndim != 2 or self.log_alpha.shape[0] < 1:
            raise TrainingError("log_alpha must be a B x m matrix, B >= 1")
        if self.K < 1 or self.lambda0 < 0 or self.temperature <= 0:
            raise TrainingError("need K >= 1, lambda0 >= 0, temperature > 0")

    @property
    def B(self) -> int:
        return self.log_alpha.shape[0]


@dataclass
class PilidModel:
    """The hybrid model: a wide component plus blocks that each see the
    input times their gate row.

    `pl` is None for the plain-MLP baseline.  Without gate logits (PiLiD)
    `hard_gates` defaults to all ones and the model is one always-open
    block.  With logits (PiLiB) the gates are relaxed while `hard_gates`
    is None, and frozen to its 0/1 rows once it is set.
    """

    pl: PiecewiseLinearParams | None
    blocks: list[MlpParams]
    points: CharacteristicPoints
    task: str
    feature_names: list[str] = field(default_factory=list)
    gates: PilibGates | None = None
    hard_gates: np.ndarray | None = None    # (B, m) 0/1 rows
    train_means: np.ndarray | None = None   # reference values for surfaces

    def __post_init__(self):
        if self.gates is None and self.hard_gates is None:
            self.hard_gates = np.ones((len(self.blocks), self.m))

    @property
    def m(self) -> int:
        return self.points.m

    @property
    def mlp(self) -> MlpParams | None:
        """The network of a one-block (PiLiD) model."""
        return self.blocks[0] if self.blocks else None

    @property
    def gates_relaxed(self) -> bool:
        """True while the gate logits train (PiLiB phase 1)."""
        return self.gates is not None and self.hard_gates is None


# Kingma & Ba's defaults (arXiv:1412.6980), used by every run.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class Adam:
    """Standard Adam with bias correction over a dict of named arrays."""

    def __init__(self, params: dict[str, np.ndarray], config: TrainConfig):
        self.params = params
        self.lr = config.learning_rate
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]):
        self.t += 1
        for k, p in self.params.items():
            g = grads[k]
            if g.shape != p.shape:
                raise TrainingError(f"gradient shape mismatch for {k}: "
                                    f"{g.shape} vs {p.shape}")
            self.m[k] = ADAM_BETA1 * self.m[k] + (1 - ADAM_BETA1) * g
            self.v[k] = ADAM_BETA2 * self.v[k] + (1 - ADAM_BETA2) * g * g
            m_hat = self.m[k] / (1 - ADAM_BETA1 ** self.t)
            v_hat = self.v[k] / (1 - ADAM_BETA2 ** self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


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


def _reg_value(arrays, lam: float, kind: str) -> float:
    if lam == 0 or kind == "none":
        return 0.0
    if kind == "l2":
        return lam * float(sum(np.sum(a * a) for a in arrays))
    return lam * float(sum(np.sum(np.abs(a)) for a in arrays))


def _reg_grad(a: np.ndarray, lam: float, kind: str) -> np.ndarray:
    if lam == 0 or kind == "none":
        return np.zeros_like(a)
    return 2.0 * lam * a if kind == "l2" else lam * np.sign(a)


def param_arrays(model: PilidModel) -> dict[str, np.ndarray]:
    """Live references to every trainable array, keyed by stable names;
    the gate logits are trainable only while they are relaxed."""
    out: dict[str, np.ndarray] = {}
    if model.pl is not None:
        out.update({"pl.w": model.pl.w, "pl.b": model.pl.b,
                    "pl.omega": model.pl.omega, "pl.w0": model.pl.w0})
    for i, blk in enumerate(model.blocks):
        for l, (W, b) in enumerate(zip(blk.weights, blk.biases)):
            out[f"blk{i}.W{l}"] = W
            out[f"blk{i}.b{l}"] = b
        out[f"blk{i}.head_w"] = blk.head_w
        out[f"blk{i}.head_b"] = blk.head_b
    if model.gates_relaxed:
        out["gates.log_alpha"] = model.gates.log_alpha
    return out


def weight_names(model: PilidModel) -> list[str]:
    # Regularization applies to weights only, never biases, omega or gate
    # logits; while the gates are relaxed, to the wide weights only.
    names = [] if model.pl is None else ["pl.w"]
    if not model.gates_relaxed:
        for i, blk in enumerate(model.blocks):
            names += [f"blk{i}.W{l}" for l in range(len(blk.weights))]
            names.append(f"blk{i}.head_w")
    return names


def _finite_rows(X: np.ndarray) -> np.ndarray:
    # Checked before the gate multiply, where inf * 0 would warn ahead of
    # the blocks' own check.
    if not np.all(np.isfinite(X)):
        raise MlpError("non-finite input")
    return X


def predict_in_blocks(score_rows, X: np.ndarray) -> np.ndarray:
    """Apply `score_rows` to X in consecutive blocks of BLOCK_ROWS rows and
    join the results, so inference memory is bounded by the block, not by
    N."""
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], BLOCK_ROWS):
        out[lo:lo + BLOCK_ROWS] = score_rows(X[lo:lo + BLOCK_ROWS])
    return out


def model_forward(model: PilidModel, x: np.ndarray):
    """Returns (score, prediction) for a single vector or an (N, m) batch:
    the raw score is the wide component plus every block's output on its
    gated input, and the prediction is the score for regression or its
    sigmoid for classification.  Read from the shape curves
    (`curve_forward`) and cache-free blocks, in fixed-size row blocks."""
    single = np.ndim(x) == 1
    X = _finite_rows(check_rows(x, model.points))
    G = block_gates(model)

    def score_rows(rows):
        score = np.zeros(rows.shape[0]) if model.pl is None \
            else curve_forward(rows, model.pl, model.points)
        for i, block in enumerate(model.blocks):
            score = score + mlp_predict(rows * G[i], block)
        return score

    score = predict_in_blocks(score_rows, X)
    pred = sigmoid(score) if model.task == CLASSIFICATION else score
    if single:
        return float(score[0]), float(pred[0])
    return score, pred


def loss(model: PilidModel, batch_x: np.ndarray, batch_y: np.ndarray,
         config: TrainConfig) -> float:
    """Mean data loss on the batch plus lambda * Omega over the weights."""
    score, _ = model_forward(model, np.atleast_2d(batch_x))
    data, _ = _data_loss_and_grad(score, np.asarray(batch_y, dtype=np.float64),
                                  model.task)
    params = param_arrays(model)
    reg = _reg_value([params[k] for k in weight_names(model)], config.lam,
                     config.reg)
    return data + reg


def loss_and_grads(model: PilidModel, X: np.ndarray, y: np.ndarray,
                   config: TrainConfig):
    """Loss and exact gradients for every trainable array on one batch.

    While the gates are relaxed: data term + lambda*Omega(wide weights) +
    order penalty on the relaxed gate sums, with gradients flowing into
    the gate logits.  Otherwise: data term + lambda*Omega(all weights)
    under the hard gates.
    """
    X = _finite_rows(check_rows(X, model.points))
    y = np.asarray(y, dtype=np.float64)
    relaxed = model.gates_relaxed
    G = gate_values(model.gates, "train") if relaxed else model.hard_gates
    if model.pl is None:
        score = np.zeros(X.shape[0])
    else:
        U, F = locate(X, model.points)
        score, T = segment_forward(U, F, model.pl, model.points)
    caches = []
    for i, block in enumerate(model.blocks):
        out, cache = mlp_forward(X * G[i], block)
        score = score + out
        caches.append(cache)
    data, dscore = _data_loss_and_grad(score, y, model.task)

    grads: dict[str, np.ndarray] = {}
    if model.pl is not None:
        grads = {f"pl.{k}": g for k, g in segment_backward(
            U, F, T, dscore, model.pl, model.points).items()}
    dG = np.zeros_like(model.gates.log_alpha) if relaxed else None
    for i, (block, cache) in enumerate(zip(model.blocks, caches)):
        mg = mlp_backward(block, cache, dscore)
        for l in range(len(mg.weights)):
            grads[f"blk{i}.W{l}"] = mg.weights[l]
            grads[f"blk{i}.b{l}"] = mg.biases[l]
        grads[f"blk{i}.head_w"] = mg.head_w
        grads[f"blk{i}.head_b"] = mg.head_b
        if relaxed:
            # d(masked input)/d(gate_ij) = x_j, summed over the batch
            dG[i] = (mg.x * X).sum(axis=0)

    total = data
    if relaxed:
        khat = G.sum(axis=1)
        total += lk_penalty(khat, model.gates.K, model.gates.lambda0)
        dG = dG + _lk_penalty_gate_grad(khat, model.gates.K,
                                        model.gates.lambda0)
        grads["gates.log_alpha"] = dG * _gate_grad_factor(model.gates)

    params = param_arrays(model)
    wn = weight_names(model)
    total += _reg_value([params[k] for k in wn], config.lam, config.reg)
    for k in wn:
        grads[k] = grads[k] + _reg_grad(params[k], config.lam, config.reg)
    return total, grads


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


def init_model(data: Dataset, gammas, mlp_widths, config: TrainConfig,
               mlp_only: bool = False, pl_init: str = "least_squares",
               activation: str = "relu", B: int | None = None, K: int = 3,
               lambda0: float = 0.1) -> PilidModel:
    """Build points and initialize the model: one always-open block
    (PiLiD), or, given B, B blocks with gate logits under order cap K and
    pairwise pressure lambda0 (PiLiB)."""
    points = build_points(data, gammas)
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
        pl = init_least_squares(data.rows, data.targets, config.ridge, points)
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
    return PilidModel(pl=pl, blocks=blocks, points=points, task=data.task,
                      feature_names=data.feature_names, gates=gates,
                      train_means=means)


def train_epoch(model: PilidModel, data: Dataset, config: TrainConfig,
                optimizer: Adam, stream: int, label: str) -> float:
    """One Adam pass over the mini-batches of (config.seed, stream); returns
    the mean batch loss.  `label` names the epoch in errors."""
    losses = []
    for idx in batches(data.n, config.batch_size, config.seed, stream):
        value, grads = loss_and_grads(model, data.rows[idx],
                                      data.targets[idx], config)
        if not np.isfinite(value):
            raise TrainingError(
                f"non-finite loss in {label}; try a smaller learning rate "
                f"(current {config.learning_rate})")
        optimizer.step(grads)
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
    model = init_model(data, gammas, mlp_widths, config, mlp_only=mlp_only,
                       pl_init=pl_init, activation=activation)
    optimizer = Adam(param_arrays(model), config)
    trace = [train_epoch(model, data, config, optimizer, epoch,
                         f"epoch {epoch + 1}")
             for epoch in range(config.epochs)]
    return model, trace
