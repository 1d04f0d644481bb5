"""Joint training of the hybrid model.

The combined score is linear_forward(encode(x)) + mlp_forward(x); both
components are optimized together with mini-batch Adam.  The wide
component starts from a least-squares fit so the optimizer begins in an
interpretable region; the network starts from small Gaussian weights.
Prediction computes the same score from the shape curves (curve_forward)
and the cache-free network output (mlp_predict), in fixed-size row blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from pilid.dataset import Dataset, REGRESSION, CLASSIFICATION, batches
from pilid.encoding import (
    CharacteristicPoints,
    build_points,
    check_rows,
    encode_matrix,
)
from pilid.mlp_component import (
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
    linear_forward,
)

# Rows per block when predicting; bounds inference memory independently of
# N.  Of 1024-8192 rows, 2048 was fastest on the B=20 gated blocks, the
# reference network and a 32-32 network (one BLAS thread): larger blocks'
# temporaries were faulted in afresh on every block (glibc malloc hands
# them back to the OS), smaller ones lose BLAS efficiency on wide layers.
PREDICT_BLOCK_ROWS = 2048


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
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise TrainingError("learning_rate must be > 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise TrainingError("epochs and batch_size must be >= 1")
        if self.lam < 0:
            raise TrainingError("lambda must be >= 0")
        if self.reg not in ("l1", "l2", "none"):
            raise TrainingError(f"unknown regularization {self.reg!r}")


@dataclass
class PilidModel:
    """Trained hybrid model.  `pl` is None for a plain-MLP baseline."""

    pl: PiecewiseLinearParams | None
    mlp: MlpParams | None
    points: CharacteristicPoints
    task: str
    feature_names: list[str] = field(default_factory=list)

    @property
    def m(self) -> int:
        return self.points.m


class Adam:
    """Standard Adam with bias correction over a dict of named arrays."""

    def __init__(self, params: dict[str, np.ndarray], config: TrainConfig):
        self.params = params
        self.lr = config.learning_rate
        self.beta1, self.beta2 = config.beta1, config.beta2
        self.eps = config.epsilon
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
            self.m[k] = self.beta1 * self.m[k] + (1 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1 - self.beta2) * g * g
            m_hat = self.m[k] / (1 - self.beta1 ** self.t)
            v_hat = self.v[k] / (1 - self.beta2 ** self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def adam_step(optimizer: Adam, grads: dict[str, np.ndarray]) -> Adam:
    """Apply one Adam update in place; returned for chaining."""
    optimizer.step(grads)
    return optimizer


def sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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
    """Live references to every trainable array, keyed by stable names."""
    out: dict[str, np.ndarray] = {}
    if model.pl is not None:
        out.update({"pl.w": model.pl.w, "pl.b": model.pl.b,
                    "pl.omega": model.pl.omega, "pl.w0": model.pl.w0})
    if model.mlp is not None:
        for l, (W, b) in enumerate(zip(model.mlp.weights, model.mlp.biases)):
            out[f"mlp.W{l}"] = W
            out[f"mlp.b{l}"] = b
        out["mlp.head_w"] = model.mlp.head_w
        out["mlp.head_b"] = model.mlp.head_b
    return out


def weight_names(model: PilidModel) -> list[str]:
    # Regularization applies to weights only, never biases or omega.
    names = []
    if model.pl is not None:
        names.append("pl.w")
    if model.mlp is not None:
        names += [f"mlp.W{l}" for l in range(len(model.mlp.weights))]
        names.append("mlp.head_w")
    return names


def predict_in_blocks(score_rows, X: np.ndarray) -> np.ndarray:
    """Apply `score_rows` to X in consecutive blocks of PREDICT_BLOCK_ROWS
    rows and join the results, so inference memory is bounded by the block,
    not by N."""
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], PREDICT_BLOCK_ROWS):
        out[lo:lo + PREDICT_BLOCK_ROWS] = \
            score_rows(X[lo:lo + PREDICT_BLOCK_ROWS])
    return out


def model_score(model: PilidModel, x: np.ndarray):
    """Raw (pre-link) score for a single vector or an (N, m) batch, read
    from the shape curves (`curve_forward`) block by block."""
    single = np.ndim(x) == 1
    X = check_rows(x, model.points)

    def score_rows(rows):
        score = np.zeros(rows.shape[0])
        if model.pl is not None:
            score = score + curve_forward(rows, model.pl, model.points)
        if model.mlp is not None:
            score = score + mlp_predict(rows, model.mlp)
        return score

    score = predict_in_blocks(score_rows, X)
    return float(score[0]) if single else score


def model_forward(model: PilidModel, x: np.ndarray):
    """Returns (score, prediction): identity for regression, sigmoid of the
    score for classification."""
    score = model_score(model, x)
    if model.task == CLASSIFICATION:
        pred = sigmoid(score)
        pred = float(pred) if np.isscalar(score) else pred
    else:
        pred = score
    return score, pred


def loss(model: PilidModel, batch_x: np.ndarray, batch_y: np.ndarray,
         config: TrainConfig) -> float:
    """Mean data loss on the batch plus lambda * Omega over the weights."""
    score = model_score(model, np.atleast_2d(batch_x))
    data, _ = _data_loss_and_grad(score, np.asarray(batch_y, dtype=np.float64),
                                  model.task)
    params = param_arrays(model)
    reg = _reg_value([params[k] for k in weight_names(model)], config.lam,
                     config.reg)
    return data + reg


def loss_and_grads(model: PilidModel, X: np.ndarray, y: np.ndarray,
                   config: TrainConfig, phi: np.ndarray | None = None):
    """Full joint loss and exact gradients for every trainable array."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if phi is None:
        phi = encode_matrix(X, model.points)
    score = np.zeros(X.shape[0])
    cache = None
    if model.pl is not None:
        score = score + linear_forward(phi, model.pl, model.points)
    if model.mlp is not None:
        out, cache = mlp_forward(X, model.mlp)
        score = score + out
    data, dscore = _data_loss_and_grad(score, y, model.task)

    grads: dict[str, np.ndarray] = {}
    if model.pl is not None:
        pts = model.points
        scale = model.pl.omega[pts.feature_index]
        active = (phi > 0).astype(np.float64)
        grads["pl.w"] = (phi.T @ dscore) * scale
        grads["pl.b"] = (active.T @ dscore) * scale
        unit_terms = phi * model.pl.w + active * model.pl.b
        group = np.add.reduceat(unit_terms, pts.offsets, axis=1)
        grads["pl.omega"] = group.T @ dscore
        grads["pl.w0"] = np.asarray(dscore.sum())
    if model.mlp is not None:
        mg = mlp_backward(model.mlp, cache, dscore)
        for l in range(len(mg.weights)):
            grads[f"mlp.W{l}"] = mg.weights[l]
            grads[f"mlp.b{l}"] = mg.biases[l]
        grads["mlp.head_w"] = mg.head_w
        grads["mlp.head_b"] = mg.head_b

    params = param_arrays(model)
    wn = weight_names(model)
    total = data + _reg_value([params[k] for k in wn], config.lam, config.reg)
    for k in wn:
        grads[k] = grads[k] + _reg_grad(params[k], config.lam, config.reg)
    return total, grads


def _parse_widths(mlp_widths) -> list[int]:
    widths = [int(w) for w in mlp_widths]
    if not widths:
        raise TrainingError("need at least one hidden width")
    if widths[-1] == 1 and len(widths) > 1:
        widths = widths[:-1]  # trailing output width is implicit
    if any(w < 1 for w in widths):
        raise TrainingError(f"invalid hidden widths {widths}")
    return widths


def init_model(data: Dataset, gammas, mlp_widths, config: TrainConfig,
               mlp_only: bool = False, pl_init: str = "least_squares",
               activation: str = "relu") -> tuple[PilidModel, np.ndarray]:
    """Build points, encode the training rows and initialize both components.

    Returns the model and the precomputed (N, gamma) encoded matrix.
    """
    points = build_points(data, gammas)
    phi = encode_matrix(data.rows, points)
    hidden = _parse_widths(mlp_widths)
    mlp = init_gaussian([data.m] + hidden, config.sigma, [config.seed, 1])
    mlp.activation = activation
    if mlp_only:
        pl = None
    elif pl_init == "least_squares":
        pl = init_least_squares(phi, data.targets, config.ridge, points)
    elif pl_init == "gaussian":
        rng = np.random.default_rng([config.seed, 2])
        pl = PiecewiseLinearParams(
            w=rng.normal(0.0, config.sigma, points.total),
            b=np.zeros(points.total), omega=np.ones(points.m),
            w0=np.float64(data.targets.mean()))
    else:
        raise TrainingError(f"unknown pl_init {pl_init!r}")
    model = PilidModel(pl=pl, mlp=mlp, points=points, task=data.task,
                       feature_names=data.feature_names)
    return model, phi


def train(data: Dataset, gammas, mlp_widths, config: TrainConfig,
          mlp_only: bool = False, pl_init: str = "least_squares",
          activation: str = "relu") -> tuple[PilidModel, list[float]]:
    """Full training run: initialization then Adam over mini-batches,
    back-propagating through both components simultaneously.

    Returns the model and the per-epoch mean training loss trace.
    Deterministic for a fixed config seed.
    """
    model, phi = init_model(data, gammas, mlp_widths, config,
                            mlp_only=mlp_only, pl_init=pl_init,
                            activation=activation)
    optimizer = Adam(param_arrays(model), config)
    trace: list[float] = []
    for epoch in range(config.epochs):
        epoch_losses = []
        for idx in batches(data.n, config.batch_size, config.seed, epoch):
            value, grads = loss_and_grads(model, data.rows[idx],
                                          data.targets[idx], config,
                                          phi=phi[idx])
            if not np.isfinite(value):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch + 1}; try a smaller "
                    f"learning rate (current {config.learning_rate})")
            optimizer.step(grads)
            epoch_losses.append(value)
        trace.append(float(np.mean(epoch_losses)))
    return model, trace
