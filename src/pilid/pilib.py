"""Gated-block variant: B same-sized networks with per-feature input gates.

Each block sees the raw feature vector elementwise-multiplied by its gate
row, so a block whose gate for feature j is zero is exactly invariant to
that feature.  A penalty on the per-block gate sums caps the maximum
interaction order at K and pushes active blocks toward pairwise
interactions.  Training is two-phase: learn the gates under the order
penalty, then freeze them hard and fine-tune everything else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from pilid.dataset import Dataset, CLASSIFICATION, batches
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
from pilid.trainer import (
    Adam,
    TrainConfig,
    TrainingError,
    _data_loss_and_grad,
    _parse_widths,
    _reg_grad,
    _reg_value,
    predict_in_blocks,
    sigmoid,
)

# deterministic stretched-sigmoid gate relaxation
GATE_STRETCH_LO = -0.1
GATE_STRETCH_HI = 1.1
TEMPERATURE_START = 1.0
TEMPERATURE_DECAY = 0.9
TEMPERATURE_FLOOR = 0.05
PHASE1_EPOCH_CAP = 200


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
class PilibModel:
    pl: PiecewiseLinearParams
    blocks: list[MlpParams]
    gates: PilibGates
    points: CharacteristicPoints
    task: str
    feature_names: list[str] = field(default_factory=list)
    train_means: np.ndarray | None = None   # reference values for surfaces
    hard_gates: np.ndarray | None = None    # frozen 0/1 mask after phase 2

    @property
    def m(self) -> int:
        return self.points.m


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


def estimated_orders(gates: PilibGates, mode: str = "eval") -> np.ndarray:
    """Per-block estimated interaction order: row sums of the gate matrix."""
    return gate_values(gates, mode).sum(axis=1)


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


def pilib_forward(model: PilibModel, x: np.ndarray, mode: str = "eval"):
    """Score = wide component + sum of gated block outputs; prediction is
    the sigmoid of the score for classification.  Evaluated like
    trainer.model_score without an encoded matrix: shape curves and
    cache-free blocks, in fixed-size row blocks."""
    single = np.ndim(x) == 1
    X = check_rows(x, model.points)
    G = model.hard_gates if model.hard_gates is not None \
        else gate_values(model.gates, mode)

    def score_rows(rows):
        score = curve_forward(rows, model.pl, model.points)
        for i, block in enumerate(model.blocks):
            score = score + mlp_predict(rows * G[i], block)
        return score

    score = predict_in_blocks(score_rows, X)
    if model.task == CLASSIFICATION:
        pred = sigmoid(score)
    else:
        pred = score
    if single:
        return float(score[0]), float(np.atleast_1d(pred)[0])
    return score, pred


def _pilib_param_arrays(model: PilibModel, with_gates: bool) -> dict[str, np.ndarray]:
    out = {"pl.w": model.pl.w, "pl.b": model.pl.b,
           "pl.omega": model.pl.omega, "pl.w0": model.pl.w0}
    for i, blk in enumerate(model.blocks):
        for l, (W, b) in enumerate(zip(blk.weights, blk.biases)):
            out[f"blk{i}.W{l}"] = W
            out[f"blk{i}.b{l}"] = b
        out[f"blk{i}.head_w"] = blk.head_w
        out[f"blk{i}.head_b"] = blk.head_b
    if with_gates:
        out["gates.log_alpha"] = model.gates.log_alpha
    return out


def _pilib_weight_names(model: PilibModel, phase: int) -> list[str]:
    # Phase 1 regularizes the wide component only; phase 2 all weights.
    names = ["pl.w"]
    if phase == 2:
        for i, blk in enumerate(model.blocks):
            names += [f"blk{i}.W{l}" for l in range(len(blk.weights))]
            names.append(f"blk{i}.head_w")
    return names


def pilib_loss_and_grads(model: PilibModel, X: np.ndarray, y: np.ndarray,
                         config: TrainConfig, phase: int,
                         phi: np.ndarray | None = None,
                         hard_gates: np.ndarray | None = None):
    """Loss and gradients for one batch.

    Phase 1: data term + lambda*Omega(wide weights) + order penalty on the
    relaxed gate sums, with gradients flowing into the gate logits.
    Phase 2: data term + lambda*Omega(all weights) under frozen hard gates.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if phi is None:
        phi = encode_matrix(X, model.points)
    train_gates = phase == 1
    G = gate_values(model.gates, "train") if train_gates else hard_gates
    score = linear_forward(phi, model.pl, model.points)
    caches = []
    for i, block in enumerate(model.blocks):
        out, cache = mlp_forward(X * G[i], block)
        score = score + out
        caches.append(cache)
    data, dscore = _data_loss_and_grad(score, y, model.task)

    grads: dict[str, np.ndarray] = {}
    pts = model.points
    scale = model.pl.omega[pts.feature_index]
    active = (phi > 0).astype(np.float64)
    grads["pl.w"] = (phi.T @ dscore) * scale
    grads["pl.b"] = (active.T @ dscore) * scale
    unit_terms = phi * model.pl.w + active * model.pl.b
    grads["pl.omega"] = np.add.reduceat(unit_terms, pts.offsets, axis=1).T @ dscore
    grads["pl.w0"] = np.asarray(dscore.sum())

    dG = np.zeros_like(model.gates.log_alpha) if train_gates else None
    for i, block in enumerate(model.blocks):
        mg = mlp_backward(block, caches[i], dscore)
        for l in range(len(mg.weights)):
            grads[f"blk{i}.W{l}"] = mg.weights[l]
            grads[f"blk{i}.b{l}"] = mg.biases[l]
        grads[f"blk{i}.head_w"] = mg.head_w
        grads[f"blk{i}.head_b"] = mg.head_b
        if train_gates:
            # d(masked input)/d(gate_ij) = x_j, summed over the batch
            dG[i] = (mg.x * X).sum(axis=0)

    total = data
    if train_gates:
        khat = G.sum(axis=1)
        total += lk_penalty(khat, model.gates.K, model.gates.lambda0)
        dG = dG + _lk_penalty_gate_grad(khat, model.gates.K,
                                        model.gates.lambda0)
        grads["gates.log_alpha"] = dG * _gate_grad_factor(model.gates)

    wn = _pilib_weight_names(model, phase)
    params = _pilib_param_arrays(model, with_gates=train_gates)
    total += _reg_value([params[k] for k in wn], config.lam, config.reg)
    for k in wn:
        grads[k] = grads[k] + _reg_grad(params[k], config.lam, config.reg)
    return total, grads


def active_feature_sets(model: PilibModel) -> list[list[int]]:
    G = model.hard_gates if model.hard_gates is not None \
        else gate_values(model.gates, "eval")
    return [list(np.flatnonzero(G[i]).astype(int)) for i in range(G.shape[0])]


def train_pilib(data: Dataset, gammas, block_widths, B: int, K: int,
                lambda0: float, config: TrainConfig,
                activation: str = "relu"):
    """Two-phase training.

    Phase 1 optimizes everything including the gate logits under the order
    penalty, annealing the gate temperature each epoch, until the eval-mode
    maximum order is <= K (or the epoch cap is hit, which raises the
    `capped` flag in the diagnostics).  Phase 2 freezes the hardened gates,
    warm-starts from the phase-1 parameters and fine-tunes with standard
    regularization for config.epochs.
    """
    if B < 1 or K < 1 or lambda0 < 0:
        raise TrainingError("need B >= 1, K >= 1, lambda0 >= 0")
    points = build_points(data, gammas)
    phi = encode_matrix(data.rows, points)
    pl = init_least_squares(phi, data.targets, config.ridge, points)
    hidden = _parse_widths(block_widths)
    blocks = []
    for i in range(B):
        blk = init_gaussian([data.m] + hidden, config.sigma,
                            [config.seed, 100 + i])
        blk.activation = activation
        blocks.append(blk)
    rng = np.random.default_rng([config.seed, 3])
    log_alpha = 0.5 + 0.1 * rng.standard_normal((B, data.m))
    gates = PilibGates(log_alpha=log_alpha, temperature=TEMPERATURE_START,
                       K=K, lambda0=lambda0)
    model = PilibModel(pl=pl, blocks=blocks, gates=gates, points=points,
                       task=data.task, feature_names=data.feature_names,
                       train_means=data.rows.mean(axis=0))

    # phase 1: learn gates under the order penalty
    optimizer = Adam(_pilib_param_arrays(model, with_gates=True), config)
    phase1_trace: list[float] = []
    capped = True
    for epoch in range(PHASE1_EPOCH_CAP):
        model.gates.temperature = max(
            TEMPERATURE_FLOOR, TEMPERATURE_START * TEMPERATURE_DECAY ** epoch)
        epoch_losses = []
        for idx in batches(data.n, config.batch_size, config.seed, epoch):
            value, grads = pilib_loss_and_grads(
                model, data.rows[idx], data.targets[idx], config, phase=1,
                phi=phi[idx])
            if not np.isfinite(value):
                raise TrainingError(f"non-finite loss in phase 1, epoch {epoch + 1}")
            optimizer.step(grads)
            epoch_losses.append(value)
        phase1_trace.append(float(np.mean(epoch_losses)))
        if estimated_orders(model.gates, "eval").max() <= K:
            capped = False
            break
    if capped:
        import warnings
        warnings.warn(f"phase 1 hit the {PHASE1_EPOCH_CAP}-epoch cap without "
                      f"satisfying max order <= {K}")

    # phase 2: freeze hardened gates, fine-tune everything else
    model.hard_gates = gate_values(model.gates, "eval")
    optimizer = Adam(_pilib_param_arrays(model, with_gates=False), config)
    phase2_trace: list[float] = []
    for epoch in range(config.epochs):
        epoch_losses = []
        for idx in batches(data.n, config.batch_size, config.seed,
                           10_000 + epoch):
            value, grads = pilib_loss_and_grads(
                model, data.rows[idx], data.targets[idx], config, phase=2,
                phi=phi[idx], hard_gates=model.hard_gates)
            if not np.isfinite(value):
                raise TrainingError(f"non-finite loss in phase 2, epoch {epoch + 1}")
            optimizer.step(grads)
            epoch_losses.append(value)
        phase2_trace.append(float(np.mean(epoch_losses)))

    diagnostics = {
        "phase1_trace": phase1_trace,
        "phase2_trace": phase2_trace,
        "capped": capped,
        "orders": estimated_orders(model.gates, "eval"),
        "active_sets": active_feature_sets(model),
    }
    return model, diagnostics


def interaction_surface(model: PilibModel, features: tuple[int, int],
                        grid: int = 25):
    """Grid evaluation of the block-sum restricted to blocks whose active
    feature set is contained in {a, b}; other features sit at the training
    means.  Returns (xs_a, xs_b, surface)."""
    a, b = features
    if not (0 <= a < model.m and 0 <= b < model.m):
        raise TrainingError(f"feature index out of range: {features}")
    if model.train_means is None:
        raise TrainingError("model carries no training means")
    G = model.hard_gates if model.hard_gates is not None \
        else gate_values(model.gates, "eval")
    keep = [i for i in range(G.shape[0])
            if set(np.flatnonzero(G[i])) <= {a, b}]
    pa, pb = model.points.points[a], model.points.points[b]
    xs_a = np.linspace(pa[0], pa[-1], grid)
    xs_b = np.linspace(pb[0], pb[-1], grid)
    surface = np.zeros((grid, grid))
    base = np.tile(model.train_means, (grid, 1))
    for r, va in enumerate(xs_a):
        rows = base.copy()
        rows[:, a] = va
        rows[:, b] = xs_b
        total = np.zeros(grid)
        for i in keep:
            total += mlp_predict(rows * G[i], model.blocks[i])
        surface[r] = total
    return xs_a, xs_b, surface
