"""Training and reading of the gated-block variant (PiLiB).

PiLiB is the hybrid model of `trainer` with B same-sized blocks, held as
one network with a leading block axis, whose per-feature gates are
trainable logits.  Each block sees the raw feature vector
elementwise-multiplied by its gate row, so a block whose gate for feature
j is zero is exactly invariant to that feature.  A penalty on the
per-block gate sums caps the maximum interaction order at K and pushes
active blocks toward pairwise interactions.  Training is two-phase: learn
the gates under the order penalty, then freeze them hard and fine-tune
everything else, both through `trainer.train_epoch`.  Between the phases
every block whose hard gates are all closed is dropped: it sees an
all-zero input, so its output is one constant, which moves into the wide
component's w0, and the network keeps the open blocks' rows of its
arrays.  A trained model therefore holds only open blocks.  A pair's
interaction surface is likewise the model of the blocks on that pair,
taken out of the network by index.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from pilid.dataset import Dataset
from pilid.mlp_component import mlp_predict
from pilid.trainer import (
    TEMPERATURE_START,
    Adam,
    PilibGates,
    PilidModel,
    TrainConfig,
    TrainingError,
    block_gates,
    gate_values,
    init_training,
    loss_and_grads,
    model_forward,
    pack,
    train_epoch,
)

TEMPERATURE_DECAY = 0.9
TEMPERATURE_FLOOR = 0.05
PHASE1_EPOCH_CAP = 200

# Names from before PiLiD and PiLiB shared one model, kept because the
# benchmark's tracer and checks reach the program through them.  The two
# functions are separate objects so that the tracer, which wraps by
# identity, still records the work under the trainer functions' names.
PilibModel = PilidModel


def pilib_forward(model: PilidModel, x: np.ndarray):
    """`trainer.model_forward`, under its gated-block name."""
    return model_forward(model, x)


def pilib_loss_and_grads(model: PilidModel, X: np.ndarray, y: np.ndarray,
                         config: TrainConfig):
    """`trainer.loss_and_grads`, under its gated-block name."""
    return loss_and_grads(model, X, y, config)


def estimated_orders(gates: PilibGates) -> np.ndarray:
    """Per-block estimated interaction order: row sums of the hard (eval
    mode) gate matrix."""
    return gate_values(gates, "eval").sum(axis=1)


def active_feature_sets(model: PilidModel) -> list[list[int]]:
    G = block_gates(model)
    return [list(np.flatnonzero(G[i]).astype(int)) for i in range(G.shape[0])]


def drop_closed_blocks(model: PilidModel) -> None:
    """Remove, in place, the blocks of a gated model with hard gates whose
    gates are all 0, adding each one's output on a zero row to the wide
    component's w0 in block order, so that the model's scores stay the
    same up to rounding.  The open blocks keep their order, their hard
    gate rows and their gate logits."""
    is_open = model.hard_gates.any(axis=1)
    zero = np.zeros((1, model.m))
    for block, keep in zip(model.blocks, is_open):
        if not keep:
            model.pl.w0 += mlp_predict(zero, block)[0]
    model.blocks = model.blocks[is_open]
    model.hard_gates = model.hard_gates[is_open]
    model.gates.log_alpha = model.gates.log_alpha[is_open]


def train_pilib(data: Dataset, gammas, block_widths, B: int, K: int,
                lambda0: float, config: TrainConfig,
                activation: str = "relu"):
    """Two-phase training.

    Phase 1 optimizes everything including the gate logits under the order
    penalty, annealing the gate temperature each epoch, until the eval-mode
    maximum order is <= K (or the epoch cap is hit, which raises the
    `capped` flag in the diagnostics).  Phase 2 freezes the hardened gates,
    drops the closed blocks (`drop_closed_blocks`), warm-starts from the
    phase-1 parameters and fine-tunes the rest with standard regularization
    for config.epochs.  The diagnostics' `orders` and `active_sets`
    describe the returned model's blocks, of which there may be none.
    """
    if B < 1 or K < 1 or lambda0 < 0:
        raise TrainingError("need B >= 1, K >= 1, lambda0 >= 0")
    model, segments = init_training(data, gammas, block_widths, config,
                                    activation=activation, B=B, K=K,
                                    lambda0=lambda0)

    # phase 1: learn gates under the order penalty
    optimizer = Adam(pack(model).flat, config)
    phase1_trace: list[float] = []
    capped = True
    for epoch in range(PHASE1_EPOCH_CAP):
        model.gates.temperature = max(
            TEMPERATURE_FLOOR, TEMPERATURE_START * TEMPERATURE_DECAY ** epoch)
        phase1_trace.append(train_epoch(
            model, data, segments, config, optimizer, epoch,
            f"phase 1, epoch {epoch + 1}"))
        if estimated_orders(model.gates).max() <= K:
            capped = False
            break
    if capped:
        import warnings
        warnings.warn(f"phase 1 hit the {PHASE1_EPOCH_CAP}-epoch cap without "
                      f"satisfying max order <= {K}")

    # phase 2: freeze hardened gates, drop the closed blocks, fine-tune
    # everything else, packed anew without the gate logits
    model.hard_gates = gate_values(model.gates, "eval")
    drop_closed_blocks(model)
    optimizer = Adam(pack(model).flat, config)
    phase2_trace = [train_epoch(model, data, segments, config, optimizer,
                                10_000 + epoch, f"phase 2, epoch {epoch + 1}")
                    for epoch in range(config.epochs)]

    diagnostics = {
        "phase1_trace": phase1_trace,
        "phase2_trace": phase2_trace,
        "capped": capped,
        "orders": estimated_orders(model.gates),
        "active_sets": active_feature_sets(model),
    }
    return model, diagnostics


def interaction_surface(model: PilidModel, features: tuple[int, int],
                        grid: int = 25):
    """Grid evaluation of the block-sum restricted to blocks whose active
    feature set is contained in {a, b}, for two different features and
    grid >= 2 points per axis; other features sit at the training means.
    The grid^2 rows are scored by `model_forward` on the model of the
    kept blocks alone, without the wide component, so their outputs are
    added in block order from zero.  A model from `train_pilib` has no
    closed block, so the surface holds no closed block's constant (that is
    part of w0).  Returns (xs_a, xs_b, surface)."""
    a, b = features
    if not (0 <= a < model.m and 0 <= b < model.m):
        raise TrainingError(f"feature index out of range: {features}")
    if a == b:
        raise TrainingError(f"a surface needs two different features, "
                            f"got {a} and {b}")
    if grid < 2:
        raise TrainingError(f"grid must be >= 2, got {grid}")
    if model.train_means is None:
        raise TrainingError("model carries no training means")
    G = block_gates(model)
    keep = [i for i in range(G.shape[0])
            if set(np.flatnonzero(G[i])) <= {a, b}]
    pa, pb = model.points.points[a], model.points.points[b]
    xs_a = np.linspace(pa[0], pa[-1], grid)
    xs_b = np.linspace(pb[0], pb[-1], grid)
    # row r * grid + c holds (xs_a[r], xs_b[c])
    rows = np.tile(model.train_means, (grid * grid, 1))
    rows[:, a] = np.repeat(xs_a, grid)
    rows[:, b] = np.tile(xs_b, grid)
    kept = dataclasses.replace(model, pl=None, blocks=model.blocks[keep],
                               hard_gates=G[keep])
    return xs_a, xs_b, model_forward(kept, rows)[0].reshape(grid, grid)
