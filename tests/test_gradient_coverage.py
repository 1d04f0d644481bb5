"""Finite-difference guard over every trainable array.

For each task, regulariser and model kind (PiLiD, the plain MLP, and
PiLiB with relaxed and with hard gates), on rows with a numerical, a
categorical and a constant feature, the gradient of `loss_and_grads`
must match central differences at random entries of every array."""

import warnings

import numpy as np
import pytest

from pilid.dataset import Dataset, FeatureSpec
from pilid.trainer import (TrainConfig, gate_values, init_model,
                           loss_and_grads, pack)

ENTRIES = 6      # random entries probed per array
H = 1e-6
TOLERANCE = 1e-4


def mixed_data(task):
    """A numerical, a categorical, a constant and a normal column."""
    rng = np.random.default_rng(0)
    n = 32
    rows = np.column_stack([rng.uniform(-1, 2, n),
                            rng.choice([0.0, 1.0, 3.0, 7.0], n),
                            np.full(n, 4.0), rng.normal(0, 1, n)])
    y = np.sin(2 * rows[:, 0]) + 0.3 * rows[:, 1] - rows[:, 3] \
        + 0.1 * rng.normal(0, 1, n)
    if task == "classification":
        y = (y > np.median(y)).astype(float)
    kinds = ["numerical", "categorical", "numerical", "numerical"]
    specs = [FeatureSpec(f"x{j}", kind) for j, kind in enumerate(kinds)]
    return Dataset(rows=rows, targets=y, specs=specs, task=task)


def make_model(kind, data, cfg):
    B = 3 if kind.startswith("pilib") else None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # the constant feature warns
        model = init_model(data, 3, [5, 4], cfg, mlp_only=kind == "mlp_only",
                           activation="tanh", B=B, K=2)
    assert model.points.constant == [False, False, True, False]
    if kind == "pilib_relaxed":
        # gates strictly inside (0, 1), so the order penalty's max term is
        # active and no stretch is clipped
        model.gates.log_alpha = np.random.default_rng(1).uniform(
            -1.0, 1.5, (B, data.m))
        relaxed = gate_values(model.gates, "train")
        assert np.all((relaxed > 0.0) & (relaxed < 1.0))
        assert relaxed.sum(axis=1).max() > model.gates.K
    elif kind == "pilib_hard":
        model.hard_gates = np.array([[1.0, 1.0, 0.0, 1.0],
                                     [0.0, 0.0, 0.0, 0.0],
                                     [0.0, 1.0, 1.0, 0.0]])
    return model


@pytest.mark.parametrize("kind", ["pilid", "mlp_only", "pilib_relaxed",
                                  "pilib_hard"])
@pytest.mark.parametrize("reg", ["l1", "l2", "none"])
@pytest.mark.parametrize("task", ["regression", "classification"])
def test_gradient_matches_finite_differences(task, reg, kind):
    data = mixed_data(task)
    cfg = TrainConfig(seed=4, sigma=0.3, lam=0.05, reg=reg)
    model = make_model(kind, data, cfg)
    params = pack(model)
    if kind == "pilib_relaxed":
        assert "gates.log_alpha" in params
    _, grad = loss_and_grads(model, data.rows, data.targets, cfg)
    rng = np.random.default_rng(2)
    for name, (start, stop, _) in params.spans.items():
        size = stop - start
        for i in start + rng.choice(size, min(size, ENTRIES), replace=False):
            orig = params.flat[i]
            params.flat[i] = orig + H
            up = loss_and_grads(model, data.rows, data.targets, cfg)[0]
            params.flat[i] = orig - H
            dn = loss_and_grads(model, data.rows, data.targets, cfg)[0]
            params.flat[i] = orig
            fd = (up - dn) / (2 * H)
            g = grad.flat[i]
            rel = abs(g - fd) / max(abs(g), abs(fd), 1e-4)
            assert rel < TOLERANCE, f"{name}[{i - start}]: {g} vs {fd}"
