"""Correctness checks on the program's outputs.

Every check compares against a computation made here from the generator's
truth, or against a property the method must have; none compares against
a stored copy of an earlier output.  Each returns a list of failure
messages, empty when the check holds.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

import inputs


def digest(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a, dtype=np.float64)
    return hashlib.sha256(a.tobytes()).hexdigest()


def r2(pred: np.ndarray, y: np.ndarray) -> float:
    """Coefficient of determination of `pred` against the noisy targets."""
    resid = np.asarray(pred) - y
    return float(1.0 - np.mean(resid * resid) / np.var(y))


def predictions(pred: np.ndarray, n_rows: int) -> list[str]:
    """One finite prediction per scoring row."""
    if pred.shape != (n_rows,):
        return [f"expected {n_rows} predictions, got shape {pred.shape}"]
    bad = int(np.count_nonzero(~np.isfinite(pred)))
    return [f"{bad} non-finite predictions"] if bad else []


def identical(a: np.ndarray, b: np.ndarray, what: str) -> list[str]:
    """Bit-identical arrays."""
    if a.shape != b.shape or digest(a) != digest(b):
        diff = int(np.count_nonzero(a != b)) if a.shape == b.shape else -1
        return [f"{what}: not bit-identical ({diff} entries differ)"]
    return []


def at_least(name: str, value: float, floor: float) -> list[str]:
    if not value >= floor:
        return [f"{name} {value:.6g} below its floor {floor}"]
    return []


def parse_shapes(text: str) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Read `feature,point_index,x,u` rows into per-feature (xs, us)."""
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    out: dict[int, tuple[list, list]] = {}
    for feature, _, x, u in rows:
        xs, us = out.setdefault(int(feature), ([], []))
        xs.append(float(x))
        us.append(float(u))
    return {j: (np.array(xs), np.array(us)) for j, (xs, us) in out.items()}


def shape_correlations(shapes: dict[int, tuple[np.ndarray, np.ndarray]]
                       ) -> list[float]:
    """Pearson correlation of each exported curve with the true marginal
    at the same knots (both are defined up to an additive constant)."""
    corrs = []
    for j in range(inputs.M):
        xs, us = shapes.get(j, (np.zeros(0), np.zeros(0)))
        if len(xs) < 3 or np.std(us) == 0.0:
            corrs.append(0.0)
            continue
        corrs.append(float(np.corrcoef(us, inputs.marginal(j, xs))[0, 1]))
    return corrs


def additive_features(active_sets) -> list[int]:
    """Features whose whole effect the model puts in the wide component:
    those outside every active gated block (all of them for PiLiD).  A
    block reading feature j may carry part of f_j, so the exported curve of
    j is then only a part of its marginal.  If blocks read every feature,
    all are scored."""
    inside = {j for s in active_sets for j in s}
    return [j for j in range(inputs.M) if j not in inside] or \
        list(range(inputs.M))


def shapes(corrs: list[float], scored: list[int], floor: float) -> list[str]:
    """The curve of every scored feature must follow its true marginal."""
    return [f"shape curve of x{j}: correlation {corrs[j]:.4f} below floor "
            f"{floor}" for j in scored if not corrs[j] >= floor]


def loss_trace(trace, must_fall: bool) -> list[str]:
    trace = np.asarray(trace, dtype=np.float64)
    if trace.size == 0 or not np.all(np.isfinite(trace)):
        return [f"training loss trace not finite: {trace.tolist()}"]
    if must_fall and not trace[-1] < trace[0]:
        return [f"training loss did not fall: {trace.tolist()}"]
    return []


def pilib_model(model, rows: np.ndarray, max_order: int, surface: np.ndarray,
                grid: int, forward) -> list[str]:
    """Properties a trained gated-block model must have.

    Every block's order (its number of open hard gates) is at most K, at
    least one block is active, each block ignores every feature its gates
    close, and the interaction surface is a finite grid of the requested
    shape.  `forward` is the program's `pilib_forward`; each block is
    evaluated through it alone, with the wide component set to zero.
    """
    fails = []
    G = np.asarray(model.hard_gates)
    if G.shape != (len(model.blocks), rows.shape[1]) or \
            not np.all((G == 0.0) | (G == 1.0)):
        return [f"hard gates are not a 0/1 matrix of shape "
                f"({len(model.blocks)}, {rows.shape[1]})"]
    orders = G.sum(axis=1)
    if orders.max() > max_order:
        fails.append(f"block order {orders.max():.0f} above K={max_order}: "
                     f"orders {orders.tolist()}")
    if not np.any(orders > 0):
        fails.append("no active block")
    zero_pl = dataclasses.replace(model.pl, w=np.zeros_like(model.pl.w),
                                  b=np.zeros_like(model.pl.b), w0=0.0)
    rng = np.random.default_rng(0)
    for i, block in enumerate(model.blocks):
        closed = G[i] == 0.0
        if not closed.any():
            continue
        alone = dataclasses.replace(model, pl=zero_pl, blocks=[block],
                                    hard_gates=G[i:i + 1])
        moved = rows.copy()
        moved[:, closed] = rng.uniform(0.0, 1.0,
                                       (rows.shape[0], int(closed.sum())))
        fails += identical(forward(alone, rows)[0], forward(alone, moved)[0],
                           f"block {i} under its closed-gate features")
    if surface.shape != (grid, grid) or not np.all(np.isfinite(surface)):
        fails.append(f"interaction surface: shape {surface.shape}, expected "
                     f"({grid}, {grid}) and finite")
    return fails
