"""The piecewise-linear (wide) component.

Per-unit affine transform of the encoded vector, summed within each
feature's block and scaled by a per-feature factor omega.  The learned
weights read out directly as per-feature shape curves, and prediction
evaluates those curves on the raw features (`curve_forward`); training
uses the encoded form (`linear_forward`), whose backward needs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pilid.encoding import CharacteristicPoints, check_rows


class LinearComponentError(ValueError):
    pass


@dataclass
class PiecewiseLinearParams:
    """Parameters of the wide component.

    w, b are per-unit weight/bias (length gamma); omega scales each
    feature's block sum (length m); w0 is the global constant term,
    stored as a 0-d array so the optimizer can update it in place.
    """

    w: np.ndarray
    b: np.ndarray
    omega: np.ndarray
    w0: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        self.omega = np.asarray(self.omega, dtype=np.float64)
        self.w0 = np.asarray(self.w0, dtype=np.float64).reshape(())
        for name in ("w", "b", "omega", "w0"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise LinearComponentError(f"non-finite values in {name}")
        if self.w.shape != self.b.shape:
            raise LinearComponentError("w and b must have equal length")


@dataclass
class FeatureShape:
    """Cumulative marginal-value curve of one feature over its knots."""

    feature: int
    name: str
    xs: np.ndarray
    us: np.ndarray


def _check_layout(params: PiecewiseLinearParams, points: CharacteristicPoints):
    if len(params.w) != points.total or len(params.omega) != points.m:
        raise LinearComponentError(
            f"parameter layout (gamma={len(params.w)}, m={len(params.omega)}) does "
            f"not match encoding (gamma={points.total}, m={points.m})")


def linear_forward(phi: np.ndarray, params: PiecewiseLinearParams,
                   points: CharacteristicPoints):
    """Evaluate w0 + sum_j omega_j * sum_{k in block j} (w_k phi_k + b_k [phi_k > 0]).

    Per-unit biases count only while their unit is active (phi_k > 0), so a
    zero-bias initialization reproduces a pure least-squares fit exactly.
    Accepts a single encoded vector or an (N, gamma) matrix.
    """
    _check_layout(params, points)
    phi = np.asarray(phi, dtype=np.float64)
    single = phi.ndim == 1
    phi2 = np.atleast_2d(phi)
    if phi2.shape[1] != points.total:
        raise LinearComponentError(
            f"encoded width {phi2.shape[1]} does not match layout {points.total}")
    scale = params.omega[points.feature_index]
    out = params.w0 + phi2 @ (scale * params.w) + (phi2 > 0) @ (scale * params.b)
    return float(out[0]) if single else out


def curve_forward(rows: np.ndarray, params: PiecewiseLinearParams,
                  points: CharacteristicPoints):
    """linear_forward(encode_matrix(rows)), read off the shape curves.

    Feature j's term sum_k w_k phi_k(x) is the linear interpolant of
    [0, cumsum(w_j)] over its knots, and sum_k b_k [phi_k > 0] is the sum
    of b_j over the knots strictly below x.  Both hold their end values
    outside [first knot, last knot], the clamp encode_matrix applies.
    Constant features add nothing.  Time is O(N m log gamma) and memory
    O(N): the (N, gamma) encoding is never built.  Accepts a single raw
    vector or an (N, m) matrix.
    """
    _check_layout(params, points)
    single = np.ndim(rows) == 1
    X = check_rows(rows, points)
    total = np.zeros(X.shape[0])
    for j, p in enumerate(points.points):
        if points.constant[j]:
            continue
        o, g = points.offsets[j], points.gammas[j]
        x = X[:, j]
        w_curve = np.concatenate(([0.0], np.cumsum(params.w[o:o + g])))
        b_steps = np.concatenate(([0.0], np.cumsum(params.b[o:o + g])))
        total += params.omega[j] * (
            np.interp(x, p, w_curve) + b_steps[np.searchsorted(p[:-1], x)])
    out = params.w0 + total
    return float(out[0]) if single else out


def init_least_squares(encoded: np.ndarray, targets: np.ndarray, ridge: float,
                       points: CharacteristicPoints) -> PiecewiseLinearParams:
    """Ridge-regularized normal-equation fit of targets on encoded columns.

    Returns w from the solve, omega all ones, b zero and w0 = mean target
    (the intercept, absorbed by centering).  Wide encodings (gamma > N) are
    fine with ridge > 0.
    """
    encoded = np.asarray(encoded, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if ridge < 0:
        raise LinearComponentError(f"ridge must be >= 0, got {ridge}")
    if encoded.ndim != 2 or encoded.shape[0] != len(targets):
        raise LinearComponentError("encoded matrix and targets disagree on N")
    w0 = targets.mean()
    yc = targets - w0
    gram = encoded.T @ encoded
    if ridge > 0:
        gram = gram + ridge * np.eye(gram.shape[0])
    try:
        w = np.linalg.solve(gram, encoded.T @ yc)
    except np.linalg.LinAlgError:
        raise LinearComponentError(
            "singular normal equations; pass a positive ridge "
            "(default 1e-8)") from None
    return PiecewiseLinearParams(w=w, b=np.zeros_like(w),
                                 omega=np.ones(points.m), w0=np.float64(w0))


def extract_shapes(params: PiecewiseLinearParams, points: CharacteristicPoints,
                   anchor: str = "zero",
                   train_rows: np.ndarray | None = None,
                   names: list[str] | None = None) -> list[FeatureShape]:
    """Read the per-feature shape curves out of the trained parameters.

    The increment over interval k of feature j is omega_j * (w_k + b_k): the
    output change when that unit's encoded entry goes 0 -> 1 (which also
    activates its bias).  The curve is the running sum over knots, anchored
    at 0 on the first knot, or mean-centered over `train_rows` when
    anchor="mean".
    """
    _check_layout(params, points)
    if anchor not in ("zero", "mean"):
        raise LinearComponentError(f"unknown anchor {anchor!r}")
    if anchor == "mean" and train_rows is None:
        raise LinearComponentError("anchor='mean' requires train_rows")
    shapes = []
    for j in range(points.m):
        name = names[j] if names else f"x{j}"
        xs = points.points[j]
        if points.constant[j]:
            shapes.append(FeatureShape(j, name, xs.copy(), np.zeros(1)))
            continue
        o, g = points.offsets[j], points.gammas[j]
        delta = params.omega[j] * (params.w[o:o + g] + params.b[o:o + g])
        us = np.concatenate(([0.0], np.cumsum(delta)))
        if anchor == "mean":
            us = us - np.interp(np.clip(train_rows[:, j], xs[0], xs[-1]),
                                xs, us).mean()
        shapes.append(FeatureShape(j, name, xs.copy(), us))
    return shapes
