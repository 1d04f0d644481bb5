"""The piecewise-linear (wide) component.

Per-unit affine transform of the encoded vector, summed within each
feature's block and scaled by a per-feature factor omega.  The learned
weights read out directly as per-feature shape curves.  Training and
prediction work from each row's segment per feature (`locate`) through one
forward and one backward (`segment_forward`, `segment_backward`), never
building the (N, gamma) encoding; `linear_forward` on that encoding is the
reference definition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pilid.encoding import (
    BLOCK_ROWS,
    CharacteristicPoints,
    check_rows,
    encode_matrix,
)


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


def locate(rows: np.ndarray, points: CharacteristicPoints):
    """Unit index U and fraction F of each row's segment in every
    non-constant feature, both (N, m'), for a checked (N, m) matrix.  The
    row's encoding is 1 on the units below U, F on U and 0 above, as
    encode_matrix computes it: a row on inner knot k lands in unit k with
    F = 0, and rows past either end get F = 0 or 1 in the end unit.
    """
    X = rows[:, points.varying]
    U = np.empty(X.shape, dtype=np.intp)
    for c, j in enumerate(points.varying):
        U[:, c] = np.searchsorted(points.points[j][1:-1], X[:, c], side="right")
    U += points.offsets[points.varying]
    return U, np.clip((X - points.seg_start[U]) / points.seg_width[U], 0.0, 1.0)


def segment_forward(U: np.ndarray, F: np.ndarray, params: PiecewiseLinearParams,
                    points: CharacteristicPoints):
    """Score w0 + T @ omega of located rows, and their per-feature terms
    T = below[U] + F w[U] + [F > 0] b[U]; below[u] sums w + b over the
    units of u's feature below u, whose entries are 1."""
    _check_layout(params, points)
    acc = np.concatenate(([0.0], np.cumsum(params.w + params.b)))
    below = acc[:-1] - acc[points.offsets][points.feature_index]
    T = below[U] + F * params.w[U] + (F > 0) * params.b[U]
    return params.w0 + T @ params.omega[points.varying], T


def segment_backward(U: np.ndarray, F: np.ndarray, T: np.ndarray,
                     dscore: np.ndarray, params: PiecewiseLinearParams,
                     points: CharacteristicPoints) -> dict[str, np.ndarray]:
    """Gradients of dscore @ score for w, b, omega and w0, by name.  Unit
    u's entry is 1 for the rows located above u in its feature, so d/dw_u
    sums dscore over those rows plus F dscore over the rows on u, times
    omega; d/db_u takes [F > 0] in place of F."""
    d = dscore[:, None]

    def per_unit(v):
        return np.bincount(U.ravel(), np.ravel(v), points.total)

    tail = np.cumsum(per_unit(np.broadcast_to(d, U.shape))[::-1])[::-1]
    tail = np.concatenate((tail, [0.0]))    # tail[u] sums units u..end
    above = tail[1:] - tail[points.offsets + points.gammas][points.feature_index]
    scale = params.omega[points.feature_index]
    omega = np.zeros(points.m)
    omega[points.varying] = T.T @ dscore
    return {"w": (above + per_unit(F * d)) * scale,
            "b": (above + per_unit((F > 0) * d)) * scale,
            "omega": omega, "w0": np.asarray(dscore.sum())}


def curve_forward(rows: np.ndarray, params: PiecewiseLinearParams,
                  points: CharacteristicPoints):
    """linear_forward(encode_matrix(rows)) from the located segments, for a
    single raw vector or an (N, m) matrix."""
    out = segment_forward(*locate(check_rows(rows, points), points), params,
                          points)[0]
    return float(out[0]) if np.ndim(rows) == 1 else out


def init_least_squares(rows: np.ndarray, targets: np.ndarray, ridge: float,
                       points: CharacteristicPoints) -> PiecewiseLinearParams:
    """Ridge-regularized normal-equation fit of targets on the encoded rows,
    summed over encoded blocks of BLOCK_ROWS rows.

    Returns w from the solve, omega all ones, b zero and w0 = mean target
    (the intercept, absorbed by centering).  Wide encodings (gamma > N) are
    fine with ridge > 0.
    """
    rows = check_rows(rows, points)
    targets = np.asarray(targets, dtype=np.float64)
    if ridge < 0:
        raise LinearComponentError(f"ridge must be >= 0, got {ridge}")
    if targets.shape != (rows.shape[0],):
        raise LinearComponentError("rows and targets disagree on N")
    w0 = targets.mean()
    yc = targets - w0
    gram = ridge * np.eye(points.total)
    rhs = np.zeros(points.total)
    for lo in range(0, rows.shape[0], BLOCK_ROWS):
        phi = encode_matrix(rows[lo:lo + BLOCK_ROWS], points)
        gram += phi.T @ phi
        rhs += phi.T @ yc[lo:lo + BLOCK_ROWS]
    try:
        w = np.linalg.solve(gram, rhs)
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
