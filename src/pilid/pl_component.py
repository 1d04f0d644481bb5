"""The piecewise-linear (wide) component.

Per-unit affine transform of the encoded vector, summed within each
feature's block and scaled by a per-feature factor omega.  The learned
weights read out directly as per-feature shape curves.  Training and
prediction work from each row's segment per feature through one forward
and one backward (`segment_forward`, `segment_backward`).  `locate` reads
the segments from a table of each feature's knots, with no search
(`encoding.KnotBuckets`), BLOCK_ROWS rows at a time, so its units equal a
binary search's.  The least-squares start sums its normal equations in
closed form from the same segments (`normal_equations`), so no part of
the program builds the (N, gamma) encoding.  `linear_forward` on that encoding is kept as the
reference definition only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pilid.encoding import BLOCK_ROWS, CharacteristicPoints, check_rows


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

    U is the number of the feature's inner knots at or below x, read from
    the layout's table (`encoding.KnotBuckets`) rather than searched for:
    BLOCK_ROWS rows at a time, over all varying features at once, a row's
    equal-width bucket of its feature's knot span gives the least unit it
    can lie in, and the table's steps, halving down to 1, raise that past
    the knots of the bucket at or below x.  A block takes one step when no
    bucket holds more than one knot, as for evenly spaced knots and for
    integer codes whose span is at most 2048 times their smallest gap, and
    never more steps than a binary search over the widest feature's knots.
    Scratch memory is a fixed number of arrays of one block's size.
    """
    n_rows, varying = rows.shape[0], points.varying
    U = np.empty((n_rows, len(varying)), dtype=np.intp)
    F = np.empty(U.shape)
    table = points.buckets
    for lo in range(0, n_rows, BLOCK_ROWS):
        x = rows[lo:lo + BLOCK_ROWS, varying]
        capped = np.fmin(x, table.cap)
        u = U[lo:lo + BLOCK_ROWS]
        # every bucket index is in range; "clip" spares take's buffered copy
        np.take(table.least, table.index(capped), out=u, mode="clip")
        for step in table.steps:
            # u rises by step, or to the feature's last unit, where that
            # unit starts at or below x
            up = np.minimum(u + step, table.last_unit)
            rises = capped >= points.seg_start[up]
            up -= u
            up *= rises
            u += up
        f = F[lo:lo + BLOCK_ROWS]
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(x, points.seg_start[u], out=f)
            f /= points.seg_width[u]
        np.clip(f, 0.0, 1.0, out=f)
    return U, F


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
                     points: CharacteristicPoints,
                     out: dict[str, np.ndarray] | None = None
                     ) -> dict[str, np.ndarray]:
    """Gradients of dscore @ score for w, b, omega and w0, by name, written
    into `out`'s arrays (fresh ones when `out` is None) and returned.  Unit
    u's entry is 1 for the rows located above u in its feature, so d/dw_u
    sums dscore over those rows plus F dscore over the rows on u, times
    omega; d/db_u takes [F > 0] in place of F."""
    if out is None:
        out = {"w": np.empty(points.total), "b": np.empty(points.total),
               "omega": np.empty(points.m), "w0": np.empty(())}
    d = dscore[:, None]

    def per_unit(v):
        return np.bincount(U.ravel(), np.ravel(v), points.total)

    tail = np.cumsum(per_unit(np.broadcast_to(d, U.shape))[::-1])[::-1]
    tail = np.concatenate((tail, [0.0]))    # tail[u] sums units u..end
    above = tail[1:] - tail[points.offsets + points.gammas][points.feature_index]
    scale = params.omega[points.feature_index]
    np.multiply(above + per_unit(F * d), scale, out=out["w"])
    np.multiply(above + per_unit((F > 0) * d), scale, out=out["b"])
    out["omega"].fill(0.0)
    out["omega"][points.varying] = T.T @ dscore
    np.sum(dscore, out=out["w0"])
    return out


def curve_forward(rows: np.ndarray, params: PiecewiseLinearParams,
                  points: CharacteristicPoints):
    """linear_forward(encode_matrix(rows)) from the located segments, for a
    single raw vector or an (N, m) matrix."""
    out = segment_forward(*locate(check_rows(rows, points), points), params,
                          points)[0]
    return float(out[0]) if np.ndim(rows) == 1 else out


def _above(M: np.ndarray, bounds) -> np.ndarray:
    """Along axis 0 of M, the sum over the units above each unit in its
    feature: out[p] = sum of M[u] for p < u < hi, for every (lo, hi) unit
    range of `bounds`; 0 elsewhere."""
    out = np.zeros_like(M)
    for lo, hi in bounds:
        np.cumsum(M[hi - 1:lo:-1], axis=0, out=out[lo:hi - 1][::-1])
    return out


def normal_equations(U: np.ndarray, F: np.ndarray, targets: np.ndarray,
                     points: CharacteristicPoints):
    """The Gram matrix Phi.T @ Phi and Phi.T @ targets of the encoded rows
    Phi, from their located segments, without building Phi.

    Row n's encoding in feature a is 1 on the units below U_a, F_a on U_a
    and 0 above, so Phi = E S + Ft: E one-hot-encodes each row's units,
    Ft holds its fractions on them, and S sums each feature's units above
    a unit.  Every product then reduces to sums over the rows keyed by a
    pair of units, taken in chunks of BLOCK_ROWS rows with `np.bincount`:
    for features a < b, the rows' counts and sums of F_a, F_b and
    F_a F_b at (U_a, U_b) give the (a, b) block S_a.T (E_a.T E_b S_b +
    E_a.T Ft_b) + Ft_a.T E_b S_b + Ft_a.T Ft_b, the (b, a) block is its
    transpose, and a feature's own block needs only each unit's count and
    sums of F and F^2.
    """
    gamma, n_rows = points.total, U.shape[0]
    lo_u = points.offsets[points.varying]
    hi_u = lo_u + points.gammas[points.varying]
    # per unit: row count, sums of F, F^2, targets and F * targets
    unit = np.zeros((5, gamma))
    # per feature a but the last: the four pair sums of its units against
    # every unit past it, flat in (unit of a, later unit) order
    pairs = [np.zeros((4, (hi - lo) * (gamma - hi)))
             for lo, hi in zip(lo_u[:-1], hi_u[:-1])]
    for start in range(0, n_rows, BLOCK_ROWS):
        u = U[start:start + BLOCK_ROWS].T.copy()
        f = F[start:start + BLOCK_ROWS].T.copy()
        t = targets[start:start + BLOCK_ROWS]
        keys = u.ravel()
        for row, weights in enumerate((None, f, f * f,
                                       np.broadcast_to(t, f.shape), f * t)):
            unit[row] += np.bincount(
                keys, None if weights is None else weights.ravel(), gamma)
        for a, sums in enumerate(pairs):
            width = gamma - hi_u[a]
            key = ((u[a] - lo_u[a]) * width - hi_u[a] + u[a + 1:]).ravel()
            fa = np.broadcast_to(f[a], f[a + 1:].shape).ravel()
            fb = f[a + 1:].ravel()
            for row, weights in enumerate((None, fa, fb, fa * fb)):
                sums[row] += np.bincount(key, weights, sums.shape[1])

    bounds = list(zip(lo_u, hi_u))
    gram = np.zeros((gamma, gamma))
    for (lo, hi), sums in zip(bounds, pairs):
        count, fa_sum, fb_sum, fab_sum = sums.reshape(4, hi - lo, gamma - hi)
        later = [(l - hi, h - hi) for l, h in bounds if l >= hi]
        block = _above(_above(count.T, later).T + fb_sum, [(0, hi - lo)]) \
            + _above(fa_sum.T, later).T + fab_sum
        gram[lo:hi, hi:] = block
        gram[hi:, lo:hi] = block.T
    count, f_sum, ff_sum, t_sum, ft_sum = unit
    tail = _above(count, bounds)
    for lo, hi in bounds:
        # rows above both units count 1, rows on the higher one its F
        # (or F^2 when the units are the same)
        k = np.arange(lo, hi)
        top = np.maximum.outer(k, k)
        gram[lo:hi, lo:hi] = tail[top] + f_sum[top]
        gram[k, k] = tail[k] + ff_sum[k]
    return gram, _above(t_sum, bounds) + ft_sum


def init_least_squares(rows: np.ndarray, targets: np.ndarray, ridge: float,
                       points: CharacteristicPoints, segments=None
                       ) -> PiecewiseLinearParams:
    """Ridge-regularized normal-equation fit of targets on the encoded rows
    (`normal_equations`), from `segments`, the rows' (U, F) of `locate`,
    when the caller holds them, else from the rows located here.

    Returns w from the solve, omega all ones, b zero and w0 = mean target
    (the intercept, absorbed by centering).  Wide encodings (gamma > N) are
    fine with ridge > 0.
    """
    if segments is None:
        segments = locate(check_rows(rows, points), points)
    targets = np.asarray(targets, dtype=np.float64)
    if ridge < 0:
        raise LinearComponentError(f"ridge must be >= 0, got {ridge}")
    if targets.shape != (segments[0].shape[0],):
        raise LinearComponentError("rows and targets disagree on N")
    w0 = targets.mean()
    gram, rhs = normal_equations(*segments, targets - w0, points)
    gram.flat[::points.total + 1] += ridge
    try:
        w = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        raise LinearComponentError(
            "singular normal equations; pass a positive ridge "
            "(default 1e-8)") from None
    return PiecewiseLinearParams(w=w, b=np.zeros_like(w),
                                 omega=np.ones(points.m), w0=np.float64(w0))


def extract_shapes(params: PiecewiseLinearParams, points: CharacteristicPoints,
                   names: list[str] | None = None) -> list[FeatureShape]:
    """Read the per-feature shape curves out of the trained parameters.

    The increment over interval k of feature j is omega_j * (w_k + b_k): the
    output change when that unit's encoded entry goes 0 -> 1 (which also
    activates its bias).  The curve is the running sum over knots, anchored
    at 0 on the first knot.
    """
    _check_layout(params, points)
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
        shapes.append(FeatureShape(j, name, xs.copy(), us))
    return shapes
