"""Characteristic points and the widened piecewise-linear input encoding.

Each feature j gets gamma_j+1 ordered knots over the range of the rows a
model trains on, and occupies gamma_j entries of the encoded vector.  An
encoded block reads ones up to the interval containing x_j, then one
fractional entry, then zeros, so the encoding is monotone and continuous
in every coordinate.  The program itself never builds that encoding: it
works from each row's segment per feature (`pl_component.locate`).
`encode_matrix` is the reference definition the tests check it against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from pilid.dataset import Dataset, FeatureSpec

# Rows per block for prediction and the least-squares start; bounds memory
# independently of N.  Of 1024-8192 rows, 2048 predicted fastest on all
# three benchmark models (one BLAS thread): larger blocks' temporaries were
# faulted in afresh on every block, smaller ones lose BLAS efficiency.
BLOCK_ROWS = 2048


class EncodingError(ValueError):
    pass


@dataclass
class CharacteristicPoints:
    """Per-feature knot sequences plus the derived block layout.

    A degenerate (constant) feature keeps a single knot, a one-entry
    all-zero block and `constant[j] = True`.  Unit k of feature j is the
    segment [knot_k, knot_{k+1}] of that feature.
    """

    points: list[np.ndarray]
    constant: list[bool]
    gammas: np.ndarray = field(init=False)          # block width per feature
    offsets: np.ndarray = field(init=False)         # block start per feature
    feature_index: np.ndarray = field(init=False)   # feature id per unit
    varying: np.ndarray = field(init=False)         # non-constant feature ids
    seg_start: np.ndarray = field(init=False)       # segment start per unit
    seg_width: np.ndarray = field(init=False)       # segment width per unit

    def __post_init__(self):
        gammas = []
        for j, (p, const) in enumerate(zip(self.points, self.constant)):
            p = np.asarray(p, dtype=np.float64)
            self.points[j] = p
            if const:
                if p.shape != (1,):
                    raise EncodingError(f"feature {j}: constant feature needs "
                                        f"exactly one knot")
                gammas.append(1)
                continue
            if p.ndim != 1 or len(p) < 2:
                raise EncodingError(f"feature {j}: need at least 2 knots")
            if not np.all(np.diff(p) > 0):
                raise EncodingError(f"feature {j}: knots must be strictly increasing")
            gammas.append(len(p) - 1)
        self.gammas = np.asarray(gammas, dtype=np.intp)
        self.offsets = np.concatenate(([0], np.cumsum(self.gammas[:-1])))
        self.feature_index = np.repeat(np.arange(len(gammas)), self.gammas)
        self.varying = np.flatnonzero(~np.asarray(self.constant, dtype=bool))
        # a constant feature's unit gets a placeholder no row is located in
        self.seg_start = np.concatenate([p[:-1] if len(p) > 1 else p
                                         for p in self.points])
        self.seg_width = np.concatenate([np.diff(p) if len(p) > 1 else [1.0]
                                         for p in self.points])

    @property
    def m(self) -> int:
        return len(self.points)

    @property
    def total(self) -> int:
        return int(self.gammas.sum())


def _knots(spec: FeatureSpec, column: np.ndarray, gamma: int) -> np.ndarray:
    """A feature's knots over the values of its column."""
    if spec.kind == "categorical":
        return np.unique(column)
    lo, hi = column.min(), column.max()
    if lo == hi:
        return np.array([lo])
    if gamma < 1:
        raise EncodingError(f"feature {spec.name!r}: gamma must be >= 1, got {gamma}")
    return np.linspace(lo, hi, gamma + 1)


def build_points(data: Dataset, gammas) -> CharacteristicPoints:
    """Build knots from the rows of `data`: gamma_j equal sub-intervals
    from the least to the greatest value of a numerical column, the sorted
    distinct values of a categorical one, and a single knot for a column
    of one distinct value (a constant feature).

    `gammas` is a single int or one int per feature (ignored for
    categoricals, whose gamma is the level count minus one).
    """
    if np.isscalar(gammas):
        gammas = [int(gammas)] * data.m
    if len(gammas) != data.m:
        raise EncodingError(f"need {data.m} gammas, got {len(gammas)}")
    points = [_knots(spec, data.rows[:, j], int(g))
              for j, (spec, g) in enumerate(zip(data.specs, gammas))]
    constant = [len(p) == 1 for p in points]
    for spec, const in zip(data.specs, constant):
        if const:
            warnings.warn(f"feature {spec.name!r} is constant; "
                          "it will be encoded as zeros and report a flat shape")
    return CharacteristicPoints(points=points, constant=constant)


def check_rows(rows: np.ndarray, points: CharacteristicPoints) -> np.ndarray:
    """Rows as a float64 (N, m) matrix; a single vector becomes one row."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if rows.shape[1] != points.m:
        raise EncodingError(f"expected {points.m} features, got {rows.shape[1]}")
    return rows


def encode_matrix(rows: np.ndarray, points: CharacteristicPoints) -> np.ndarray:
    """Encode an (N, m) matrix row-wise into the (N, gamma) representation.

    Values are clamped to the knot range first.  Entry k of block j is
    clip((x_j - knot_{k-1}) / (knot_k - knot_{k-1}), 0, 1), which equals the
    ones / fraction / zeros definition exactly.
    """
    rows = check_rows(rows, points)
    out = np.zeros((rows.shape[0], points.total))
    for j, p in enumerate(points.points):
        if points.constant[j]:
            continue
        o = points.offsets[j]
        x = np.clip(rows[:, j], p[0], p[-1])
        frac = (x[:, None] - p[:-1]) / np.diff(p)
        out[:, o:o + len(p) - 1] = np.clip(frac, 0.0, 1.0)
    return out

