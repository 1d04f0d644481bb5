"""Characteristic points and the widened piecewise-linear input encoding.

Each feature j gets gamma_j+1 ordered knots over the range of the rows a
model trains on, and occupies gamma_j entries of the encoded vector.  An
encoded block reads ones up to the interval containing x_j, then one
fractional entry, then zeros, so the encoding is monotone and continuous
in every coordinate.  The program itself never builds that encoding: it
works from each row's segment per feature (`pl_component.locate`), read
from a table the knot layout keeps (`KnotBuckets`).  `encode_matrix` is
the reference definition the tests check it against.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass, field

import numpy as np

from pilid.dataset import Dataset, FeatureSpec

# Rows per block for prediction, for locating rows (`pl_component.locate`)
# and for the least-squares start; bounds their scratch memory
# independently of N.  Which size predicts fastest depends on the host.
# The deep-reference network (100-200-400-400-200-100) predicting 50k
# rows, one BLAS thread, 2-core x86-64 VM, alternating fresh processes:
# one series of 11 pairs took a median 0.790 s at 2048 rows and 0.845 s
# at 1024, another of 7 pairs 0.883 s and 0.738 s.  A 2048-row block's
# 400-wide activations are 6.5 MB, above the 4 MiB from which numpy asks
# for transparent huge pages; 1024-row blocks stay below it.
BLOCK_ROWS = 2048

# A feature's lookup table (`KnotBuckets`) has two buckets per width of its
# narrowest segment, so that a bucket holds at most one inner knot, but at
# least 2 gamma_j buckets and at most the larger of 2 gamma_j and this.
MAX_BUCKETS = 4096


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
    buckets: KnotBuckets = field(init=False, repr=False)  # locate's table

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
        self.buckets = KnotBuckets.of(self)

    @property
    def m(self) -> int:
        return len(self.points)

    @property
    def total(self) -> int:
        return int(self.gammas.sum())


@dataclass(frozen=True)
class KnotBuckets:
    """Each varying feature's knot span cut into buckets of equal width,
    with the least unit of a row in each: the table `pl_component.locate`
    reads a row's unit from, with no search.

    A row's bucket is (x - first) * scale clamped to [0, top], rounded
    down, plus the feature's start, for x capped at the float below the
    last knot (`cap`).  The cap lies in the last unit; it sends NaN and
    +inf there and stays below +inf when the last knot is infinite.  The
    arithmetic is monotone in x, so the inner knots, put into buckets the
    same way, lie below x in an earlier bucket and above it in a later
    one: a row's unit is least[bucket] plus the number of its own bucket's
    knots at or below x.  `steps` bisect that number for the fullest
    bucket of any feature: (1,) when no bucket holds more than one knot,
    and never more steps than a binary search over the widest feature's
    knots.
    """

    cap: np.ndarray        # per varying feature: the float below its last knot
    first: np.ndarray      # its first knot
    scale: np.ndarray      # its buckets per unit of x
    top: np.ndarray        # its last bucket, as a float
    start: np.ndarray      # its first bucket's index into least
    last_unit: np.ndarray  # its last unit
    least: np.ndarray      # per bucket: the least unit of a row in it
    steps: tuple[int, ...]

    def index(self, capped: np.ndarray, feature=slice(None)) -> np.ndarray:
        """Bucket of each capped x, taken along the last axis as the
        varying features in order, or as the features `feature` lists."""
        # 0 * inf, and spans or distances that overflow, give NaN or inf,
        # which the clamp turns into a bound
        with np.errstate(over="ignore", invalid="ignore"):
            b = np.subtract(capped, self.first[feature])
            b *= self.scale[feature]
        np.fmax(b, 0.0, out=b)
        np.fmin(b, self.top[feature], out=b)
        i = b.astype(np.intp)
        i += self.start[feature]
        return i

    @classmethod
    def of(cls, points: CharacteristicPoints) -> KnotBuckets:
        """The table of the varying features of `points`."""
        varying = points.varying
        gammas = points.gammas[varying]
        first_unit = points.offsets[varying]
        first = points.seg_start[first_unit]
        last = np.array([points.points[j][-1] for j in varying], dtype=float)
        narrowest = np.array([points.seg_width[o:o + g].min()
                              for o, g in zip(first_unit, gammas)],
                             dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            span = last - first
            wanted = np.ceil(2.0 * span / narrowest)
        # NaN from inf / inf takes the upper bound
        limit = np.maximum(2 * gammas, MAX_BUCKETS)
        n_buckets = np.fmax(np.fmin(wanted, limit), 2 * gammas).astype(np.intp)
        with np.errstate(over="ignore"):
            scale = n_buckets / span
        table = cls(cap=np.nextafter(last, -np.inf), first=first, scale=scale,
                    top=n_buckets - 1.0, start=np.cumsum(n_buckets) - n_buckets,
                    last_unit=first_unit + gammas - 1, least=np.empty(0),
                    steps=())
        inner = np.concatenate([np.empty(0)] +
                               [points.points[j][1:-1] for j in varying])
        feature = np.repeat(np.arange(len(varying)), gammas - 1)
        count = np.bincount(table.index(inner, feature),
                            minlength=n_buckets.sum())
        # knots of the earlier buckets, less those of the earlier features
        knots_before = np.cumsum(gammas - 1) - (gammas - 1)
        least = np.cumsum(count) - count \
            + np.repeat(first_unit - knots_before, n_buckets)
        widest = int(np.max(count, initial=0))
        return dataclasses.replace(
            table, least=least,
            steps=tuple(1 << k for k in reversed(range(widest.bit_length()))))


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

