"""CSV ingestion, feature-kind inference, deterministic splits and mini-batches."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

REGRESSION = "regression"
CLASSIFICATION = "classification"
TASKS = (REGRESSION, CLASSIFICATION)

DEFAULT_CATEGORICAL_THRESHOLD = 20


class DatasetError(ValueError):
    """Raised for malformed input data or invalid dataset arguments."""


@dataclass(frozen=True)
class FeatureSpec:
    """Per-feature description of the observed value scale.

    Numerical features carry the observed [alpha, beta] range; categorical
    features carry their sorted distinct level values (pre-coded as reals).
    """

    name: str
    kind: str  # "numerical" | "categorical"
    alpha: float = 0.0
    beta: float = 0.0
    levels: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind == "numerical":
            if not self.alpha <= self.beta:
                raise DatasetError(
                    f"feature {self.name!r}: alpha {self.alpha} > beta {self.beta}"
                )
        elif self.kind == "categorical":
            if len(self.levels) == 0:
                raise DatasetError(f"feature {self.name!r}: empty level set")
            if any(a >= b for a, b in zip(self.levels, self.levels[1:])):
                raise DatasetError(
                    f"feature {self.name!r}: levels must be strictly increasing"
                )
        else:
            raise DatasetError(f"feature {self.name!r}: unknown kind {self.kind!r}")


@dataclass(frozen=True)
class Dataset:
    """Immutable tabular dataset: rows, targets and per-feature specs."""

    rows: np.ndarray       # (N, m) float64
    targets: np.ndarray    # (N,)
    specs: list[FeatureSpec] = field(repr=False)
    task: str = REGRESSION

    def __post_init__(self):
        rows = np.ascontiguousarray(self.rows, dtype=np.float64)
        targets = np.ascontiguousarray(self.targets, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] == 0 or rows.shape[1] == 0:
            raise DatasetError("rows must be a non-empty N x m matrix")
        if targets.shape != (rows.shape[0],):
            raise DatasetError("targets length must match row count")
        if len(self.specs) != rows.shape[1]:
            raise DatasetError("one FeatureSpec required per column")
        if self.task not in TASKS:
            raise DatasetError(f"unknown task {self.task!r}")
        if self.task == CLASSIFICATION and not np.isin(targets, (0.0, 1.0)).all():
            raise DatasetError("classification targets must be 0 or 1")
        rows.flags.writeable = False
        targets.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "targets", targets)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def m(self) -> int:
        return self.rows.shape[1]

    @property
    def feature_names(self) -> list[str]:
        return [s.name for s in self.specs]


def _is_integral(values: np.ndarray) -> bool:
    return bool(np.all(values == np.round(values)))


def infer_spec(name: str, column: np.ndarray,
               threshold: int = DEFAULT_CATEGORICAL_THRESHOLD,
               kind: str | None = None) -> FeatureSpec:
    """Infer a FeatureSpec from observed column values.

    A column counts as categorical when it has at most `threshold` distinct
    values and all of them are integer codes; anything else is numerical.
    `kind` forces the decision (per-column override or a fixed train-split
    kind).
    """
    uniq = np.unique(column)
    if kind is None:
        kind = "categorical" if (len(uniq) <= threshold and _is_integral(uniq)) \
            else "numerical"
    if kind == "categorical":
        return FeatureSpec(name=name, kind="categorical", levels=tuple(uniq))
    return FeatureSpec(name=name, kind="numerical",
                       alpha=float(uniq[0]), beta=float(uniq[-1]))


def check_header(names: list[str], path) -> None:
    """Raise DatasetError naming the first empty or repeated column name of
    a CSV header (names already stripped)."""
    seen = set()
    for k, name in enumerate(names, start=1):
        if not name:
            raise DatasetError(f"{path}: column {k} has an empty name")
        if name in seen:
            raise DatasetError(f"{path}: duplicate column name {name!r}")
        seen.add(name)


def reject_non_finite(mat: np.ndarray, path, columns: list[str]) -> None:
    """Raise DatasetError naming the first NaN or infinite cell of a parsed
    CSV matrix whose first row is line 2 and whose columns are `columns`."""
    bad = ~np.isfinite(mat)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise DatasetError(f"{path}: non-finite value {str(mat[r, c])!r} at "
                           f"line {r + 2}, column {columns[c]!r}")


def load_csv(path, target_column: str, task: str,
             categorical_threshold: int = DEFAULT_CATEGORICAL_THRESHOLD,
             kind_overrides: dict[str, str] | None = None) -> Dataset:
    """Load a header-row CSV of reals into a Dataset.

    Every cell must parse as a finite real (categoricals pre-coded);
    missing, unparseable or non-finite cells are rejected with the
    offending row and column named.
    """
    kind_overrides = kind_overrides or {}
    if task not in TASKS:
        raise DatasetError(f"unknown task {task!r}")
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DatasetError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        check_header(header, path)
        if target_column not in header:
            raise DatasetError(f"{path}: target column {target_column!r} not found")
        t_idx = header.index(target_column)
        data: list[list[float]] = []
        for r, row in enumerate(reader, start=2):  # line number incl. header
            if len(row) != len(header):
                raise DatasetError(f"{path}: line {r} has {len(row)} cells, "
                                   f"expected {len(header)}")
            parsed = []
            for c, cell in enumerate(row):
                cell = cell.strip()
                if cell == "":
                    raise DatasetError(f"{path}: missing value at line {r}, "
                                       f"column {header[c]!r}")
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise DatasetError(
                        f"{path}: cannot parse {cell!r} at line {r}, "
                        f"column {header[c]!r}") from None
            data.append(parsed)
    if len(data) < 2:
        raise DatasetError(f"{path}: need at least 2 data rows, got {len(data)}")
    mat = np.asarray(data, dtype=np.float64)
    reject_non_finite(mat, path, header)
    targets = mat[:, t_idx]
    rows = np.delete(mat, t_idx, axis=1)
    names = [h for i, h in enumerate(header) if i != t_idx]
    specs = [infer_spec(name, rows[:, j], categorical_threshold,
                        kind_overrides.get(name))
             for j, name in enumerate(names)]
    return Dataset(rows=rows, targets=targets, specs=specs, task=task)


def _respec(data_rows: np.ndarray, specs: list[FeatureSpec]) -> list[FeatureSpec]:
    # Recompute value-scale statistics on the given rows, keeping each
    # feature's kind fixed.
    return [infer_spec(s.name, data_rows[:, j], kind=s.kind)
            for j, s in enumerate(specs)]


def split(data: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic shuffled partition into (train, test).

    Feature statistics of BOTH halves are recomputed on the train half so
    downstream encoding never leaks test-set scale information.
    """
    if not 0.0 < train_fraction < 1.0:
        raise DatasetError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n_train = int(data.n * train_fraction)
    if n_train == 0 or n_train == data.n:
        raise DatasetError(
            f"split fraction {train_fraction} leaves an empty side for N={data.n}")
    perm = np.random.default_rng(seed).permutation(data.n)
    tr, te = perm[:n_train], perm[n_train:]
    train_rows = data.rows[tr]
    specs = _respec(train_rows, data.specs)
    train = Dataset(rows=train_rows, targets=data.targets[tr],
                    specs=specs, task=data.task)
    # Test rows may contain levels/values unseen in training; encoding clamps.
    test = Dataset(rows=data.rows[te], targets=data.targets[te],
                   specs=specs, task=data.task)
    return train, test


def batches(data, batch_size: int, seed: int, epoch: int) -> list[np.ndarray]:
    """Index slices for one epoch: a fresh (seed, epoch) permutation, chunked.

    `data` may be a Dataset or a plain row count.
    """
    n = data if isinstance(data, int) else data.n
    if batch_size < 1:
        raise DatasetError(f"batch_size must be >= 1, got {batch_size}")
    perm = np.random.default_rng([seed, epoch]).permutation(n)
    return [perm[i:i + batch_size] for i in range(0, n, batch_size)]
