"""CSV ingestion, feature-kind inference, deterministic splits and mini-batches.

A dataset records each feature's name and kind only; the knots over a
feature's range come from the training rows (`encoding.build_points`).
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

REGRESSION = "regression"
CLASSIFICATION = "classification"
TASKS = (REGRESSION, CLASSIFICATION)

# A column of at most this many distinct integer values is categorical.
CATEGORICAL_THRESHOLD = 20


class DatasetError(ValueError):
    """Raised for malformed input data or invalid dataset arguments."""


@dataclass(frozen=True)
class FeatureSpec:
    """A feature's name and kind: numerical, or categorical with its levels
    pre-coded as reals.  Its knots come from the rows it is encoded on
    (`encoding.build_points`)."""

    name: str
    kind: str  # "numerical" | "categorical"

    def __post_init__(self):
        if self.kind not in ("numerical", "categorical"):
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
        if (bad := _first_non_finite(rows)) is not None:
            r, c = bad
            raise DatasetError(f"non-finite value {str(rows[r, c])!r} at row "
                               f"{r}, feature {self.specs[c].name!r}")
        if (bad := _first_non_finite(targets)) is not None:
            raise DatasetError(f"non-finite target {str(targets[bad])!r} at "
                               f"row {bad[0]}")
        check_targets(targets, self.task)
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


def check_targets(targets: np.ndarray, task: str, where: str = "") -> None:
    """Raise DatasetError, its message led by `where`, unless every
    classification target is 0 or 1."""
    if task == CLASSIFICATION and not np.isin(targets, (0.0, 1.0)).all():
        raise DatasetError(f"{where}classification targets must be 0 or 1")


def infer_spec(name: str, column: np.ndarray) -> FeatureSpec:
    """Infer a FeatureSpec from observed column values.

    A column counts as categorical when all its values are integer codes
    and at most CATEGORICAL_THRESHOLD of them are distinct; anything else
    is numerical, and is never sorted.
    """
    few_codes = (np.all(column == np.round(column)) and
                 len(np.unique(column)) <= CATEGORICAL_THRESHOLD)
    return FeatureSpec(name=name,
                       kind="categorical" if few_codes else "numerical")


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


def _first_non_finite(a: np.ndarray) -> tuple[int, ...] | None:
    """The index of the first NaN or infinite entry of an array, in row
    order, or None when every entry is finite."""
    finite = np.isfinite(a)
    if finite.all():
        return None
    return tuple(int(i) for i in np.argwhere(~finite)[0])


def reject_non_finite(mat: np.ndarray, path, columns: list[str],
                      lines) -> None:
    """Raise DatasetError naming the first NaN or infinite cell of a parsed
    CSV matrix whose columns are `columns` and whose row r starts on line
    `lines[r]` of the file."""
    if (bad := _first_non_finite(mat)) is not None:
        r, c = bad
        raise DatasetError(f"{path}: non-finite value {str(mat[r, c])!r} at "
                           f"line {lines[r]}, column {columns[c]!r}")


def _open(path):
    try:
        return open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DatasetError(f"cannot open {path}: {exc}") from exc


def _line_count(path) -> int:
    """Lines of a file, each ended by LF, CR or CR LF as the csv module and
    numpy read them; a last line without an ending counts too."""
    lines, last = 0, b""
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            lines += chunk.count(b"\n")
            if b"\r" in chunk:
                lines += chunk.count(b"\r") - chunk.count(b"\r\n")
            if last == b"\r" and chunk[:1] == b"\n":
                lines -= 1    # a CR LF split across two chunks
            last = chunk[-1:]
    return lines + (last not in (b"", b"\n", b"\r"))


def _undecodable_line(path) -> int:
    """Number of the first line that is not valid UTF-8.  A multi-byte
    character never holds the byte LF, so each line decodes on its own."""
    r = 0
    with open(path, "rb") as fh:
        for r, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return r
    return r


def _parse_fast(fh, path, n_cells: int, header_lines: int):
    """The rest of `fh` through numpy's C parser, or None where that read
    may differ from the per-cell scan: a cell it cannot parse, rows of
    another length, or another row count than the file has data lines
    (it skips blank lines, which the scan rejects)."""
    try:
        with warnings.catch_warnings():
            # a file of blank lines would warn "input contained no data"
            warnings.simplefilter("ignore", UserWarning)
            mat = np.loadtxt(fh, delimiter=",", comments=None, quotechar=None,
                             ndmin=2)
    except ValueError:
        return None
    if mat.shape != (_line_count(path) - header_lines, n_cells):
        return None
    return mat


def _scan(path, header: list[str], cols: list[int]):
    """Parse the selected cells of every data row with float(), raising
    DatasetError at the first row of the wrong length or bad cell.
    Returns the matrix and the line each row starts on (a quoted cell may
    hold line breaks, so a row may span several lines)."""
    data: list[list[float]] = []
    lines: list[int] = []
    with _open(path) as fh:
        reader = csv.reader(fh)
        next(reader)
        first = reader.line_num + 1     # the line the next row starts on
        for row in reader:
            r, first = first, reader.line_num + 1
            lines.append(r)
            if len(row) != len(header):
                raise DatasetError(f"{path}: line {r} has {len(row)} cells, "
                                   f"expected {len(header)}")
            parsed = []
            for c in cols:
                cell = row[c].strip()
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
    mat = np.asarray(data, dtype=np.float64).reshape(len(data), len(cols))
    return mat, lines


def read_csv(path, select=None) -> tuple[list[str], np.ndarray]:
    """Read a header-row CSV of reals.

    Returns the stripped, checked header and a float64 matrix of the
    columns that `select(header)` lists by index (all, in order, by
    default; it may raise for a missing column).  Every row must have the
    header's cell count and every selected cell must be a finite real;
    otherwise DatasetError names the line and column.  numpy's C parser
    reads the file; where its read may differ from the per-cell scan, the
    scan reads the file again, to give the same values or name the bad
    cell.  The file is streamed, never held as one string.
    """
    try:
        with _open(path) as fh:
            reader = csv.reader(fh)
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                raise DatasetError(f"{path}: empty file") from None
            check_header(header, path)
            every = list(range(len(header)))
            cols = every if select is None else list(select(header))
            header_lines = reader.line_num
            mat = _parse_fast(fh, path, len(header), header_lines)
        if mat is None:
            mat, lines = _scan(path, header, cols)
        else:
            # the fast path holds one line per row (its shape check)
            lines = range(header_lines + 1, header_lines + 1 + len(mat))
            if cols != every:
                mat = mat[:, cols]
    except UnicodeDecodeError:
        raise DatasetError(f"{path}: invalid UTF-8 at line "
                           f"{_undecodable_line(path)}") from None
    except csv.Error as exc:    # a field over the csv module's size limit
        raise DatasetError(f"{path}: {exc}") from None
    reject_non_finite(mat, path, [header[c] for c in cols], lines)
    return header, mat


def load_csv(path, target_column: str, task: str) -> Dataset:
    """Load a header-row CSV of reals into a Dataset.

    Every cell must parse as a finite real (categoricals pre-coded);
    missing, unparseable or non-finite cells are rejected with the
    offending row and column named (see `read_csv`).
    """
    if task not in TASKS:
        raise DatasetError(f"unknown task {task!r}")

    def every_column(header):
        if target_column not in header:
            raise DatasetError(f"{path}: target column {target_column!r} "
                               "not found")
        return range(len(header))

    header, mat = read_csv(path, every_column)
    if len(mat) < 2:
        raise DatasetError(f"{path}: need at least 2 data rows, got {len(mat)}")
    t_idx = header.index(target_column)
    targets = mat[:, t_idx]
    check_targets(targets, task, f"{path}: column {target_column!r}: ")
    rows = np.delete(mat, t_idx, axis=1)
    names = [h for i, h in enumerate(header) if i != t_idx]
    specs = [infer_spec(name, rows[:, j]) for j, name in enumerate(names)]
    return Dataset(rows=rows, targets=targets, specs=specs, task=task)


def train_size(n: int, train_fraction: float) -> int:
    """How many of n rows `split` puts on the train side; both sides must
    keep a row."""
    if not 0.0 < train_fraction < 1.0:
        raise DatasetError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n_train = int(n * train_fraction)
    if n_train == 0 or n_train == n:
        raise DatasetError(
            f"split fraction {train_fraction} leaves an empty side for N={n}")
    return n_train


def split(data: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic shuffled partition into (train, test), both with the
    specs of `data`.  A model builds its knots from the rows it trains on,
    so the test half never shapes them; encoding clamps test values that
    fall outside."""
    n_train = train_size(data.n, train_fraction)
    perm = np.random.default_rng(seed).permutation(data.n)
    tr, te = perm[:n_train], perm[n_train:]
    train = Dataset(rows=data.rows[tr], targets=data.targets[tr],
                    specs=data.specs, task=data.task)
    test = Dataset(rows=data.rows[te], targets=data.targets[te],
                   specs=data.specs, task=data.task)
    return train, test


def batches(n: int, batch_size: int, seed: int, epoch: int) -> list[np.ndarray]:
    """Index slices of n rows for one epoch: a fresh (seed, epoch)
    permutation, chunked."""
    if batch_size < 1:
        raise DatasetError(f"batch_size must be >= 1, got {batch_size}")
    perm = np.random.default_rng([seed, epoch]).permutation(n)
    return [perm[i:i + batch_size] for i in range(0, n, batch_size)]
