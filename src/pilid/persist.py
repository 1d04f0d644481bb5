"""Bit-exact model persistence and shape/surface export.

A model file is UTF-8 text: `pilid-model <version>`, a SHA-256 checksum
of the payload, then one key and its values per line, so a load
reproduces the parameters bit for bit.  A load reads the file line by
line, twice: once to check its checksum, once to parse it.  Format 3 has
one layout for every model: task, features, names, points, the wide
component (`pl none`, or `pl present` and its arrays), `blocks B` and
each block's `blk{i}.` arrays, the gates (`gates.meta none`, or
`gates.meta` and `gates.log_alpha`), hard_gates and train_means (an
array or `none`), and the fingerprint.  `blk{i}.` is block i's network,
read on its own; the model stacks the blocks it is handed into one
network with a leading block axis (trainer.PilidModel), so blocks of
different widths, depth or activation make a malformed file, in every
format.
An array line holds the key, the array's shape and one base64 token of
its little-endian float64 bytes (no token when the array is empty); the
scalars and knots a person reads (`pl.w0`, `head_b`, `gates.meta`,
`points`) are hexadecimal floats.  Formats 1 and 2 are read, not
written: they hold every real as a hexadecimal float, and state the
shape of weight matrices only.  Format 1's `variant pilib` payload is
a format 2 payload after that line, and its `variant pilid` payload
stores at most one network under `mlp`.  A value that does not decode to
a finite float fails the load, naming the file and the key.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import math
import urllib.parse
from pathlib import Path

import numpy as np

from pilid.encoding import CharacteristicPoints
from pilid.mlp_component import MlpParams
from pilid.pl_component import PiecewiseLinearParams, extract_shapes
from pilid.trainer import PilibGates, PilidModel, TrainingError

FORMAT_VERSION = 3
MAGIC = "pilid-model"


class PersistError(ValueError):
    pass


def _line(key: str, a) -> str:
    """`key` and the values of `a` as hexadecimal floats."""
    values = np.asarray(a, dtype=np.float64).ravel().tolist()
    return " ".join([key, *map(float.hex, values)])


def _array_line(key: str, a) -> str:
    """`key`, the shape of `a` and base64 of its little-endian float64
    bytes, or `key none` when `a` is None."""
    if a is None:
        return f"{key} none"
    a = np.asarray(a, dtype="<f8")
    data = base64.b64encode(a.tobytes()).decode("ascii")
    return " ".join([key, *map(str, a.shape), *([data] if data else [])])


def _emit_mlp(lines: list[str], prefix: str, mlp: MlpParams):
    lines.append(f"{prefix}.meta {mlp.activation} {len(mlp.weights)}")
    for l, (W, b) in enumerate(zip(mlp.weights, mlp.biases)):
        lines.append(_array_line(f"{prefix}.W{l}", W))
        lines.append(_array_line(f"{prefix}.b{l}", b))
    lines.append(_array_line(f"{prefix}.head_w", mlp.head_w))
    lines.append(_line(f"{prefix}.head_b", mlp.head_b))


def _payload(model: PilidModel, fingerprint: str) -> list[str]:
    lines = [f"task {model.task}", f"features {model.m}"]
    for j, name in enumerate(model.feature_names or
                             [f"x{j}" for j in range(model.m)]):
        lines.append(f"name {j} {urllib.parse.quote(name, safe='')}")
    for j in range(model.m):
        flag = "const" if model.points.constant[j] else "knots"
        lines.append(_line(f"points {j} {flag}", model.points.points[j]))
    pl = model.pl
    if pl is None:
        lines.append("pl none")
    else:
        lines += ["pl present", _array_line("pl.w", pl.w),
                  _array_line("pl.b", pl.b), _array_line("pl.omega", pl.omega),
                  _line("pl.w0", pl.w0)]
    lines.append(f"blocks {len(model.blocks)}")
    for i, blk in enumerate(model.blocks):
        _emit_mlp(lines, f"blk{i}", blk)
    g = model.gates
    if g is None:
        lines.append("gates.meta none")
    else:
        lines.append(f"gates.meta {float(g.temperature).hex()} {g.K} "
                     f"{float(g.lambda0).hex()} {g.B} {g.log_alpha.shape[1]}")
        lines.append(_array_line("gates.log_alpha", g.log_alpha))
    lines.append(_array_line("hard_gates", model.hard_gates))
    lines.append(_array_line("train_means", model.train_means))
    lines.append(f"fingerprint {urllib.parse.quote(fingerprint, safe='')}")
    return lines


def save(model, path, fingerprint: str = "") -> None:
    """Write a versioned, checksummed model file."""
    payload = "\n".join(_payload(model, fingerprint)) + "\n"
    digest = hashlib.sha256(payload.encode()).hexdigest()
    Path(path).write_text(
        f"{MAGIC} {FORMAT_VERSION}\nchecksum {digest}\n{payload}",
        encoding="utf-8")


def _counted(key: str, values: list[str], count: int,
             exact: bool = True) -> list[str]:
    """`values`, which must number exactly `count` (at least, unless
    `exact`)."""
    if len(values) < count or (exact and len(values) != count):
        raise PersistError(f"malformed model file: expected {key!r} with "
                           f"{count} value(s), got {len(values)}")
    return values


def _finite(key: str, a: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise PersistError(f"non-finite value in {key!r}")
    return a


def _hex(key: str, tokens: list[str]) -> np.ndarray:
    """The finite floats that `tokens`, hexadecimal values of `key`,
    encode."""
    try:
        a = np.array([float.fromhex(t) for t in tokens], dtype=np.float64)
    except ValueError as exc:
        raise PersistError(f"bad float encoding in {key!r}: {exc}") from None
    return _finite(key, a)


def _base64(key: str, token: str, count: int) -> np.ndarray:
    """The `count` finite floats whose little-endian float64 bytes `token`,
    a value of `key`, holds in base64; a read-only view of the decoded
    bytes."""
    try:
        raw = base64.b64decode(token, validate=True)
    except binascii.Error:
        raise PersistError(f"bad base64 encoding in {key!r}") from None
    if len(raw) != 8 * count:
        raise PersistError(f"malformed model file: {key!r} holds {len(raw)} "
                           f"bytes, not the {8 * count} of {count} float64 "
                           f"value(s)")
    return _finite(key, np.frombuffer(raw, dtype="<f8"))


class _Reader:
    def __init__(self, lines, version: int):
        self.lines = lines      # an iterator of lines with their newlines
        self.hex_arrays = version < 3

    def next(self, key: str, count: int = 1, exact: bool = True) -> list[str]:
        """Values of the next line, which must be `key` with exactly
        `count` values (at least, unless `exact`)."""
        line = next(self.lines, None)
        if line is None:
            raise PersistError(f"truncated model file: expected {key!r}")
        parts = line.split()
        if not parts or parts[0] != key:
            shown = line[:40].rstrip("\n")
            raise PersistError(f"malformed model file: expected {key!r}, "
                               f"got {shown!r}")
        return _counted(key, parts[1:], count, exact)

    def count(self, key: str, least: int) -> int:
        """A line of one int, which must be at least `least`."""
        n = int(self.next(key)[0])
        if n < least:
            raise PersistError(f"malformed model file: {key!r} is {n}, "
                               f"below {least}")
        return n

    def hex(self, key: str, count: int) -> np.ndarray:
        """A line of exactly `count` hexadecimal floats."""
        return _hex(key, self.next(key, count))

    def array(self, key: str, shape: tuple[int, ...]) -> np.ndarray:
        """A line that holds an array of `shape`."""
        return self._array(key, self.next(key, 0, exact=False), shape)

    def optional(self, key: str, shape: tuple[int, ...]) -> np.ndarray | None:
        """A line that holds `none` or an array of `shape`."""
        tok = self.next(key, 0, exact=False)
        return None if tok == ["none"] else self._array(key, tok, shape)

    def matrix(self, key: str, columns: int | None = None) -> np.ndarray:
        """A line that holds a matrix of the shape it states; formats 1 and
        2 state the shape of a matrix too.  Another number of columns than
        `columns`, when given, makes the file malformed."""
        tok = self.next(key, 2, exact=False)
        shape = int(tok[0]), int(tok[1])
        if min(shape) < 0:
            raise PersistError(f"malformed model file: {key!r} has shape "
                               f"{shape[0]} x {shape[1]}")
        if columns is not None and shape[1] != columns:
            raise PersistError(f"malformed model file: {key!r} has "
                               f"{shape[1]} columns for {columns} features")
        return self._array(key, tok[2:] if self.hex_arrays else tok, shape)

    def _array(self, key: str, tok: list[str],
               shape: tuple[int, ...]) -> np.ndarray:
        """A new array of `shape` that `tok`, the values of `key`, encode:
        its values as hexadecimal floats before format 3; from format 3 its
        shape and one base64 token, or no token when it is empty."""
        count = math.prod(shape)
        if self.hex_arrays:
            values = _hex(key, _counted(key, tok, count))
        else:
            dims = [str(n) for n in shape]
            if tok[:len(dims)] != dims or \
                    len(tok) != len(dims) + (count > 0):
                data = "one base64 token" if count > 0 else "no values"
                raise PersistError(f"malformed model file: expected {key!r} "
                                   f"with shape {' '.join(dims)} and {data}, "
                                   f"got {' '.join(tok)[:40]!r}")
            values = _base64(key, tok[-1] if count > 0 else "", count)
        return values.reshape(shape).astype(np.float64)


def _read_mlp(r: _Reader, prefix: str, m: int) -> MlpParams:
    """The network under `prefix`, whose input is the m features."""
    activation, n_layers = r.next(f"{prefix}.meta", 2)
    weights, biases = [], []
    rows = 0
    for l in range(int(n_layers)):
        weights.append(r.matrix(f"{prefix}.W{l}", m if l == 0 else None))
        rows = weights[-1].shape[0]
        biases.append(r.array(f"{prefix}.b{l}", (rows,)))
    return MlpParams(weights=weights, biases=biases,
                     head_w=r.array(f"{prefix}.head_w", (rows,)),
                     head_b=r.hex(f"{prefix}.head_b", 1)[0],
                     activation=activation)


def _payload_digest(lines) -> str:
    """The SHA-256 hex digest of the payload lines `lines`, each with its
    newline, as `save` wrote them.  A last line that is empty, after
    another, is a blank line after the payload, not part of it; a last
    line without its newline counts as having one, and no line at all as
    one empty line."""
    digest = hashlib.sha256()
    n, line, blank = 0, "", False
    for n, line in enumerate(lines, 1):
        if blank:
            digest.update(b"\n")
        blank = line == "\n"
        if not blank:
            digest.update(line.encode())
    if not line.endswith("\n") or (n == 1 and blank):
        digest.update(b"\n")
    return digest.hexdigest()


def _utf8_error_at(path) -> int | None:
    """The byte offset of the first invalid UTF-8 in the file `path`."""
    try:
        Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        return exc.start
    return None


def load(path) -> PilidModel:
    """Load a model file of format 1, 2 or 3 into the one model class.

    The file is read twice, line by line, through one open handle: the
    first pass checks that it is UTF-8 and its checksum, the second
    parses it, so that one line of its text is held at a time.  A line
    ends at a newline, a carriage return or both."""
    try:
        with open(path, encoding="utf-8") as f:
            head, check = next(f, "").split(), next(f, "").split()
            digest = _payload_digest(f)
            if head[:1] != [MAGIC]:
                raise PersistError(f"{path}: not a model file")
            if len(head) < 2:
                raise PersistError(f"{path}: missing format version")
            version = head[1]
            if version not in [str(v) for v in range(1, FORMAT_VERSION + 1)]:
                raise PersistError(f"{path}: unsupported format version "
                                   f"{version} (reads 1 to {FORMAT_VERSION})")
            if len(check) != 2 or check[0] != "checksum":
                raise PersistError(f"{path}: missing checksum")
            if digest != check[1]:
                raise PersistError(f"{path}: checksum mismatch (corrupt or "
                                   f"truncated)")
            f.seek(0)
            next(f), next(f)
            # a PersistError, a count that is no int, or gate settings out
            # of range
            try:
                return _read_model(_Reader(f, int(version)),
                                   version == "1")
            except (ValueError, TrainingError) as exc:
                raise PersistError(f"{path}: {exc}") from None
    except OSError as exc:
        raise PersistError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError:
        raise PersistError(f"{path}: not a model file (invalid UTF-8 at "
                           f"byte {_utf8_error_at(path)})") from None


def _read_model(r: _Reader, v1: bool) -> PilidModel:
    """The model that a checked payload describes.  A format 1 payload
    starts with its variant; `variant pilib` is followed by a format 2
    payload."""
    variant = r.next("variant")[0] if v1 else "pilib"
    if variant not in ("pilid", "pilib"):
        raise PersistError(f"unknown variant {variant!r}")
    task = r.next("task")[0]
    m = r.count("features", 1)
    names = [urllib.parse.unquote(r.next("name", 2)[1]) for _ in range(m)]
    tok = [r.next("points", 3, exact=False) for _ in range(m)]
    points = CharacteristicPoints(
        points=[_hex("points", t[2:]) for t in tok],
        constant=[t[1] == "const" for t in tok])

    pl = None
    if r.next("pl")[0] != "none":
        pl = PiecewiseLinearParams(
            w=r.array("pl.w", (points.total,)),
            b=r.array("pl.b", (points.total,)),
            omega=r.array("pl.omega", (m,)), w0=r.hex("pl.w0", 1)[0])

    if variant == "pilid":
        blocks = [] if r.next("mlp")[0] == "none" else [_read_mlp(r, "mlp", m)]
        return PilidModel(pl=pl, blocks=blocks, points=points, task=task,
                          feature_names=names)
    B = r.count("blocks", 0)
    # block by block, as the file holds them: a B the file does not hold
    # fails at the first block it lacks, and allocates nothing per block
    blocks = [_read_mlp(r, f"blk{i}", m) for i in range(B)]
    gates = None
    gm = r.next("gates.meta", 1, exact=False)
    if gm != ["none"]:
        temperature, K, lambda0, gB, gm_cols = _counted("gates.meta", gm, 5)
        if (int(gB), int(gm_cols)) != (B, m):
            raise PersistError(f"malformed model file: 'gates.meta' gives "
                               f"{gB} x {gm_cols} gates for {B} blocks and "
                               f"{m} features")
        temperature, lambda0 = _hex("gates.meta", [temperature, lambda0])
        gates = PilibGates(
            log_alpha=r.array("gates.log_alpha", (B, m)),
            temperature=temperature, K=int(K), lambda0=lambda0)
    hard = r.optional("hard_gates", (B, m))
    if hard is not None and not np.isin(hard, (0.0, 1.0)).all():
        raise PersistError("malformed model file: 'hard_gates' holds a "
                           "value other than 0 and 1")
    means = r.optional("train_means", (m,))
    try:
        return PilidModel(pl=pl, blocks=blocks, points=points, task=task,
                          feature_names=names, gates=gates, hard_gates=hard,
                          train_means=means)
    except TrainingError as exc:
        raise PersistError(f"malformed model file: {exc}") from None


def write_loss_trace(trace: list[float], path) -> None:
    lines = ["epoch,loss"]
    lines += [f"{e + 1},{v!r}" for e, v in enumerate(trace)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# The C0 controls other than tab, LF and CR may not appear in XML 1.0,
# even escaped; a feature name's are shown as U+FFFD in a chart's title.
_XML_TEXT = {c: "\ufffd" for c in range(0x20) if chr(c) not in "\t\n\r"}
_XML_TEXT.update({ord("&"): "&amp;", ord("<"): "&lt;"})


def _shape_svg(shape, width=480, height=320, margin=48) -> str:
    xs, us = shape.xs, shape.us
    x_lo, x_hi = float(xs[0]), float(xs[-1])
    u_lo, u_hi = float(us.min()), float(us.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if u_hi == u_lo:
        u_lo, u_hi = u_lo - 0.5, u_hi + 0.5
    def sx(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)
    def sy(u):
        return height - margin - (u - u_lo) / (u_hi - u_lo) * (height - 2 * margin)
    pts = " ".join(f"{sx(x):.2f},{sy(u):.2f}" for x, u in zip(xs, us))
    title = shape.name.translate(_XML_TEXT)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>\n'
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>\n'
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" '
        f'font-size="14">{title}</text>\n'
        f'<text x="{width - margin}" y="{height - margin + 16}" '
        f'text-anchor="end" font-size="10">{x_hi:.4g}</text>\n'
        f'<text x="{margin}" y="{height - margin + 16}" '
        f'font-size="10">{x_lo:.4g}</text>\n'
        f'<text x="{margin - 4}" y="{margin}" text-anchor="end" '
        f'font-size="10">{u_hi:.4g}</text>\n'
        f'<text x="{margin - 4}" y="{height - margin}" text-anchor="end" '
        f'font-size="10">{u_lo:.4g}</text>\n'
        f'<polyline points="{pts}" fill="none" stroke="steelblue" '
        f'stroke-width="1.5"/>\n'
        f'</svg>\n')


def write_shapes_csv(shapes, path) -> None:
    """Curves as feature,point_index,x,u rows, one per curve point."""
    lines = ["feature,point_index,x,u"]
    for s in shapes:
        for k, (x, u) in enumerate(zip(s.xs, s.us)):
            lines.append(f"{s.feature},{k},{float(x)!r},{float(u)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def export_shapes(model, out_dir, svg: bool = False) -> Path:
    """Emit shapes.csv (feature,point_index,x,u) and optionally one SVG
    line chart per feature.  Returns the CSV path."""
    if model.pl is None:
        raise PersistError("model has no piecewise-linear component")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    shapes = extract_shapes(model.pl, model.points, names=model.feature_names)
    csv_path = out_dir / "shapes.csv"
    write_shapes_csv(shapes, csv_path)
    if svg:
        for s in shapes:
            (out_dir / f"shape_{s.feature}.svg").write_text(
                _shape_svg(s), encoding="utf-8")
    return csv_path


def write_surface_csv(xs_a, xs_b, surface, path) -> None:
    """Interaction surface grid: header row of x_b values, one row per x_a."""
    lines = ["x_a\\x_b," + ",".join(repr(float(v)) for v in xs_b)]
    for va, row in zip(xs_a, surface):
        lines.append(repr(float(va)) + "," +
                     ",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
