"""Bit-exact model persistence and shape/surface export.

A model file is UTF-8 text: `pilid-model <version>`, a SHA-256 checksum
of the payload, then one key and its values per line, so a load
reproduces the parameters bit for bit.  Format 3 has one layout for every
model: task, features, names, points, the wide component (`pl none`, or
`pl present` and its arrays), `blocks B` and each block's `blk{i}.`
arrays, the gates (`gates.meta none`, or `gates.meta` and
`gates.log_alpha`), hard_gates and train_means (an array or `none`), and
the fingerprint.  The model holds its blocks as one network with a
leading block axis, so `blk{i}.` is block i's slice of it: blocks of
different widths or activation make a malformed file, in every format.
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


_BLOCKS_DIFFER = "malformed model file: the blocks differ in widths or " \
    "activation"


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
    def __init__(self, lines: list[str], version: int):
        self.lines = lines
        self.pos = 0
        self.hex_arrays = version < 3

    def next(self, key: str, count: int = 1, exact: bool = True) -> list[str]:
        """Values of the next line, which must be `key` with exactly
        `count` values (at least, unless `exact`)."""
        if self.pos >= len(self.lines):
            raise PersistError(f"truncated model file: expected {key!r}")
        parts = self.lines[self.pos].split()
        if not parts or parts[0] != key:
            raise PersistError(f"malformed model file: expected {key!r}, "
                               f"got {self.lines[self.pos][:40]!r}")
        self.pos += 1
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

    def array(self, key: str, shape: tuple[int, ...],
              out: np.ndarray | None = None) -> np.ndarray:
        """A line that holds an array of `shape`, decoded into `out` when
        it is given."""
        return self._array(key, self.next(key, 0, exact=False), shape, out)

    def optional(self, key: str, shape: tuple[int, ...]) -> np.ndarray | None:
        """A line that holds `none` or an array of `shape`."""
        tok = self.next(key, 0, exact=False)
        return None if tok == ["none"] else self._array(key, tok, shape)

    def matrix(self, key: str, columns: int | None = None,
               out: np.ndarray | None = None) -> np.ndarray:
        """A line that holds a matrix of the shape it states, decoded into
        `out` when it is given; formats 1 and 2 state the shape of a matrix
        too.  Another number of columns than `columns`, when given, or
        another shape than `out`'s makes the file malformed."""
        tok = self.next(key, 2, exact=False)
        shape = int(tok[0]), int(tok[1])
        if min(shape) < 0:
            raise PersistError(f"malformed model file: {key!r} has shape "
                               f"{shape[0]} x {shape[1]}")
        if columns is not None and shape[1] != columns:
            raise PersistError(f"malformed model file: {key!r} has "
                               f"{shape[1]} columns for {columns} features")
        if out is not None and out.shape != shape:
            raise PersistError(_BLOCKS_DIFFER)
        return self._array(key, tok[2:] if self.hex_arrays else tok, shape,
                           out)

    def _array(self, key: str, tok: list[str], shape: tuple[int, ...],
               out: np.ndarray | None = None) -> np.ndarray:
        """The array of `shape` that `tok`, the values of `key`, encode,
        in `out` or, without it, in a new array: its values as hexadecimal
        floats before format 3; from format 3 its shape and one base64
        token, or no token when it is empty."""
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
        if out is None:
            out = np.empty(shape)
        out[...] = values.reshape(shape)
        return out


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


def _read_blocks(r: _Reader, prefixes: list[str],
                 m: int) -> MlpParams | list:
    """The networks under `prefixes` side by side, as the model holds its
    blocks, so that its constructor copies none of them again (with no
    prefix, the empty list it stacks).  Block 0 sets the widths and
    activation.  One block is a view of its own arrays with a block axis
    of length 1; with more, each later block is decoded straight into its
    row of one (B, ...) array per layer.  A block of other widths or
    activation makes the file malformed."""
    if not prefixes:
        return []
    first = _read_mlp(r, prefixes[0], m)
    if len(prefixes) == 1:
        return first[None]      # views with a new leading axis
    B = len(prefixes)

    def rows(a: np.ndarray) -> np.ndarray:     # row 0 is block 0's
        out = np.empty((B, *a.shape))
        out[0] = a
        return out

    net = MlpParams(weights=[rows(W) for W in first.weights],
                    biases=[rows(b) for b in first.biases],
                    head_w=rows(first.head_w), head_b=rows(first.head_b),
                    activation=first.activation)
    del first       # its arrays are copied; free them before the others
    for i, prefix in enumerate(prefixes[1:], start=1):
        row = net[i]
        activation, n_layers = r.next(f"{prefix}.meta", 2)
        if (activation, int(n_layers)) != (net.activation, len(net.weights)):
            raise PersistError(_BLOCKS_DIFFER)
        for l, (W, b) in enumerate(zip(row.weights, row.biases)):
            r.matrix(f"{prefix}.W{l}", m if l == 0 else None, W)
            r.array(f"{prefix}.b{l}", b.shape, b)
        r.array(f"{prefix}.head_w", row.head_w.shape, row.head_w)
        row.head_b[...] = r.hex(f"{prefix}.head_b", 1)[0]
    return net


def load(path) -> PilidModel:
    """Load a model file of format 1, 2 or 3 into the one model class."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise PersistError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise PersistError(f"{path}: not a model file (invalid UTF-8 at "
                           f"byte {exc.start})") from None
    lines = text.splitlines()
    del text    # the lines alone are parsed; one copy of the file is enough
    head = lines[0].split() if lines else []
    if head[:1] != [MAGIC]:
        raise PersistError(f"{path}: not a model file")
    if len(head) < 2:
        raise PersistError(f"{path}: missing format version")
    version = head[1]
    if version not in [str(v) for v in range(1, FORMAT_VERSION + 1)]:
        raise PersistError(f"{path}: unsupported format version {version} "
                           f"(reads 1 to {FORMAT_VERSION})")
    check = lines[1].split() if len(lines) > 1 else []
    if len(check) != 2 or check[0] != "checksum":
        raise PersistError(f"{path}: missing checksum")
    # the digest of "\n".join(lines[2:]) and a newline unless that ends in
    # one, fed line by line so that the payload is not copied whole
    body = lines[2:]
    if len(body) > 1 and body[-1] == "":
        body.pop()
    digest = hashlib.sha256()
    for line in body or [""]:
        digest.update(line.encode())
        digest.update(b"\n")
    if digest.hexdigest() != check[1]:
        raise PersistError(f"{path}: checksum mismatch (corrupt or truncated)")

    # a PersistError, a count that is no int, or gate settings out of range
    try:
        return _read_model(_Reader(lines[2:], int(version)), version == "1")
    except (ValueError, TrainingError) as exc:
        raise PersistError(f"{path}: {exc}") from None


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
        blocks = _read_blocks(r, [] if r.next("mlp")[0] == "none"
                              else ["mlp"], m)
        return PilidModel(pl=pl, blocks=blocks, points=points, task=task,
                          feature_names=names)
    B = r.count("blocks", 0)
    blocks = _read_blocks(r, [f"blk{i}" for i in range(B)], m)
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
