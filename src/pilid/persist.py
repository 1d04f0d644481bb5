"""Bit-exact model persistence and shape/surface export.

Model files are line-oriented UTF-8 text with every real stored as a
hexadecimal float, a format version and a whole-payload checksum, so a
load reproduces the saved parameters bit for bit.  Format 1 has two
layouts: `variant pilid` stores a model without gate logits as its one
network (`mlp.`), `variant pilib` stores the blocks, gate logits and hard
gates; both load into the one model class.
"""

from __future__ import annotations

import hashlib
import urllib.parse
from pathlib import Path

import numpy as np

from pilid.dataset import FeatureSpec
from pilid.encoding import CharacteristicPoints
from pilid.mlp_component import MlpParams
from pilid.pl_component import PiecewiseLinearParams, extract_shapes
from pilid.trainer import PilibGates, PilidModel

FORMAT_VERSION = 1
MAGIC = "pilid-model"


class PersistError(ValueError):
    pass


def _hex(x: float) -> str:
    return float(x).hex()


def _vec(a: np.ndarray) -> str:
    return " ".join(_hex(v) for v in np.asarray(a, dtype=np.float64).ravel())


def _emit_mlp(lines: list[str], prefix: str, mlp: MlpParams):
    lines.append(f"{prefix}.meta {mlp.activation} {len(mlp.weights)}")
    for l, (W, b) in enumerate(zip(mlp.weights, mlp.biases)):
        lines.append(f"{prefix}.W{l} {W.shape[0]} {W.shape[1]} {_vec(W)}")
        lines.append(f"{prefix}.b{l} {_vec(b)}")
    lines.append(f"{prefix}.head_w {_vec(mlp.head_w)}")
    lines.append(f"{prefix}.head_b {_hex(float(mlp.head_b))}")


def _payload(model: PilidModel, fingerprint: str) -> list[str]:
    gated = model.gates is not None
    if not gated and (len(model.blocks) > 1
                      or not np.all(model.hard_gates == 1.0)):
        raise PersistError("a model without gate logits must be one block "
                           "with every gate open")
    lines = [f"variant {'pilib' if gated else 'pilid'}",
             f"task {model.task}",
             f"features {model.m}"]
    for j, name in enumerate(model.feature_names or
                             [f"x{j}" for j in range(model.m)]):
        lines.append(f"name {j} {urllib.parse.quote(name, safe='')}")
    for j in range(model.m):
        flag = "const" if model.points.constant[j] else "knots"
        lines.append(f"points {j} {flag} {_vec(model.points.points[j])}")
    pl = model.pl
    if pl is None:
        lines.append("pl none")
    else:
        lines.append("pl present")
        lines.append(f"pl.w {_vec(pl.w)}")
        lines.append(f"pl.b {_vec(pl.b)}")
        lines.append(f"pl.omega {_vec(pl.omega)}")
        lines.append(f"pl.w0 {_hex(float(pl.w0))}")
    if gated:
        lines.append(f"blocks {len(model.blocks)}")
        for i, blk in enumerate(model.blocks):
            _emit_mlp(lines, f"blk{i}", blk)
        g = model.gates
        lines.append(f"gates.meta {_hex(g.temperature)} {g.K} {_hex(g.lambda0)} "
                     f"{g.B} {g.log_alpha.shape[1]}")
        lines.append(f"gates.log_alpha {_vec(g.log_alpha)}")
        lines.append("hard_gates none" if model.hard_gates is None
                     else f"hard_gates {_vec(model.hard_gates)}")
        lines.append("train_means none" if model.train_means is None
                     else f"train_means {_vec(model.train_means)}")
    elif model.mlp is None:
        lines.append("mlp none")
    else:
        lines.append("mlp present")
        _emit_mlp(lines, "mlp", model.mlp)
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


class _Reader:
    def __init__(self, lines: list[str]):
        self.lines = lines
        self.pos = 0

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

    def optional(self, key: str, count: int) -> np.ndarray | None:
        """A line that holds `none` or exactly `count` floats."""
        tok = self.next(key, 1, exact=False)
        return None if tok == ["none"] else _floats(_counted(key, tok, count))


def _floats(tokens: list[str]) -> np.ndarray:
    try:
        return np.array([float.fromhex(t) for t in tokens], dtype=np.float64)
    except ValueError as exc:
        raise PersistError(f"bad float encoding: {exc}") from exc


def _read_mlp(r: _Reader, prefix: str) -> MlpParams:
    activation, n_layers = r.next(f"{prefix}.meta", 2)
    weights, biases = [], []
    rows = 0
    for l in range(int(n_layers)):
        key = f"{prefix}.W{l}"
        tok = r.next(key, 2, exact=False)
        rows, cols = int(tok[0]), int(tok[1])
        weights.append(_floats(_counted(key, tok[2:], rows * cols)
                               ).reshape(rows, cols))
        biases.append(_floats(r.next(f"{prefix}.b{l}", rows)))
    head_w = _floats(r.next(f"{prefix}.head_w", rows))
    head_b = _floats(r.next(f"{prefix}.head_b"))[0]
    return MlpParams(weights=weights, biases=biases, head_w=head_w,
                     head_b=head_b, activation=activation)


def load(path) -> PilidModel:
    """Load a model file of either layout into the one model class."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise PersistError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    head = lines[0].split() if lines else []
    if head[:1] != [MAGIC]:
        raise PersistError(f"{path}: not a model file")
    if len(head) < 2:
        raise PersistError(f"{path}: missing format version")
    version = head[1]
    if version != str(FORMAT_VERSION):
        raise PersistError(f"{path}: unsupported format version {version} "
                           f"(expected {FORMAT_VERSION})")
    check = lines[1].split() if len(lines) > 1 else []
    if len(check) != 2 or check[0] != "checksum":
        raise PersistError(f"{path}: missing checksum")
    stored = check[1]
    payload = "\n".join(lines[2:])
    if not payload.endswith("\n"):
        payload += "\n"
    if hashlib.sha256(payload.encode()).hexdigest() != stored:
        raise PersistError(f"{path}: checksum mismatch (corrupt or truncated)")

    r = _Reader(lines[2:])
    variant = r.next("variant")[0]
    task = r.next("task")[0]
    m = int(r.next("features")[0])
    names = []
    for j in range(m):
        tok = r.next("name", 2)
        names.append(urllib.parse.unquote(tok[1]))
    pts, const = [], []
    for j in range(m):
        tok = r.next("points", 3, exact=False)
        const.append(tok[1] == "const")
        pts.append(_floats(tok[2:]))
    points = CharacteristicPoints(points=pts, constant=const)

    pl_tok = r.next("pl")
    if pl_tok[0] == "none":
        pl = None
    else:
        pl = PiecewiseLinearParams(
            w=_floats(r.next("pl.w", points.total)),
            b=_floats(r.next("pl.b", points.total)),
            omega=_floats(r.next("pl.omega", m)),
            w0=_floats(r.next("pl.w0"))[0])

    if variant == "pilid":
        blocks = [] if r.next("mlp")[0] == "none" else [_read_mlp(r, "mlp")]
        return PilidModel(pl=pl, blocks=blocks, points=points, task=task,
                          feature_names=names)
    if variant != "pilib":
        raise PersistError(f"{path}: unknown variant {variant!r}")
    B = int(r.next("blocks")[0])
    blocks = [_read_mlp(r, f"blk{i}") for i in range(B)]
    gm = r.next("gates.meta", 5)
    temperature = float.fromhex(gm[0])
    K, lambda0 = int(gm[1]), float.fromhex(gm[2])
    gB, gm_cols = int(gm[3]), int(gm[4])
    if (gB, gm_cols) != (B, m):
        raise PersistError(f"malformed model file: 'gates.meta' gives "
                           f"{gB} x {gm_cols} gates for {B} blocks and "
                           f"{m} features")
    log_alpha = _floats(r.next("gates.log_alpha", gB * gm_cols)
                        ).reshape(gB, gm_cols)
    gates = PilibGates(log_alpha=log_alpha, temperature=temperature,
                       K=K, lambda0=lambda0)
    hard = r.optional("hard_gates", gB * gm_cols)
    return PilidModel(pl=pl, blocks=blocks, points=points, task=task,
                      feature_names=names, gates=gates,
                      hard_gates=None if hard is None
                      else hard.reshape(gB, gm_cols),
                      train_means=r.optional("train_means", m))


def write_loss_trace(trace: list[float], path) -> None:
    lines = ["epoch,loss"]
    lines += [f"{e + 1},{v!r}" for e, v in enumerate(trace)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>\n'
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>\n'
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" '
        f'font-size="14">{shape.name}</text>\n'
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


def export_shapes(model, out_dir, svg: bool = False, anchor: str = "zero",
                  train_rows=None) -> Path:
    """Emit shapes.csv (feature,point_index,x,u) and optionally one SVG
    line chart per feature.  Returns the CSV path."""
    if model.pl is None:
        raise PersistError("model has no piecewise-linear component")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    shapes = extract_shapes(model.pl, model.points, anchor=anchor,
                            train_rows=train_rows, names=model.feature_names)
    lines = ["feature,point_index,x,u"]
    for s in shapes:
        for k, (x, u) in enumerate(zip(s.xs, s.us)):
            lines.append(f"{s.feature},{k},{float(x)!r},{float(u)!r}")
    csv_path = out_dir / "shapes.csv"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
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
