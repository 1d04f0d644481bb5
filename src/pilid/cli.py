"""Command-line entry point: train, predict, evaluate, generate and export."""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import sys
from pathlib import Path

import numpy as np

from pilid import (__version__, dataset, metrics_eval, persist, pilib, synth,
                   trainer)


class CliError(RuntimeError):
    pass


class _Parser(argparse.ArgumentParser):
    """A usage error, such as a flag's value out of its range, ends in one
    `pilid: error:` line and exit code 2."""

    def error(self, message):
        self.exit(2, f"pilid: error: {message}\n")


def _ranged(kind, low, *, open_low=False, high=None):
    """An argparse `type` reading a finite `kind` value >= low (> low with
    open_low) and, given high, <= high.  The `_add_*_flags` helpers give
    each flag its range this way, so every command that takes the flag
    rejects a bad value before doing any work."""
    bound = (f"{'>' if open_low else '>='} {low}" if high is None else
             f"in {'(' if open_low else '['}{low}, {high}]")
    what = "an integer" if kind is int else "a number"

    def check(text):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and (value > low if open_low else
                                          value >= low)
                and (high is None or value <= high)):
            raise argparse.ArgumentTypeError(
                f"expected {what} {bound}, got {text!r}")
        return value
    return check


def _architecture(text):
    """An argparse `type` for `--mlp`: the text, once it parses."""
    try:
        trainer.parse_widths(text)
    except trainer.TrainingError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _task(flag: str) -> str:
    return dataset.REGRESSION if flag == "reg" else dataset.CLASSIFICATION


def _add_task_flag(p):
    p.add_argument("--task", choices=("reg", "clf"), default="reg")


def _add_file_flags(p):
    """What `train` and `train-pilib` take and a trials config does not:
    the files of the run and the blocks' activation."""
    p.add_argument("--data", required=True, help="input CSV path")
    p.add_argument("--target", required=True, help="target column name")
    _add_task_flag(p)
    p.add_argument("--activation", choices=("relu", "tanh"), default="relu")
    p.add_argument("--out", required=True, help="model output path (.plm)")
    p.add_argument("--trace-out", help="per-epoch loss trace CSV")


def _add_seed_flag(p):
    p.add_argument("--seed", type=_ranged(int, 0), default=1)


def _add_train_flags(p):
    p.add_argument("--split", type=_ranged(float, 0, open_low=True, high=1),
                   default=0.8,
                   help="train fraction (1.0 trains on everything)")
    _add_seed_flag(p)
    p.add_argument("--gammas", type=_ranged(int, 1), default=5,
                   help="sub-intervals per numerical feature")
    p.add_argument("--mlp", type=_architecture, default="32-32-1",
                   help="architecture, e.g. 100-200-400-400-200-100-1")
    p.add_argument("--lr", type=_ranged(float, 0, open_low=True),
                   default=0.005)
    p.add_argument("--epochs", type=_ranged(int, 1), default=100)
    p.add_argument("--batch", type=_ranged(int, 1), default=256)
    p.add_argument("--lambda", dest="lam", type=_ranged(float, 0),
                   default=1e-4)
    p.add_argument("--reg", choices=("l1", "l2", "none"), default="l2")
    p.add_argument("--sigma", type=_ranged(float, 0, open_low=True),
                   default=0.05)
    p.add_argument("--ridge", type=_ranged(float, 0), default=1e-8)


def _add_pl_init_flag(p):
    p.add_argument("--pl-init", choices=("least_squares", "gaussian"),
                   default="least_squares")


def _add_pilib_flags(p):
    p.add_argument("--blocks", type=_ranged(int, 1), default=20)
    p.add_argument("--max-order", type=_ranged(int, 1), default=3)
    p.add_argument("--lambda0", type=_ranged(float, 0), default=0.1)


def _add_synth_flags(p, required: bool):
    """The generator's flags.  `synth` requires the size; a trials config
    may leave it at the defaults.  SyntheticSpec checks m and n, and the
    number of interactions against m."""
    p.add_argument("--m", type=int, required=required, default=10,
                   help="features")
    p.add_argument("--n", type=int, required=required, default=20000,
                   help="rows")
    _add_task_flag(p)
    p.add_argument("--noise", type=_ranged(float, 0), default=0.1)
    p.add_argument("--interactions", type=_ranged(int, 0), default=None)




def _fingerprint(config: trainer.TrainConfig, data: dataset.Dataset) -> str:
    """What produced a model: the training config, the count and a SHA-256
    of the float64 rows and targets read from --data, and the versions of
    pilid, numpy and the BLAS numpy was built with."""
    digest = hashlib.sha256(np.ascontiguousarray(data.rows, dtype="<f8"))
    digest.update(np.ascontiguousarray(data.targets, dtype="<f8"))
    blas = getattr(np.__config__, "CONFIG", {}).get(
        "Build Dependencies", {}).get("blas", {})
    return (f"{config!r} rows={data.n} data_sha256={digest.hexdigest()} "
            f"pilid={__version__} numpy={np.__version__} "
            f"blas={blas.get('name', 'unknown')} "
            f"blas_version={blas.get('version', 'unknown')}")


def _load_training_data(args, config: trainer.TrainConfig
                        ) -> tuple[dataset.Dataset, str]:
    """The rows of --data the run trains on, and the fingerprint its model
    is saved with; the rows held out are not kept through training."""
    data = dataset.load_csv(args.data, args.target, _task(args.task))
    fingerprint = _fingerprint(config, data)
    if args.split == 1.0:
        return data, fingerprint
    return dataset.split(data, args.split, args.seed)[0], fingerprint


def _train_config(args) -> trainer.TrainConfig:
    return trainer.TrainConfig(learning_rate=args.lr, epochs=args.epochs,
                               batch_size=args.batch, lam=args.lam,
                               reg=args.reg, sigma=args.sigma,
                               ridge=args.ridge, seed=args.seed)


def _cmd_train(args) -> int:
    config = _train_config(args)
    train_set, fingerprint = _load_training_data(args, config)
    model, trace = trainer.train(train_set, args.gammas, args.mlp, config,
                                 mlp_only=args.mlp_only,
                                 pl_init=args.pl_init,
                                 activation=args.activation)
    persist.save(model, args.out, fingerprint=fingerprint)
    if args.trace_out:
        persist.write_loss_trace(trace, args.trace_out)
    print(f"model written to {args.out} (final training loss {trace[-1]:.6g})")
    return 0


def _cmd_train_pilib(args) -> int:
    config = _train_config(args)
    train_set, fingerprint = _load_training_data(args, config)
    model, diag = pilib.train_pilib(train_set, args.gammas, args.mlp,
                                    args.blocks, args.max_order, args.lambda0,
                                    config, activation=args.activation)
    persist.save(model, args.out, fingerprint=fingerprint)
    if args.trace_out:
        persist.write_loss_trace(diag["phase1_trace"] + diag["phase2_trace"],
                                 args.trace_out)
    if args.diagnostics_out:
        with open(args.diagnostics_out, "w", newline="",
                  encoding="utf-8") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["block", "order", "features"])
            for i, feats in enumerate(diag["active_sets"]):
                out.writerow([i, f"{diag['orders'][i]:.0f}",
                              ";".join(model.feature_names[j] for j in feats)])
    flag = " (phase-1 cap reached)" if diag["capped"] else ""
    print(f"model written to {args.out}; max interaction order "
          f"{diag['orders'].max(initial=0):.0f}{flag}")
    return 0


def _read_columns(path, model, target=None) -> np.ndarray:
    """The model's feature columns of a CSV, found by name, then the
    `target` column if one is given."""
    names = model.feature_names + ([] if target is None else [target])

    def model_columns(header):
        for name in names:
            if name not in header:
                raise CliError(f"{path}: column {name!r} is missing")
        return [header.index(name) for name in names]

    _, mat = dataset.read_csv(path, model_columns)
    if len(mat) == 0:
        raise CliError(f"{path}: no data rows")
    return mat


def _cmd_predict(args) -> int:
    model = persist.load(args.model)
    rows = _read_columns(args.data, model)
    _, preds = trainer.model_forward(model, rows)
    text = "\n".join(["prediction", *map(repr, preds.tolist())]) + "\n"
    if args.out:
        out = Path(args.out)
        out.write_text(text, encoding="utf-8")
        print(f"{len(preds)} predictions written to {out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_eval(args) -> int:
    model = persist.load(args.model)
    if args.target in model.feature_names:
        raise CliError(f"{args.model}: target column {args.target!r} is one "
                       "of the model's features")
    mat = _read_columns(args.data, model, args.target)
    targets = mat[:, -1]
    dataset.check_targets(targets, model.task,
                          f"{args.data}: column {args.target!r}: ")
    name, value = metrics_eval.evaluate(model, mat[:, :-1], targets)
    print(f"{name} {value:.6f}")
    return 0


def _synthetic_spec(args) -> synth.SyntheticSpec:
    return synth.SyntheticSpec(m=args.m, n=args.n, task=_task(args.task),
                               noise_std=args.noise, seed=args.seed,
                               n_interactions=args.interactions)


def _cmd_synth(args) -> int:
    data, truth = synth.generate(_synthetic_spec(args))
    header = ",".join(s.name for s in data.specs) + ",y"
    lines = [header]
    for row, y in zip(data.rows, data.targets):
        lines.append(",".join(repr(float(v)) for v in row) + f",{float(y)!r}")
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    if args.truth_out:
        persist.write_shapes_csv(truth, args.truth_out)
    print(f"{data.n} rows written to {args.out}")
    return 0


class _ConfigParser(argparse.ArgumentParser):
    """The flags a trials config sets: the generator, training, model kind
    and gated-block flags.  An error names the config file."""

    def __init__(self, path):
        super().__init__(add_help=False, allow_abbrev=False)
        self.path = path
        _add_synth_flags(self, required=False)
        _add_train_flags(self)
        self.add_argument("--model", choices=("pilid", "mlp", "pilib"),
                          default="pilid")
        _add_pl_init_flag(self)
        _add_pilib_flags(self)

    def error(self, message):
        raise CliError(f"{self.path}: {message}")


def _config_flags(path) -> list[str]:
    """Each `key = value` line of a config file as one `--key=value` flag;
    `_` in a key reads as `-`, and the `=` keeps a value such as -1 from
    reading as a flag."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    flags = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}: line {ln}: expected key = value")
        key, value = line.split("=", 1)
        flags.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return flags


def _cmd_trials(args) -> int:
    parser = _ConfigParser(args.config)
    cfg = parser.parse_args(_config_flags(args.config))
    if cfg.split == 1.0:
        parser.error("argument --split: a trial scores the held-out rows, "
                     "so the split must be < 1")
    try:
        exp = metrics_eval.ExperimentConfig(
            synth=_synthetic_spec(cfg), gammas=cfg.gammas, mlp_widths=cfg.mlp,
            model=cfg.model, pl_init=cfg.pl_init, train=_train_config(cfg),
            train_fraction=cfg.split, base_seed=cfg.seed, blocks=cfg.blocks,
            max_order=cfg.max_order, lambda0=cfg.lambda0)
    except (synth.SynthError, trainer.TrainingError) as exc:
        raise CliError(f"{args.config}: {exc}") from None
    try:
        dataset.train_size(cfg.n, cfg.split)
    except dataset.DatasetError:
        parser.error(f"n = {cfg.n} with split = {cfg.split} leaves no train "
                     f"or no held-out row")
    report = metrics_eval.run_trials(exp, args.trials)
    Path(args.report).write_text(report.to_csv(), encoding="utf-8")
    print(f"{args.trials} trials: mean {report.mean:.6f} "
          f"+/- {report.std:.6f} (report: {args.report})")
    return 0


def _cmd_export_shapes(args) -> int:
    model = persist.load(args.model)
    try:
        csv_path = persist.export_shapes(model, args.out_dir, svg=args.svg)
    except persist.PersistError as exc:
        raise CliError(f"{args.model}: {exc}") from None
    print(f"shapes written to {csv_path}")
    return 0


def _cmd_export_interactions(args) -> int:
    model = persist.load(args.model)
    if model.gates is None:
        raise CliError(f"{args.model}: export-interactions needs a "
                       "gated-block model")
    try:
        a, b = (int(t) for t in args.features.split(","))
    except ValueError:
        raise CliError(f"--features expects 'a,b', got {args.features!r}") \
            from None
    xs_a, xs_b, surface = pilib.interaction_surface(model, (a, b),
                                                    grid=args.grid)
    persist.write_surface_csv(xs_a, xs_b, surface, args.out)
    print(f"{args.grid}x{args.grid} surface written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pilid",
        description="Train and inspect hybrid piecewise-linear + deep models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a hybrid model")
    _add_file_flags(p)
    _add_train_flags(p)
    p.add_argument("--mlp-only", action="store_true",
                   help="train the plain MLP baseline (no wide component)")
    _add_pl_init_flag(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("train-pilib", help="train the gated-block variant")
    _add_file_flags(p)
    _add_train_flags(p)
    _add_pilib_flags(p)
    p.add_argument("--diagnostics-out", help="per-block active-feature CSV")
    p.set_defaults(func=_cmd_train_pilib)

    p = sub.add_parser("predict", help="predict on a feature CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="output CSV (stdout if omitted)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval", help="evaluate a model on labeled data")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--target", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("trials", help="repeated-seed synthetic experiment")
    p.add_argument("--config", required=True, help="key = value config file")
    p.add_argument("--trials", type=_ranged(int, 1), default=5)
    p.add_argument("--report", required=True, help="report CSV path")
    p.set_defaults(func=_cmd_trials)

    p = sub.add_parser("synth", help="generate synthetic data")
    _add_synth_flags(p, required=True)
    _add_seed_flag(p)
    p.add_argument("--out", required=True)
    p.add_argument("--truth-out", help="true marginal curves CSV")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("export-shapes", help="write shape CSV (and SVGs)")
    p.add_argument("--model", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=_cmd_export_shapes)

    p = sub.add_parser("export-interactions",
                       help="write a pairwise interaction surface grid")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True, help="pair 'a,b' (0-based)")
    p.add_argument("--grid", type=_ranged(int, 2), default=25)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_interactions)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (CliError, ValueError, RuntimeError) as exc:
        print(f"pilid: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:     # an output path that cannot be written
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"pilid: error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
