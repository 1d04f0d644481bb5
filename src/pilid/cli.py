"""Command-line entry point: train, predict, evaluate, generate and export."""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from pilid import dataset, metrics_eval, persist, pilib, synth, trainer


class CliError(RuntimeError):
    pass


def _task(flag: str) -> str:
    return dataset.REGRESSION if flag == "reg" else dataset.CLASSIFICATION


def _add_data_flags(p):
    p.add_argument("--data", required=True, help="input CSV path")
    p.add_argument("--target", required=True, help="target column name")
    p.add_argument("--task", choices=("reg", "clf"), default="reg")


def _add_train_flags(p):
    p.add_argument("--split", type=float, default=0.8,
                   help="train fraction (1.0 trains on everything)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--gammas", type=int, default=5,
                   help="sub-intervals per numerical feature")
    p.add_argument("--mlp", default="32-32-1", help="architecture, e.g. "
                   "100-200-400-400-200-100-1")
    p.add_argument("--lr", type=float, default=0.005)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch", type=int, default=256)
    p.add_argument("--lambda", dest="lam", type=float, default=1e-4)
    p.add_argument("--reg", choices=("l1", "l2", "none"), default="l2")
    p.add_argument("--sigma", type=float, default=0.05)
    p.add_argument("--ridge", type=float, default=1e-8)
    p.add_argument("--activation", choices=("relu", "tanh"), default="relu")
    p.add_argument("--out", required=True, help="model output path (.plm)")
    p.add_argument("--trace-out", help="per-epoch loss trace CSV")


def _load_training_data(args):
    data = dataset.load_csv(args.data, args.target, _task(args.task))
    if args.split >= 1.0:
        return data
    train_set, _ = dataset.split(data, args.split, args.seed)
    return train_set


def _train_config(args) -> trainer.TrainConfig:
    return trainer.TrainConfig(learning_rate=args.lr, epochs=args.epochs,
                               batch_size=args.batch, lam=args.lam,
                               reg=args.reg, sigma=args.sigma,
                               ridge=args.ridge, seed=args.seed)


def _cmd_train(args) -> int:
    train_set = _load_training_data(args)
    config = _train_config(args)
    model, trace = trainer.train(train_set, args.gammas, args.mlp, config,
                                 mlp_only=args.mlp_only,
                                 pl_init=args.pl_init,
                                 activation=args.activation)
    persist.save(model, args.out, fingerprint=repr(config))
    if args.trace_out:
        persist.write_loss_trace(trace, args.trace_out)
    print(f"model written to {args.out} (final training loss {trace[-1]:.6g})")
    return 0


def _cmd_train_pilib(args) -> int:
    train_set = _load_training_data(args)
    config = _train_config(args)
    model, diag = pilib.train_pilib(train_set, args.gammas, args.mlp,
                                    args.blocks, args.max_order, args.lambda0,
                                    config, activation=args.activation)
    persist.save(model, args.out, fingerprint=repr(config))
    if args.trace_out:
        persist.write_loss_trace(diag["phase1_trace"] + diag["phase2_trace"],
                                 args.trace_out)
    if args.diagnostics_out:
        lines = ["block,order,features"]
        for i, feats in enumerate(diag["active_sets"]):
            names = ";".join(model.feature_names[j] for j in feats)
            lines.append(f"{i},{diag['orders'][i]:.0f},{names}")
        Path(args.diagnostics_out).write_text("\n".join(lines) + "\n",
                                              encoding="utf-8")
    flag = " (phase-1 cap reached)" if diag["capped"] else ""
    print(f"model written to {args.out}; max interaction order "
          f"{diag['orders'].max():.0f}{flag}")
    return 0


def _read_feature_matrix(path, model) -> np.ndarray:
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None:
            raise CliError(f"{path}: empty file")
        header = [h.strip() for h in first]
        dataset.check_header(header, path)
        cols = []
        for name in model.feature_names:
            if name not in header:
                raise CliError(f"{path}: column {name!r} required by the "
                               "model is missing")
            cols.append(header.index(name))
        rows = []
        for r, row in enumerate(reader, start=2):
            try:
                rows.append([float(row[c]) for c in cols])
            except (ValueError, IndexError):
                raise CliError(f"{path}: bad row at line {r}") from None
    if not rows:
        raise CliError(f"{path}: no data rows")
    mat = np.asarray(rows, dtype=np.float64)
    dataset.reject_non_finite(mat, path, model.feature_names)
    return mat


def _cmd_predict(args) -> int:
    model = persist.load(args.model)
    rows = _read_feature_matrix(args.data, model)
    _, preds = trainer.model_forward(model, rows)
    lines = ["prediction"] + [repr(float(p)) for p in preds]
    out = Path(args.out) if args.out else None
    text = "\n".join(lines) + "\n"
    if out:
        out.write_text(text, encoding="utf-8")
        print(f"{len(preds)} predictions written to {out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_eval(args) -> int:
    model = persist.load(args.model)
    data = dataset.load_csv(args.data, args.target, model.task)
    scores, preds = trainer.model_forward(model, data.rows)
    if model.task == dataset.CLASSIFICATION:
        value = metrics_eval.auc(scores, data.targets)
        print(f"auc {value:.6f}")
    else:
        value = metrics_eval.mse(preds, data.targets)
        print(f"mse {value:.6f}")
    return 0


def _cmd_synth(args) -> int:
    spec = synth.SyntheticSpec(m=args.m, n=args.n, task=_task(args.task),
                               noise_std=args.noise, seed=args.seed,
                               n_interactions=args.interactions)
    data, truth = synth.generate(spec)
    header = ",".join(s.name for s in data.specs) + ",y"
    lines = [header]
    for row, y in zip(data.rows, data.targets):
        lines.append(",".join(repr(float(v)) for v in row) + f",{float(y)!r}")
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    if args.truth_out:
        tl = ["feature,point_index,x,u"]
        for s in truth:
            for k, (x, u) in enumerate(zip(s.xs, s.us)):
                tl.append(f"{s.feature},{k},{float(x)!r},{float(u)!r}")
        Path(args.truth_out).write_text("\n".join(tl) + "\n", encoding="utf-8")
    print(f"{data.n} rows written to {args.out}")
    return 0


def _parse_config_file(path) -> dict[str, str]:
    out = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}: line {ln}: expected key = value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _experiment_from_config(cfg: dict[str, str]) -> metrics_eval.ExperimentConfig:
    task = _task(cfg.get("task", "reg"))
    sspec = synth.SyntheticSpec(
        m=int(cfg.get("m", 10)), n=int(cfg.get("n", 20000)), task=task,
        noise_std=float(cfg.get("noise", 0.1)),
        n_interactions=int(cfg["interactions"]) if "interactions" in cfg else None)
    tcfg = trainer.TrainConfig(
        learning_rate=float(cfg.get("lr", 0.005)),
        epochs=int(cfg.get("epochs", 100)),
        batch_size=int(cfg.get("batch", 256)),
        lam=float(cfg.get("lambda", 1e-4)), reg=cfg.get("reg", "l2"),
        sigma=float(cfg.get("sigma", 0.05)),
        ridge=float(cfg.get("ridge", 1e-8)))
    return metrics_eval.ExperimentConfig(
        synth=sspec, gammas=int(cfg.get("gammas", 5)),
        mlp_widths=cfg.get("mlp", "32-32-1"),
        model=cfg.get("model", "pilid"),
        pl_init=cfg.get("pl_init", "least_squares"), train=tcfg,
        train_fraction=float(cfg.get("split", 0.8)),
        base_seed=int(cfg.get("seed", 1)),
        blocks=int(cfg.get("blocks", 20)),
        max_order=int(cfg.get("max_order", 3)),
        lambda0=float(cfg.get("lambda0", 0.1)))


def _cmd_trials(args) -> int:
    exp = _experiment_from_config(_parse_config_file(args.config))
    report = metrics_eval.run_trials(exp, args.trials)
    Path(args.report).write_text(report.to_csv(), encoding="utf-8")
    print(f"{args.trials} trials: mean {report.mean:.6f} "
          f"+/- {report.std:.6f} (report: {args.report})")
    return 0


def _cmd_export_shapes(args) -> int:
    model = persist.load(args.model)
    csv_path = persist.export_shapes(model, args.out_dir, svg=args.svg)
    print(f"shapes written to {csv_path}")
    return 0


def _cmd_export_interactions(args) -> int:
    model = persist.load(args.model)
    if model.gates is None:
        raise CliError("export-interactions needs a gated-block model")
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
    parser = argparse.ArgumentParser(
        prog="pilid",
        description="Train and inspect hybrid piecewise-linear + deep models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a hybrid model")
    _add_data_flags(p)
    _add_train_flags(p)
    p.add_argument("--mlp-only", action="store_true",
                   help="train the plain MLP baseline (no wide component)")
    p.add_argument("--pl-init", choices=("least_squares", "gaussian"),
                   default="least_squares")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("train-pilib", help="train the gated-block variant")
    _add_data_flags(p)
    _add_train_flags(p)
    p.add_argument("--blocks", type=int, default=20)
    p.add_argument("--max-order", type=int, default=3)
    p.add_argument("--lambda0", type=float, default=0.1)
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
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--report", required=True, help="report CSV path")
    p.set_defaults(func=_cmd_trials)

    p = sub.add_parser("synth", help="generate synthetic data")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--task", choices=("reg", "clf"), default="reg")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--interactions", type=int, default=None)
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
    p.add_argument("--grid", type=int, default=25)
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


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
