#!/usr/bin/env python3
"""Repeated-trial comparison of the hybrid model against a plain MLP
baseline on held-out synthetic regression data.

Prints one row per model kind with the mean and sample standard
deviation of the held-out MSE over the requested trials.
"""

import argparse
import dataclasses

from pilid import ExperimentConfig, SyntheticSpec, TrainConfig, run_trials


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, default=10)
    ap.add_argument("--n", type=int, default=20_000)
    ap.add_argument("--gammas", type=int, default=5)
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--mlp", default="32-32",
                    help="hidden widths, dash-separated")
    ap.add_argument("--trials", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    base = ExperimentConfig(
        synth=SyntheticSpec(m=args.m, n=args.n, seed=0),
        gammas=args.gammas, mlp_widths=args.mlp,
        train=TrainConfig(epochs=args.epochs, batch_size=256),
        base_seed=args.seed)

    print(f"{'model':>8}  {'mean MSE':>10}  {'std':>8}")
    for kind in ("pilid", "mlp"):
        report = run_trials(dataclasses.replace(base, model=kind),
                            args.trials)
        print(f"{kind:>8}  {report.mean:10.4f}  {report.std:8.4f}")


if __name__ == "__main__":
    main()
