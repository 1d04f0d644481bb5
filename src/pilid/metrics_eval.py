"""Evaluation metrics and the repeated-seed trial runner."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from pilid.dataset import Dataset, REGRESSION, CLASSIFICATION, split
from pilid.synth import SyntheticSpec, generate
from pilid import trainer, pilib


class MetricsError(ValueError):
    pass


def mse(pred: np.ndarray, truth: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise MetricsError(f"length mismatch: {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise MetricsError("empty input")
    return float(np.mean((pred - truth) ** 2))


def _tie_averaged_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; each run of tied values shares the mean of its ranks."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    # a run at sorted positions starts..ends-1 holds ranks starts+1..ends
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney rank AUC; ties contribute one half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape:
        raise MetricsError("scores and labels must have equal length")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise MetricsError("AUC needs both classes present")
    if np.isnan(scores).any():
        return float("nan")
    ranks = _tie_averaged_ranks(scores)
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2)
                 / (n_pos * n_neg))


@dataclass
class ExperimentConfig:
    """One repeatable synthetic experiment: generator + split + training."""

    synth: SyntheticSpec
    gammas: int | list = 5
    mlp_widths: list[int] | str = field(default_factory=lambda: [32, 32])
    model: str = "pilid"            # "pilid" | "mlp" | "pilib"
    pl_init: str = "least_squares"
    train: trainer.TrainConfig = field(default_factory=trainer.TrainConfig)
    train_fraction: float = 0.8
    base_seed: int = 0
    # pilib only
    blocks: int = 20
    max_order: int = 3
    lambda0: float = 0.1

    def fingerprint(self) -> str:
        return hashlib.sha256(repr(self).encode()).hexdigest()[:16]


@dataclass
class TrialReport:
    values: list[float]
    mean: float
    std: float                # sample (n-1) convention; 0 for one trial
    seeds: list[int]
    fingerprint: str
    degenerate_std: bool = False

    def to_csv(self) -> str:
        lines = ["trial,seed,value"]
        for t, (s, v) in enumerate(zip(self.seeds, self.values)):
            lines.append(f"{t},{s},{v!r}")
        lines.append(f"mean,,{self.mean!r}")
        lines.append(f"std,,{self.std!r}")
        return "\n".join(lines) + "\n"


def _run_one_trial(config: ExperimentConfig, seed: int) -> float:
    import dataclasses
    sspec = dataclasses.replace(config.synth, seed=seed)
    data, _ = generate(sspec)
    train_set, test_set = split(data, config.train_fraction, seed)
    tcfg = dataclasses.replace(config.train, seed=seed)
    if config.model == "pilib":
        model, _ = pilib.train_pilib(train_set, config.gammas,
                                     config.mlp_widths, config.blocks,
                                     config.max_order, config.lambda0, tcfg)
    elif config.model in ("pilid", "mlp"):
        model, _ = trainer.train(train_set, config.gammas, config.mlp_widths,
                                 tcfg, mlp_only=config.model == "mlp",
                                 pl_init=config.pl_init)
    else:
        raise MetricsError(f"unknown model kind {config.model!r}")
    scores, preds = trainer.model_forward(model, test_set.rows)
    if test_set.task == CLASSIFICATION:
        return auc(scores, test_set.targets)
    return mse(preds, test_set.targets)


def run_trials(config: ExperimentConfig, n_trials: int) -> TrialReport:
    """Run n_trials independent trials; trial t uses seed base_seed + t for
    generation, splitting and training, and scores the held-out fraction."""
    if n_trials < 1:
        raise MetricsError("n_trials must be >= 1")
    seeds = [config.base_seed + t for t in range(n_trials)]
    values = [_run_one_trial(config, s) for s in seeds]
    mean = float(np.mean(values))
    if n_trials == 1:
        return TrialReport(values=values, mean=mean, std=0.0, seeds=seeds,
                           fingerprint=config.fingerprint(),
                           degenerate_std=True)
    return TrialReport(values=values, mean=mean,
                       std=float(np.std(values, ddof=1)), seeds=seeds,
                       fingerprint=config.fingerprint())
