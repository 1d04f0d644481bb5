"""Evaluation metrics and the repeated-seed trial runner."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from pilid.dataset import CLASSIFICATION, split
from pilid.pl_component import extract_shapes
from pilid.synth import (SyntheticSpec, generate, planted_interactions,
                         shape_recovery_score)
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


def evaluate(model, rows: np.ndarray, targets: np.ndarray) -> tuple[str, float]:
    """The model's metric on labelled rows, by name: the AUC of the scores
    for classification, the MSE of the predictions for regression."""
    scores, preds = trainer.model_forward(model, rows)
    if model.task == CLASSIFICATION:
        return "auc", auc(scores, targets)
    return "mse", mse(preds, targets)


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


# Per-trial columns of the report after `value`; a cell is empty where
# the model kind has no such figure (see _run_one_trial).
DETAIL_COLUMNS = ("shape_min", "shape_mean", "planted", "active_sets",
                  "pair_coverage", "phase1_epochs", "capped")


def _cell(value) -> str:
    """One report cell: floats as repr, flags as 0/1, feature sets as
    0-based ids joined by spaces with `;` between sets."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, list):
        return ";".join(" ".join(str(j) for j in s) for s in value)
    return repr(value)


@dataclass
class TrialReport:
    values: list[float]
    mean: float
    std: float                # sample (n-1) convention; 0 for one trial
    seeds: list[int]
    details: list[dict] = field(default_factory=list)  # per trial, by column

    def to_csv(self) -> str:
        pad = "," * len(DETAIL_COLUMNS)
        lines = [",".join(("trial", "seed", "value") + DETAIL_COLUMNS)]
        for t, (s, v) in enumerate(zip(self.seeds, self.values)):
            d = self.details[t] if self.details else {}
            lines.append(",".join([str(t), str(s), repr(v)]
                                  + [_cell(d.get(c)) for c in DETAIL_COLUMNS]))
        lines.append(f"mean,,{self.mean!r}{pad}")
        lines.append(f"std,,{self.std!r}{pad}")
        return "\n".join(lines) + "\n"


def _run_one_trial(config: ExperimentConfig, seed: int) -> tuple[float, dict]:
    """The held-out metric of one trial, and its report details: the shape
    recovery of the wide component's curves against the generator's
    marginals, and for PiLiB the planted pairs and the blocks' active sets."""
    import dataclasses
    sspec = dataclasses.replace(config.synth, seed=seed)
    data, truth = generate(sspec)
    train_set, test_set = split(data, config.train_fraction, seed)
    tcfg = dataclasses.replace(config.train, seed=seed)
    details = {}
    if config.model == "pilib":
        model, diag = pilib.train_pilib(train_set, config.gammas,
                                        config.mlp_widths, config.blocks,
                                        config.max_order, config.lambda0, tcfg)
        planted = [pair for pair, _ in planted_interactions(sspec)]
        active = [[int(j) for j in s] for s in diag["active_sets"]]
        covered = [any(set(p) <= set(s) for s in active) for p in planted]
        details.update(
            planted=planted, active_sets=active,
            pair_coverage=float(np.mean(covered)) if planted else None,
            phase1_epochs=len(diag["phase1_trace"]), capped=diag["capped"])
    elif config.model in ("pilid", "mlp"):
        model, _ = trainer.train(train_set, config.gammas, config.mlp_widths,
                                 tcfg, mlp_only=config.model == "mlp",
                                 pl_init=config.pl_init)
    else:
        raise MetricsError(f"unknown model kind {config.model!r}")
    if model.pl is not None:
        scores = [shape_recovery_score(s, t) for s, t in
                  zip(extract_shapes(model.pl, model.points), truth)]
        details.update(shape_min=float(np.min(scores)),
                       shape_mean=float(np.mean(scores)))
    return evaluate(model, test_set.rows, test_set.targets)[1], details


def run_trials(config: ExperimentConfig, n_trials: int) -> TrialReport:
    """Run n_trials independent trials; trial t uses seed base_seed + t for
    generation, splitting and training, and scores the held-out fraction."""
    if n_trials < 1:
        raise MetricsError("n_trials must be >= 1")
    seeds = [config.base_seed + t for t in range(n_trials)]
    trials = [_run_one_trial(config, s) for s in seeds]
    values = [value for value, _ in trials]
    details = [d for _, d in trials]
    std = float(np.std(values, ddof=1)) if n_trials > 1 else 0.0
    return TrialReport(values=values, mean=float(np.mean(values)), std=std,
                       seeds=seeds, details=details)
