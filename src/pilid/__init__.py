"""Hybrid piecewise-linear + deep tabular models (PiLiD / PiLiB).

One model class, `PilidModel`, adds a piecewise-linear "wide" component,
whose learned weights read out directly as per-feature shape curves, to
gated blocks of small networks that soak up feature interactions.  PiLiD
is its one-block case with an all-ones gate, a plain jointly trained MLP;
the PiLiB variant trains several blocks whose gates reveal which
features interact.
"""

from pilid.dataset import Dataset, FeatureSpec, load_csv, split, batches
from pilid.encoding import CharacteristicPoints, build_points, encode, encode_matrix
from pilid.pl_component import (
    PiecewiseLinearParams,
    FeatureShape,
    linear_forward,
    curve_forward,
    init_least_squares,
    extract_shapes,
)
from pilid.mlp_component import (
    MlpParams,
    mlp_forward,
    mlp_predict,
    mlp_backward,
    init_gaussian,
)
from pilid.trainer import PilibGates, PilidModel, TrainConfig, model_forward, train
from pilid.pilib import train_pilib
from pilid.synth import SyntheticSpec, generate, shape_recovery_score
from pilid.metrics_eval import mse, auc, run_trials, TrialReport, ExperimentConfig
from pilid.persist import save, load, export_shapes

__all__ = [
    "Dataset", "FeatureSpec", "load_csv", "split", "batches",
    "CharacteristicPoints", "build_points", "encode", "encode_matrix",
    "PiecewiseLinearParams", "FeatureShape", "linear_forward",
    "curve_forward", "init_least_squares", "extract_shapes",
    "MlpParams", "mlp_forward", "mlp_predict", "mlp_backward",
    "init_gaussian",
    "PilidModel", "TrainConfig", "model_forward", "train",
    "PilibGates", "train_pilib",
    "SyntheticSpec", "generate", "shape_recovery_score",
    "mse", "auc", "run_trials", "TrialReport", "ExperimentConfig",
    "save", "load", "export_shapes",
]
