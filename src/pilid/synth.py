"""Synthetic data generator: random degree-10 polynomial marginals on
[0, 1], optional planted pairwise interactions, Gaussian noise, and
either standardized regression targets or Bernoulli-sampled labels."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from pilid.dataset import Dataset, FeatureSpec, REGRESSION, CLASSIFICATION
from pilid.pl_component import FeatureShape

POLY_DEGREE = 10
TRUTH_GRID = 101
# Multiplier on the centered utility before the label sigmoid.  With
# unit-range marginals the raw utility is too flat for labels to be
# learnable (optimal AUC ~0.70 at m=10); 2.5 brings the attainable AUC
# into the 0.85-0.90 band.
LOGIT_SCALE = 2.5


class SynthError(ValueError):
    pass


@dataclass
class SyntheticSpec:
    m: int
    n: int
    task: str = REGRESSION
    noise_std: float = 0.1
    seed: int = 0
    poly_coeffs: np.ndarray | None = None       # (m, 11), low degree first
    interactions: list[tuple[tuple[int, int], float]] | None = None
    n_interactions: int | None = None           # default floor(m / 5)

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise SynthError("need m >= 1 and n >= 1")
        if self.noise_std < 0:
            raise SynthError("noise_std must be >= 0")
        if self.poly_coeffs is not None:
            self.poly_coeffs = np.asarray(self.poly_coeffs, dtype=np.float64)
            if self.poly_coeffs.shape != (self.m, POLY_DEGREE + 1):
                raise SynthError(
                    f"poly_coeffs must be (m, {POLY_DEGREE + 1})")
        if self.interactions is None and self.n_interactions is not None:
            most = self.m * (self.m - 1) // 2
            if not 0 <= self.n_interactions <= most:
                raise SynthError(
                    f"cannot plant {self.n_interactions} interactions among "
                    f"m={self.m} features (0 to {most})")


def _normalize_poly(coeffs: np.ndarray):
    """Center a polynomial to mean 0 over [0, 1] and scale it to unit range.

    Returns (shifted coefficients, scale); constant polynomials map to the
    zero function.
    """
    mean = sum(c / (k + 1) for k, c in enumerate(coeffs))
    centered = coeffs.copy()
    centered[0] -= mean
    grid = np.linspace(0.0, 1.0, 1001)
    vals = np.polynomial.polynomial.polyval(grid, centered)
    rng_ = vals.max() - vals.min()
    if rng_ == 0.0:
        return np.zeros_like(centered), 1.0
    return centered / rng_, rng_


def _marginal(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.polynomial.polynomial.polyval(x, coeffs)


def _draw_model(spec: SyntheticSpec, rng: np.random.Generator):
    """The normalized marginal coefficients and the planted interactions
    [((a, b), c), ...] of `spec`, drawn from `rng` before the rows are."""
    if spec.poly_coeffs is None:
        raw = rng.uniform(-1.0, 1.0, (spec.m, POLY_DEGREE + 1))
    else:
        raw = spec.poly_coeffs
    coeffs = np.stack([_normalize_poly(raw[j])[0] for j in range(spec.m)])

    if spec.interactions is None:
        k = spec.n_interactions if spec.n_interactions is not None \
            else spec.m // 5
        pairs = list(combinations(range(spec.m), 2))
        chosen = rng.choice(len(pairs), size=k, replace=False) if k else []
        interactions = [(pairs[int(i)], float(rng.uniform(-1.0, 1.0)))
                        for i in chosen]
    else:
        interactions = [((int(a), int(b)), float(c))
                        for (a, b), c in spec.interactions]
        for (a, b), _ in interactions:
            if not (0 <= a < spec.m and 0 <= b < spec.m and a != b):
                raise SynthError(f"invalid interaction pair ({a}, {b})")
    return coeffs, interactions


def planted_interactions(
        spec: SyntheticSpec) -> list[tuple[tuple[int, int], float]]:
    """The interactions [((a, b), c), ...] that `generate(spec)` plants:
    one term c * x_a * x_b each, a and b 0-based feature indices."""
    return _draw_model(spec, np.random.default_rng(spec.seed))[1]


def generate(spec: SyntheticSpec) -> tuple[Dataset, list[FeatureShape]]:
    """Generate a Dataset plus the true marginal curves (101 points each).

    Coefficients are uniform in [-1, 1]; each marginal is centered to mean
    zero over [0, 1] and scaled to unit range; features are iid uniform;
    interactions add c * x_a * x_b terms (see planted_interactions).
    Regression targets are the standardized utility; classification labels
    are Bernoulli draws on the sigmoid of the (scaled) centered utility.
    """
    rng = np.random.default_rng(spec.seed)
    coeffs, interactions = _draw_model(spec, rng)

    X = rng.uniform(0.0, 1.0, (spec.n, spec.m))
    utility = np.zeros(spec.n)
    for j in range(spec.m):
        utility += _marginal(coeffs[j], X[:, j])
    for (a, b), c in interactions:
        utility += c * X[:, a] * X[:, b]
    if spec.noise_std > 0:
        utility += rng.normal(0.0, spec.noise_std, spec.n)

    if spec.task == REGRESSION:
        std = utility.std()
        targets = (utility - utility.mean()) / (std if std > 0 else 1.0)
        task = REGRESSION
    elif spec.task == CLASSIFICATION:
        p = 1.0 / (1.0 + np.exp(-LOGIT_SCALE * (utility - utility.mean())))
        targets = rng.binomial(1, p).astype(np.float64)
        task = CLASSIFICATION
    else:
        raise SynthError(f"unknown task {spec.task!r}")

    specs = [FeatureSpec(name=f"x{j + 1}", kind="numerical")
             for j in range(spec.m)]
    data = Dataset(rows=X, targets=targets, specs=specs, task=task)
    grid = np.linspace(0.0, 1.0, TRUTH_GRID)
    truth = [FeatureShape(j, f"x{j + 1}", grid.copy(),
                          _marginal(coeffs[j], grid))
             for j in range(spec.m)]
    return data, truth


def shape_recovery_score(learned: FeatureShape, truth: FeatureShape) -> float:
    """Pearson correlation of learned vs. true curve at the learned knots,
    after anchoring both at their first point.  Constant curves score 0."""
    xs = learned.xs
    t = np.interp(np.clip(xs, truth.xs[0], truth.xs[-1]), truth.xs, truth.us)
    a = learned.us - learned.us[0]
    b = t - t[0]
    if np.std(a) == 0.0 or np.std(b) == 0.0:
        warnings.warn(f"feature {learned.feature}: degenerate (constant) "
                      "curve, recovery score reported as 0")
        return 0.0
    return float(np.corrcoef(a, b)[0, 1])
