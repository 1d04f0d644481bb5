"""Seeded input generator of the benchmark, independent of `pilid.synth`.

Ten features drawn uniform on [0, 1].  Feature j contributes a smooth
marginal f_j(x_j) known here, two planted pairs add products of centred
features, and Gaussian noise of standard deviation NOISE_STD is added.
The pair terms have zero mean along each axis, so the additive part of
the target is exactly the sum of the marginals: that is the truth the
exported shape curves are scored against.
"""

from __future__ import annotations

import numpy as np

M = 10
NOISE_STD = 0.1
PAIRS = ((0, 1), (2, 3))
PAIR_SCALE = 6.0
FEATURE_NAMES = [f"x{j}" for j in range(M)]

_MARGINALS = (
    lambda x: 1.6 * x,
    lambda x: 1.2 * np.sin(np.pi * x),
    lambda x: 4.0 * (x - 0.5) ** 2,
    lambda x: 0.7 * np.cos(2.0 * np.pi * x),
    lambda x: np.exp(1.5 * x) / 2.0,
    lambda x: -1.4 * x,
    lambda x: 1.5 * np.sqrt(x + 0.05),
    lambda x: 0.8 * np.tanh(6.0 * (x - 0.5)),
    lambda x: 2.0 * x ** 3,
    lambda x: -1.0 * np.sin(1.5 * np.pi * x),
)


def marginal(j: int, x: np.ndarray) -> np.ndarray:
    """True marginal f_j evaluated at the values x of feature j."""
    return _MARGINALS[j](np.asarray(x, dtype=np.float64))


def target_mean(X: np.ndarray) -> np.ndarray:
    """Noise-free target: sum of marginals plus the planted pairs."""
    out = np.zeros(X.shape[0])
    for j in range(M):
        out += marginal(j, X[:, j])
    for a, b in PAIRS:
        out += PAIR_SCALE * (X[:, a] - 0.5) * (X[:, b] - 0.5)
    return out


def draw(n: int, seed: int, stream: int) -> tuple[np.ndarray, np.ndarray]:
    """n rows of (features, noisy target).  `stream` separates the training
    draw (0) from the scoring draw (1) of one seed."""
    rng = np.random.default_rng([seed, stream])
    X = rng.uniform(0.0, 1.0, size=(n, M))
    y = target_mean(X) + rng.normal(0.0, NOISE_STD, size=n)
    return X, y


def write_csv(path, X: np.ndarray, y: np.ndarray | None) -> None:
    """Header row of feature names (and `y`), then one row per sample, each
    real written with enough digits to read back bit-exactly."""
    cols = FEATURE_NAMES + (["y"] if y is not None else [])
    mat = X if y is None else np.column_stack([X, y])
    np.savetxt(path, mat, fmt="%.17g", delimiter=",",
               header=",".join(cols), comments="")
