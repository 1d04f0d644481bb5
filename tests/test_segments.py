"""The segment layer of the wide component: `locate`, `segment_forward` and
`segment_backward` against the encoded reference, and training that never
encodes more than one block of rows."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pilid import encoding
from pilid.dataset import Dataset, FeatureSpec
from pilid.encoding import BLOCK_ROWS, CharacteristicPoints, encode_matrix
from pilid.pilib import train_pilib
from pilid.pl_component import (
    PiecewiseLinearParams,
    linear_forward,
    locate,
    segment_backward,
    segment_forward,
)
from pilid.trainer import TrainConfig, train

from test_prediction import random_layout, random_params, random_rows


def reference_grads(phi, dscore, params, points):
    """Gradients of sum(dscore * linear_forward(phi)) as dense products."""
    scale = params.omega[points.feature_index]
    active = (phi > 0).astype(np.float64)
    terms = np.add.reduceat(phi * params.w + active * params.b,
                            points.offsets, axis=1)
    return {"w": (phi.T @ dscore) * scale, "b": (active.T @ dscore) * scale,
            "omega": terms.T @ dscore, "w0": dscore.sum()}


class TestLocate:
    def test_hand_checked_segments(self):
        points = CharacteristicPoints(
            points=[np.array([7.0]), np.array([0.0, 1.0, 2.0, 4.0])],
            constant=[True, False])
        x = np.array([-1.0, 0.0, 0.5, 1.0, 3.0, 4.0, 9.0])
        rows = np.column_stack([np.full(len(x), 3.0), x])
        U, F = locate(rows, points)
        # unit 0 is the constant feature's; the varying one starts at 1
        np.testing.assert_array_equal(U[:, 0], [1, 1, 1, 2, 3, 3, 3])
        np.testing.assert_array_equal(F[:, 0], [0, 0, 0.5, 0, 0.5, 1, 1])

    @given(st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_encoding_is_ones_fraction_zeros(self, seed):
        rng = np.random.default_rng(seed)
        points = random_layout(rng)
        X = random_rows(rng, points, int(rng.integers(1, 40)))
        U, F = locate(X, points)
        phi = np.zeros((X.shape[0], points.total))
        for c, j in enumerate(points.varying):
            first = points.offsets[j]
            for n in range(X.shape[0]):
                phi[n, first:U[n, c]] = 1.0
                phi[n, U[n, c]] = F[n, c]
        np.testing.assert_array_equal(phi, encode_matrix(X, points))


class TestSegmentForwardBackward:
    @given(st.integers(0, 100_000))
    @settings(max_examples=200, deadline=None)
    def test_matches_encoded_reference(self, seed):
        rng = np.random.default_rng(seed)
        points = random_layout(rng)
        params = random_params(rng, points)
        X = random_rows(rng, points, int(rng.integers(1, 60)))
        dscore = rng.normal(0, 1, X.shape[0])
        phi = encode_matrix(X, points)
        U, F = locate(X, points)
        score, T = segment_forward(U, F, params, points)
        grads = segment_backward(U, F, T, dscore, params, points)
        ref = reference_grads(phi, dscore, params, points)

        block = np.add.reduceat(np.abs(params.w) + np.abs(params.b),
                                points.offsets)
        d_sum = np.abs(dscore).sum()
        scale = {"w": d_sum * np.abs(params.omega).max(),
                 "b": d_sum * np.abs(params.omega).max(),
                 "omega": d_sum * block.max(), "w0": d_sum}
        fwd = abs(float(params.w0)) + float(np.abs(params.omega) @ block)
        assert np.max(np.abs(score - linear_forward(phi, params, points))) \
            <= 1e-12 * fwd
        for key, tol in scale.items():
            assert grads[key].shape == np.shape(ref[key]), key
            assert np.max(np.abs(grads[key] - ref[key])) <= 1e-12 * tol, key

    def test_all_constant_layout(self):
        points = CharacteristicPoints(points=[np.array([1.0])] * 2,
                                      constant=[True, True])
        params = PiecewiseLinearParams(w=[2.0, 3.0], b=[1.0, 1.0],
                                       omega=[1.0, 1.0], w0=0.25)
        U, F = locate(np.ones((3, 2)), points)
        score, T = segment_forward(U, F, params, points)
        np.testing.assert_array_equal(score, [0.25] * 3)
        grads = segment_backward(U, F, T, np.ones(3), params, points)
        for key in ("w", "b", "omega"):
            np.testing.assert_array_equal(grads[key], 0.0)
        assert grads["w0"] == 3.0


def wide_data(n, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.uniform(0, 1, (n, 3))
    y = np.sin(3 * rows[:, 0]) + rows[:, 1] * rows[:, 2] \
        + 0.05 * rng.normal(0, 1, n)
    specs = [FeatureSpec(name=f"x{j}", kind="numerical",
                         alpha=rows[:, j].min(), beta=rows[:, j].max())
             for j in range(3)]
    return Dataset(rows=rows, targets=y, specs=specs)


@pytest.fixture()
def block_guard(monkeypatch):
    """Make encode_matrix fail on more than BLOCK_ROWS rows, wherever the
    program reaches it."""
    real = encoding.encode_matrix
    encoded = []

    def guarded(rows, points):
        assert np.shape(rows)[0] <= BLOCK_ROWS, \
            f"encoded {np.shape(rows)[0]} rows at once"
        encoded.append(np.shape(rows)[0])
        return real(rows, points)

    for name, module in list(sys.modules.items()):
        if (name == "pilid" or name.startswith("pilid.")) and \
                getattr(module, "encode_matrix", None) is real:
            monkeypatch.setattr(module, "encode_matrix", guarded)
    return encoded


class TestTrainingEncodesOneBlockAtATime:
    N = 2 * BLOCK_ROWS + 100

    def test_train(self, block_guard):
        data = wide_data(self.N)
        model, trace = train(data, 4, [6],
                             TrainConfig(epochs=2, batch_size=512, seed=1))
        assert len(trace) == 2 and np.all(np.isfinite(trace))
        assert block_guard == [BLOCK_ROWS, BLOCK_ROWS, 100]   # the init only

    def test_train_pilib(self, block_guard):
        data = wide_data(self.N, seed=1)
        model, diag = train_pilib(data, 4, [4], 2, 3, 0.1,
                                  TrainConfig(epochs=1, batch_size=512, seed=1))
        assert np.all(np.isfinite(diag["phase2_trace"]))
        assert block_guard == [BLOCK_ROWS, BLOCK_ROWS, 100]
