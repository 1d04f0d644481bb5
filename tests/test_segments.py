"""The segment layer of the wide component: `locate`, `segment_forward`,
`segment_backward` and the least-squares start's normal equations against
the encoded reference, and training that locates its rows once per run and
never encodes them."""

import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pilid import encoding, trainer
from pilid.dataset import Dataset, FeatureSpec
from pilid.encoding import BLOCK_ROWS, CharacteristicPoints, encode_matrix
from pilid.pilib import train_pilib
from pilid.pl_component import (
    PiecewiseLinearParams,
    init_least_squares,
    linear_forward,
    locate,
    normal_equations,
    segment_backward,
    segment_forward,
)
from pilid.trainer import TrainConfig, loss_and_grads, train

from test_prediction import random_layout, random_params, random_rows


def reference_grads(phi, dscore, params, points):
    """Gradients of sum(dscore * linear_forward(phi)) as dense products."""
    scale = params.omega[points.feature_index]
    active = (phi > 0).astype(np.float64)
    terms = np.add.reduceat(phi * params.w + active * params.b,
                            points.offsets, axis=1)
    return {"w": (phi.T @ dscore) * scale, "b": (active.T @ dscore) * scale,
            "omega": terms.T @ dscore, "w0": dscore.sum()}


def locate_reference(rows, points):
    """locate by one binary search per feature: U counts the feature's
    inner knots at or below x."""
    X = rows[:, points.varying]
    U = np.empty(X.shape, dtype=np.intp)
    for c, j in enumerate(points.varying):
        U[:, c] = np.searchsorted(points.points[j][1:-1], X[:, c],
                                  side="right")
    U += points.offsets[points.varying]
    with np.errstate(over="ignore", invalid="ignore"):
        F = np.clip((X - points.seg_start[U]) / points.seg_width[U], 0.0, 1.0)
    return U, F


def edge_layout():
    """An even grid, very uneven levels, a constant column, knots of
    subnormal spacing, and knots whose span last - first overflows to inf
    though every segment's width is finite."""
    return CharacteristicPoints(
        points=[np.linspace(-1.0, 2.0, 51),
                np.array([-1e6, -3.0, 0.0, 1e-9, 2e-9, 0.5, 7.0, 1e5]),
                np.array([3.5]),
                np.array([0.0, 1e-320, 3e-320, 4e-320]),
                np.array([-5e-324, 0.0, 5e-324]),
                np.array([-1e308, -5e307, 0.0, 5e307, 1e308])],
        constant=[False, False, True, False, False, False])


def edge_rows(rng, points, n):
    """n rows whose columns cycle, in a random order, through every knot,
    its float neighbours on both sides, and values far outside the knots,
    up to +-1e308."""
    cols = []
    for p in points.points:
        values = np.concatenate(
            (p, np.nextafter(p, -np.inf), np.nextafter(p, np.inf),
             [-1e308, 1e308, -1e300, 1e300, -1e9, 1e9, 0.0]))
        cols.append(rng.permutation(np.resize(values, n)))
    return np.column_stack(cols)


class TestLocate:
    def check(self, X, points):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            U, F = locate(X, points)
        U_ref, F_ref = locate_reference(X, points)
        assert U.dtype == U_ref.dtype and F.dtype == F_ref.dtype
        assert U.shape == F.shape == (X.shape[0], len(points.varying))
        np.testing.assert_array_equal(U, U_ref)
        assert F.tobytes() == F_ref.tobytes()

    @pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS, BLOCK_ROWS + 1])
    def test_edges_match_the_binary_search(self, n):
        rng = np.random.default_rng(n)
        points = edge_layout()
        self.check(edge_rows(rng, points, n), points)

    @pytest.mark.parametrize("points", [
        edge_layout(),
        CharacteristicPoints(points=[np.array([-np.inf, 0.0, 1.0]),
                                     np.array([0.0, 1.0, 2.0, np.inf])],
                             constant=[False, False])])
    def test_non_finite_rows_match_the_binary_search(self, points):
        # model_forward rejects non-finite rows before it locates them,
        # but curve_forward and init_least_squares hand them to locate as
        # they come, and the cap keeps the binary search's units: NaN and
        # +inf in the last unit, -inf in the first
        rng = np.random.default_rng(0)
        X = edge_rows(rng, points, BLOCK_ROWS + 1)
        for value in (np.nan, np.inf, -np.inf):
            X[rng.random(X.shape) < 0.1] = value
        self.check(X, points)

    @pytest.mark.parametrize("levels", [
        # integer codes as CSV inference reads them (at most 20 levels)
        np.array([*range(19), 1e4]),
        np.array([*range(19), 1e9]),
        # many uneven levels, as a categorical built by hand can have
        np.unique(np.round(np.random.default_rng(5).lognormal(0, 3, 3000),
                           3))])
    def test_uneven_levels_match_the_binary_search(self, levels):
        points = CharacteristicPoints(
            points=[levels, np.linspace(0.0, 1.0, 11)], constant=[False] * 2)
        rng = np.random.default_rng(len(levels))
        between = np.column_stack((
            rng.uniform(levels[0], levels[-1], BLOCK_ROWS),
            rng.uniform(0.0, 1.0, BLOCK_ROWS)))
        self.check(np.vstack((edge_rows(rng, points, 3 * len(levels) + 7),
                              between)), points)

    @given(st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_random_layouts_match_the_binary_search(self, seed):
        rng = np.random.default_rng(seed)
        points = random_layout(rng)
        self.check(random_rows(rng, points, int(rng.integers(0, 300))),
                   points)

    def test_memory_is_the_outputs_and_a_few_blocks(self):
        # beyond U and F, locate holds a fixed number of arrays of one
        # block of BLOCK_ROWS rows, whatever the number of rows
        points = edge_layout()
        rng = np.random.default_rng(4)
        X = edge_rows(rng, points, 16 * BLOCK_ROWS)
        tracemalloc.start()
        try:
            U, F = locate(X, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk = BLOCK_ROWS * len(points.varying) * 8
        assert peak <= U.nbytes + F.nbytes + 8 * chunk

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

    @given(st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_rows_of_the_whole_equal_the_rows_located_alone(self, seed):
        # training locates its rows once and hands each batch its rows of
        # the result; numerical, categorical and constant columns, rows on
        # knots and outside the knot range
        rng = np.random.default_rng(seed)
        points = random_layout(rng)
        X = random_rows(rng, points, int(rng.integers(1, 200)))
        U, F = locate(X, points)
        n = int(rng.integers(1, X.shape[0] + 1))
        idx = rng.permutation(X.shape[0])[:n]
        U_idx, F_idx = locate(X[idx], points)
        assert U_idx.dtype == U.dtype and F_idx.dtype == F.dtype
        np.testing.assert_array_equal(U[idx], U_idx)
        assert F[idx].tobytes() == F_idx.tobytes()


class TestKnotBuckets:
    """The table locate reads units from: how many bisection steps each
    block of rows takes."""

    @given(st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_even_knots_take_one_step(self, seed):
        rng = np.random.default_rng(seed)
        width = 10.0 ** rng.uniform(-6, 12)
        grids = [np.linspace(lo, lo + width, int(g) + 1) for lo, g in
                 zip(rng.normal(0, 100 * width, 3), rng.integers(1, 300, 3))]
        points = CharacteristicPoints(points=grids, constant=[False] * 3)
        assert points.buckets.steps in ((), (1,))

    @given(st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_integer_codes_take_one_step(self, seed):
        # codes spanning up to 2048 times the closest two fit the table
        rng = np.random.default_rng(seed)
        levels = np.unique(rng.integers(-1024, 1025, int(rng.integers(2, 300))))
        points = CharacteristicPoints(points=[levels.astype(float)],
                                      constant=[len(levels) == 1])
        assert points.buckets.steps in ((), (1,))

    @pytest.mark.parametrize("points", [
        edge_layout(),
        CharacteristicPoints(points=[np.array([*range(19), 1e9])],
                             constant=[False]),
        CharacteristicPoints(points=[np.array([-np.inf, 0.0, 1.0, 2.0]),
                                     np.array([0.0, 1.0, 2.0, np.inf])],
                             constant=[False, False])])
    def test_no_more_steps_than_a_binary_search(self, points):
        # where the table cannot part the knots, the steps bisect them all
        widest = max(points.gammas[points.varying])
        steps = points.buckets.steps
        assert len(steps) <= int(widest - 1).bit_length()
        assert list(steps) == [1 << k for k in reversed(range(len(steps)))]


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


def mixed_layout():
    """A numerical grid, a constant column, irregular categorical levels
    and a grid of one segment."""
    return CharacteristicPoints(
        points=[np.linspace(-1.0, 2.0, 9), np.array([3.5]),
                np.array([-4.0, -1.0, 0.0, 2.0, 7.0]), np.array([0.0, 5.0])],
        constant=[False, True, False, False])


class TestNormalEquations:
    """The least-squares start's Gram matrix and right-hand side in closed
    form from the located segments, against the products of the encoded
    rows.  The right-hand side sums targets of both signs, so it is
    compared on the scale of |Phi|.T @ |targets|."""

    def check(self, X, targets, points):
        phi = encode_matrix(X, points)
        gram, rhs = normal_equations(*locate(X, points), targets, points)
        ref = phi.T @ phi
        assert gram.shape == ref.shape and rhs.shape == (points.total,)
        assert np.max(np.abs(gram - ref)) <= 1e-13 * max(np.max(ref), 1.0)
        scale = np.max(phi.T @ np.abs(targets), initial=1.0)
        assert np.max(np.abs(rhs - phi.T @ targets)) <= 1e-13 * scale

    def test_more_rows_than_one_chunk(self):
        rng = np.random.default_rng(11)
        points = mixed_layout()
        X = random_rows(rng, points, 2 * BLOCK_ROWS + 100)
        self.check(X, rng.normal(0, 3, X.shape[0]), points)

    @given(st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_random_layouts(self, seed):
        rng = np.random.default_rng(seed)
        points = random_layout(rng)
        X = random_rows(rng, points, int(rng.integers(1, 300)))
        self.check(X, rng.normal(0, 1, X.shape[0]), points)


def wide_data(n, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.uniform(0, 1, (n, 3))
    y = np.sin(3 * rows[:, 0]) + rows[:, 1] * rows[:, 2] \
        + 0.05 * rng.normal(0, 1, n)
    specs = [FeatureSpec(name=f"x{j}", kind="numerical")
             for j in range(3)]
    return Dataset(rows=rows, targets=y, specs=specs)


@pytest.fixture()
def no_encoding(monkeypatch):
    """Make encode_matrix fail wherever the program reaches it."""
    real = encoding.encode_matrix

    def refuse(rows, points):
        raise AssertionError(f"encoded {np.shape(rows)[0]} rows")

    for name, module in list(sys.modules.items()):
        if (name == "pilid" or name.startswith("pilid.")) and \
                getattr(module, "encode_matrix", None) is real:
            monkeypatch.setattr(module, "encode_matrix", refuse)


class TestTrainingNeverEncodes:
    N = 2 * BLOCK_ROWS + 100

    def test_train(self, no_encoding):
        data = wide_data(self.N)
        model, trace = train(data, 4, [6],
                             TrainConfig(epochs=2, batch_size=512, seed=1))
        assert len(trace) == 2 and np.all(np.isfinite(trace))

    def test_train_pilib(self, no_encoding):
        data = wide_data(self.N, seed=1)
        model, diag = train_pilib(data, 4, [4], 2, 3, 0.1,
                                  TrainConfig(epochs=1, batch_size=512, seed=1))
        assert np.all(np.isfinite(diag["phase2_trace"]))

    def test_least_squares_start_memory(self):
        # beyond the located rows it is handed, the start holds a few
        # gamma x gamma arrays and one chunk of BLOCK_ROWS rows at a time,
        # whatever the number of rows
        points = CharacteristicPoints(
            points=[np.linspace(0.0, 1.0, 6)] * 6 + [np.array([2.0])],
            constant=[False] * 6 + [True])
        rng = np.random.default_rng(3)
        X = random_rows(rng, points, 16 * BLOCK_ROWS)
        y = rng.normal(0, 1, X.shape[0])
        segments = locate(X, points)
        tracemalloc.start()
        try:
            init_least_squares(X, y, 1e-8, points, segments)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk = BLOCK_ROWS * len(points.varying) * 8
        assert peak <= 8 * points.total ** 2 * 8 + 16 * chunk


@pytest.fixture()
def locate_calls(monkeypatch):
    """The row count of every call the trainer makes to locate."""
    real, calls = trainer.locate, []

    def counted(rows, points):
        calls.append(np.shape(rows)[0])
        return real(rows, points)

    monkeypatch.setattr(trainer, "locate", counted)
    return calls


class TestLocateOncePerRun:
    """The knots stay fixed for a run, so training locates its rows once:
    the least-squares start and every batch read those segments."""

    def test_train(self, locate_calls):
        data = wide_data(600)
        train(data, 4, [6], TrainConfig(epochs=3, batch_size=64, seed=1))
        assert locate_calls == [data.n]

    def test_train_pilib_shares_them_between_the_phases(self, locate_calls):
        data = wide_data(600, seed=1)
        model, diag = train_pilib(data, 4, [4], 3, 2, 0.1,
                                  TrainConfig(epochs=2, batch_size=64, seed=1))
        assert len(diag["phase1_trace"]) >= 1
        assert len(diag["phase2_trace"]) == 2
        assert locate_calls == [data.n]

    def test_mlp_only_locates_nothing(self, locate_calls):
        train(wide_data(300), 4, [6], TrainConfig(epochs=2, seed=1),
              mlp_only=True)
        assert locate_calls == []

    def test_a_batch_without_segments_locates_its_rows(self, locate_calls):
        data = wide_data(300)
        model, _ = train(data, 4, [6], TrainConfig(epochs=1, seed=1))
        del locate_calls[:]
        loss_and_grads(model, data.rows[:50], data.targets[:50],
                       TrainConfig())
        assert locate_calls == [50]
