import numpy as np
import pytest

from pilid.encoding import (
    BLOCK_ROWS,
    CharacteristicPoints,
    encode_matrix,
)
from pilid.pl_component import (
    LinearComponentError,
    PiecewiseLinearParams,
    extract_shapes,
    init_least_squares,
    linear_forward,
)


def grid_points(gammas, lo=0.0, hi=1.0):
    return CharacteristicPoints(
        points=[np.linspace(lo, hi, g + 1) for g in gammas],
        constant=[False] * len(gammas))


def random_params(points, seed=0, with_bias=True):
    rng = np.random.default_rng(seed)
    return PiecewiseLinearParams(
        w=rng.normal(0, 1, points.total),
        b=rng.normal(0, 1, points.total) if with_bias else np.zeros(points.total),
        omega=rng.normal(0.5, 0.5, points.m),
        w0=rng.normal())


def gauss_solve(A, b):
    """Plain Gaussian elimination with partial pivoting (reference solver)."""
    A = [row[:] for row in A.tolist()]
    b = list(b.tolist())
    n = len(b)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(A[r][col]))
        A[col], A[piv] = A[piv], A[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(col + 1, n):
            f = A[r][col] / A[col][col]
            for c in range(col, n):
                A[r][c] -= f * A[col][c]
            b[r] -= f * b[col]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        s = b[r] - sum(A[r][c] * x[c] for c in range(r + 1, n))
        x[r] = s / A[r][r]
    return np.array(x)


class TestLinearForward:
    def test_single_unit_hand_value(self):
        # one feature, gamma=1: w0 + omega * (w * phi + b * [phi > 0])
        pts = grid_points([1])
        params = PiecewiseLinearParams(w=[2.0], b=[0.0], omega=[1.0], w0=0.5)
        phi = encode_matrix(np.array([0.25])[None, :], pts)[0]   # phi = [0.25]
        assert linear_forward(phi, params, pts) == pytest.approx(1.0)

    def test_all_ones_encoding_sums_weights(self):
        pts = grid_points([4])
        params = PiecewiseLinearParams(w=np.ones(4), b=np.zeros(4),
                                       omega=[1.0], w0=0.0)
        assert linear_forward(np.ones(4), params, pts) == pytest.approx(4.0)

    def test_omega_zero_kills_block(self):
        pts = grid_points([3, 3])
        rng = np.random.default_rng(1)
        params = PiecewiseLinearParams(w=rng.normal(0, 1, 6),
                                       b=rng.normal(0, 1, 6),
                                       omega=[0.0, 0.0], w0=1.25)
        phi = encode_matrix(np.array([0.3, 0.8])[None, :], pts)[0]
        assert linear_forward(phi, params, pts) == pytest.approx(1.25)

    def test_bias_counts_only_when_active(self):
        pts = grid_points([2])
        params = PiecewiseLinearParams(w=np.zeros(2), b=[1.0, 1.0],
                                       omega=[1.0], w0=0.0)
        at_zero = linear_forward(
            encode_matrix(np.array([0.0])[None, :], pts)[0], params, pts)
        mid = linear_forward(
            encode_matrix(np.array([0.6])[None, :], pts)[0], params, pts)
        assert at_zero == pytest.approx(0.0)
        assert mid == pytest.approx(2.0)   # both units active

    def test_batch_matches_loop(self):
        pts = grid_points([3, 5], -1.0, 2.0)
        params = random_params(pts, seed=5)
        rows = np.random.default_rng(2).uniform(-1, 2, (15, 2))
        phi = encode_matrix(rows, pts)
        batch = linear_forward(phi, params, pts)
        for i in range(15):
            assert batch[i] == pytest.approx(
                linear_forward(phi[i], params, pts), abs=1e-12)

    def test_layout_mismatch_rejected(self):
        pts = grid_points([3])
        params = PiecewiseLinearParams(w=np.zeros(2), b=np.zeros(2),
                                       omega=[1.0], w0=0.0)
        with pytest.raises(LinearComponentError):
            linear_forward(np.zeros(3), params, pts)


class TestInitLeastSquares:
    def test_exact_fit_on_realizable_targets(self):
        # feature 0 stays above its second knot, so its first encoded
        # column is constant one and the fixed intercept can be absorbed
        pts = grid_points([4, 4])
        rng = np.random.default_rng(3)
        rows = rng.uniform(0, 1, (60, 2))
        rows[:, 0] = 0.3 + 0.7 * rows[:, 0]
        phi = encode_matrix(rows, pts)
        true_w = rng.normal(0, 1, pts.total)
        y = phi @ true_w + 0.7
        params = init_least_squares(rows, y, 1e-10, pts)
        fit = linear_forward(phi, params, pts)
        assert np.max(np.abs(fit - y)) < 1e-6

    def test_zero_targets_give_zero_weights(self):
        pts = grid_points([3])
        rows = np.random.default_rng(4).uniform(0, 1, (20, 1))
        params = init_least_squares(rows, np.zeros(20), 1e-8, pts)
        assert float(params.w0) == 0.0
        assert np.max(np.abs(params.w)) < 1e-6

    def test_returned_structure(self):
        pts = grid_points([2, 3])
        rows = np.random.default_rng(5).uniform(0, 1, (30, 2))
        y = np.random.default_rng(6).normal(0, 1, 30)
        params = init_least_squares(rows, y, 1e-8, pts)
        assert np.all(params.b == 0)
        assert np.all(params.omega == 1)
        assert float(params.w0) == pytest.approx(y.mean())

    def test_matches_reference_elimination_solver(self):
        # independent check of the normal-equation solve
        rng = np.random.default_rng(7)
        pts = grid_points([3, 3])
        for trial in range(5):
            rows = rng.uniform(-0.2, 1.2, (50, 2))   # some outside [0, 1]
            phi = encode_matrix(rows, pts)
            y = rng.normal(0, 1, 50)
            ridge = 1e-6
            params = init_least_squares(rows, y, ridge, pts)
            A = phi.T @ phi + ridge * np.eye(6)
            ref = gauss_solve(A, phi.T @ (y - y.mean()))
            np.testing.assert_allclose(params.w, ref, rtol=1e-8, atol=1e-10)

    def test_blocks_sum_to_the_whole_encoding(self):
        # more rows than one block: the blocked normal equations must equal
        # those of the whole encoded matrix
        pts = grid_points([4, 6])
        rng = np.random.default_rng(9)
        rows = rng.uniform(-0.2, 1.2, (2 * BLOCK_ROWS + 100, 2))
        y = rng.normal(0, 1, len(rows))
        phi = encode_matrix(rows, pts)
        ref = np.linalg.solve(phi.T @ phi + 1e-6 * np.eye(pts.total),
                              phi.T @ (y - y.mean()))
        params = init_least_squares(rows, y, 1e-6, pts)
        np.testing.assert_allclose(params.w, ref, rtol=1e-8, atol=1e-10)

    def test_singular_without_ridge_raises_helpful_error(self):
        pts = grid_points([4])
        rows = np.full((10, 1), 0.25)   # every row encodes to [1, 0, 0, 0]
        np.testing.assert_array_equal(encode_matrix(rows, pts),
                                      np.tile([1.0, 0.0, 0.0, 0.0], (10, 1)))
        with pytest.raises(LinearComponentError, match="ridge"):
            init_least_squares(rows, np.arange(10.0), 0.0, pts)

    def test_negative_ridge_rejected(self):
        pts = grid_points([2])
        with pytest.raises(LinearComponentError):
            init_least_squares(np.zeros((5, 1)), np.zeros(5), -1.0, pts)

    def test_wide_encoding_ok_with_ridge(self):
        pts = grid_points([10])
        rng = np.random.default_rng(8)
        rows = rng.uniform(0, 1, (4, 1))  # gamma > N
        params = init_least_squares(rows, rng.normal(0, 1, 4), 1e-8, pts)
        assert np.all(np.isfinite(params.w))


class TestExtractShapes:
    def test_unit_weights_give_staircase(self):
        pts = grid_points([5])
        params = PiecewiseLinearParams(w=np.ones(5), b=np.zeros(5),
                                       omega=[1.0], w0=0.0)
        (shape,) = extract_shapes(params, pts)
        np.testing.assert_allclose(shape.us, [0, 1, 2, 3, 4, 5])
        np.testing.assert_allclose(shape.xs, np.linspace(0, 1, 6))

    def test_zero_weights_flat(self):
        pts = grid_points([4])
        params = PiecewiseLinearParams(w=np.zeros(4), b=np.zeros(4),
                                       omega=[3.0], w0=2.0)
        (shape,) = extract_shapes(params, pts)
        assert np.all(shape.us == 0.0)

    def test_increment_matches_model_output_difference(self):
        # moving x from knot k to knot k+1 changes the model output by
        # exactly the shape increment (all other features fixed)
        pts = grid_points([4, 3])
        params = random_params(pts, seed=11)
        shapes = extract_shapes(params, pts)
        other = np.array([0.0, 0.37])
        for j in range(2):
            knots = pts.points[j]
            for k in range(len(knots) - 1):
                lo, hi = other.copy(), other.copy()
                lo[j], hi[j] = knots[k], knots[k + 1]
                diff = (linear_forward(encode_matrix(hi[None, :], pts)[0],
                                       params, pts)
                        - linear_forward(encode_matrix(lo[None, :], pts)[0],
                                         params, pts))
                expect = shapes[j].us[k + 1] - shapes[j].us[k]
                assert diff == pytest.approx(expect, abs=1e-10)

    def test_sum_of_shapes_recovers_model_at_knots(self):
        # with zero per-unit biases the model at any knot combination is
        # w0 plus the sum of shape values
        pts = grid_points([3, 4])
        params = random_params(pts, seed=12, with_bias=False)
        shapes = extract_shapes(params, pts)
        for ka in range(4):
            for kb in range(5):
                x = np.array([pts.points[0][ka], pts.points[1][kb]])
                val = linear_forward(encode_matrix(x[None, :], pts)[0],
                                     params, pts)
                expect = float(params.w0) + shapes[0].us[ka] + shapes[1].us[kb]
                assert val == pytest.approx(expect, abs=1e-10)

    def test_constant_feature_flat_shape(self):
        pts = CharacteristicPoints(points=[np.array([5.0]), np.linspace(0, 1, 3)],
                                   constant=[True, False])
        params = PiecewiseLinearParams(w=np.ones(3), b=np.zeros(3),
                                       omega=[1.0, 1.0], w0=0.0)
        shapes = extract_shapes(params, pts)
        assert shapes[0].us.tolist() == [0.0]
        assert len(shapes[1].us) == 3
