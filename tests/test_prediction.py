"""The prediction path: shape curves for the wide component, the cache-free
network output, and fixed-size row blocks, checked against the encoded
reference path."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pilid.cli import main
from pilid.dataset import Dataset, FeatureSpec
from pilid.encoding import (
    BLOCK_ROWS,
    CharacteristicPoints,
    EncodingError,
    build_points,
    encode,
    encode_matrix,
)
from pilid.mlp_component import MlpError, init_gaussian, mlp_forward, mlp_predict
from pilid.persist import save
from pilid.pl_component import (
    PiecewiseLinearParams,
    curve_forward,
    extract_shapes,
    init_least_squares,
    linear_forward,
)
from pilid.trainer import (
    PilibGates,
    PilidModel,
    TrainConfig,
    loss_and_grads,
    model_forward,
    train,
)


def random_layout(rng):
    """Knots of 1-5 features: constant (one knot), categorical levels
    (irregular spacing) or an even grid."""
    points, constant = [], []
    for _ in range(int(rng.integers(1, 6))):
        kind = rng.integers(3)
        if kind == 0:
            points.append(np.array([rng.normal(0, 3)]))
        elif kind == 1:
            levels = np.unique(rng.integers(-6, 7, int(rng.integers(2, 9))))
            if len(levels) < 2:
                levels = np.array([levels[0], levels[0] + 2])
            points.append(levels.astype(np.float64))
        else:
            lo = rng.normal(0, 3)
            points.append(np.linspace(lo, lo + rng.uniform(0.01, 6),
                                      int(rng.integers(2, 13))))
        constant.append(kind == 0)
    return CharacteristicPoints(points=points, constant=constant)


def random_rows(rng, points, n):
    """Rows inside and outside [first knot, last knot], a third of them
    exactly on a knot."""
    cols = []
    for p in points.points:
        span = max(p[-1] - p[0], 1.0)
        col = rng.uniform(p[0] - span / 2, p[-1] + span / 2, n)
        on_knot = rng.random(n) < 1 / 3
        col[on_knot] = rng.choice(p, int(on_knot.sum()))
        cols.append(col)
    return np.column_stack(cols)


def random_params(rng, points):
    return PiecewiseLinearParams(
        w=rng.normal(0, 1, points.total), b=rng.normal(0, 1, points.total),
        omega=rng.normal(0.5, 1.0, points.m), w0=rng.normal())


def magnitude(params, points):
    """An upper bound on |w0| plus every feature's term, the scale of the
    relative tolerances below."""
    per_feature = np.add.reduceat(np.abs(params.w) + np.abs(params.b),
                                  points.offsets)
    return abs(float(params.w0)) + float(np.abs(params.omega) @ per_feature)


class TestCurveForward:
    @given(st.integers(0, 100_000))
    @settings(max_examples=200, deadline=None)
    def test_matches_encoded_path(self, seed):
        rng = np.random.default_rng(seed)
        points = random_layout(rng)
        params = random_params(rng, points)
        X = random_rows(rng, points, int(rng.integers(1, 60)))
        ref = linear_forward(encode_matrix(X, points), params, points)
        got = curve_forward(X, params, points)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * magnitude(params, points)

    def test_single_vector_returns_float(self):
        rng = np.random.default_rng(4)
        points = random_layout(rng)
        params = random_params(rng, points)
        x = random_rows(rng, points, 1)[0]
        got = curve_forward(x, params, points)
        assert isinstance(got, float)
        assert got == pytest.approx(
            linear_forward(encode(x, points), params, points),
            abs=1e-12 * magnitude(params, points))

    def test_constant_feature_adds_nothing(self):
        points = CharacteristicPoints(points=[np.array([2.0]),
                                              np.array([0.0, 1.0])],
                                      constant=[True, False])
        params = PiecewiseLinearParams(w=[5.0, 3.0], b=[7.0, 0.0],
                                       omega=[9.0, 1.0], w0=0.5)
        X = np.array([[-100.0, 0.5], [2.0, 0.5], [100.0, 0.5]])
        np.testing.assert_array_equal(curve_forward(X, params, points),
                                      [2.0, 2.0, 2.0])

    def test_wrong_feature_count(self):
        points = CharacteristicPoints(points=[np.array([0.0, 1.0])] * 2,
                                      constant=[False, False])
        params = PiecewiseLinearParams(w=[1.0, 1.0], b=[0.0, 0.0],
                                       omega=[1.0, 1.0], w0=0.0)
        with pytest.raises(EncodingError, match="expected 2 features, got 3"):
            curve_forward(np.zeros((4, 3)), params, points)


class TestMlpPredict:
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_output_of_mlp_forward_bit_for_bit(self, activation):
        params = init_gaussian([5, 12, 7], 0.7, 3)
        params.activation = activation
        X = np.random.default_rng(0).normal(0, 1, (40, 5))
        np.testing.assert_array_equal(mlp_predict(X, params),
                                      mlp_forward(X, params)[0])
        assert mlp_predict(X[3], params) == mlp_forward(X[3], params)[0]

    def test_input_checks(self):
        params = init_gaussian([3, 4], 0.5, 0)
        with pytest.raises(MlpError, match="non-finite input"):
            mlp_predict(np.array([[0.0, np.inf, 1.0]]), params)
        with pytest.raises(MlpError, match="input width 2 != 3"):
            mlp_predict(np.zeros((2, 2)), params)


def layout_data(n=300, seed=0):
    """A numerical, a categorical (irregular levels) and a constant
    feature."""
    rng = np.random.default_rng(seed)
    levels = (0.0, 1.0, 3.0, 7.0)
    rows = np.column_stack([rng.uniform(-1, 2, n), rng.choice(levels, n),
                            np.full(n, 4.0)])
    y = np.sin(2 * rows[:, 0]) + 0.3 * rows[:, 1] + 0.05 * rng.normal(0, 1, n)
    specs = [FeatureSpec("num", "numerical", alpha=rows[:, 0].min(),
                         beta=rows[:, 0].max()),
             FeatureSpec("cat", "categorical", levels=levels),
             FeatureSpec("const", "numerical", alpha=4.0, beta=4.0)]
    return Dataset(rows=rows, targets=y, specs=specs)


@pytest.fixture(scope="module")
def trained():
    data = layout_data()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # the constant feature warns
        model, _ = train(data, 5, [8, 8],
                         TrainConfig(epochs=3, batch_size=64, seed=2))
    return model, data


def wide_magnitude(model):
    return magnitude(model.pl, model.points)


def block_rows(model, seed=1):
    """BLOCK_ROWS + 1 rows: one full block and one single row."""
    rng = np.random.default_rng(seed)
    return random_rows(rng, model.points, BLOCK_ROWS + 1)


class TestModelForward:
    def test_trained_model_learned_biases_and_scales(self, trained):
        model, _ = trained
        assert np.any(model.pl.b != 0.0) and np.any(model.pl.omega != 1.0)

    def test_blocks_agree_with_encoded_path(self, trained):
        model, _ = trained
        X = block_rows(model)
        ref = linear_forward(encode_matrix(X, model.points), model.pl,
                             model.points) + mlp_forward(X, model.mlp)[0]
        score, pred = model_forward(model, X)
        assert score.shape == (BLOCK_ROWS + 1,)
        np.testing.assert_array_equal(score, pred)
        tol = 1e-12 * (wide_magnitude(model) + np.max(np.abs(ref)))
        assert np.max(np.abs(score - ref)) <= tol

    def test_classification_blocks(self, trained):
        model, _ = trained
        clf = dataclasses.replace(model, task="classification")
        X = block_rows(model, seed=2)
        score, pred = model_forward(clf, X)
        np.testing.assert_allclose(pred, 1 / (1 + np.exp(-score)), atol=1e-12)

    def test_empty_batch(self, trained):
        model, _ = trained
        score, pred = model_forward(model, np.zeros((0, model.m)))
        assert score.shape == (0,) and pred.shape == (0,)

    def test_knots_read_the_exported_curves(self, trained):
        """At every knot of feature j, with the other features at their
        first knot and the network zeroed, the score is w0 plus the
        curve that export-shapes writes."""
        model, _ = trained
        net = dataclasses.replace(model.mlp,
                                  head_w=np.zeros_like(model.mlp.head_w),
                                  head_b=np.float64(0.0))
        wide_only = dataclasses.replace(model, blocks=[net])
        shapes = extract_shapes(model.pl, model.points)
        first = np.array([p[0] for p in model.points.points])
        tol = 1e-12 * wide_magnitude(model)
        for j, shape in enumerate(shapes):
            for x, u in zip(shape.xs, shape.us):
                row = first.copy()
                row[j] = x
                score, _ = model_forward(wide_only, row)
                assert score == pytest.approx(float(model.pl.w0) + u, abs=tol)

    def test_wrong_feature_count(self, trained):
        model, _ = trained
        with pytest.raises(EncodingError, match="expected 3 features, got 2"):
            model_forward(model, np.zeros((5, 2)))
        mlp_only = dataclasses.replace(model, pl=None)
        with pytest.raises(EncodingError, match="expected 3 features, got 4"):
            model_forward(mlp_only, np.zeros(4))

    def test_non_finite_input_in_a_later_block(self, trained):
        model, _ = trained
        X = block_rows(model)
        X[-1, 0] = np.nan
        with pytest.raises(MlpError, match="non-finite input"):
            model_forward(model, X)


def random_pilib(data, B=3, seed=0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # the constant feature warns
        points = build_points(data, 5)
    pl = init_least_squares(data.rows, data.targets, 1e-8, points)
    rng = np.random.default_rng(seed)
    pl.b[:] = rng.normal(0, 0.2, points.total)
    pl.omega[:] = rng.uniform(0.5, 1.5, points.m)
    blocks = [init_gaussian([data.m, 6, 4], 0.6, [seed, i]) for i in range(B)]
    gates = PilibGates(log_alpha=rng.normal(0, 1, (B, data.m)))
    hard = (rng.random((B, data.m)) < 0.6).astype(np.float64)
    return PilidModel(pl=pl, blocks=blocks, gates=gates, points=points,
                      task=data.task, feature_names=data.feature_names,
                      train_means=data.rows.mean(axis=0), hard_gates=hard)


class TestPilibForward:
    def test_blocks_agree_with_encoded_path(self):
        data = layout_data()
        model = random_pilib(data)
        X = block_rows(model)
        ref = linear_forward(encode_matrix(X, model.points), model.pl,
                             model.points)
        for i, block in enumerate(model.blocks):
            ref = ref + mlp_forward(X * model.hard_gates[i], block)[0]
        score, _ = model_forward(model, X)
        tol = 1e-12 * (wide_magnitude(model) + np.max(np.abs(ref)))
        assert np.max(np.abs(score - ref)) <= tol

    def test_error_contract(self):
        model = random_pilib(layout_data())
        with pytest.raises(EncodingError, match="expected 3 features, got 5"):
            model_forward(model, np.zeros((2, 5)))
        X = block_rows(model)
        X[-1, 1] = np.nan
        with pytest.raises(MlpError, match="non-finite input"):
            model_forward(model, X)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_closed_gate_column_warns_nothing(self, value):
        # the check runs before the gate multiply, where inf * 0 would warn
        data = layout_data()
        model = random_pilib(data)
        model.hard_gates[:, 0] = 0.0
        X = data.rows[:4].copy()
        X[2, 0] = value
        cfg = TrainConfig(lam=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MlpError, match="non-finite input"):
                model_forward(model, X)
            # relaxed gates (phase 1), then the hard gates (phase 2)
            for state in (dataclasses.replace(model, hard_gates=None), model):
                with pytest.raises(MlpError, match="non-finite input"):
                    loss_and_grads(state, X, data.targets[:4], cfg)


class TestPredictCli:
    @pytest.fixture()
    def model_path(self, trained, tmp_path):
        path = tmp_path / "model.plm"
        save(trained[0], path)
        return path

    def test_predictions_match_model_forward(self, trained, model_path,
                                             tmp_path):
        model, data = trained
        csv_path = tmp_path / "rows.csv"
        lines = ["num,cat,const"] + [",".join(repr(float(v)) for v in r)
                                     for r in data.rows]
        csv_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model_path),
                     "--data", str(csv_path), "--out", str(out)]) == 0
        got = np.array([float(v) for v in out.read_text().split()[1:]])
        np.testing.assert_array_equal(got, model_forward(model, data.rows)[1])

    def test_non_finite_cell(self, model_path, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text("num,cat,const\n0.5,1,4\nnan,3,4\n")
        assert main(["predict", "--model", str(model_path),
                     "--data", str(csv_path)]) == 1
        err = capsys.readouterr().err
        assert err == (f"pilid: error: {csv_path}: non-finite value 'nan' at "
                       "line 3, column 'num'\n")
