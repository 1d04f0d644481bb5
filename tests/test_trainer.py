import math

import numpy as np
import pytest

from pilid.dataset import Dataset, FeatureSpec
from pilid.encoding import build_points, encode_matrix
from pilid.mlp_component import MlpParams
from pilid.pl_component import PiecewiseLinearParams, linear_forward
from pilid.trainer import (
    Adam,
    PilidModel,
    TrainConfig,
    TrainingError,
    init_model,
    loss,
    loss_and_grads,
    model_forward,
    param_arrays,
    sigmoid,
    train,
)


def toy_data(n=200, m=2, seed=0, task="regression"):
    rng = np.random.default_rng(seed)
    rows = rng.uniform(0, 1, (n, m))
    y = rows @ np.arange(1.0, m + 1) + 0.1 * rng.normal(0, 1, n)
    if task == "classification":
        y = (y > np.median(y)).astype(float)
    specs = [FeatureSpec(name=f"x{j}", kind="numerical",
                         alpha=rows[:, j].min(), beta=rows[:, j].max())
             for j in range(m)]
    return Dataset(rows=rows, targets=y, specs=specs, task=task)


def zeroed_model(task="regression", m=2, gamma=3, hidden=(4,)):
    data = toy_data(m=m)
    points = build_points(data, gamma)
    pl = PiecewiseLinearParams(w=np.zeros(points.total),
                               b=np.zeros(points.total),
                               omega=np.ones(m), w0=0.0)
    widths = [m] + list(hidden)
    mlp = MlpParams(weights=[np.zeros((b, a)) for a, b in
                             zip(widths[:-1], widths[1:])],
                    biases=[np.zeros(b) for b in widths[1:]],
                    head_w=np.zeros(widths[-1]), head_b=np.float64(0.0))
    return PilidModel(pl=pl, blocks=[mlp], points=points, task=task)


class TestConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.005
        assert cfg.batch_size == 256
        assert cfg.sigma == 0.05
        assert cfg.ridge == 1e-8

    def test_validation(self):
        with pytest.raises(TrainingError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(TrainingError):
            TrainConfig(reg="l3")
        with pytest.raises(TrainingError):
            TrainConfig(lam=-1.0)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = {"a": np.array([1.0, 2.0])}
        opt = Adam(p, TrainConfig())
        opt.step({"a": np.zeros(2)})
        np.testing.assert_array_equal(p["a"], [1.0, 2.0])

    def test_first_step_size_equals_learning_rate(self):
        # with bias correction the first update is lr * g / (|g| + eps)
        p = {"a": np.array([0.0])}
        opt = Adam(p, TrainConfig(learning_rate=0.01))
        opt.step({"a": np.array([3.7])})
        assert p["a"][0] == pytest.approx(-0.01, rel=1e-6)

    def test_equal_grads_equal_updates(self):
        p = {"a": np.array([5.0, 5.0])}
        opt = Adam(p, TrainConfig())
        for _ in range(10):
            opt.step({"a": np.array([1.0, 1.0])})
        assert p["a"][0] == p["a"][1]

    def test_scalar_param_thousand_steps_bounded(self):
        # a 0-d parameter driven by a constant unit gradient moves by at
        # most ~lr per step
        p = {"a": np.zeros(())}
        cfg = TrainConfig(learning_rate=0.005)
        opt = Adam(p, cfg)
        prev = 0.0
        for _ in range(1000):
            opt.step({"a": np.asarray(1.0)})
            now = float(p["a"])
            assert abs(now - prev) <= cfg.learning_rate * 1.0001
            prev = now
        assert -5.0 < float(p["a"]) < 0.0

    def test_shape_mismatch_rejected(self):
        opt = Adam({"a": np.zeros(3)}, TrainConfig())
        with pytest.raises(TrainingError):
            opt.step({"a": np.zeros(2)})

    def test_updates_are_in_place(self):
        arr = np.array([1.0])
        opt = Adam({"a": arr}, TrainConfig())
        opt.step({"a": np.array([1.0])})
        assert arr[0] != 1.0    # same array object was modified


class TestLoss:
    def test_perfect_regression_zero_loss(self):
        model = zeroed_model()
        X = np.random.default_rng(0).uniform(0, 1, (10, 2))
        value = loss(model, X, np.zeros(10), TrainConfig(lam=0.0))
        assert value == 0.0

    def test_classification_at_zero_score_is_ln2(self):
        model = zeroed_model(task="classification")
        X = np.random.default_rng(1).uniform(0, 1, (8, 2))
        y = np.array([0, 1, 0, 1, 1, 0, 1, 0], dtype=float)
        value = loss(model, X, y, TrainConfig(lam=0.0))
        assert value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_l2_term_hand_sum(self):
        model = zeroed_model()
        model.pl.w[:] = 2.0                    # 6 units at gamma=3, m=2
        X = np.random.default_rng(2).uniform(0, 1, (5, 2))
        y = (model_forward(model, X)[0]).copy()
        value = loss(model, X, y, TrainConfig(lam=1.0, reg="l2"))
        assert value == pytest.approx(6 * 4.0, abs=1e-9)

    def test_l1_term_hand_sum(self):
        model = zeroed_model()
        model.pl.w[:] = -0.5
        X = np.random.default_rng(3).uniform(0, 1, (5, 2))
        y = (model_forward(model, X)[0]).copy()
        value = loss(model, X, y, TrainConfig(lam=2.0, reg="l1"))
        assert value == pytest.approx(2.0 * 6 * 0.5, abs=1e-9)

    def test_biases_and_scales_never_regularized(self):
        model = zeroed_model()
        model.pl.b[:] = 100.0
        model.pl.omega[:] = 0.0                # kills the forward effect
        X = np.random.default_rng(4).uniform(0, 1, (5, 2))
        value = loss(model, X, np.zeros(5), TrainConfig(lam=10.0, reg="l2"))
        assert value == 0.0

    def test_stable_for_extreme_scores(self):
        model = zeroed_model(task="classification")
        model.pl.w0 += 1000.0
        X = np.random.default_rng(5).uniform(0, 1, (4, 2))
        value = loss(model, X, np.ones(4), TrainConfig(lam=0.0))
        assert np.isfinite(value) and value < 1e-6


class TestJointGradients:
    def test_score_is_sum_of_components(self):
        data = toy_data(n=50)
        cfg = TrainConfig(seed=3)
        model = init_model(data, 4, [8], cfg)
        from pilid.mlp_component import mlp_forward
        score, _ = model_forward(model, data.rows)
        wide = linear_forward(encode_matrix(data.rows, model.points), model.pl,
                              model.points)
        deep, _ = mlp_forward(data.rows, model.mlp)
        np.testing.assert_allclose(score, wide + deep, atol=1e-12)

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_finite_difference_joint(self, task):
        data = toy_data(n=30, task=task)
        cfg = TrainConfig(seed=1, lam=0.01, reg="l2")
        model = init_model(data, 3, [5], cfg, activation="tanh")
        _, grads = loss_and_grads(model, data.rows, data.targets, cfg)
        params = param_arrays(model)
        h = 1e-6
        for name, arr in params.items():
            flat = arr.reshape(-1)
            for i in range(min(flat.size, 8)):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_and_grads(model, data.rows, data.targets, cfg)[0]
                flat[i] = orig - h
                dn = loss_and_grads(model, data.rows, data.targets, cfg)[0]
                flat[i] = orig
                fd = (up - dn) / (2 * h)
                g = grads[name].reshape(-1)[i]
                assert abs(g - fd) / max(abs(g), abs(fd), 1e-4) < 1e-4, \
                    f"{name}[{i}]: {g} vs {fd}"


class TestTrain:
    def test_fits_linear_data(self):
        data = toy_data(n=400, seed=7)
        cfg = TrainConfig(epochs=30, batch_size=64, seed=7, lam=0.0)
        model, trace = train(data, 5, [8], cfg)
        _, pred = model_forward(model, data.rows)
        resid = np.mean((pred - data.targets) ** 2)
        assert resid < 0.1 * np.var(data.targets)
        assert len(trace) == 30

    def test_deterministic_given_seed(self):
        data = toy_data(n=150, seed=2)
        cfg = TrainConfig(epochs=3, batch_size=32, seed=11)
        m1, t1 = train(data, 3, [6], cfg)
        m2, t2 = train(data, 3, [6], cfg)
        assert t1 == t2
        for k, v in param_arrays(m1).items():
            np.testing.assert_array_equal(v, param_arrays(m2)[k])

    def test_different_seed_differs(self):
        data = toy_data(n=150, seed=2)
        m1, _ = train(data, 3, [6], TrainConfig(epochs=2, seed=1))
        m2, _ = train(data, 3, [6], TrainConfig(epochs=2, seed=2))
        assert not np.array_equal(m1.mlp.weights[0], m2.mlp.weights[0])

    def test_tiny_sigma_keeps_least_squares_fit(self):
        # as the network init shrinks the initial model converges to the
        # pure least-squares fit
        data = toy_data(n=100, seed=4)
        cfg = TrainConfig(sigma=1e-9, seed=0)
        model = init_model(data, 4, [16], cfg)
        score, _ = model_forward(model, data.rows)
        wide = linear_forward(encode_matrix(data.rows, model.points), model.pl,
                              model.points)
        assert np.max(np.abs(score - wide)) < 1e-6

    def test_strong_l2_shrinks_weights(self):
        data = toy_data(n=200, seed=5)
        base = TrainConfig(epochs=10, seed=3, lam=0.0)
        heavy = TrainConfig(epochs=10, seed=3, lam=10.0, reg="l2")
        m0, _ = train(data, 3, [8], base)
        m1, _ = train(data, 3, [8], heavy)
        n0 = np.linalg.norm(m0.pl.w) + np.linalg.norm(m0.mlp.weights[0])
        n1 = np.linalg.norm(m1.pl.w) + np.linalg.norm(m1.mlp.weights[0])
        assert n1 < n0

    def test_mlp_only_baseline_has_no_wide_part(self):
        data = toy_data(n=100, seed=6)
        model, _ = train(data, 3, [8], TrainConfig(epochs=2), mlp_only=True)
        assert model.pl is None
        score, pred = model_forward(model, data.rows[:5])
        np.testing.assert_array_equal(score, pred)

    def test_gaussian_pl_init(self):
        data = toy_data(n=100, seed=6)
        cfg = TrainConfig(seed=5)
        model = init_model(data, 3, [8], cfg, pl_init="gaussian")
        assert np.all(model.pl.b == 0)
        assert float(model.pl.w0) == pytest.approx(data.targets.mean())
        assert 0 < model.pl.w.std() < 3 * cfg.sigma

    def test_unknown_pl_init_rejected(self):
        data = toy_data()
        with pytest.raises(TrainingError):
            init_model(data, 3, [8], TrainConfig(), pl_init="zeros")

    def test_trailing_output_width_is_implicit(self):
        data = toy_data(n=60)
        cfg = TrainConfig(epochs=1)
        m1 = init_model(data, 3, [8, 1], cfg)
        assert m1.mlp.head_w.shape == (8,)

    def test_classification_predictions_are_probabilities(self):
        data = toy_data(n=200, task="classification", seed=9)
        model, _ = train(data, 3, [8], TrainConfig(epochs=3, seed=1))
        _, pred = model_forward(model, data.rows)
        assert np.all((pred > 0) & (pred < 1))


class TestSigmoid:
    def test_values(self):
        assert sigmoid(0.0) == pytest.approx(0.5)
        assert sigmoid(np.array([800.0]))[0] == 1.0
        assert sigmoid(np.array([-800.0]))[0] == pytest.approx(0.0, abs=1e-300)

    def test_symmetry(self):
        z = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(sigmoid(z) + sigmoid(-z), 1.0, atol=1e-12)
