import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from pilid.dataset import Dataset, FeatureSpec
from pilid.encoding import build_points, encode_matrix
from pilid.mlp_component import MlpParams, init_gaussian, mlp_forward
from pilid.pl_component import (
    PiecewiseLinearParams,
    curve_forward,
    linear_forward,
    locate,
    segment_backward,
    segment_forward,
)
from pilid import trainer
from pilid.persist import save
from pilid.pilib import train_pilib
from pilid.synth import SyntheticSpec, generate
from pilid.trainer import (
    CHUNK,
    Adam,
    PilidModel,
    TrainConfig,
    TrainingError,
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    ParamVector,
    _regularise,
    gate_values,
    init_model,
    loss_and_grads,
    model_forward,
    pack,
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
    specs = [FeatureSpec(name=f"x{j}", kind="numerical")
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


def adam_reference(params, grads_per_step, lr):
    """The per-array Adam update, the textbook form that `Adam.step` packs
    into one vector: each array keeps its own moments."""
    m = {k: np.zeros_like(a) for k, a in params.items()}
    v = {k: np.zeros_like(a) for k, a in params.items()}
    for t, grads in enumerate(grads_per_step, start=1):
        for k, p in params.items():
            g = grads[k]
            m[k] = ADAM_BETA1 * m[k] + (1 - ADAM_BETA1) * g
            v[k] = ADAM_BETA2 * v[k] + (1 - ADAM_BETA2) * g * g
            m_hat = m[k] / (1 - ADAM_BETA1 ** t)
            v_hat = v[k] / (1 - ADAM_BETA2 ** t)
            p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = np.array([1.0, 2.0])
        opt = Adam(p, TrainConfig())
        opt.step(np.zeros(2))
        np.testing.assert_array_equal(p, [1.0, 2.0])

    def test_first_step_size_equals_learning_rate(self):
        # with bias correction the first update is lr * g / (|g| + eps)
        p = np.array([0.0])
        opt = Adam(p, TrainConfig(learning_rate=0.01))
        opt.step(np.array([3.7]))
        assert p[0] == pytest.approx(-0.01, rel=1e-6)

    def test_equal_grads_equal_updates(self):
        p = np.array([5.0, 5.0])
        opt = Adam(p, TrainConfig())
        for _ in range(10):
            opt.step(np.array([1.0, 1.0]))
        assert p[0] == p[1]

    def test_scalar_param_thousand_steps_bounded(self):
        # a 0-d parameter, packed as the model's w0 and head_b are, driven
        # by a constant unit gradient moves by at most ~lr per step
        model = zeroed_model()
        params = pack(model)
        w0 = model.pl.w0
        assert w0.shape == () and np.shares_memory(w0, params.flat)
        cfg = TrainConfig(learning_rate=0.005)
        opt = Adam(params.flat, cfg)
        grad = ParamVector(np.zeros_like(params.flat), params.spans)
        grad["pl.w0"][...] = 1.0
        prev = 0.0
        for _ in range(1000):
            opt.step(grad.flat)
            now = float(w0)
            assert abs(now - prev) <= cfg.learning_rate * 1.0001
            prev = now
        assert -5.0 < float(w0) < 0.0

    def test_shape_mismatch_rejected(self):
        opt = Adam(np.zeros(3), TrainConfig())
        with pytest.raises(TrainingError):
            opt.step(np.zeros(2))

    def test_updates_are_in_place(self):
        arr = np.array([1.0])
        opt = Adam(arr, TrainConfig())
        opt.step(np.array([1.0]))
        assert arr[0] != 1.0    # same array object was modified

    @staticmethod
    def check_against_reference(rng, shapes, n_steps):
        arrays = {f"a{i}": rng.normal(0, 2, shape)
                  for i, shape in enumerate(shapes)}
        expected = {k: v.copy() for k, v in arrays.items()}
        starts = np.cumsum([0] + [a.size for a in arrays.values()]).tolist()
        packed = ParamVector(
            np.concatenate([a.ravel() for a in arrays.values()]),
            {k: (s, s + a.size, a.shape)
             for (k, a), s in zip(arrays.items(), starts)})
        steps = [{k: rng.normal(0, 10.0 ** rng.integers(-6, 3), a.shape)
                  for k, a in arrays.items()} for _ in range(n_steps)]
        lr = float(rng.choice([0.005, 0.1, 1e-4]))
        opt = Adam(packed.flat, TrainConfig(learning_rate=lr))
        for grads in steps:
            opt.step(np.concatenate([grads[k].ravel() for k in packed]))
        adam_reference(expected, steps, lr)
        for k, v in expected.items():
            np.testing.assert_array_equal(packed[k], v, err_msg=k)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_array_reference_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        shapes = [tuple(rng.integers(1, 9, size=rng.integers(0, 3)))
                  for _ in range(rng.integers(3, 12))] + [(), (4,), (3, 5)]
        self.check_against_reference(rng, shapes, 300)

    def test_matches_reference_across_chunks(self):
        # arrays that straddle chunk boundaries and a short last chunk
        shapes = [(CHUNK - 3,), (), (70, 1000), (5,)]
        self.check_against_reference(np.random.default_rng(9), shapes, 12)

    def test_step_allocates_no_temporaries(self):
        # ~505k parameters; a per-array step would allocate several
        # parameter-sized temporaries
        data = toy_data(n=50, m=4)
        model = init_model(data, 3, [500, 1000], TrainConfig(seed=0))
        params = pack(model)
        assert params.flat.size >= 500_000
        opt = Adam(params.flat, TrainConfig())
        grad = np.random.default_rng(0).normal(size=params.flat.size)
        opt.step(grad)      # warm-up
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            opt.step(grad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < params.flat.nbytes / 8, peak


class TestRegulariser:
    @pytest.mark.parametrize("reg", ["l2", "l1"])
    def test_chunked_gradient_matches_vector_form(self, reg):
        rng = np.random.default_rng(3)
        w = rng.normal(0, 1, 2 * CHUNK + 17)
        w[::97] = 0.0
        g0 = rng.normal(0, 1, w.size)
        lam = 0.37
        g = g0.copy()
        value = _regularise(w, g, lam, reg)
        expected = g0.copy()
        if reg == "l2":
            expected += 2.0 * lam * w
            assert value == pytest.approx(np.sum(w * w), rel=1e-12)
        else:
            expected += lam * np.sign(w)
            assert value == pytest.approx(np.sum(np.abs(w)), rel=1e-12)
        np.testing.assert_array_equal(g, expected)


class TestLoss:
    def test_perfect_regression_zero_loss(self):
        model = zeroed_model()
        X = np.random.default_rng(0).uniform(0, 1, (10, 2))
        value = loss_and_grads(model, X, np.zeros(10),
                               TrainConfig(lam=0.0))[0]
        assert value == 0.0

    def test_classification_at_zero_score_is_ln2(self):
        model = zeroed_model(task="classification")
        X = np.random.default_rng(1).uniform(0, 1, (8, 2))
        y = np.array([0, 1, 0, 1, 1, 0, 1, 0], dtype=float)
        value = loss_and_grads(model, X, y, TrainConfig(lam=0.0))[0]
        assert value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_l2_term_hand_sum(self):
        model = zeroed_model()
        model.pl.w[:] = 2.0                    # 6 units at gamma=3, m=2
        X = np.random.default_rng(2).uniform(0, 1, (5, 2))
        y = (model_forward(model, X)[0]).copy()
        value = loss_and_grads(model, X, y,
                               TrainConfig(lam=1.0, reg="l2"))[0]
        assert value == pytest.approx(6 * 4.0, abs=1e-9)

    def test_l1_term_hand_sum(self):
        model = zeroed_model()
        model.pl.w[:] = -0.5
        X = np.random.default_rng(3).uniform(0, 1, (5, 2))
        y = (model_forward(model, X)[0]).copy()
        value = loss_and_grads(model, X, y,
                               TrainConfig(lam=2.0, reg="l1"))[0]
        assert value == pytest.approx(2.0 * 6 * 0.5, abs=1e-9)

    def test_biases_and_scales_never_regularized(self):
        model = zeroed_model()
        model.pl.b[:] = 100.0
        model.pl.omega[:] = 0.0                # kills the forward effect
        X = np.random.default_rng(4).uniform(0, 1, (5, 2))
        value = loss_and_grads(model, X, np.zeros(5),
                               TrainConfig(lam=10.0, reg="l2"))[0]
        assert value == 0.0

    def test_stable_for_extreme_scores(self):
        model = zeroed_model(task="classification")
        model.pl.w0 += 1000.0
        X = np.random.default_rng(5).uniform(0, 1, (4, 2))
        value = loss_and_grads(model, X, np.ones(4),
                               TrainConfig(lam=0.0))[0]
        assert np.isfinite(value) and value < 1e-6


def gated_model(relaxed):
    data = toy_data(n=40, m=3)
    model = init_model(data, 3, [5, 4], TrainConfig(seed=2, sigma=0.3), B=2)
    if not relaxed:
        model.hard_gates = gate_values(model.gates, "eval")
    return model, data


LAYOUT_KINDS = ["pilid", "relaxed_pilib", "hard_pilib", "no_blocks",
                "mlp_only"]


def model_of_kind(kind):
    """A model of each trainable layout, never packed, and its data."""
    if kind.endswith("_pilib"):
        return gated_model(kind == "relaxed_pilib")
    data = toy_data(n=40, m=3)
    cfg = TrainConfig(seed=2, sigma=0.3)
    model = init_model(data, 3, [5, 4], cfg, mlp_only=kind == "mlp_only")
    if kind == "no_blocks":
        model = dataclasses.replace(model, blocks=[], hard_gates=None)
    return model, data


class TestPackedGradients:
    @pytest.mark.parametrize("kind", LAYOUT_KINDS)
    def test_gradient_has_the_layout_that_pack_makes(self, kind):
        model, data = model_of_kind(kind)
        grad = loss_and_grads(model, data.rows, data.targets,
                              TrainConfig(lam=0.01))[1]
        params = pack(copy.deepcopy(model))
        assert list(grad) == list(params)
        assert grad.spans == params.spans

    @pytest.mark.parametrize("kind", LAYOUT_KINDS)
    def test_never_packed_model_keeps_its_arrays(self, kind):
        # the loss reads the model's arrays where they are and rebinds
        # none of them
        model, data = model_of_kind(kind)
        before = param_arrays(model)
        values = {k: a.copy() for k, a in before.items()}
        loss_and_grads(model, data.rows, data.targets, TrainConfig(lam=0.01))
        after = param_arrays(model)
        assert list(after) == list(before)
        for k, a in before.items():
            assert after[k] is a, k
            np.testing.assert_array_equal(a, values[k], err_msg=k)

    @pytest.mark.parametrize("relaxed", [True, False])
    @pytest.mark.parametrize("reg", ["l2", "l1"])
    def test_penalty_is_a_sum_over_the_weight_arrays(self, relaxed, reg):
        # while the gates are relaxed only the wide weights are penalised,
        # otherwise every weight array; never a bias, omega, w0 or logit
        model, data = gated_model(relaxed)
        weights = ["pl.w"] if relaxed else \
            ["pl.w", "blocks.W0", "blocks.W1", "blocks.head_w"]
        lam = 0.01
        base, grad0 = loss_and_grads(model, data.rows, data.targets,
                                     TrainConfig(lam=0.0))
        value, grad = loss_and_grads(model, data.rows, data.targets,
                                     TrainConfig(lam=lam, reg=reg))
        arrays = param_arrays(model)
        omega = sum(float(np.sum(arrays[k] * arrays[k])) if reg == "l2"
                    else float(np.sum(np.abs(arrays[k]))) for k in weights)
        assert value - base == pytest.approx(lam * omega, rel=1e-9)
        for k in grad:
            expected = grad0[k]
            if k in weights:
                expected = expected + (arrays[k] * (2.0 * lam) if reg == "l2"
                                       else np.sign(arrays[k]) * lam)
            np.testing.assert_array_equal(grad[k], expected, err_msg=k)

    @pytest.mark.parametrize("relaxed", [True, False])
    @pytest.mark.parametrize("reg", ["l2", "l1"])
    def test_packed_and_unpacked_agree_bit_for_bit(self, relaxed, reg):
        model, data = gated_model(relaxed)
        unpacked = copy.deepcopy(model)
        pack(model)
        cfg = TrainConfig(lam=0.01, reg=reg)
        value, grad = loss_and_grads(model, data.rows, data.targets, cfg)
        value_u, grad_u = loss_and_grads(unpacked, data.rows, data.targets,
                                         cfg)
        assert value == value_u
        assert list(grad) == list(grad_u)
        np.testing.assert_array_equal(grad.flat, grad_u.flat)

    def test_copy_of_a_packed_model_reads_its_own_arrays(self):
        # a deep copy's arrays are no views of its copied vector, so
        # changing them in place must reach the forward pass
        model, data = gated_model(relaxed=False)
        pack(model)
        clone = copy.deepcopy(model)
        clone.blocks[1].head_w += 1.0
        clone.pl.w += 0.5
        unpacked = copy.deepcopy(clone)
        cfg = TrainConfig(lam=0.01)
        value, grad = loss_and_grads(clone, data.rows, data.targets, cfg)
        value_u, grad_u = loss_and_grads(unpacked, data.rows, data.targets,
                                         cfg)
        assert value == value_u
        np.testing.assert_array_equal(grad.flat, grad_u.flat)

    def test_model_without_blocks_built_by_replace(self):
        # the constructor stacks the empty block list, so the wide-only
        # model trains and packs like any other
        data = toy_data(n=40, m=3)
        cfg = TrainConfig(seed=2, lam=0.01)
        model = dataclasses.replace(init_model(data, 3, [5], cfg), blocks=[],
                                    hard_gates=None)
        assert len(model.blocks) == 0 and model.hard_gates.shape == (0, 3)
        value, grad = loss_and_grads(model, data.rows, data.targets, cfg)
        params = pack(model)
        assert list(grad) == list(params)
        assert params.flat.size == 2 * model.points.total + 3 + 1
        assert loss_and_grads(model, data.rows, data.targets, cfg)[0] == value
        score, _ = model_forward(model, data.rows)
        np.testing.assert_array_equal(
            score, curve_forward(data.rows, model.pl, model.points))

    def test_each_call_returns_a_fresh_vector(self):
        model, data = gated_model(relaxed=True)
        params = pack(model)
        cfg = TrainConfig()
        first = loss_and_grads(model, data.rows, data.targets, cfg)[1]
        kept = first.flat.copy()
        second = loss_and_grads(model, data.rows[:7], data.targets[:7],
                                cfg)[1]
        assert not np.shares_memory(first.flat, second.flat)
        assert not np.shares_memory(first.flat, params.flat)
        np.testing.assert_array_equal(first.flat, kept)

    def test_call_allocates_no_vector_sized_temporaries(self):
        # the reference network on one 256-row batch: beyond the fresh
        # gradient vector and the activation cache, what one call
        # allocates must stay well below another vector's worth
        data = toy_data(n=256, m=10)
        cfg = TrainConfig(seed=0)
        model = init_model(data, 5, [100, 200, 400, 400, 200, 100], cfg)
        params = pack(model)
        cache = sum(h.nbytes for h in mlp_forward(data.rows, model.mlp)[1])
        loss_and_grads(model, data.rows, data.targets, cfg)     # warm-up
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            loss_and_grads(model, data.rows, data.targets, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < params.flat.nbytes + cache + 2 * 2 ** 20, \
            (peak, params.flat.nbytes, cache)


def blocks_reference(model, X, y):
    """The per-block loop that `loss_and_grads` replaced, kept as its
    reference: each block runs alone on its gated input X * G[i], and a
    gate's gradient comes from its block's input gradient.  Returns the
    loss and the gradient of every array of `param_arrays`, by name, with
    no regulariser."""
    relaxed = model.gates_relaxed
    G = gate_values(model.gates, "train") if relaxed else model.hard_gates
    grads = {}
    if model.pl is None:
        score = np.zeros(len(y))
    else:
        U, F = locate(X, model.points)
        score, T = segment_forward(U, F, model.pl, model.points)
    caches = []
    for i, blk in enumerate(model.blocks):
        h = X * G[i]
        cache = [h]
        for W, b in zip(blk.weights, blk.biases):
            z = h @ W.T
            z += b
            h = np.maximum(z, 0.0) if blk.activation == "relu" \
                else np.tanh(z)
            cache.append(h)
        score = score + (h @ blk.head_w + blk.head_b)
        caches.append(cache)
    loss, up = trainer._data_loss_and_grad(score, y, model.task)
    if model.pl is not None:
        wide = segment_backward(U, F, T, up, model.pl, model.points)
        grads.update({f"pl.{k}": v for k, v in wide.items()})
    dG = np.zeros_like(G)
    per_block = []
    for i, (blk, cache) in enumerate(zip(model.blocks, caches)):
        g = {"head_w": cache[-1].T @ up, "head_b": np.sum(up)}
        delta = np.outer(up, blk.head_w)
        for l in range(len(blk.weights) - 1, -1, -1):
            h = cache[l + 1]
            delta *= (h > 0) if blk.activation == "relu" else 1.0 - h * h
            g[f"W{l}"] = delta.T @ cache[l]
            g[f"b{l}"] = np.sum(delta, axis=0)
            delta = delta @ blk.weights[l]
        dG[i] = (delta * X).sum(axis=0)
        per_block.append(g)
    # the model holds each layer of all blocks as one array
    grads.update({f"blocks.{k}": np.stack([g[k] for g in per_block])
                  for k in per_block[0]})
    if relaxed:
        gates = model.gates
        khat = G.sum(axis=1)
        loss += trainer.lk_penalty(khat, gates.K, gates.lambda0)
        dG += trainer._lk_penalty_gate_grad(khat, gates.K, gates.lambda0)
        grads["gates.log_alpha"] = dG * trainer._gate_grad_factor(gates)
    return loss, grads


def closed_and_open_gates(B, m, rng):
    """Random 0/1 gate rows, block 0 closed when B > 1 and block 1 open
    on every feature when B > 2."""
    G = (rng.random((B, m)) < 0.4).astype(float)
    if B > 1:
        G[0] = 0.0
    if B > 2:
        G[1] = 1.0
    return G


class TestStackedBlocks:
    def test_one_network_is_held_as_views_that_training_leaves_alone(self):
        # a model built from one network holds views of its arrays, and
        # packing copies them into the parameter vector before Adam moves
        # them, so the network handed in keeps its values
        data = toy_data()
        net = init_gaussian([data.m, 5, 3], 0.3, [0, 1])
        kept = copy.deepcopy(net)

        def arrays(n):
            return [*n.weights, *n.biases, n.head_w, n.head_b]

        assert all(np.shares_memory(a, b) for a, b in
                   zip(arrays(trainer._stacked([net], data.m)), arrays(net)))
        model = dataclasses.replace(init_model(data, 3, [5, 3],
                                               TrainConfig(seed=1)),
                                    blocks=[net])
        assert np.shares_memory(model.blocks.head_w, net.head_w)
        cfg = TrainConfig(lam=0.01)
        params = pack(model)
        grad = loss_and_grads(model, data.rows, data.targets, cfg)[1]
        Adam(params.flat, cfg).step(grad.flat)
        assert not np.array_equal(model.blocks.weights[0][0], kept.weights[0])
        for a, b in zip(arrays(net), arrays(kept)):
            assert a.tobytes() == b.tobytes()


class TestBlocksReference:
    """One stacked pass for all blocks gives what the per-block loop
    gives: bit for bit under hard gates, where folding a 0/1 gate into
    the weights changes no product, and to rounding under relaxed ones."""

    @staticmethod
    def model_and_batch(B, activation, task="regression"):
        pilid = B == "pilid"
        data = toy_data(n=256, m=10, seed=0 if pilid else B, task=task)
        cfg = TrainConfig(seed=0 if pilid else B, sigma=0.3, lam=0.0,
                          reg="none")
        model = init_model(data, 4, [8, 8], cfg, activation=activation,
                           B=None if pilid else B)
        rng = np.random.default_rng(7)
        for blk in model.blocks:
            for b in blk.biases:
                b[...] = rng.normal(0, 0.3, b.shape)
        pack(model)
        return model, data, cfg

    @staticmethod
    def compare(model, data, cfg, rel):
        value, grad = loss_and_grads(model, data.rows, data.targets, cfg)
        ref_value, ref = blocks_reference(model, data.rows, data.targets)
        assert sorted(grad) == sorted(ref)
        if rel == 0.0:
            assert value == ref_value
        else:
            assert abs(value - ref_value) <= rel * abs(ref_value)
        for name, want in ref.items():
            have = grad[name]
            if rel == 0.0:
                np.testing.assert_array_equal(have, want, err_msg=name)
            else:
                scale = max(np.max(np.abs(want)), 1e-300)
                assert np.max(np.abs(have - want)) <= rel * scale, name

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("B", ["pilid", 1, 2, 20])
    def test_hard_gates_bit_for_bit(self, B, activation):
        model, data, cfg = self.model_and_batch(B, activation)
        if B != "pilid":
            model.hard_gates = closed_and_open_gates(
                B, data.m, np.random.default_rng(B))
            pack(model)
        self.compare(model, data, cfg, 0.0)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("B", [1, 2, 20])
    def test_relaxed_gates_to_rounding(self, B, activation):
        model, data, cfg = self.model_and_batch(B, activation,
                                                "classification")
        model.gates.log_alpha = np.random.default_rng(B).uniform(
            -1.5, 1.5, model.gates.log_alpha.shape)
        self.compare(model, data, cfg, 1e-12)

    def test_mlp_only_bit_for_bit(self):
        data = toy_data(n=256, m=10)
        cfg = TrainConfig(seed=3, lam=0.0, reg="none")
        model = init_model(data, 4, [8, 8], cfg, mlp_only=True)
        pack(model)
        self.compare(model, data, cfg, 0.0)


class TestFloat32Network:
    """Float32 rows run the blocks in float32; the wide component, the
    loss and the gradient vector stay float64."""

    @staticmethod
    def record_networks(monkeypatch):
        nets = []
        real = trainer.mlp_forward

        def mlp_forward(x, net):
            nets.append(net)
            return real(x, net)

        monkeypatch.setattr(trainer, "mlp_forward", mlp_forward)
        return nets

    @pytest.mark.parametrize("kind", ["pilid", "mlp_only", "relaxed_pilib",
                                      "hard_pilib"])
    def test_float32_rows_match_float64_rows(self, kind, monkeypatch):
        model, data = model_of_kind(kind)
        pack(model)
        cfg = TrainConfig(lam=0.01)
        # located from the float64 rows, as a training run does
        located = None if model.pl is None else locate(data.rows,
                                                       model.points)
        nets = self.record_networks(monkeypatch)
        value, grad = loss_and_grads(model, data.rows, data.targets, cfg,
                                     located)
        value32, grad32 = loss_and_grads(
            model, data.rows.astype(np.float32), data.targets, cfg, located)
        assert [net.head_w.dtype for net in nets] == [np.float64, np.float32]
        assert type(value32) is float
        assert grad32.flat.dtype == np.float64
        assert abs(value32 - value) <= 1e-5 * abs(value)
        assert list(grad32) == list(grad)
        for name, want in grad.items():
            scale = max(np.max(np.abs(want)), 1e-300)
            assert np.max(np.abs(grad32[name] - want)) <= 1e-4 * scale, name

    @pytest.mark.parametrize("B", [None, 3])
    def test_training_runs_the_network_in_float32(self, B, monkeypatch):
        nets = self.record_networks(monkeypatch)
        data = toy_data(n=100, m=3)
        model = trainer.init_model(data, 3, [6], TrainConfig(seed=1), B=B)
        trainer.train_epoch(
            model, data, data.rows.astype(np.float32),
            locate(data.rows, model.points), TrainConfig(batch_size=32),
            Adam(pack(model).flat, TrainConfig()), 0, "epoch 1")
        assert len(nets) == 4
        assert {a.dtype for net in nets for a in (
            *net.weights, *net.biases, net.head_w, net.head_b)} \
            == {np.dtype(np.float32)}
        assert {a.dtype for a in param_arrays(model).values()} \
            == {np.dtype(np.float64)}

    @pytest.mark.parametrize("command", ["train", "train-pilib"])
    def test_same_seed_runs_write_identical_bytes(self, command, tmp_path):
        # a 64-wide layer, so that the float32 matmuls are BLAS calls
        data, _ = generate(SyntheticSpec(m=4, n=600, seed=2))
        cfg = TrainConfig(epochs=2, batch_size=128, seed=4)
        paths = [tmp_path / f"{i}.plm" for i in range(2)]
        for path in paths:
            if command == "train":
                model = train(data, 4, [64, 32], cfg)[0]
            else:
                model = train_pilib(data, 4, [64, 32], 3, 2, 0.1, cfg)[0]
            save(model, path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_feature_beyond_the_float32_range_is_rejected(self):
        data = toy_data(n=20, m=2)
        rows = data.rows.copy()
        rows[3, 1] = 1e39
        data = dataclasses.replace(data, rows=rows)
        with pytest.raises(TrainingError, match="float32 range"):
            train(data, 3, [4], TrainConfig(epochs=1))


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
