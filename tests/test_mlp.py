import numpy as np
import pytest

from pilid.mlp_component import (
    MlpError,
    MlpGrads,
    MlpParams,
    init_gaussian,
    mlp_backward,
    mlp_forward,
    mlp_predict,
)


def tiny_net(activation="tanh", seed=0, widths=(3, 4, 4)):
    return _with_activation(init_gaussian(list(widths), 0.5, seed), activation)


def _with_activation(params, activation):
    params.activation = activation
    return params


def flatten_params(params):
    parts = [W.ravel() for W in params.weights]
    parts += [b.ravel() for b in params.biases]
    parts += [params.head_w.ravel(), np.atleast_1d(params.head_b)]
    return np.concatenate(parts)


def reference_forward(x, params):
    """Straight-line re-evaluation with explicit loops (oracle)."""
    h = np.asarray(x, dtype=float)
    for W, b in zip(params.weights, params.biases):
        z = np.array([float(np.dot(W[i], h)) + b[i] for i in range(len(b))])
        h = np.maximum(z, 0) if params.activation == "relu" else np.tanh(z)
    return float(np.dot(params.head_w, h)) + float(params.head_b)


class TestForward:
    def test_zero_weights_output_is_head_bias(self):
        params = MlpParams(weights=[np.zeros((4, 3))], biases=[np.zeros(4)],
                           head_w=np.zeros(4), head_b=np.float64(1.5),
                           activation="relu")
        out, cache = mlp_forward(np.zeros(3), params)
        assert out == 1.5
        assert len(cache) == 2

    def test_relu_clips_negative_preactivations(self):
        params = MlpParams(weights=[np.array([[1.0], [-1.0]])],
                           biases=[np.zeros(2)], head_w=np.array([1.0, 1.0]),
                           head_b=np.float64(0.0), activation="relu")
        out, _ = mlp_forward(np.array([2.0]), params)
        assert out == 2.0     # relu(2) + relu(-2) = 2 + 0

    def test_matches_reference_loop(self):
        for seed in range(3):
            for act in ("relu", "tanh"):
                params = tiny_net(act, seed)
                x = np.random.default_rng(seed + 50).normal(0, 1, 3)
                out, _ = mlp_forward(x, params)
                assert out == pytest.approx(reference_forward(x, params),
                                            abs=1e-12)

    def test_batch_matches_single(self):
        params = tiny_net("tanh", 1)
        X = np.random.default_rng(2).normal(0, 1, (10, 3))
        out, _ = mlp_forward(X, params)
        for i in range(10):
            single, _ = mlp_forward(X[i], params)
            assert out[i] == pytest.approx(single, abs=1e-12)

    def test_non_finite_input_rejected(self):
        params = tiny_net()
        with pytest.raises(MlpError, match="finite"):
            mlp_forward(np.array([1.0, np.nan, 0.0]), params)

    def test_wrong_width_rejected(self):
        with pytest.raises(MlpError):
            mlp_forward(np.zeros(5), tiny_net())


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        params = tiny_net("tanh", 3)
        x = np.ones(3)
        _, cache = mlp_forward(x, params)
        g = mlp_backward(params, cache, np.zeros(1))
        assert all(np.all(W == 0) for W in g.weights)
        assert np.all(g.head_w == 0) and float(g.head_b) == 0.0

    def test_single_linear_unit_hand_gradient(self):
        # relu net on positive input is locally linear: y = w_y * (W x + b)
        params = MlpParams(weights=[np.array([[3.0]])], biases=[np.array([1.0])],
                           head_w=np.array([2.0]), head_b=np.float64(0.0),
                           activation="relu")
        x = np.array([4.0])
        out, cache = mlp_forward(x, params)
        assert out == pytest.approx(26.0)
        g = mlp_backward(params, cache, np.ones(1))
        assert g.head_w[0] == pytest.approx(13.0)     # hidden activation
        assert float(g.head_b) == pytest.approx(1.0)
        assert g.weights[0][0, 0] == pytest.approx(8.0)   # w_y * x
        assert g.biases[0][0] == pytest.approx(2.0)

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_finite_difference_check(self, activation):
        h = 1e-6
        for seed in range(3):
            params = tiny_net(activation, seed)
            rng = np.random.default_rng(seed + 80)
            X = rng.normal(0, 1, (7, 3))
            y = rng.normal(0, 1, 7)

            def scalar_loss(p):
                out, _ = mlp_forward(X, p)
                return 0.5 * float(np.sum((out - y) ** 2))

            out, cache = mlp_forward(X, params)
            g = mlp_backward(params, cache, out - y)
            analytic = np.concatenate(
                [W.ravel() for W in g.weights] + [b.ravel() for b in g.biases]
                + [g.head_w.ravel(), np.atleast_1d(g.head_b)])

            arrays = params.weights + params.biases + [params.head_w]
            numeric = []
            for a in arrays:
                flat = a.ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    up = scalar_loss(params)
                    flat[i] = orig - h
                    dn = scalar_loss(params)
                    flat[i] = orig
                    numeric.append((up - dn) / (2 * h))
            hb = float(params.head_b)
            params.head_b += h
            up = scalar_loss(params)
            params.head_b -= 2 * h
            dn = scalar_loss(params)
            params.head_b += h
            assert float(params.head_b) == pytest.approx(hb)
            numeric.append((up - dn) / (2 * h))
            numeric = np.asarray(numeric)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)),
                               1e-4)
            assert np.max(np.abs(analytic - numeric) / denom) < 1e-4

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_writes_into_given_arrays_bit_for_bit(self, activation):
        params = tiny_net(activation, 4, widths=(5, 7, 6, 4))
        rng = np.random.default_rng(12)
        X = rng.normal(0, 1, (9, 5))
        X[0, :] = 0.0               # relu units at exactly 0
        _, cache = mlp_forward(X, params)
        up = rng.normal(0, 1, 9)
        fresh = mlp_backward(params, cache, up)
        # views into one buffer, as the trainer passes them
        buf = np.full(flatten_params(params).size + 3, np.nan)
        views, at = [], 3
        for a in params.weights + params.biases + [params.head_w,
                                                   params.head_b]:
            views.append(buf[at:at + a.size].reshape(a.shape))
            at += a.size
        depth = len(params.weights)
        given = MlpGrads(weights=views[:depth], biases=views[depth:-2],
                         head_w=views[-2], head_b=views[-1])
        got = mlp_backward(params, cache, up, out=given)
        returned = got.weights + got.biases + [got.head_w, got.head_b]
        for want, have, view in zip(
                fresh.weights + fresh.biases + [fresh.head_w, fresh.head_b],
                returned, views):
            np.testing.assert_array_equal(have, want)
            assert np.shares_memory(have, view)
        assert np.all(np.isnan(buf[:3]))    # nothing written outside

    def test_non_contiguous_given_arrays_rejected(self):
        # the backward pass writes through reshaped views of them
        params = tiny_net("tanh", 5, widths=(3, 4, 4))
        _, cache = mlp_forward(np.ones((2, 3)), params)
        fresh = mlp_backward(params, cache, np.ones(2))
        fresh.weights[1] = np.asfortranarray(fresh.weights[1])
        with pytest.raises(MlpError, match="contiguous"):
            mlp_backward(params, cache, np.ones(2), out=fresh)

    def test_cache_depth_mismatch_rejected(self):
        params = tiny_net()
        _, cache = mlp_forward(np.zeros(3), params)
        with pytest.raises(MlpError):
            mlp_backward(params, cache[:-1], np.ones(1))

    def test_upstream_shape_checked(self):
        params = tiny_net()
        _, cache = mlp_forward(np.zeros((4, 3)), params)
        with pytest.raises(MlpError):
            mlp_backward(params, cache, np.ones(3))


def side_by_side(nets):
    """The networks `nets`, of one shape, as one MlpParams with a leading
    block axis."""
    return MlpParams(
        weights=[np.stack(Ws) for Ws in zip(*(n.weights for n in nets))],
        biases=[np.stack(bs) for bs in zip(*(n.biases for n in nets))],
        head_w=np.stack([n.head_w for n in nets]),
        head_b=np.array([float(n.head_b) for n in nets]),
        activation=nets[0].activation)


class TestSideBySide:
    """Networks with a leading block axis give, bit for bit, what each
    network gives alone."""

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("B", [1, 2, 7])
    def test_each_network_as_alone(self, B, activation):
        rng = np.random.default_rng(B)
        nets = [tiny_net(activation, seed, widths=(5, 7, 6, 4))
                for seed in range(B)]
        for net in nets:
            net.biases = [rng.normal(0, 0.5, b.shape) for b in net.biases]
            net.head_b = np.float64(rng.normal())
        stacked = side_by_side(nets)
        assert stacked.blocks == B
        X = rng.normal(0, 1, (9, 5))
        X[0, :] = 0.0               # relu units at exactly 0
        up = rng.normal(0, 1, 9)
        out, cache = mlp_forward(X, stacked)
        assert out.shape == (B, 9)
        np.testing.assert_array_equal(mlp_predict(X, stacked), out)
        g = mlp_backward(stacked, cache, up)
        for i, net in enumerate(nets):
            alone, alone_cache = mlp_forward(X, net)
            np.testing.assert_array_equal(out[i], alone)
            ga = mlp_backward(net, alone_cache, up)
            for have, want in zip(
                    g.weights + g.biases + [g.head_w, g.head_b],
                    ga.weights + ga.biases + [ga.head_w, ga.head_b]):
                np.testing.assert_array_equal(have[i], want)
        single = mlp_forward(X[3], stacked)[0]
        assert single.shape == (B,)
        np.testing.assert_array_equal(
            single, [mlp_forward(X[3], net)[0] for net in nets])

    def test_empty_batch(self):
        stacked = side_by_side([tiny_net("relu", s) for s in range(3)])
        out, cache = mlp_forward(np.zeros((0, 3)), stacked)
        assert out.shape == (3, 0)
        g = mlp_backward(stacked, cache, np.zeros(0))
        assert all(np.all(W == 0) for W in g.weights)

    def test_block_axes_must_agree(self):
        net = tiny_net()
        with pytest.raises(MlpError, match="inconsistent"):
            MlpParams(weights=[W[None] for W in net.weights],
                      biases=net.biases, head_w=net.head_w[None],
                      head_b=np.zeros(1))
        with pytest.raises(MlpError, match="head width"):
            MlpParams(weights=[W[None] for W in net.weights],
                      biases=[b[None] for b in net.biases],
                      head_w=net.head_w, head_b=np.zeros(1))


class TestInit:
    def test_determinism(self):
        a = init_gaussian([5, 8, 8], 0.05, [3, 1])
        b = init_gaussian([5, 8, 8], 0.05, [3, 1])
        for Wa, Wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(Wa, Wb)
        np.testing.assert_array_equal(a.head_w, b.head_w)

    def test_biases_zero_and_head_zero(self):
        p = init_gaussian([4, 6], 0.1, 0)
        assert all(np.all(b == 0) for b in p.biases)
        assert float(p.head_b) == 0.0

    def test_weight_standard_deviation(self):
        sigma = 0.05
        p = init_gaussian([200, 200, 200], sigma, 42)
        pooled = np.concatenate([W.ravel() for W in p.weights])
        assert abs(pooled.std() - sigma) / sigma < 0.05
        assert abs(pooled.mean()) < sigma * 0.05

    def test_shapes(self):
        p = init_gaussian([3, 7, 5], 0.1, 1)
        assert p.weights[0].shape == (7, 3)
        assert p.weights[1].shape == (5, 7)
        assert p.head_w.shape == (5,)

    def test_sigma_must_be_positive(self):
        with pytest.raises(MlpError):
            init_gaussian([3, 4], 0.0, 0)

    def test_needs_hidden_layer(self):
        with pytest.raises(MlpError):
            init_gaussian([3], 0.1, 0)
