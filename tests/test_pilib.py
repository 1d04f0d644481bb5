import numpy as np
import pytest

from pilid.dataset import Dataset, FeatureSpec
from pilid.encoding import build_points, encode_matrix
from pilid.mlp_component import init_gaussian, mlp_forward
from pilid.pl_component import PiecewiseLinearParams, init_least_squares, linear_forward
from pilid.trainer import (
    PilibGates,
    PilidModel,
    TrainConfig,
    TrainingError,
    gate_values,
    lk_penalty,
    loss_and_grads,
    model_forward,
    param_arrays,
)
from pilid.pilib import (
    active_feature_sets,
    estimated_orders,
    interaction_surface,
    train_pilib,
)


def interaction_data(n=1500, m=8, seed=0, c=1.0, pair=None):
    pair = pair or (1, m - 1)
    rng = np.random.default_rng(seed)
    rows = rng.uniform(0, 1, (n, m))
    y = rows[:, 0] - 0.5 * rows[:, 2] + c * rows[:, pair[0]] * rows[:, pair[1]]
    y = y + 0.05 * rng.normal(0, 1, n)
    specs = [FeatureSpec(name=f"x{j}", kind="numerical",
                         alpha=rows[:, j].min(), beta=rows[:, j].max())
             for j in range(m)]
    return Dataset(rows=rows, targets=y, specs=specs)


def manual_pilib(data, B=2, gamma=3, hidden=(6,), seed=0, log_alpha=None):
    points = build_points(data, gamma)
    pl = init_least_squares(data.rows, data.targets, 1e-8, points)
    blocks = []
    for i in range(B):
        blk = init_gaussian([data.m] + list(hidden), 0.3, [seed, 100 + i])
        blocks.append(blk)
    if log_alpha is None:
        log_alpha = np.zeros((B, data.m))
    gates = PilibGates(log_alpha=np.asarray(log_alpha, dtype=float),
                       temperature=0.05, K=3, lambda0=0.1)
    return PilidModel(pl=pl, blocks=blocks, gates=gates, points=points,
                      task=data.task, train_means=data.rows.mean(axis=0))


class TestGates:
    def test_saturation(self):
        g = PilibGates(log_alpha=np.array([[50.0, -50.0]]), temperature=1.0)
        vals = gate_values(g, "train")
        assert vals[0, 0] == 1.0 and vals[0, 1] == 0.0

    def test_midpoint(self):
        g = PilibGates(log_alpha=np.zeros((1, 1)), temperature=1.0)
        # sigmoid(0) = 0.5 stretched over [-0.1, 1.1] lands at 0.5
        assert gate_values(g, "train")[0, 0] == pytest.approx(0.5)
        assert gate_values(g, "eval")[0, 0] == 1.0   # ties count as active

    def test_low_temperature_sharpens(self):
        la = np.array([[0.2, -0.2]])
        soft = gate_values(PilibGates(log_alpha=la, temperature=1.0), "train")
        hard = gate_values(PilibGates(log_alpha=la, temperature=0.05), "train")
        assert hard[0, 0] > soft[0, 0]
        assert hard[0, 1] < soft[0, 1]

    def test_eval_thresholds_at_half(self):
        g = PilibGates(log_alpha=np.array([[3.0, -3.0, 0.1]]), temperature=0.5)
        np.testing.assert_array_equal(gate_values(g, "eval"), [[1.0, 0.0, 1.0]])

    def test_estimated_orders_row_sums(self):
        g = PilibGates(log_alpha=np.array([[9.0, 9.0, -9.0], [-9.0, -9.0, -9.0]]),
                       temperature=0.1)
        np.testing.assert_array_equal(estimated_orders(g, "eval"), [2.0, 0.0])

    def test_bad_mode(self):
        g = PilibGates(log_alpha=np.zeros((1, 2)))
        with pytest.raises(TrainingError):
            gate_values(g, "sample")


class TestOrderPenalty:
    def test_single_block_above_cap(self):
        assert lk_penalty(np.array([5.0]), 3, 0.0) == pytest.approx(2.0)

    def test_pairwise_blocks_are_free(self):
        # k-hat (2, 2, 2) with K=3: max term 0, pairwise term 0
        assert lk_penalty(np.array([2.0, 2.0, 2.0]), 3, 0.7) == pytest.approx(0.0)

    def test_combined_value(self):
        # max term: 5 - 3 = 2; second: 0.5 * ((5-2) + (1-2) + (0-2)) / 2
        val = lk_penalty(np.array([5.0, 1.0, 0.0]), 3, 0.5)
        assert val == pytest.approx(2.0 + 0.5 * 0.0 / 2 + 0.0)
        assert val == pytest.approx(2.0)

    def test_inactive_blocks_still_count_in_numerator(self):
        # blocks (3, 0): numerator (3-2) + (0-2) = -1, one active block
        val = lk_penalty(np.array([3.0, 0.0]), 3, 1.0)
        assert val == pytest.approx(-1.0)

    def test_all_inactive_drops_second_term(self):
        assert lk_penalty(np.array([0.0, 0.0]), 3, 5.0) == 0.0

    def test_k_validated(self):
        with pytest.raises(TrainingError):
            lk_penalty(np.array([1.0]), 0, 0.1)


class TestForward:
    def test_all_gates_open_single_block_matches_hybrid(self):
        data = interaction_data(n=200, m=4)
        model = manual_pilib(data, B=1, log_alpha=np.full((1, 4), 50.0))
        ref = PilidModel(pl=model.pl, blocks=[model.blocks[0]],
                         points=model.points, task=data.task)
        s_pilib, _ = model_forward(model, data.rows[:50])
        s_ref, _ = model_forward(ref, data.rows[:50])
        np.testing.assert_allclose(s_pilib, s_ref, atol=1e-12)

    def test_closed_gates_reduce_to_wide_plus_constants(self):
        data = interaction_data(n=100, m=4)
        model = manual_pilib(data, B=2, log_alpha=np.full((2, 4), -50.0))
        X = data.rows[:20]
        score, _ = model_forward(model, X)
        phi = encode_matrix(X, model.points)
        wide = linear_forward(phi, model.pl, model.points)
        offset = sum(mlp_forward(np.zeros(4), blk)[0] for blk in model.blocks)
        np.testing.assert_allclose(score, wide + offset, atol=1e-12)

    def test_masked_feature_has_no_influence(self):
        data = interaction_data(n=100, m=4)
        # block 0 sees features {0, 1}; block 1 sees {2}
        la = np.array([[9.0, 9.0, -9.0, -9.0], [-9.0, -9.0, 9.0, -9.0]])
        model = manual_pilib(data, B=2, log_alpha=la)
        # neutralize the wide component so only the blocks remain
        model.pl.omega[:] = 0.0
        model.pl.w0 -= model.pl.w0
        x = data.rows[7].copy()
        base, _ = model_forward(model, x)
        x[3] += 10.0          # feature 3 is gated off everywhere
        bumped, _ = model_forward(model, x)
        assert bumped == pytest.approx(base, abs=1e-12)

    def test_hard_gates_override_logits(self):
        data = interaction_data(n=100, m=4)
        model = manual_pilib(data, B=1, log_alpha=np.full((1, 4), 50.0))
        open_score, _ = model_forward(model, data.rows[:5])
        model.hard_gates = np.zeros((1, 4))
        closed_score, _ = model_forward(model, data.rows[:5])
        assert not np.allclose(open_score, closed_score)

    def test_classification_prediction_is_sigmoid(self):
        data = interaction_data(n=100, m=4)
        labels = (data.targets > np.median(data.targets)).astype(float)
        clf = Dataset(rows=data.rows, targets=labels, specs=data.specs,
                      task="classification")
        model = manual_pilib(clf, B=1)
        score, pred = model_forward(model, clf.rows[:10])
        np.testing.assert_allclose(pred, 1 / (1 + np.exp(-score)), atol=1e-12)


class TestGatedGradients:
    """Finite differences of the gated-block loss in both gate states."""

    def _model(self):
        data = interaction_data(n=40, m=4, seed=5)
        model = manual_pilib(data, B=3, hidden=(5,), seed=2)
        for blk in model.blocks:
            blk.activation = "tanh"
        # relaxed gates strictly inside (0, 1), one block clearly largest
        model.gates.log_alpha = np.array([[1.5, 1.2, 0.9, 1.4],
                                          [0.3, -0.4, 0.6, -0.2],
                                          [-0.5, 0.8, 0.1, 0.4]])
        model.gates.temperature = 1.0
        model.gates.K = 2
        return model, data

    def _check(self, model, data, cfg):
        params = param_arrays(model)
        _, grads = loss_and_grads(model, data.rows, data.targets, cfg)
        h = 1e-6
        for name, arr in params.items():
            flat = arr.reshape(-1)
            for i in range(min(flat.size, 6)):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_and_grads(model, data.rows, data.targets, cfg)[0]
                flat[i] = orig - h
                dn = loss_and_grads(model, data.rows, data.targets, cfg)[0]
                flat[i] = orig
                fd = (up - dn) / (2 * h)
                g = float(grads[name].reshape(-1)[i])
                rel = abs(g - fd) / max(abs(g), abs(fd), 1e-4)
                assert rel < 1e-4, f"{name}[{i}]: {g} vs {fd}"

    def test_relaxed_gates_with_order_penalty(self):
        model, data = self._model()
        relaxed = gate_values(model.gates, "train")
        assert np.all((relaxed > 0.0) & (relaxed < 1.0))
        assert relaxed.sum(axis=1).max() > model.gates.K   # max term active
        assert "gates.log_alpha" in param_arrays(model)
        self._check(model, data, TrainConfig(lam=0.01, reg="l2"))

    def test_frozen_hard_gates(self):
        model, data = self._model()
        model.hard_gates = np.array([[1.0, 1.0, 0.0, 1.0],
                                     [0.0, 1.0, 1.0, 0.0],
                                     [1.0, 0.0, 0.0, 0.0]])
        assert "gates.log_alpha" not in param_arrays(model)
        self._check(model, data, TrainConfig(lam=0.01, reg="l2"))


@pytest.fixture(scope="module")
def trained():
    data = interaction_data(n=1500, m=8, seed=0, c=1.5)
    cfg = TrainConfig(epochs=5, batch_size=128, seed=0, lam=1e-4)
    return train_pilib(data, 3, [8, 8], 6, 3, 0.5, cfg), data


class TestTraining:
    def test_order_cap_satisfied(self, trained):
        (model, diag), _ = trained
        assert not diag["capped"]
        assert diag["orders"].max() <= 3

    def test_hard_gates_frozen_after_phase_two(self, trained):
        (model, diag), _ = trained
        assert model.hard_gates is not None
        np.testing.assert_array_equal(model.hard_gates,
                                      gate_values(model.gates, "eval"))

    def test_active_sets_match_orders(self, trained):
        (model, diag), _ = trained
        sets = active_feature_sets(model)
        for s, k in zip(sets, diag["orders"]):
            assert len(s) == int(k)

    def test_inactive_features_exactly_ignored(self, trained):
        (model, diag), data = trained
        used = set().union(*map(set, diag["active_sets"])) if \
            any(diag["active_sets"]) else set()
        dead = [j for j in range(8) if j not in used]
        if not dead:
            pytest.skip("every feature stayed active for this seed")
        model.pl.omega[:] = 0.0   # isolate the blocks
        x = data.rows[0].copy()
        base, _ = model_forward(model, x)
        x[dead[0]] += 5.0
        bumped, _ = model_forward(model, x)
        assert bumped == pytest.approx(base, abs=1e-12)

    def test_deterministic(self):
        data = interaction_data(n=400, m=5, seed=1)
        cfg = TrainConfig(epochs=2, batch_size=64, seed=4)
        m1, d1 = train_pilib(data, 3, [6], 3, 3, 0.3, cfg)
        m2, d2 = train_pilib(data, 3, [6], 3, 3, 0.3, cfg)
        np.testing.assert_array_equal(m1.gates.log_alpha, m2.gates.log_alpha)
        assert d1["phase1_trace"] == d2["phase1_trace"]
        assert d1["phase2_trace"] == d2["phase2_trace"]
        np.testing.assert_array_equal(m1.hard_gates, m2.hard_gates)

    def test_larger_lambda0_pushes_gate_logits_down(self):
        # K = m makes the cap vacuous, so phase 1 lasts exactly one epoch
        # for both runs and the penalty strength is the only difference
        data = interaction_data(n=400, m=5, seed=2)
        cfg = TrainConfig(epochs=1, batch_size=128, seed=1)
        mild_model, mild = train_pilib(data, 3, [6], 4, 5, 0.05, cfg)
        harsh_model, harsh = train_pilib(data, 3, [6], 4, 5, 20.0, cfg)
        assert len(mild["phase1_trace"]) == len(harsh["phase1_trace"]) == 1
        assert harsh_model.gates.log_alpha.sum() \
            < mild_model.gates.log_alpha.sum()

    def test_argument_validation(self):
        data = interaction_data(n=100, m=4)
        with pytest.raises(TrainingError):
            train_pilib(data, 3, [6], 0, 3, 0.1, TrainConfig(epochs=1))
        with pytest.raises(TrainingError):
            train_pilib(data, 3, [6], 2, 3, -0.5, TrainConfig(epochs=1))


class TestInteractionSurface:
    def test_no_matching_block_gives_flat_surface(self):
        data = interaction_data(n=100, m=4)
        la = np.array([[9.0, 9.0, 9.0, -9.0]])   # needs feature 2 too
        model = manual_pilib(data, B=1, log_alpha=la)
        _, _, surf = interaction_surface(model, (0, 1), grid=5)
        assert np.all(surf == 0.0)

    def test_surface_matches_block_sum(self):
        data = interaction_data(n=100, m=4)
        la = np.array([[9.0, 9.0, -9.0, -9.0], [-9.0, 9.0, 9.0, -9.0]])
        model = manual_pilib(data, B=2, log_alpha=la)
        xs_a, xs_b, surf = interaction_surface(model, (0, 1), grid=4)
        G = gate_values(model.gates, "eval")
        for r, va in enumerate(xs_a):
            for c, vb in enumerate(xs_b):
                x = model.train_means.copy()
                x[0], x[1] = va, vb
                expect = mlp_forward(x * G[0], model.blocks[0])[0]
                assert surf[r, c] == pytest.approx(expect, abs=1e-12)

    def test_out_of_range_feature_rejected(self):
        data = interaction_data(n=100, m=4)
        model = manual_pilib(data, B=1)
        with pytest.raises(TrainingError):
            interaction_surface(model, (0, 9))

    def test_missing_train_means_rejected(self):
        data = interaction_data(n=100, m=4)
        model = manual_pilib(data, B=1)
        model.train_means = None
        with pytest.raises(TrainingError):
            interaction_surface(model, (0, 1))
