import copy
import math

import numpy as np
import pytest

from pilid.dataset import Dataset, FeatureSpec
from pilid.encoding import build_points, encode_matrix
from pilid.mlp_component import init_gaussian, mlp_forward
from pilid.pl_component import (
    PiecewiseLinearParams,
    curve_forward,
    init_least_squares,
    linear_forward,
)
from pilid.trainer import (
    PilibGates,
    PilidModel,
    TrainConfig,
    TrainingError,
    gate_values,
    lk_penalty,
    model_forward,
)
from pilid import persist, pilib, trainer
from pilid.pilib import (
    active_feature_sets,
    drop_closed_blocks,
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
    specs = [FeatureSpec(name=f"x{j}", kind="numerical")
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
        np.testing.assert_array_equal(estimated_orders(g), [2.0, 0.0])

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

    def test_phase_two_never_moves_gate_logits(self, monkeypatch):
        # phase 2 packs a new vector without the logits: they keep the
        # values phase 1 ended with, outside the vector Adam updates
        at_phase2, vectors = [], []
        real_pack = pilib.pack

        def pack(model):
            if model.hard_gates is not None:
                at_phase2.append(model.gates.log_alpha.copy())
            vectors.append(real_pack(model))
            return vectors[-1]

        monkeypatch.setattr(pilib, "pack", pack)
        data = interaction_data(n=400, m=5, seed=3)
        model, _ = train_pilib(data, 3, [6], 3, 3, 0.3,
                               TrainConfig(epochs=3, batch_size=64, seed=2))
        assert len(at_phase2) == 1
        np.testing.assert_array_equal(model.gates.log_alpha, at_phase2[0])
        assert "gates.log_alpha" not in vectors[-1]
        assert not np.shares_memory(model.gates.log_alpha, vectors[-1].flat)

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


def hardened(data, G):
    """A hand-built model with hard gate rows G, logits that agree, and
    nonzero biases, so that a closed block outputs a nonzero constant."""
    G = np.asarray(G, dtype=float)
    model = manual_pilib(data, B=len(G), hidden=(6, 5),
                         log_alpha=np.where(G > 0, 9.0, -9.0))
    rng = np.random.default_rng(1)
    for blk in model.blocks:
        for b in blk.biases:
            b[...] = rng.normal(0.0, 0.5, b.shape)
        blk.head_b[...] = rng.normal(0.0, 0.5)
    model.hard_gates = G
    return model


GATE_PATTERNS = {
    "none_closed": [[1, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 1]],
    "some_closed": [[0, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 0], [1, 0, 0, 0]],
    "all_closed": [[0, 0, 0, 0], [0, 0, 0, 0]],
}


class TestDropClosedBlocks:
    """A closed block sees an all-zero row, so its output is one constant;
    dropping it and adding that constant to w0 leaves the scores as they
    were, up to rounding."""

    @pytest.mark.parametrize("G", GATE_PATTERNS.values(),
                             ids=GATE_PATTERNS.keys())
    def test_scores_match_the_unpruned_model(self, G):
        model = hardened(interaction_data(n=300, m=4), G)
        is_open = np.any(G, axis=1)
        # more rows than one prediction block
        X = np.random.default_rng(5).uniform(-0.5, 1.5, (3000, 4))
        ref, _ = model_forward(model, X)
        pruned = copy.deepcopy(model)
        drop_closed_blocks(pruned)
        score, _ = model_forward(pruned, X)
        assert np.max(np.abs(score - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert (pruned.pl.w0 == model.pl.w0) == is_open.all()
        if is_open.all():
            np.testing.assert_array_equal(score, ref)
        assert len(pruned.blocks) == is_open.sum()
        kept = [b for b, keep in zip(model.blocks, is_open) if keep]
        for a, b in zip(pruned.blocks, kept):
            np.testing.assert_array_equal(a.head_w, b.head_w)
        np.testing.assert_array_equal(pruned.hard_gates,
                                      model.hard_gates[is_open])
        np.testing.assert_array_equal(pruned.gates.log_alpha,
                                      model.gates.log_alpha[is_open])
        assert pruned.gates.B == is_open.sum()

    @pytest.mark.parametrize("G", GATE_PATTERNS.values(),
                             ids=GATE_PATTERNS.keys())
    def test_pruned_model_saves_and_loads_bit_exactly(self, G, tmp_path):
        model = hardened(interaction_data(n=300, m=4), G)
        drop_closed_blocks(model)
        path = tmp_path / "model.plm"
        persist.save(model, path)
        loaded = persist.load(path)
        X = np.random.default_rng(7).uniform(-0.2, 1.2, (100, 4))
        for a, b in zip(model_forward(model, X), model_forward(loaded, X)):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(loaded.hard_gates, model.hard_gates)
        persist.save(loaded, tmp_path / "again.plm")
        assert (tmp_path / "again.plm").read_bytes() == path.read_bytes()
        if not model.blocks:
            # the wide component, closed blocks' constants folded into w0
            np.testing.assert_array_equal(
                model_forward(loaded, X)[0],
                curve_forward(X, loaded.pl, loaded.points))

    def test_phase_two_runs_only_the_open_blocks(self, monkeypatch):
        # one network forward per step, over every block side by side in
        # phase 1 and over exactly the open blocks in phase 2
        phase2, calls = [], []
        real_pack, real_forward = pilib.pack, trainer.mlp_forward

        def pack(model):
            phase2.append(model.hard_gates is not None)
            return real_pack(model)

        def mlp_forward(x, net):
            calls.append((phase2[-1], net))
            return real_forward(x, net)

        monkeypatch.setattr(pilib, "pack", pack)
        monkeypatch.setattr(trainer, "mlp_forward", mlp_forward)
        data = interaction_data(n=400, m=5, seed=3)
        cfg = TrainConfig(epochs=2, batch_size=64, seed=2)
        model, diag = train_pilib(data, 3, [6], 6, 3, 0.3, cfg)
        assert 0 < len(model.blocks) < 6
        steps = math.ceil(data.n / cfg.batch_size)
        first = [net for two, net in calls if not two]
        second = [net for two, net in calls if two]
        assert len(first) == len(diag["phase1_trace"]) * steps
        assert all(net.blocks == 6 for net in first)
        assert len(second) == cfg.epochs * steps
        for net in second:
            assert net.blocks == len(model.blocks)
            for i, blk in enumerate(model.blocks):
                # the stacked views are the open blocks' own arrays
                assert np.shares_memory(net.head_w[i], blk.head_w)
                assert np.shares_memory(net.biases[0][i], blk.biases[0])

    def test_trained_model_holds_only_open_blocks(self, trained):
        (model, diag), _ = trained
        assert model.hard_gates.any(axis=1).all()
        assert len(model.blocks) == model.gates.B == len(diag["orders"]) \
            == len(diag["active_sets"])


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

    def test_same_feature_twice_rejected(self):
        # the second feature's column would overwrite the first's
        model = manual_pilib(interaction_data(n=100, m=4), B=1)
        with pytest.raises(TrainingError, match="2 and 2"):
            interaction_surface(model, (2, 2))

    @pytest.mark.parametrize("grid", [1, 0, -1])
    def test_grid_below_two_rejected(self, grid):
        model = manual_pilib(interaction_data(n=100, m=4), B=1)
        with pytest.raises(TrainingError, match="grid"):
            interaction_surface(model, (0, 1), grid=grid)

    def test_missing_train_means_rejected(self):
        data = interaction_data(n=100, m=4)
        model = manual_pilib(data, B=1)
        model.train_means = None
        with pytest.raises(TrainingError):
            interaction_surface(model, (0, 1))
