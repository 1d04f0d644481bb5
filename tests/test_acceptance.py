"""End-to-end acceptance suite.

Each test covers one headline requirement, is numbered, and prints a
single PASS line (the assertion failing prints nothing, so a missing
line means a failed criterion).  Heavier tests also enforce a wall-clock
budget.
"""

import dataclasses
import time

import numpy as np
import pytest

from pilid.dataset import split
from pilid.encoding import CharacteristicPoints, build_points, encode_matrix
from pilid.metrics_eval import ExperimentConfig, auc, mse, run_trials
from pilid.pl_component import (
    PiecewiseLinearParams,
    extract_shapes,
    init_least_squares,
    linear_forward,
)
from pilid.pilib import train_pilib
from pilid.persist import load, save
from pilid.synth import SyntheticSpec, generate, shape_recovery_score
from pilid.trainer import (
    TrainConfig,
    init_model,
    lk_penalty,
    loss_and_grads,
    model_forward,
    param_arrays,
    train,
)

from test_pl_component import gauss_solve


def report(number, text):
    print(f"PASS  criterion {number}: {text}")


def timed(started, limit, number):
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.1f}s)"
    return elapsed


class TestCriterion01JointGradients:
    def test_analytic_gradients_match_finite_differences(self):
        started = time.perf_counter()
        h = 1e-5
        worst = 0.0
        for task in ("regression", "classification"):
            for seed in (1, 2, 3):
                for lam in (0.0, 0.01):
                    data, _ = generate(SyntheticSpec(m=4, n=32, task=task,
                                                     seed=seed))
                    cfg = TrainConfig(seed=seed, lam=lam, reg="l2")
                    model = init_model(data, 3, [8, 8], cfg,
                                       activation="tanh")
                    _, grads = loss_and_grads(model, data.rows, data.targets,
                                              cfg)
                    for name, arr in param_arrays(model).items():
                        flat = arr.reshape(-1)
                        for i in range(min(flat.size, 6)):
                            orig = flat[i]
                            flat[i] = orig + h
                            up = loss_and_grads(model, data.rows,
                                                data.targets, cfg)[0]
                            flat[i] = orig - h
                            dn = loss_and_grads(model, data.rows,
                                                data.targets, cfg)[0]
                            flat[i] = orig
                            fd = (up - dn) / (2 * h)
                            g = float(grads[name].reshape(-1)[i])
                            rel = abs(g - fd) / max(abs(g), abs(fd), 1e-4)
                            worst = max(worst, rel)
                            assert rel < 1e-4, f"{task} s{seed} {name}[{i}]"
        elapsed = timed(started, 10.0, 1)
        report(1, "joint backprop matches finite differences, worst relative "
                  f"error {worst:.2e} over both tasks/losses ({elapsed:.1f}s)")


class TestCriterion02Encoding:
    def test_structure_monotonicity_reconstruction(self):
        started = time.perf_counter()
        # hand-checked reference value
        pts = CharacteristicPoints(points=[np.linspace(0, 1, 6)],
                                   constant=[False])
        np.testing.assert_allclose(
            encode_matrix(np.array([0.5])[None, :], pts)[0],
            [1.0, 1.0, 0.5, 0.0, 0.0], atol=1e-15)
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 10_000:
            gamma = int(rng.integers(1, 9))
            lo = rng.uniform(-5, 5)
            width = rng.uniform(0.01, 10)
            pts = CharacteristicPoints(
                points=[np.linspace(lo, lo + width, gamma + 1)],
                constant=[False])
            xs = np.sort(rng.uniform(lo - width, lo + 2 * width, 4))
            phi = encode_matrix(xs[:, None], pts)
            p = pts.points[0]
            for k, x in enumerate(xs):
                block = phi[k]
                i = 0
                while i < gamma and block[i] == 1.0:
                    i += 1
                if i < gamma and 0.0 < block[i] < 1.0:
                    i += 1
                assert np.all(block[i:] == 0.0), "block structure violated"
                xc = min(max(x, p[0]), p[-1])
                recon = p[0] + float(np.dot(np.diff(p), block))
                assert abs(recon - xc) <= 1e-12 * max(1.0, abs(xc))
                checked += 1
            assert np.all(np.diff(phi, axis=0) >= -1e-15), "not monotone"
        elapsed = timed(started, 5.0, 2)
        report(2, f"{checked} random encodings satisfy block structure, "
                  f"monotonicity and exact reconstruction ({elapsed:.1f}s)")


class TestCriterion03SingleIntervalLinearity:
    def test_gamma_one_model_is_affine_per_feature(self):
        # with one sub-interval per feature the model is affine in each
        # coordinate away from the left edge (where per-unit biases kick in)
        data, _ = generate(SyntheticSpec(m=3, n=500, seed=3))
        model, _ = train(data, 1, [4], TrainConfig(epochs=2, batch_size=128,
                                                   seed=2))
        # isolate the wide component: the same model without blocks
        model = dataclasses.replace(model, blocks=[], hard_gates=None)
        rng = np.random.default_rng(5)
        worst = 0.0
        for j in range(3):
            p = model.points.points[j]
            grid = p[0] + (p[-1] - p[0]) * np.linspace(0.05, 1.0, 11)
            base = rng.uniform(0.2, 0.8, 3)
            X = np.tile(base, (11, 1))
            X[:, j] = grid
            out, _ = model_forward(model, X)
            second = np.diff(out, n=2)
            worst = max(worst, float(np.max(np.abs(second))))
        assert worst <= 1e-10
        report(3, "single-interval wide component is exactly affine per "
                  f"feature, max |second difference| {worst:.1e}")


class TestCriterion04LeastSquaresInit:
    def test_exact_fit_and_reference_solver_agreement(self):
        started = time.perf_counter()
        rng = np.random.default_rng(44)
        # realizable targets recovered to high precision; feature 0 stays
        # above its second knot so the encoded columns span the intercept
        data, _ = generate(SyntheticSpec(m=2, n=80, seed=4))
        points = build_points(data, 4)
        rows = data.rows.copy()
        p0 = points.points[0]
        rows[:, 0] = np.maximum(rows[:, 0], p0[1] + 0.1 * (p0[-1] - p0[1]))
        phi = encode_matrix(rows, points)
        y = phi @ rng.normal(0, 1, points.total) + 1.3
        params = init_least_squares(rows, y, 1e-10, points)
        resid = np.max(np.abs(linear_forward(phi, params, points) - y))
        assert resid < 1e-6
        # independent Gaussian-elimination oracle on the encoding of random
        # rows inside and outside the knot range
        pts6 = build_points(data, 3)
        lo = np.array([p[0] for p in pts6.points])
        hi = np.array([p[-1] for p in pts6.points])
        for _ in range(5):
            X = rng.uniform(lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo),
                            (50, pts6.m))
            A = encode_matrix(X, pts6)
            t = rng.normal(0, 1, 50)
            fit = init_least_squares(X, t, 1e-6, pts6)
            ref = gauss_solve(A.T @ A + 1e-6 * np.eye(pts6.total),
                              A.T @ (t - t.mean()))
            np.testing.assert_allclose(fit.w, ref, rtol=1e-8, atol=1e-10)
        elapsed = timed(started, 10.0, 4)
        report(4, "least-squares initializer reproduces realizable targets "
                  f"(max residual {resid:.1e}) and matches an elimination "
                  f"oracle to 1e-8 ({elapsed:.1f}s)")


class TestCriterion05ShapeRecovery:
    def test_marginal_curves_recovered_on_synthetic_data(self):
        started = time.perf_counter()
        good_seeds = 0
        details = []
        for seed in (1, 2, 3, 4, 5):
            data, truth = generate(SyntheticSpec(m=5, n=10_000, seed=seed,
                                                 n_interactions=0))
            train_set, _ = split(data, 0.8, seed)
            cfg = TrainConfig(epochs=50, batch_size=256, seed=seed)
            model, _ = train(train_set, 10, [32, 32], cfg)
            shapes = extract_shapes(model.pl, model.points,
                                    names=train_set.feature_names)
            scores = [shape_recovery_score(s, t)
                      for s, t in zip(shapes, truth)]
            ok = sum(s >= 0.9 for s in scores)
            details.append(f"seed {seed}: {ok}/5 curves, "
                           f"min corr {min(scores):.3f}")
            if ok >= 4:
                good_seeds += 1
        assert good_seeds >= 4, details
        elapsed = timed(started, 300.0, 5)
        report(5, f"shape recovery >= 0.9 on >= 4/5 features for "
                  f"{good_seeds}/5 seeds ({elapsed:.1f}s)")


class TestCriterion06BeatsPlainMlp:
    def test_hybrid_matches_or_beats_mlp_baseline(self):
        started = time.perf_counter()
        synth = SyntheticSpec(m=10, n=20_000, seed=0)
        tcfg = TrainConfig(epochs=30, batch_size=256)
        hybrid = ExperimentConfig(synth=synth, gammas=5, mlp_widths=[32, 32],
                                  model="pilid", train=tcfg, base_seed=1)
        plain = dataclasses.replace(hybrid, model="mlp")
        r_hybrid = run_trials(hybrid, 5)
        r_plain = run_trials(plain, 5)
        assert r_hybrid.mean <= r_plain.mean * 1.02, \
            (r_hybrid.mean, r_plain.mean)

        # the reference wide+deep architecture must run end to end
        big = dataclasses.replace(
            hybrid, mlp_widths=[100, 200, 400, 400, 200, 100, 1],
            train=TrainConfig(epochs=10, batch_size=256))
        r_big = run_trials(big, 1)
        assert np.isfinite(r_big.values[0]) and r_big.values[0] < 0.5
        elapsed = timed(started, 1200.0, 6)
        report(6, f"held-out MSE hybrid {r_hybrid.mean:.4f} <= plain MLP "
                  f"{r_plain.mean:.4f} over 5 trials; full architecture "
                  f"trial MSE {r_big.values[0]:.4f} ({elapsed:.0f}s)")


class TestCriterion07InitializationHelps:
    def test_least_squares_init_beats_gaussian_under_short_budget(self):
        started = time.perf_counter()
        synth = SyntheticSpec(m=10, n=20_000, seed=0)
        tcfg = TrainConfig(epochs=10, batch_size=256)
        ls = ExperimentConfig(synth=synth, gammas=1, mlp_widths=[32, 32],
                              pl_init="least_squares", train=tcfg, base_seed=1)
        gauss = dataclasses.replace(ls, pl_init="gaussian")
        r_ls = run_trials(ls, 5)
        r_gauss = run_trials(gauss, 5)
        assert r_ls.mean <= r_gauss.mean * 1.02, (r_ls.mean, r_gauss.mean)
        elapsed = timed(started, 600.0, 7)
        report(7, f"least-squares init MSE {r_ls.mean:.4f} <= random init "
                  f"{r_gauss.mean:.4f} under a 10-epoch budget ({elapsed:.0f}s)")


class TestCriterion08GatedBlocks:
    def test_order_control_and_exact_masking(self):
        started = time.perf_counter()
        # order-penalty unit values
        assert lk_penalty(np.array([5.0]), 3, 0.0) == pytest.approx(2.0)
        assert lk_penalty(np.array([2.0, 2.0, 2.0]), 3, 0.7) == 0.0
        assert lk_penalty(np.array([0.0, 0.0]), 3, 9.9) == 0.0

        spec = SyntheticSpec(m=8, n=1500, seed=0, noise_std=0.05,
                             interactions=[((1, 4), 1.5)])
        data, _ = generate(spec)
        cfg = TrainConfig(epochs=5, batch_size=128, seed=0)
        model, diag = train_pilib(data, 3, [8, 8], 6, 3, 0.5, cfg)
        assert not diag["capped"]
        assert diag["orders"].max() <= 3

        # a feature outside every active set is exactly non-influential
        used = set()
        for s in diag["active_sets"]:
            used |= set(s)
        dead = [j for j in range(8) if j not in used]
        masked_checked = False
        if dead:
            model.pl.omega[:] = 0.0
            x = data.rows[3].copy()
            base, _ = model_forward(model, x)
            x[dead[0]] += 7.0
            bumped, _ = model_forward(model, x)
            assert bumped == pytest.approx(base, abs=1e-12)
            masked_checked = True
        elapsed = timed(started, 120.0, 8)
        report(8, "gated blocks converge with max order "
                  f"{diag['orders'].max():.0f} <= 3 (not capped); order "
                  f"penalty matches hand values; masking exact: "
                  f"{masked_checked} ({elapsed:.1f}s)")


class TestCriterion09Classification:
    def test_synthetic_classification_auc(self):
        started = time.perf_counter()
        aucs = []
        for seed in (1, 2, 3):
            data, _ = generate(SyntheticSpec(m=10, n=10_000, seed=seed,
                                             task="classification"))
            train_set, test_set = split(data, 0.8, seed)
            cfg = TrainConfig(epochs=40, batch_size=256, seed=seed)
            model, _ = train(train_set, 5, [32, 32], cfg)
            scores, _ = model_forward(model, test_set.rows)
            aucs.append(auc(scores, test_set.targets))
        assert all(a >= 0.80 for a in aucs), aucs
        elapsed = timed(started, 300.0, 9)
        report(9, "held-out AUC "
                  + ", ".join(f"{a:.3f}" for a in aucs)
                  + f" >= 0.80 on all 3 seeds ({elapsed:.0f}s)")


class TestCriterion10Determinism:
    def test_bit_identical_training_and_persistence(self, tmp_path):
        data, _ = generate(SyntheticSpec(m=4, n=800, seed=6))
        cfg = TrainConfig(epochs=3, batch_size=128, seed=9)
        m1, t1 = train(data, 4, [8, 8], cfg)
        m2, t2 = train(data, 4, [8, 8], cfg)
        assert t1 == t2
        for k, v in param_arrays(m1).items():
            np.testing.assert_array_equal(v, param_arrays(m2)[k], err_msg=k)

        path = tmp_path / "model.plm"
        save(m1, path)
        loaded = load(path)
        X = np.random.default_rng(7).uniform(-0.2, 1.2, (100, 4))
        s0, p0 = model_forward(m1, X)
        s1, p1 = model_forward(loaded, X)
        np.testing.assert_array_equal(s0, s1)
        np.testing.assert_array_equal(p0, p1)
        report(10, "same-seed training is bit-identical and a save/load "
                   "round trip reproduces all 100 test predictions exactly")


class TestCriterion11LossDecreases:
    def test_smoothed_training_loss_decreases(self):
        started = time.perf_counter()
        wins = 0
        for seed in (1, 2, 3, 4, 5):
            data, _ = generate(SyntheticSpec(m=10, n=5000, seed=seed))
            cfg = TrainConfig(epochs=30, batch_size=256, seed=seed)
            _, trace = train(data, 5, [32, 32], cfg)
            smoothed = [float(np.mean(trace[max(0, t - 9):t + 1]))
                        for t in range(len(trace))]
            if smoothed[-1] < smoothed[0]:
                wins += 1
        assert wins >= 4
        elapsed = timed(started, 300.0, 11)
        report(11, f"window-10 smoothed training loss decreased for "
                   f"{wins}/5 seeds ({elapsed:.0f}s)")
