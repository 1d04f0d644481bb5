import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pilid.metrics_eval import (
    ExperimentConfig,
    MetricsError,
    auc,
    mse,
    run_trials,
)
from pilid.synth import SyntheticSpec
from pilid.trainer import TrainConfig


class TestMse:
    def test_zero_for_equal(self):
        assert mse(np.ones(5), np.ones(5)) == 0.0

    def test_hand_value(self):
        assert mse(np.array([1.0, 2.0]), np.array([0.0, 4.0])) == pytest.approx(2.5)

    def test_length_mismatch(self):
        with pytest.raises(MetricsError):
            mse(np.ones(3), np.ones(4))

    def test_empty_rejected(self):
        with pytest.raises(MetricsError):
            mse(np.array([]), np.array([]))


class TestAuc:
    def test_perfect_separation(self):
        assert auc(np.array([0.1, 0.2, 0.8, 0.9]),
                   np.array([0.0, 0.0, 1.0, 1.0])) == 1.0

    def test_perfectly_wrong(self):
        assert auc(np.array([0.9, 0.8, 0.2, 0.1]),
                   np.array([0.0, 0.0, 1.0, 1.0])) == 0.0

    def test_hand_enumerated_value(self):
        # pairs: (0.1, 0.35) +, (0.1, 0.8) +, (0.4, 0.35) -, (0.4, 0.8) +
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        labels = np.array([0.0, 0.0, 1.0, 1.0])
        assert auc(scores, labels) == pytest.approx(0.75)

    def test_all_tied_scores_half(self):
        assert auc(np.ones(6), np.array([0, 1, 0, 1, 0, 1.0])) == pytest.approx(0.5)

    def test_single_tie_counts_half(self):
        # one concordant pair, one tied pair out of two
        scores = np.array([0.5, 0.5, 0.9])
        labels = np.array([0.0, 1.0, 1.0])
        assert auc(scores, labels) == pytest.approx(0.75)

    def test_single_class_rejected(self):
        with pytest.raises(MetricsError):
            auc(np.array([0.1, 0.2]), np.array([1.0, 1.0]))

    def test_nan_score_gives_nan(self):
        # a NaN would otherwise sort last and yield a finite, wrong AUC
        scores = np.array([0.1, np.nan, 0.35, 0.8])
        assert np.isnan(auc(scores, np.array([0.0, 0.0, 1.0, 1.0])))

    def test_length_mismatch(self):
        with pytest.raises(MetricsError):
            auc(np.ones(3), np.ones(2))

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        scores = rng.normal(0, 1, n)
        labels = rng.integers(0, 2, n).astype(float)
        if labels.min() == labels.max():
            labels[0] = 1.0 - labels[0]
        base = auc(scores, labels)
        assert auc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)
        assert auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_pair_counting(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 5, 12).astype(float)   # force ties
        labels = np.array([0.0] * 6 + [1.0] * 6)
        total, wins = 0, 0.0
        for sp in scores[labels == 1]:
            for sn in scores[labels == 0]:
                total += 1
                wins += 1.0 if sp > sn else (0.5 if sp == sn else 0.0)
        assert auc(scores, labels) == pytest.approx(wins / total, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_heavy_ties_match_brute_force_mann_whitney(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 80))
        scores = rng.integers(-2, int(rng.integers(-1, 6)), n).astype(float)
        labels = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(float)
        labels[:2] = [0.0, 1.0]
        pos, neg = scores[labels == 1], scores[labels == 0]
        wins = sum(1.0 if p > q else 0.5 if p == q else 0.0
                   for p in pos for q in neg)
        assert auc(scores, labels) == pytest.approx(
            wins / (len(pos) * len(neg)), abs=1e-12)


def small_config(task="regression", model="pilid"):
    return ExperimentConfig(
        synth=SyntheticSpec(m=3, n=400, task=task, seed=0),
        gammas=3, mlp_widths=[6], model=model,
        train=TrainConfig(epochs=2, batch_size=128, seed=0),
        base_seed=5)


class TestRunTrials:
    def test_report_structure_and_seed_sequence(self):
        report = run_trials(small_config(), 3)
        assert report.seeds == [5, 6, 7]
        assert len(report.values) == 3
        assert report.mean == pytest.approx(np.mean(report.values))
        assert report.std == pytest.approx(np.std(report.values, ddof=1))

    def test_single_trial_degenerate_std(self):
        report = run_trials(small_config(), 1)
        assert report.std == 0.0

    def test_determinism(self):
        a = run_trials(small_config(), 2)
        b = run_trials(small_config(), 2)
        assert a.values == b.values

    def test_classification_reports_auc(self):
        report = run_trials(small_config(task="classification"), 1)
        assert 0.0 <= report.values[0] <= 1.0

    def test_mlp_baseline_runs(self):
        report = run_trials(small_config(model="mlp"), 1)
        assert np.isfinite(report.values[0])

    def test_unknown_model_rejected(self):
        with pytest.raises(MetricsError):
            run_trials(small_config(model="boost"), 1)

    def test_zero_trials_rejected(self):
        with pytest.raises(MetricsError):
            run_trials(small_config(), 0)

    def test_csv_round_numbers(self):
        report = run_trials(small_config(), 2)
        text = report.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == ("trial,seed,value,shape_min,shape_mean,planted,"
                            "active_sets,pair_coverage,phase1_epochs,capped")
        assert float(lines[1].split(",")[2]) == report.values[0]
        assert text.endswith("\n")
