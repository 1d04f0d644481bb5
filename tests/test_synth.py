import numpy as np
import pytest

from pilid.pl_component import FeatureShape
from pilid.synth import (
    SynthError,
    SyntheticSpec,
    generate,
    planted_interactions,
    shape_recovery_score,
)


def linear_coeffs(m, slope=1.0):
    """Explicit marginal coefficients: u_j(x) = slope * x."""
    c = np.zeros((m, 11))
    c[:, 1] = slope
    return c


class TestGenerate:
    def test_shapes_and_types(self):
        data, truth = generate(SyntheticSpec(m=3, n=50, seed=1))
        assert data.rows.shape == (50, 3)
        assert data.targets.shape == (50,)
        assert len(truth) == 3
        assert all(len(t.xs) == 101 for t in truth)

    def test_regression_targets_standardized(self):
        data, _ = generate(SyntheticSpec(m=5, n=5000, seed=2))
        assert abs(data.targets.mean()) < 1e-10
        assert abs(data.targets.std() - 1.0) < 1e-10

    def test_features_uniform_unit_interval(self):
        data, _ = generate(SyntheticSpec(m=4, n=4000, seed=3))
        assert data.rows.min() >= 0.0 and data.rows.max() <= 1.0
        assert abs(data.rows.mean() - 0.5) < 0.02

    def test_determinism(self):
        a, ta = generate(SyntheticSpec(m=3, n=100, seed=7))
        b, tb = generate(SyntheticSpec(m=3, n=100, seed=7))
        np.testing.assert_array_equal(a.rows, b.rows)
        np.testing.assert_array_equal(a.targets, b.targets)
        for sa, sb in zip(ta, tb):
            np.testing.assert_array_equal(sa.us, sb.us)

    def test_different_seeds_differ(self):
        a, _ = generate(SyntheticSpec(m=3, n=100, seed=1))
        b, _ = generate(SyntheticSpec(m=3, n=100, seed=2))
        assert not np.array_equal(a.targets, b.targets)

    def test_truth_curves_centered_and_unit_range(self):
        _, truth = generate(SyntheticSpec(m=6, n=10, seed=4))
        for t in truth:
            # quadrature of the centered polynomial over [0, 1]
            assert abs(np.trapezoid(t.us, t.xs)) < 1e-2
            # truth is subsampled at 101 points, so the observed range can
            # sit slightly below the exact unit range
            assert 0.95 <= t.us.max() - t.us.min() <= 1.0 + 1e-12

    def test_explicit_linear_marginal(self):
        # u(x) = x centers to x - 1/2 and has unit range already
        spec = SyntheticSpec(m=1, n=500, seed=5, noise_std=0.0,
                             poly_coeffs=linear_coeffs(1), interactions=[])
        data, truth = generate(spec)
        np.testing.assert_allclose(truth[0].us, truth[0].xs - 0.5, atol=1e-12)
        expect = (data.rows[:, 0] - data.rows[:, 0].mean())
        expect /= expect.std()
        np.testing.assert_allclose(data.targets, expect, atol=1e-10)

    def test_interaction_contributes_exact_product(self):
        spec = SyntheticSpec(m=2, n=300, seed=6, noise_std=0.0,
                             poly_coeffs=np.zeros((2, 11)),
                             interactions=[((0, 1), 0.8)])
        data, _ = generate(spec)
        utility = 0.8 * data.rows[:, 0] * data.rows[:, 1]
        expect = (utility - utility.mean()) / utility.std()
        np.testing.assert_allclose(data.targets, expect, atol=1e-12)

    def test_default_interaction_count(self):
        # m=10 defaults to floor(10 / 5) = 2 planted pairs; removing them
        # changes the targets
        with_pairs, _ = generate(SyntheticSpec(m=10, n=200, seed=8))
        without, _ = generate(SyntheticSpec(m=10, n=200, seed=8,
                                            n_interactions=0))
        assert not np.array_equal(with_pairs.targets, without.targets)

    def test_classification_balanced_when_utility_flat(self):
        spec = SyntheticSpec(m=1, n=20000, seed=9, task="classification",
                             noise_std=0.0, poly_coeffs=np.zeros((1, 11)),
                             interactions=[])
        data, _ = generate(spec)
        assert set(np.unique(data.targets)) <= {0.0, 1.0}
        assert abs(data.targets.mean() - 0.5) < 0.02

    def test_classification_labels_track_utility(self):
        spec = SyntheticSpec(m=1, n=20000, seed=10, task="classification",
                             noise_std=0.0, poly_coeffs=linear_coeffs(1),
                             interactions=[])
        data, _ = generate(spec)
        hi = data.targets[data.rows[:, 0] > 0.8].mean()
        lo = data.targets[data.rows[:, 0] < 0.2].mean()
        assert hi > 0.6 > 0.4 > lo

    def test_validation(self):
        with pytest.raises(SynthError):
            SyntheticSpec(m=0, n=10)
        with pytest.raises(SynthError):
            SyntheticSpec(m=2, n=10, noise_std=-0.1)
        with pytest.raises(SynthError):
            SyntheticSpec(m=2, n=10, poly_coeffs=np.zeros((2, 5)))
        with pytest.raises(SynthError):
            generate(SyntheticSpec(m=2, n=10, interactions=[((0, 0), 1.0)]))
        with pytest.raises(SynthError):
            generate(SyntheticSpec(m=2, n=10, n_interactions=5))
        with pytest.raises(SynthError):
            generate(SyntheticSpec(m=2, n=10, task="ranking"))

    def test_negative_interaction_count_rejected(self):
        with pytest.raises(SynthError, match="cannot plant -1 interactions"):
            SyntheticSpec(m=3, n=10, n_interactions=-1)


class TestPlantedInteractions:
    @pytest.mark.parametrize("seed", range(4))
    def test_targets_are_the_planted_terms(self, seed):
        """With zero marginals and no noise the targets are the
        standardized sum of the planted terms alone."""
        spec = SyntheticSpec(m=6, n=400, seed=seed, noise_std=0.0,
                             poly_coeffs=np.zeros((6, 11)), n_interactions=3)
        data, _ = generate(spec)
        planted = planted_interactions(spec)
        assert len({pair for pair, _ in planted}) == 3
        X = data.rows
        u = sum(c * X[:, a] * X[:, b] for (a, b), c in planted)
        np.testing.assert_allclose(data.targets, (u - u.mean()) / u.std(),
                                   rtol=0, atol=1e-12)

    def test_planted_terms_with_drawn_marginals(self):
        """The pairs are drawn after the marginals' coefficients; the
        targets follow the true curves plus the planted terms."""
        spec = SyntheticSpec(m=6, n=2000, seed=3, noise_std=0.0,
                             n_interactions=3)
        data, truth = generate(spec)
        X = data.rows
        u = sum(np.interp(X[:, t.feature], t.xs, t.us) for t in truth)
        u = u + sum(c * X[:, a] * X[:, b]
                    for (a, b), c in planted_interactions(spec))
        assert np.corrcoef(u, data.targets)[0, 1] > 0.9999

    def test_default_count_and_given_pairs(self):
        assert len(planted_interactions(SyntheticSpec(m=10, n=5))) == 2
        given = [((4, 1), 1.5)]
        assert planted_interactions(
            SyntheticSpec(m=5, n=5, interactions=given)) == given


class TestRecoveryScore:
    def grid_shape(self, f, n=101):
        xs = np.linspace(0, 1, n)
        return FeatureShape(0, "x0", xs, f(xs))

    def test_identical_curves_score_one(self):
        t = self.grid_shape(lambda x: np.sin(3 * x))
        learned = self.grid_shape(lambda x: np.sin(3 * x), n=11)
        assert shape_recovery_score(learned, t) == pytest.approx(1.0)

    def test_anchoring_ignores_vertical_offset(self):
        t = self.grid_shape(lambda x: x ** 2)
        learned = self.grid_shape(lambda x: x ** 2 + 5.0, n=21)
        assert shape_recovery_score(learned, t) == pytest.approx(1.0)

    def test_negated_curve_scores_minus_one(self):
        t = self.grid_shape(lambda x: x ** 3)
        learned = self.grid_shape(lambda x: -(x ** 3), n=21)
        assert shape_recovery_score(learned, t) == pytest.approx(-1.0)

    def test_constant_curve_scores_zero_with_warning(self):
        t = self.grid_shape(lambda x: x)
        learned = self.grid_shape(lambda x: np.zeros_like(x), n=11)
        with pytest.warns(UserWarning, match="degenerate"):
            assert shape_recovery_score(learned, t) == 0.0

    def test_learned_knots_outside_truth_are_clamped(self):
        t = self.grid_shape(lambda x: x)
        xs = np.linspace(-0.5, 1.5, 9)
        learned = FeatureShape(0, "x0", xs, xs.copy())
        score = shape_recovery_score(learned, t)
        assert np.isfinite(score)
