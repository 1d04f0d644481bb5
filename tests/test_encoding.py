import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pilid.dataset import Dataset, FeatureSpec
from pilid.encoding import (
    CharacteristicPoints,
    EncodingError,
    build_points,
    encode_matrix,
)


def simple_points(gamma=5, lo=0.0, hi=1.0):
    return CharacteristicPoints(points=[np.linspace(lo, hi, gamma + 1)],
                                constant=[False])


def unit_dataset(cols, kinds=None):
    """Dataset from a dict of column arrays (targets all zero)."""
    names = list(cols)
    rows = np.column_stack([np.asarray(cols[k], dtype=float) for k in names])
    kinds = kinds or {}
    specs = [FeatureSpec(name=name, kind=kinds.get(name, "numerical"))
             for name in names]
    return Dataset(rows=rows, targets=np.zeros(len(rows)), specs=specs)


def assert_block_structure(block, tol=1e-12):
    """Ones prefix, at most one interior fractional entry, zeros suffix."""
    i = 0
    while i < len(block) and block[i] == 1.0:
        i += 1
    if i < len(block) and 0.0 < block[i] < 1.0:
        i += 1
    assert np.all(block[i:] == 0.0), f"bad block structure: {block}"


class TestBuildPoints:
    def test_numerical_equal_spacing(self):
        data = unit_dataset({"a": [0.0, 0.25, 1.0]})
        pts = build_points(data, 5)
        np.testing.assert_allclose(pts.points[0], [0, 0.2, 0.4, 0.6, 0.8, 1.0])
        assert pts.gammas[0] == 5 and pts.total == 5

    def test_categorical_uses_levels(self):
        data = unit_dataset({"a": [1.0, 3.0, 7.0]}, kinds={"a": "categorical"})
        pts = build_points(data, 5)
        np.testing.assert_array_equal(pts.points[0], [1.0, 3.0, 7.0])
        assert pts.gammas[0] == 2

    def test_constant_feature_flagged_with_warning(self):
        data = unit_dataset({"a": [2.0, 2.0, 2.0], "b": [0.0, 0.5, 1.0]})
        with pytest.warns(UserWarning, match="constant"):
            pts = build_points(data, 3)
        assert pts.constant == [True, False]
        assert pts.gammas.tolist() == [1, 3]
        assert pts.total == 4

    def test_gamma_below_one_rejected(self):
        data = unit_dataset({"a": [0.0, 1.0]})
        with pytest.raises(EncodingError, match="gamma"):
            build_points(data, 0)

    def test_per_feature_gammas(self):
        data = unit_dataset({"a": [0.0, 1.0], "b": [0.0, 2.0]})
        pts = build_points(data, [2, 4])
        assert pts.gammas.tolist() == [2, 4]
        assert pts.offsets.tolist() == [0, 2]

    def test_gamma_list_length_checked(self):
        data = unit_dataset({"a": [0.0, 1.0], "b": [0.0, 2.0]})
        with pytest.raises(EncodingError):
            build_points(data, [2])


class TestEncode:
    def test_lower_end_all_zero(self):
        phi = encode_matrix(np.array([0.0])[None, :], simple_points(5))[0]
        assert np.all(phi == 0.0)

    def test_upper_end_all_one(self):
        phi = encode_matrix(np.array([1.0])[None, :], simple_points(5))[0]
        assert np.all(phi == 1.0)

    def test_midpoint_hand_value(self):
        # x = 0.5 with 5 equal intervals on [0, 1]: two full intervals, the
        # third half-covered, the rest untouched.
        phi = encode_matrix(np.array([0.5])[None, :], simple_points(5))[0]
        np.testing.assert_allclose(phi, [1.0, 1.0, 0.5, 0.0, 0.0], atol=1e-15)

    def test_out_of_range_clamped(self):
        pts = simple_points(4)
        np.testing.assert_array_equal(
            encode_matrix(np.array([-3.0])[None, :], pts)[0],
            encode_matrix(np.array([0.0])[None, :], pts)[0])
        np.testing.assert_array_equal(
            encode_matrix(np.array([9.0])[None, :], pts)[0],
            encode_matrix(np.array([1.0])[None, :], pts)[0])

    def test_constant_feature_encodes_to_zero(self):
        pts = CharacteristicPoints(
            points=[np.array([2.0]), np.linspace(0, 1, 4)],
            constant=[True, False])
        phi = encode_matrix(np.array([2.0, 0.5])[None, :], pts)[0]
        assert phi[0] == 0.0 and pts.total == 4

    def test_matrix_matches_vector(self):
        pts = simple_points(7, -1.0, 3.0)
        rows = np.random.default_rng(0).uniform(-1, 3, (20, 1))
        mat = encode_matrix(rows, pts)
        for i in range(20):
            np.testing.assert_array_equal(
                mat[i], encode_matrix(rows[i][None, :], pts)[0])

    def test_wrong_width_rejected(self):
        with pytest.raises(EncodingError):
            encode_matrix(np.array([0.5, 0.5])[None, :], simple_points(5))[0]


@st.composite
def points_and_x(draw):
    gamma = draw(st.integers(1, 8))
    lo = draw(st.floats(-10, 10, allow_nan=False))
    width = draw(st.floats(0.01, 20, allow_nan=False))
    pts = CharacteristicPoints(points=[np.linspace(lo, lo + width, gamma + 1)],
                               constant=[False])
    x = draw(st.floats(lo - width, lo + 2 * width, allow_nan=False))
    return pts, x


class TestEncodingProperties:
    @given(points_and_x())
    @settings(max_examples=200, deadline=None)
    def test_block_structure(self, px):
        pts, x = px
        assert_block_structure(encode_matrix(np.array([x])[None, :], pts)[0])

    @given(points_and_x(), st.floats(0, 5, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_x(self, px, bump):
        pts, x = px
        lo = encode_matrix(np.array([x])[None, :], pts)[0]
        hi = encode_matrix(np.array([x + bump])[None, :], pts)[0]
        assert np.all(hi >= lo - 1e-15)

    @given(points_and_x())
    @settings(max_examples=200, deadline=None)
    def test_reconstruction(self, px):
        # Knot spacing times the block sum recovers x - knot_0 exactly for
        # in-range x (clamped otherwise).
        pts, x = px
        p = pts.points[0]
        phi = encode_matrix(np.array([x])[None, :], pts)[0]
        xc = min(max(x, p[0]), p[-1])
        recon = p[0] + float(np.dot(np.diff(p), phi))
        assert recon == pytest.approx(xc, abs=1e-12 * max(1.0, abs(xc)))

    @given(points_and_x())
    @settings(max_examples=100, deadline=None)
    def test_continuity(self, px):
        pts, x = px
        p = pts.points[0]
        h = (p[-1] - p[0]) * 1e-9
        a = encode_matrix(np.array([x])[None, :], pts)[0]
        b = encode_matrix(np.array([x + h])[None, :], pts)[0]
        # each entry has slope at most 1/min_interval
        lip = 1.0 / np.diff(p).min()
        assert np.all(np.abs(b - a) <= 2 * h * lip + 1e-12)

    @given(st.integers(1, 8), st.integers(0, 1000))
    @settings(max_examples=100, deadline=None)
    def test_entries_in_unit_interval(self, gamma, xi):
        pts = simple_points(gamma)
        phi = encode_matrix(np.array([xi / 1000])[None, :], pts)[0]
        assert np.all((phi >= 0) & (phi <= 1))
