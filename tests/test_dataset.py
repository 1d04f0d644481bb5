import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pilid.dataset import (
    Dataset,
    DatasetError,
    FeatureSpec,
    batches,
    load_csv,
    split,
)
from pilid.encoding import build_points


def write_csv(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def make_dataset(n=10, m=3, seed=0, task="regression"):
    rng = np.random.default_rng(seed)
    rows = rng.uniform(0, 1, (n, m))
    targets = rng.uniform(-1, 1, n)
    if task == "classification":
        targets = (targets > 0).astype(float)
    specs = [FeatureSpec(name=f"x{j}", kind="numerical") for j in range(m)]
    return Dataset(rows=rows, targets=targets, specs=specs, task=task)


class TestLoadCsv:
    def test_numeric_file(self, tmp_path):
        p = write_csv(tmp_path, "a,b,y\n0.1,1.5,2.0\n0.7,2.5,3.0\n0.4,3.5,4.0\n")
        data = load_csv(p, "y", "regression")
        assert data.n == 3 and data.m == 2
        assert all(s.kind == "numerical" for s in data.specs)
        assert data.feature_names == ["a", "b"]
        np.testing.assert_allclose(data.targets, [2.0, 3.0, 4.0])

    def test_small_integer_column_is_categorical(self, tmp_path):
        p = write_csv(tmp_path, "a,y\n0,1.1\n1,2.2\n2,3.3\n0,4.4\n")
        data = load_csv(p, "y", "regression")
        assert data.specs[0] == FeatureSpec("a", "categorical")
        np.testing.assert_array_equal(build_points(data, 5).points[0],
                                      [0.0, 1.0, 2.0])

    def test_unparseable_cell_names_row_and_column(self, tmp_path):
        p = write_csv(tmp_path, "a,y\n1.0,2.0\nabc,3.0\n")
        with pytest.raises(DatasetError, match=r"line 3.*'a'"):
            load_csv(p, "y", "regression")

    @pytest.mark.parametrize("cell,shown", [("nan", "nan"), ("inf", "inf"),
                                            ("-Infinity", "-inf")])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, cell,
                                                   shown):
        p = write_csv(tmp_path, f"a,y\n1.0,2.0\n2.0,3.0\n3.0,{cell}\n")
        with pytest.raises(DatasetError) as info:
            load_csv(p, "y", "regression")
        assert str(info.value) == \
            f"{p}: non-finite value '{shown}' at line 4, column 'y'"

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="cannot open"):
            load_csv(tmp_path / "nope.csv", "y", "regression")

    def test_missing_target_column(self, tmp_path):
        p = write_csv(tmp_path, "a,b\n1,2\n3,4\n")
        with pytest.raises(DatasetError, match="target column"):
            load_csv(p, "y", "regression")

    def test_too_few_rows(self, tmp_path):
        p = write_csv(tmp_path, "a,y\n1.0,2.0\n")
        with pytest.raises(DatasetError, match="at least 2"):
            load_csv(p, "y", "regression")

    def test_missing_value_rejected(self, tmp_path):
        p = write_csv(tmp_path, "a,y\n1.0,2.0\n,3.0\n")
        with pytest.raises(DatasetError, match="missing value"):
            load_csv(p, "y", "regression")

    def test_classification_targets_validated(self, tmp_path):
        p = write_csv(tmp_path, "a,y\n0.13,0\n0.27,2\n0.31,1\n")
        with pytest.raises(DatasetError, match="0 or 1"):
            load_csv(p, "y", "classification")

    def test_row_order_preserved(self, tmp_path):
        p = write_csv(tmp_path, "a,y\n0.9,1\n0.1,2\n0.5,3\n")
        data = load_csv(p, "y", "regression")
        np.testing.assert_allclose(data.rows[:, 0], [0.9, 0.1, 0.5])


class TestFiniteValues:
    @pytest.mark.parametrize("value,shown", [(np.nan, "nan"),
                                             (np.inf, "inf"),
                                             (-np.inf, "-inf")])
    def test_non_finite_cell_names_row_and_feature(self, value, shown):
        data = make_dataset(n=8, m=3)
        rows = data.rows.copy()
        rows[5, 0] = np.nan         # after the first in row order
        rows[3, 1] = value
        with pytest.raises(DatasetError) as info:
            Dataset(rows=rows, targets=data.targets, specs=data.specs)
        assert str(info.value) == \
            f"non-finite value '{shown}' at row 3, feature 'x1'"

    @pytest.mark.parametrize("value,shown", [(np.nan, "nan"),
                                             (np.inf, "inf"),
                                             (-np.inf, "-inf")])
    def test_non_finite_target_names_row(self, value, shown):
        data = make_dataset(n=8, m=3)
        targets = data.targets.copy()
        targets[[2, 6]] = value, np.nan
        with pytest.raises(DatasetError) as info:
            Dataset(rows=data.rows, targets=targets, specs=data.specs)
        assert str(info.value) == f"non-finite target '{shown}' at row 2"

    def test_rows_are_checked_before_the_targets(self):
        data = make_dataset(n=4, m=2)
        rows, targets = data.rows.copy(), data.targets.copy()
        rows[1, 1], targets[0] = np.inf, np.nan
        with pytest.raises(DatasetError, match="^non-finite value 'inf' at "
                                               "row 1, feature 'x1'$"):
            Dataset(rows=rows, targets=targets, specs=data.specs)

    def test_split_keeps_extreme_finite_values(self):
        # the check rejects only NaN and infinities: the largest, smallest
        # and subnormal reals pass into both halves of a split unchanged
        data = make_dataset(n=10, m=2)
        rows, targets = data.rows.copy(), data.targets.copy()
        rows[:3, 0] = np.finfo(float).max, -np.finfo(float).max, 5e-324
        targets[4] = -np.finfo(float).max
        data = Dataset(rows=rows, targets=targets, specs=data.specs)
        train, test = split(data, 0.5, seed=3)
        perm = np.random.default_rng(3).permutation(data.n)
        np.testing.assert_array_equal(
            np.concatenate([train.rows, test.rows]), rows[perm])
        np.testing.assert_array_equal(
            np.concatenate([train.targets, test.targets]), targets[perm])
        # a dataset's arrays are read-only, so no NaN can enter them later
        with pytest.raises(ValueError):
            data.rows[0, 0] = np.nan


class TestSplit:
    def test_sizes_and_determinism(self):
        data = make_dataset(n=10)
        tr1, te1 = split(data, 0.8, seed=7)
        tr2, te2 = split(data, 0.8, seed=7)
        assert tr1.n == 8 and te1.n == 2
        np.testing.assert_array_equal(tr1.rows, tr2.rows)
        np.testing.assert_array_equal(te1.targets, te2.targets)

    def test_different_seeds_differ(self):
        data = make_dataset(n=10)
        tr7, _ = split(data, 0.5, seed=7)
        tr8, _ = split(data, 0.5, seed=8)
        assert not np.array_equal(tr7.rows, tr8.rows)

    def test_fraction_bounds(self):
        data = make_dataset(n=10)
        with pytest.raises(DatasetError):
            split(data, 1.0, seed=1)
        with pytest.raises(DatasetError):
            split(data, 0.0, seed=1)

    def test_empty_side_rejected(self):
        data = make_dataset(n=3)
        with pytest.raises(DatasetError):
            split(data, 0.05, seed=1)

    def test_partition_property(self):
        data = make_dataset(n=23, seed=3)
        tr, te = split(data, 0.7, seed=5)
        combined = np.concatenate([tr.targets, te.targets])
        assert sorted(combined.tolist()) == sorted(data.targets.tolist())
        assert tr.n + te.n == data.n

    def test_knots_come_from_train_half(self):
        data = make_dataset(n=50, seed=2)
        tr, te = split(data, 0.8, seed=9)
        assert tr.specs == te.specs == data.specs
        points = build_points(tr, 4)
        for j in range(tr.m):
            assert points.points[j][0] == tr.rows[:, j].min()
            assert points.points[j][-1] == tr.rows[:, j].max()
        # some extreme of the whole dataset lies in the test half
        assert not all(map(np.array_equal, points.points,
                           build_points(data, 4).points))


class TestBatches:
    def test_sizes(self):
        sizes = [len(b) for b in batches(5, 2, seed=1, epoch=0)]
        assert sizes == [2, 2, 1]

    def test_determinism(self):
        a = batches(17, 4, seed=3, epoch=2)
        b = batches(17, 4, seed=3, epoch=2)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_full_batch(self):
        out = batches(5, 5, seed=1, epoch=0)
        assert len(out) == 1 and len(out[0]) == 5

    def test_epochs_reshuffle(self):
        a = np.concatenate(batches(64, 8, seed=1, epoch=0))
        b = np.concatenate(batches(64, 8, seed=1, epoch=1))
        assert not np.array_equal(a, b)

    def test_bad_batch_size(self):
        with pytest.raises(DatasetError):
            batches(5, 0, seed=1, epoch=0)

    @given(n=st.integers(1, 200), bs=st.integers(1, 50),
           seed=st.integers(0, 10), epoch=st.integers(0, 10))
    @settings(max_examples=50, deadline=None)
    def test_each_epoch_covers_every_index_once(self, n, bs, seed, epoch):
        idx = np.concatenate(batches(n, bs, seed, epoch))
        assert sorted(idx.tolist()) == list(range(n))
