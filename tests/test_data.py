import dataclasses
import math
import re

import numpy as np
import pytest

from sbpmt import data
from sbpmt.data import SimConfig


def write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


MIXED = """a,color,label
1.5,red,yes
2.0,blue,no
0.5,red,yes
3.5,green,no
"""


class TestLoadCsv:
    def test_numeric_and_onehot_encoding(self, tmp_path):
        ds = data.load_csv(write(tmp_path, MIXED), "label")
        assert ds.class_names == ["yes", "no"]  # first-appearance order
        assert ds.y.tolist() == [0, 1, 0, 1]
        # one-hot levels sorted lexicographically: blue, green, red
        assert ds.feature_names == ["a", "color=blue", "color=green",
                                    "color=red"]
        np.testing.assert_array_equal(
            ds.X,
            [[1.5, 0, 0, 1], [2.0, 1, 0, 0], [0.5, 0, 0, 1], [3.5, 0, 1, 0]])
        assert ds.n_classes == 2

    def test_label_by_index_and_negative_index(self, tmp_path):
        p = write(tmp_path, MIXED)
        by_name = data.load_csv(p, "label")
        by_idx = data.load_csv(p, 2)
        by_neg = data.load_csv(p, -1)
        for ds in (by_idx, by_neg):
            np.testing.assert_array_equal(ds.X, by_name.X)
            np.testing.assert_array_equal(ds.y, by_name.y)

    def test_headerless_positional(self, tmp_path):
        p = write(tmp_path, "1.0,yes\n2.0,no\n")
        ds = data.load_csv(p, 1, has_header=False)
        assert ds.feature_names == ["col0"]
        assert ds.class_names == ["yes", "no"]
        np.testing.assert_array_equal(ds.X, [[1.0], [2.0]])

    def test_numeric_label_column_stays_categorical(self, tmp_path):
        p = write(tmp_path, "x,y\n0.1,-1\n0.2,1\n0.3,-1\n")
        ds = data.load_csv(p, "y")
        assert ds.class_names == ["-1", "1"]
        assert ds.y.tolist() == [0, 1, 0]

    def test_schema_fixes_columns_and_classes(self, tmp_path):
        schema = data.load_csv(write(tmp_path, MIXED), "label").schema
        other = write(tmp_path, "label,color,a\nno,green,1.0\nyes,red,2.0\n",
                      "other.csv")
        ds = data.load_csv(other, schema=schema)
        assert ds.class_names == ["yes", "no"]
        assert ds.y.tolist() == [1, 0]
        np.testing.assert_array_equal(ds.X, [[1.0, 0, 1, 0], [2.0, 0, 0, 1]])

    def test_byte_order_mark_dropped(self, tmp_path):
        # the mark must not become part of the first column's name
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + b"label,a\nyes,1.0\nno,2.0\n")
        ds = data.load_csv(marked, "label")
        assert ds.schema["label"]["name"] == "label"
        plain = data.load_csv(write(tmp_path, "a,label\n3.0,no\n"),
                              schema=ds.schema)
        assert plain.y.tolist() == [1]
        np.testing.assert_array_equal(plain.X, [[3.0]])

    def test_missing_value_rejected(self, tmp_path):
        p = write(tmp_path, "a,label\n1.0,yes\n,no\n")
        with pytest.raises(ValueError, match="missing value at row 2"):
            data.load_csv(p, "label")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_rejected(self, tmp_path, cell):
        p = write(tmp_path, f"a,b,label\n1.0,2.0,yes\n3.0,{cell},no\n")
        with pytest.raises(ValueError, match="non-finite value .* row 2, "
                                             "feature 2"):
            data.load_csv(p, "label")

    def test_cells_checked_once(self, tmp_path, monkeypatch):
        calls = []
        check = data._check_rows
        monkeypatch.setattr(data, "_check_rows",
                            lambda *a: calls.append(1) or check(*a))
        data.load_csv(write(tmp_path, MIXED), "label")
        assert len(calls) == 1

    def test_ragged_rows_rejected(self, tmp_path):
        p = write(tmp_path, "a,b,label\n1,2,yes\n1,no\n")
        with pytest.raises(ValueError, match="inconsistent column counts"):
            data.load_csv(p, "label")

    def test_single_class_rejected(self, tmp_path):
        p = write(tmp_path, "a,label\n1,yes\n2,yes\n")
        with pytest.raises(ValueError, match="at least 2 classes"):
            data.load_csv(p, "label")

    def test_unknown_label_name(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            data.load_csv(write(tmp_path, MIXED), "nope")

    def test_label_only_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no feature columns"):
            data.load_csv(write(tmp_path, "label\nyes\nno\n"), "label")

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no data rows"):
            data.load_csv(write(tmp_path, "a,label\n"), "label")

    def test_oversized_field_rejected(self, tmp_path):
        # past the csv module's field size limit of 131,072 characters
        p = write(tmp_path, 'a,label\n1,x\n"' + "z" * 200_000 + '",y\n')
        with pytest.raises(ValueError, match=re.escape(
                f"{p}, line 3: field larger than field limit")):
            data.load_csv(p, "label")

    def test_repeated_header_name_rejected(self, tmp_path):
        # by-name lookup could only see one of the two columns
        p = write(tmp_path, "a,a,label\n1.0,2.0,yes\n3.0,4.0,no\n")
        with pytest.raises(ValueError, match="header repeats column 'a'"):
            data.load_csv(p, "label")
        schema = data.load_csv(write(tmp_path, MIXED, "m.csv"), "label").schema
        query = write(tmp_path, "a,color,a\n1.0,red,2.0\n", "q.csv")
        with pytest.raises(ValueError, match="header repeats column 'a'"):
            data.load_csv(query, schema=schema)

    @pytest.mark.parametrize("edit, message", [
        (lambda s: s["columns"][0].pop("kind"),
         r"schema column 0: missing keys \['kind'\]"),
        (lambda s: s["columns"][1].pop("levels"),
         r"schema column 1: missing keys \['levels'\]"),
        (lambda s: s.pop("label"), r"schema: missing keys \['label'\]"),
        (lambda s: s.pop("has_header"),
         r"schema: missing keys \['has_header'\]"),
        (lambda s: s["label"]["classes"].pop(),
         "schema label: classes must be at least 2 distinct strings"),
    ])
    def test_bad_schema_rejected(self, tmp_path, edit, message):
        p = write(tmp_path, MIXED)
        schema = data.load_csv(p, "label").schema
        edit(schema)
        with pytest.raises(ValueError, match=message):
            data.load_csv(p, schema=schema)


class TestCheckInputs:
    def test_accepts_and_converts(self):
        X, y = data.check_inputs([[1, 2], [3, 4]], [0, 2], 3)
        assert X.dtype == float and y.tolist() == [0, 2]
        X, y = data.check_inputs(np.zeros((0, 3)), n_features=3)
        assert X.shape == (0, 3) and y is None

    def test_rejections(self):
        X = np.zeros((3, 2))
        with pytest.raises(ValueError, match="2-D"):
            data.check_inputs(np.zeros(3))
        with pytest.raises(ValueError, match="dimension mismatch: got 2, "
                                             "expected 3"):
            data.check_inputs(X, n_features=3)
        with pytest.raises(ValueError, match="label -1 outside 0..1"):
            data.check_inputs(X, np.array([0, -1, 1]), 2)
        with pytest.raises(ValueError, match="one integer class index"):
            data.check_inputs(X, np.array([0.0, 1.0, 1.0]), 2)
        with pytest.raises(ValueError, match="one integer class index"):
            data.check_inputs(X, np.array([0, 1]), 2)
        with pytest.raises(ValueError, match="empty data"):
            data.check_inputs(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
        for X0 in (np.zeros((3, 0)), np.zeros((0, 0))):
            with pytest.raises(ValueError, match="no feature columns"):
                data.check_inputs(X0)


class TestEncodeRows:
    def schema(self, tmp_path):
        return data.load_csv(write(tmp_path, MIXED), "label").schema

    def test_round_trip_without_label(self, tmp_path):
        schema = self.schema(tmp_path)
        rows = [["2.5", "green"], ["1.0", "blue"]]
        X, y = data.encode_rows(rows, ["a", "color"], schema)
        np.testing.assert_array_equal(X, [[2.5, 0, 1, 0], [1.0, 1, 0, 0]])
        assert y is None

    def test_positional_without_header_label_absent(self, tmp_path):
        schema = self.schema(tmp_path)
        X, _ = data.encode_rows([["2.5", "red"]], None, schema)
        np.testing.assert_array_equal(X, [[2.5, 0, 0, 1]])

    def test_without_header_label_present(self, tmp_path):
        schema = self.schema(tmp_path)
        rows = [["1.0", "red", "no"], ["2.0", "blue", "yes"]]
        X, y = data.encode_rows(rows, None, schema)
        X_h, y_h = data.encode_rows(rows, ["a", "color", "label"], schema)
        np.testing.assert_array_equal(X, X_h)
        assert y.tolist() == y_h.tolist() == [1, 0]

    def test_without_header_positions_around_the_label(self, tmp_path):
        # the label sits between the features: without it, the columns
        # after it move one to the left
        schema = data.load_csv(write(tmp_path, "a,label,b\n1,yes,2\n"
                                     "3,no,4\n"), "label").schema
        X, y = data.encode_rows([["5", "no", "6"]], None, schema)
        assert X.tolist() == [[5.0, 6.0]] and y.tolist() == [1]
        X, y = data.encode_rows([["5", "6"]], None, schema)
        assert X.tolist() == [[5.0, 6.0]] and y is None

    def test_without_header_short_rows_miss_a_column(self, tmp_path):
        schema = self.schema(tmp_path)
        with pytest.raises(ValueError, match="column 'color' missing"):
            data.encode_rows([["2.5"]], None, schema)

    def test_repeated_header_name_rejected(self, tmp_path):
        schema = self.schema(tmp_path)
        for rows in ([["1.0", "red", "2.0"]], []):
            with pytest.raises(ValueError, match="header repeats column 'a'"):
                data.encode_rows(rows, ["a", "color", "a"], schema)

    def test_unseen_level_warns_and_zeroes(self, tmp_path):
        schema = self.schema(tmp_path)
        with pytest.warns(UserWarning, match="unseen levels"):
            X, _ = data.encode_rows([["1.0", "purple"]], ["a", "color"],
                                    schema)
        np.testing.assert_array_equal(X, [[1.0, 0, 0, 0]])

    def test_labels_map_through_the_schema_classes(self, tmp_path):
        schema = self.schema(tmp_path)  # classes ["yes", "no"]
        header = ["a", "color", "label"]
        X, y = data.encode_rows([["1.0", "red", "no"], ["2.0", "blue", "yes"]],
                                header, schema)
        assert y.tolist() == [1, 0]
        with pytest.raises(ValueError, match="label 'maybe' is not one of"):
            data.encode_rows([["1.0", "red", "maybe"]], header, schema)

    def test_short_row_rejected(self, tmp_path):
        schema = self.schema(tmp_path)
        rows = [["1.0", "red"], ["2.0"]]
        for header in (["a", "color"], None):
            with pytest.raises(ValueError, match="row 2 has 1 cells, "
                                                 "expected 2"):
                data.encode_rows(rows, header, schema)

    def test_empty_rows(self, tmp_path):
        schema = self.schema(tmp_path)
        X, y = data.encode_rows([], ["a", "color"], schema)
        assert X.shape == (0, 4) and y is None

    def test_missing_column_rejected(self, tmp_path):
        schema = self.schema(tmp_path)
        with pytest.raises(ValueError, match="missing from input"):
            data.encode_rows([["1.0"]], ["a"], schema)

    def test_non_numeric_cell_rejected(self, tmp_path):
        schema = self.schema(tmp_path)
        with pytest.raises(ValueError, match="non-numeric"):
            data.encode_rows([["oops", "red"]], ["a", "color"], schema)


class TestStratifiedKfold:
    def test_partition_and_stratification(self):
        y = np.array([0] * 40 + [1] * 20)
        splits = data.stratified_kfold(y, 5, seed=0)
        assert len(splits) == 5
        all_test = np.concatenate([t for _, t in splits])
        np.testing.assert_array_equal(np.sort(all_test), np.arange(60))
        for train, test in splits:
            np.testing.assert_array_equal(
                np.sort(np.concatenate([train, test])), np.arange(60))
            # per-fold class counts within 1 of the proportional share
            assert abs(np.sum(y[test] == 0) - 8) <= 1
            assert abs(np.sum(y[test] == 1) - 4) <= 1

    def test_reproducible_and_seed_sensitive(self):
        y = np.arange(30) % 3
        a = data.stratified_kfold(y, 3, seed=1)
        b = data.stratified_kfold(y, 3, seed=1)
        c = data.stratified_kfold(y, 3, seed=2)
        for (ta, sa), (tb, sb) in zip(a, b):
            np.testing.assert_array_equal(ta, tb)
            np.testing.assert_array_equal(sa, sb)
        assert any(not np.array_equal(sa, sc)
                   for (_, sa), (_, sc) in zip(a, c))

    def test_uneven_class_sizes_balanced(self):
        y = np.array([0] * 7 + [1] * 5)
        splits = data.stratified_kfold(y, 3, seed=4)
        sizes = sorted(t.size for _, t in splits)
        assert sizes == [4, 4, 4]

    def test_invalid_k(self):
        with pytest.raises(ValueError, match="between 2 and n"):
            data.stratified_kfold(np.zeros(5), 1, 0)
        with pytest.raises(ValueError, match="between 2 and n"):
            data.stratified_kfold(np.zeros(5), 6, 0)


class TestSimulate:
    def test_shapes_and_ranges(self):
        train, test = data.simulate(SimConfig(n_train=200, n_test=300))
        assert train.X.shape == (200, 10) and test.X.shape == (300, 10)
        assert np.all((train.X >= 0) & (train.X < 1))
        assert set(np.unique(train.y)) <= {0, 1}
        assert train.class_names == ["-1", "1"]
        assert train.feature_names[0] == "x1"

    def test_reproducible(self):
        a, _ = data.simulate(SimConfig(seed=5, n_train=100, n_test=10))
        b, _ = data.simulate(SimConfig(seed=5, n_train=100, n_test=10))
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_label_follows_halfspace_up_to_noise(self):
        cfg = SimConfig(d=6, E=3, q=0.1, n_train=5000, n_test=10, seed=7)
        train, _ = data.simulate(cfg)
        bayes = (train.X[:, :3].sum(axis=1) > 1.5).astype(int)
        flip_rate = np.mean(train.y != bayes)
        assert flip_rate == pytest.approx(0.1, abs=0.02)

    def test_zero_noise_is_deterministic_labeling(self):
        cfg = SimConfig(d=4, E=2, q=0.0, n_train=1000, n_test=10, seed=3)
        train, _ = data.simulate(cfg)
        bayes = (train.X[:, :2].sum(axis=1) > 1.0).astype(int)
        np.testing.assert_array_equal(train.y, bayes)

    def test_invalid_config(self):
        with pytest.raises(ValueError, match="1 <= E <= d"):
            data.simulate(SimConfig(d=3, E=5))
        with pytest.raises(ValueError, match="q must be"):
            data.simulate(SimConfig(q=0.5))

    @pytest.mark.parametrize("field, value, message", [
        ("d", 0, "config: need d >= 1, got d = 0"),
        ("n_train", 0, "config: need n_train >= 1"),
        ("n_test", 0, "config: need n_test >= 1"),
        ("seed", -1, "config: need seed >= 0"),
        ("E", 0, "1 <= E <= d"),
        ("q", -0.1, "q must be"),
        ("q", math.nan, "config: q must be a number"),
        ("n_test", 10.0, "config: n_test must be a number"),
    ])
    def test_bad_field_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SimConfig(**{field: value})

    def test_frozen(self):
        cfg = SimConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.n_test = 0


class TestAccuracyAndSummary:
    def test_accuracy_is_a_percentage(self):
        assert data.accuracy([1, 0, 1], [1, 0, 1]) == 100.0
        assert data.accuracy([1, 0, 1, 0], [1, 1, 1, 1]) == 50.0

    def test_accuracy_errors(self):
        with pytest.raises(ValueError, match="empty"):
            data.accuracy([], [])
        with pytest.raises(ValueError, match="differ in length"):
            data.accuracy([1, 2], [1])

    def test_summarize_cv_sample_sd(self):
        mean, sd = data.summarize_cv([90.0, 100.0])
        assert mean == 95.0
        assert sd == pytest.approx(math.sqrt(50.0))

    def test_summarize_single_fold(self):
        assert data.summarize_cv([97.0]) == (97.0, 0.0)

    def test_summarize_empty(self):
        with pytest.raises(ValueError, match="no fold"):
            data.summarize_cv([])
