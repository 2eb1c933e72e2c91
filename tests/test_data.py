import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from sbpmt import data, pmt
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
        # the row-by-row check runs once, and only to word an error that a
        # whole-column check found
        calls = []
        check = data._check_rows
        monkeypatch.setattr(data, "_check_rows",
                            lambda *a: calls.append(1) or check(*a))
        schema = data.load_csv(write(tmp_path, MIXED), "label").schema
        data.load_csv(write(tmp_path, MIXED), schema=schema)
        assert calls == []
        for text in ("a,color,label\n1.5,red,yes\n2.0, ,no\n",
                     "a,color,label\n1.5,red,yes\n2.0,blue\n"):
            with pytest.raises(ValueError):
                data.load_csv(write(tmp_path, text), "label")
            with pytest.raises(ValueError):
                data.load_csv(write(tmp_path, text), schema=schema)
        assert len(calls) == 4

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

    @pytest.mark.parametrize("label, has_header, message", [
        ("label", False, "label column by name requires a header"),
        (99, True, "label column index out of range"),
        (-4, True, "label column index out of range"),
    ])
    def test_bad_label_column_rejected(self, tmp_path, label, has_header,
                                       message):
        with pytest.raises(ValueError, match=message):
            data.load_csv(write(tmp_path, MIXED), label, has_header)

    @pytest.mark.parametrize("label, name", [
        ("label", "label"), ("2", "label"), (2, "label"),
        (np.int64(2), "label"), (-1, "label"), ("-1", "label"),
        (np.int64(-3), "a"), ("0", "a"),
    ])
    def test_label_column_by_name_or_index(self, tmp_path, label, name):
        ds = data.load_csv(write(tmp_path, MIXED), label)
        assert ds.schema["label"]["name"] == name

    @pytest.mark.parametrize("label, message", [
        (1.5, "^label_column must be an integer >= -3, got 1.5$"),
        (True, "^label_column must be an integer >= -3, got True$"),
        (np.float64(2.0), "^label_column must be an integer"),
        (math.nan, "label column index out of range"),
    ])
    def test_float_or_bool_label_column_rejected(self, tmp_path, label,
                                                 message):
        with pytest.raises(ValueError, match=message):
            data.load_csv(write(tmp_path, MIXED), label)

    @pytest.mark.parametrize("label, message", [
        (None, "^label_column must be a column name or an integer, got "
               "None$"),
        ([1], r"^label_column must be a column name or an integer, got "
              r"\[1\]$"),
        (0.5, "^label_column must be an integer >= -3, got 0.5$"),
        (-5, "^label column index out of range$"),
    ])
    def test_label_column_of_another_kind_named(self, tmp_path, label,
                                                message):
        with pytest.raises(ValueError, match=message):
            data.load_csv(write(tmp_path, MIXED), label)

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
        (lambda s: s["columns"].__setitem__(0, "a"),
         "schema column 0 is not a JSON object"),
        (lambda s: s["columns"].clear(),
         "schema: columns must be a nonempty list"),
        # a kind that is no string, hashable or not
        (lambda s: s["columns"][0].update(kind=[]),
         r"schema column 0: kind must be 'numeric' or 'categorical', "
         r"got \[\]"),
        (lambda s: s["columns"][0].update(kind={}),
         "schema column 0: kind must be 'numeric' or 'categorical', got {}"),
        (lambda s: s["columns"][0].update(kind=[["numeric"]]),
         "schema column 0: kind must be 'numeric' or 'categorical'"),
        (lambda s: s["columns"][0].update(kind=1),
         "schema column 0: kind must be 'numeric' or 'categorical', got 1"),
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


class TestCheckWeights:
    @pytest.mark.parametrize("weights, item, got", [
        (["1", True, 0.5], 0, "'1'"),
        ([1, True, 0.5], 1, "True"),
        ([1.0, 2.0, None], 2, "None"),
        (np.array([1, True, 0.5], dtype=object), 1, "True"),
        (np.array([True, False, True]), 0, "True"),
    ])
    def test_non_number_weight_rejected(self, weights, item, got):
        with pytest.raises(ValueError, match=rf"^sample weights: item {item} "
                           rf"must be a real number, got {got}$"):
            data.check_weights(weights, 3)

    def test_fit_rejects_string_and_bool_weights(self):
        X = np.linspace(-1, 1, 40)[:, None]
        y = (X[:, 0] > 0).astype(int)
        with pytest.raises(ValueError, match="sample weights: item 0 must "
                                             "be a real number, got '1'"):
            pmt.fit_pmt(X, y, 2, ["1"] * 20 + [True] * 20, 1, 5, 2)

    def test_numeric_arrays_and_lists_accepted(self):
        for w in ([1, 2, 0.5], np.array([1, 2, 0]), np.float32([1, 2, 0.5]),
                  np.uint8([1, 2, 3])):
            out = data.check_weights(w, 3)
            assert out.dtype == float
            np.testing.assert_array_equal(out, np.asarray(w, dtype=float))


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

    def test_levels_match_exactly(self, tmp_path):
        # a cell equal to a level but for a trailing NUL is an unseen level
        # (NumPy string arrays, which the encoder once compared, drop
        # trailing NULs and so matched it to "red")
        schema = self.schema(tmp_path)
        with pytest.warns(UserWarning, match="unseen levels"):
            X, _ = data.encode_rows([["1.0", "red\x00"]], ["a", "color"],
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


def reference_encode_rows(rows, header, schema):
    """Row-wise reference for data.encode_rows: the encoder before it went
    a column at a time.  It checks every row's width and every cell for a
    blank in file order, then builds each schema column with a per-cell
    loop, one block at a time."""
    label = schema["label"]
    data._check_unique(header)
    if not rows:
        return np.zeros((0, len(data._feature_names(schema)))), None
    width = len(header) if header is not None else len(rows[0])
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"inconsistent column counts: row {r + 1} has "
                             f"{len(row)} cells, expected {width}")
        for c, cell in enumerate(row):
            if cell.strip() == "":
                col = header[c] if header else str(c)
                raise ValueError(f"missing value at row {r + 1}, column {col}")
    if header is None:
        named = sorted([label, *schema["columns"]],
                       key=lambda col: col["position"])
        if width <= len(schema["columns"]):
            named.remove(label)
        header = [col["name"] for col in named[:width]]
    index = {name: i for i, name in enumerate(header)}
    label_idx = index.get(label["name"])

    blocks = []
    for col in schema["columns"]:
        if col["name"] not in index:
            raise ValueError(f"column {col['name']!r} missing from input")
        raw = [row[index[col["name"]]] for row in rows]
        if col["kind"] == "numeric":
            try:
                blocks.append(np.array([float(v) for v in raw])[:, None])
            except ValueError:
                raise ValueError(f"non-numeric value in column {col['name']!r}")
        else:
            unseen = sorted(set(raw) - set(col["levels"]))
            if unseen:
                warnings.warn(f"column {col['name']!r}: unseen levels "
                              f"{unseen} encoded as all-zero")
            blocks.append((np.array(raw)[:, None]
                           == np.array(col["levels"])).astype(float))
    y = None
    if label_idx is not None:
        class_of = {c: i for i, c in enumerate(label["classes"])}
        try:
            y = np.array([class_of[row[label_idx]] for row in rows])
        except KeyError as exc:
            raise ValueError(f"label {exc.args[0]!r} is not one of the "
                             f"classes {label['classes']}") from None
    return np.hstack(blocks), y


def reference_load_csv(path, label_column=-1, has_header=True, schema=None):
    """data.load_csv with reference_encode_rows in place of encode_rows."""
    if schema is not None:
        has_header = has_header and schema["has_header"]
    header, rows = data._read_rows(path, has_header)
    if schema is None:
        if not rows:
            raise ValueError(f"no data rows in {path}")
        schema = data._infer_schema(header, rows, label_column)
    X, y = reference_encode_rows(rows, header, schema)
    data.check_inputs(X)
    return X, y


def outcome(encode, *args, **kwargs):
    """What one encoder call gives: X and y down to their dtypes and bytes,
    or the ValueError's text, with the text of every warning raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            X, y = encode(*args, **kwargs)
            got = (X.dtype, X.shape, X.tobytes(),
                   None if y is None else (y.dtype, y.tobytes()))
        except ValueError as exc:
            got = str(exc)
    return got, [str(w.message) for w in caught]


def encoded(path, *args, **kwargs):
    ds = data.load_csv(path, *args, **kwargs)
    return ds.X, ds.y


# schemas inferred from small files: numeric column first, categorical
# column first, and a label between two numeric columns
SCHEMA_FILES = {
    "mixed": MIXED,
    "color-first": "color,label,a\nred,yes,1.5\nblue,no,2.0\n"
                   "green,yes,0.5\n",
    "label-between": "a,label,b\n1,yes,2\n3,no,4\n",
}


class TestEncoderParity:
    """encode_rows and load_csv against the row-wise reference: the same
    X and y bit for bit, the same warnings and the same error text."""

    @pytest.fixture
    def schemas(self, tmp_path):
        return {key: data.load_csv(write(tmp_path, text, f"{key}.csv"),
                                   "label").schema
                for key, text in SCHEMA_FILES.items()}

    @pytest.mark.parametrize("key, header, rows, want", [
        # a blank cell in a column the schema never reads
        ("mixed", ["a", "color", "extra", "label"],
         [["1.5", "red", "", "yes"]], "missing value at row 1, column extra"),
        # a blank cell before a ragged row, after one, and in one
        ("mixed", ["a", "color", "label"],
         [["1.5", "", "yes"], ["2.0", "red"]],
         "missing value at row 1, column color"),
        ("mixed", ["a", "color", "label"],
         [["1.5", "red", "yes"], ["2.0", "red"], ["2.5", " ", "no"]],
         "inconsistent column counts: row 2 has 2 cells, expected 3"),
        ("mixed", ["a", "color", "label"], [["", "red"]],
         "inconsistent column counts: row 1 has 2 cells, expected 3"),
        # a non-numeric cell early, a blank cell later: the blank wins
        ("mixed", ["a", "color", "label"],
         [["oops", "red", "yes"], ["2.0", "\t", "no"]],
         "missing value at row 2, column color"),
        ("mixed", ["a", "color"], [["oops", "red"], ["", "red"]],
         "missing value at row 2, column a"),
        ("mixed", ["a", "color", "label"], [["oops", "red", "yes"]],
         "non-numeric value in column 'a'"),
        # a blank label, a blank with a column missing, a blank in a
        # headerless row wider than the schema
        ("mixed", ["a", "color", "label"], [["1.0", "red", " "]],
         "missing value at row 1, column label"),
        ("mixed", ["a", "label"], [["1.0", "yes"], ["", "no"]],
         "missing value at row 2, column a"),
        ("mixed", None, [["1.0", "red", "yes", "x", ""]],
         "missing value at row 1, column 4"),
        # numbers with spaces around them and with underscores
        ("mixed", ["a", "color", "label"],
         [[" 1.5", "red", "yes"], ["1_000", "blue", "no"],
          ["-0 ", "green", "no"], ["1e-3", "red", "yes"]], None),
        # unseen levels (spaces are not stripped from levels) and labels
        ("mixed", ["a", "color"], [["1.0", "purple"], ["2.0", " red"]], None),
        ("mixed", ["a", "color", "label"], [["1.0", "red", "maybe"]],
         "label 'maybe' is not one of the classes ['yes', 'no']"),
        ("mixed", ["a", "color", "label"],
         [["1.0", "purple", "yes"], ["2.0", "red", "maybe"]],
         "label 'maybe' is not one of the classes ['yes', 'no']"),
        # a warning from an earlier column comes before a later error, and
        # no warning comes before a blank
        ("color-first", ["color", "a"], [["purple", "oops"]],
         "non-numeric value in column 'a'"),
        ("color-first", ["color", "a"], [["purple", "1"], ["red", ""]],
         "missing value at row 2, column a"),
        ("color-first", ["color"], [["purple"]],
         "column 'a' missing from input"),
        # headerless rows with and without the label
        ("label-between", None, [["5", "no", "6"], ["7", "yes", "8"]], None),
        ("label-between", None, [["5", "6"]], None),
        ("mixed", None, [["2.5"]], "column 'color' missing from input"),
        ("mixed", ["a", "color"], [], None),
    ])
    def test_encode_rows(self, schemas, key, header, rows, want):
        got = outcome(data.encode_rows, rows, header, schemas[key])
        assert got == outcome(reference_encode_rows, rows, header,
                              schemas[key])
        if want is not None:
            assert got[0] == want
        else:
            assert isinstance(got[0], tuple)

    @pytest.mark.parametrize("text, has_header, use_schema", [
        (MIXED, True, True),
        (MIXED, True, False),
        ("1.5,red,yes\n2.0,blue,no\n", False, True),
        ("1.5,red\n2.0,purple\n", False, True),
        ("1.5,red,yes\n2.0,blue,no\n", False, False),
        ("a,color,label\n", True, True),
        ("a,color,label\n", True, False),
        ("a,color,label\n1.5,red,yes\n\n,blue,no\n", True, False),
        ("a,color,label\n1.5,red,yes\n2,blue,no\n3,red\n", True, False),
        ("a,color,label\n1.5,red,yes\nnan,blue,no\n", True, True),
        ("a,color,label\n 1_0,red,yes\n2, blue,no\n", True, False),
    ])
    def test_load_csv(self, tmp_path, schemas, text, has_header, use_schema):
        p = write(tmp_path, text, "q.csv")
        kwargs = dict(has_header=has_header)
        if use_schema:
            kwargs["schema"] = schemas["mixed"]
        else:
            kwargs["label_column"] = "label" if has_header else -1
        assert (outcome(encoded, p, **kwargs)
                == outcome(reference_load_csv, p, **kwargs))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_tables(self, schemas, seed):
        # small tables of clean, spaced, blank, non-numeric and unseen
        # cells, some ragged, with and without a header
        rng = np.random.default_rng(seed)
        numbers = ["1.5", " 2", "3e1", "-0", "1_0", "nan"]
        odd = ["", " ", "oops", "purple", "maybe"]
        cells = {"a": numbers, "color": ["red", "blue", "green"],
                 "label": ["yes", "no"], "extra": numbers + ["x"]}
        for _ in range(300):
            names = list(rng.permutation(list(cells)))[:rng.integers(1, 5)]
            rows = []
            for _ in range(rng.integers(1, 6)):
                row = [str(rng.choice(odd if rng.random() < 0.1
                                      else cells[name])) for name in names]
                if rng.random() < 0.05:
                    row = row[:-1] or row + ["1"]
                rows.append(row)
            header = names if rng.random() < 0.8 else None
            assert (outcome(data.encode_rows, rows, header, schemas["mixed"])
                    == outcome(reference_encode_rows, rows, header,
                               schemas["mixed"]))


def reference_stratified_kfold(y, k, seed):
    """Per-row reference for data.stratified_kfold: each class in sorted
    order is shuffled and dealt on from the fold where the last class
    stopped."""
    rng = np.random.default_rng(seed)
    fold_of = np.empty(y.size, dtype=int)
    next_fold = 0
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        idx = idx[rng.permutation(idx.size)]
        for i, row in enumerate(idx):
            fold_of[row] = (next_fold + i) % k
        next_fold = (next_fold + idx.size) % k
    return [(np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f))
            for f in range(k)]


class TestStratifiedKfold:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_row_reference(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            n = int(rng.integers(2, 80))
            y = rng.integers(int(rng.integers(1, 7)), size=n)
            if rng.uniform() < 0.3:
                y = np.array([f"c{v}" for v in y])
            k = int(rng.integers(2, n + 1))
            fold_seed = int(rng.integers(2**31))
            got = data.stratified_kfold(y, k, fold_seed)
            want = reference_stratified_kfold(y, k, fold_seed)
            assert len(got) == k
            for (gt, gs), (wt, ws) in zip(got, want):
                np.testing.assert_array_equal(gt, wt)
                np.testing.assert_array_equal(gs, ws)

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
        with pytest.raises(ValueError, match="k must be >= 2, got 1"):
            data.stratified_kfold(np.zeros(5), 1, 0)
        with pytest.raises(ValueError, match="between 2 and n = 5, got 6"):
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
        with pytest.raises(ValueError,
                           match="^fold accuracies must not be empty$"):
            data.summarize_cv([])

    @pytest.mark.parametrize("folds, item, got", [
        ([math.nan, 90.0], 0, "nan"),
        ([math.inf], 0, "inf"),
        ([90.0, -math.inf], 1, "-inf"),
        ([150.0, -20.0], 0, "150.0"),
        ([20.0, -20.0], 1, "-20.0"),
    ])
    def test_summarize_impossible_accuracy_rejected(self, folds, item, got):
        with pytest.raises(ValueError, match=rf"^fold accuracies: item {item} "
                           rf"must be a percentage in \[0, 100\], got {got}$"):
            data.summarize_cv(folds)

    def test_summarize_bounds_accepted(self):
        assert data.summarize_cv([0.0, 100.0]) == (50.0, math.sqrt(5000.0))
