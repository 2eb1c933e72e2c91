import base64
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbpmt import cli, data, ensemble, model_io
from sbpmt.ensemble import SbpmtConfig

from model_doc import decoded, encoded


def fit_small(n_classes=2, seed=0, n=150):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 3))
    if n_classes == 2:
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
    else:
        # every tenth label moved on, so no member's first stage is
        # perfect and each keeps its second
        y = np.digitize(X[:, 0], [-0.3, 0.3])
        y[::10] = (y[::10] + 1) % 3
    cfg = SbpmtConfig(M=3, T=2, B=3, alpha=0.7, depth=2, min_leaf_size=5,
                      seed=seed)
    schema = {"label": {"name": "y", "position": 3,
                        "classes": [str(c) for c in range(n_classes)]},
              "columns": [{"name": f"x{j}", "kind": "numeric", "position": j}
                          for j in range(3)],
              "has_header": True}
    return ensemble.fit_sbpmt(X, y, n_classes, cfg, schema=schema), X


class TestRoundTrip:
    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_predictions_bit_identical(self, n_classes):
        model, X = fit_small(n_classes)
        text = model_io.serialize_model(model)
        restored = model_io.deserialize_model(text)
        rng = np.random.default_rng(99)
        Xq = rng.uniform(-1, 1, size=(500, 3))
        np.testing.assert_array_equal(
            ensemble.predict_sbpmt_many(model, Xq),
            ensemble.predict_sbpmt_many(restored, Xq))

    def test_serialization_idempotent(self):
        model, _ = fit_small()
        text = model_io.serialize_model(model)
        again = model_io.serialize_model(model_io.deserialize_model(text))
        assert text == again

    def test_identical_fits_serialize_byte_identical(self):
        m1, _ = fit_small(seed=4)
        m2, _ = fit_small(seed=4)
        assert model_io.serialize_model(m1) == model_io.serialize_model(m2)

    def test_config_design_schema_preserved(self):
        model, _ = fit_small()
        restored = model_io.deserialize_model(model_io.serialize_model(model))
        assert restored.config == model.config
        assert restored.schema == model.schema
        assert restored.n_classes == model.n_classes
        np.testing.assert_array_equal(restored.design, model.design)
        for ma, mb in zip(restored.members, model.members):
            assert len(ma.stages) == len(mb.stages)
            for sa, sb in zip(ma.stages, mb.stages):
                assert sa.raw_err == sb.raw_err
                assert sa.alpha == sb.alpha and sa.err == sb.err
                assert sa.model.probit_risk == sb.model.probit_risk


class TestFileFormat:
    def test_save_load_file(self, tmp_path):
        model, X = fit_small()
        path = tmp_path / "model.json"
        model_io.save_model(model, path)
        restored = model_io.load_model(path)
        np.testing.assert_array_equal(
            ensemble.predict_sbpmt_many(model, X),
            ensemble.predict_sbpmt_many(restored, X))

    def test_document_is_valid_json_with_version(self):
        model, _ = fit_small()
        doc = json.loads(model_io.serialize_model(model))
        assert doc["format_version"] == model_io.FORMAT_VERSION
        assert {"config", "design", "members", "n_classes",
                "schema"} <= set(doc)

    def test_wrong_version_rejected(self):
        model, _ = fit_small()
        doc = json.loads(model_io.serialize_model(model))
        doc["format_version"] = 999
        with pytest.raises(ValueError, match="format version"):
            model_io.deserialize_model(json.dumps(doc))

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    def test_version_1_rejected_with_refit_message(self, version):
        model, _ = fit_small()
        doc = json.loads(model_io.serialize_model(model))
        doc["format_version"] = version
        with pytest.raises(ValueError, match=rf"version {version}\b.*refit"):
            model_io.deserialize_model(json.dumps(doc))

    def test_stages_are_flat_arrays(self):
        model, _ = fit_small(n_classes=3)
        doc = json.loads(model_io.serialize_model(model))
        tree = doc["members"][0]["stages"][0]["model"]
        # the tree is the arguments of pmt.make_tree: its preorder split
        # list (feature -1 at a leaf) and a score row per leaf, each array
        # the base64 of its little-endian bytes, with no shape stored
        assert set(tree) == {"feature", "threshold", "intercept", "coef",
                             "probit_risk"}
        a = {k: np.frombuffer(base64.b64decode(tree[k], validate=True),
                              "<i4" if k == "feature" else "<f8")
             for k in ("feature", "threshold", "intercept", "coef")}
        n_leaves = int(np.sum(a["feature"] == -1))
        assert a["feature"].size == 2 * n_leaves - 1 == a["threshold"].size
        assert a["intercept"].size == n_leaves * 3
        assert a["coef"].size == n_leaves * 3 * 3
        fitted = model.members[0].stages[0].model
        for k, v in a.items():
            np.testing.assert_array_equal(v.reshape(
                np.shape(getattr(fitted, k))), getattr(fitted, k))
        subsets = np.frombuffer(base64.b64decode(doc["design"]["subsets"]),
                                "<i4")
        np.testing.assert_array_equal(subsets.reshape(3, -1), model.design)
        assert "rows" not in json.dumps(doc["members"])
        # each fact once: the probit risk in the tree, n_classes in the
        # document, the design seed in the config; a stage's err and alpha
        # follow from its raw_err, a tree's child table, leaf numbers and
        # depth from its split list, and every shape from those counts
        stage = doc["members"][0]["stages"][0]
        assert set(stage) == {"raw_err", "model"}
        assert "probit_risk" in tree
        assert not {"n_classes", "depth"} & set(tree)
        assert set(doc["design"]) == {"subsets"}

    def test_non_finite_number_not_written(self):
        model, _ = fit_small()
        model.members[0].stages[0].model.probit_risk = math.nan
        with pytest.raises(ValueError):
            model_io.serialize_model(model)

    @pytest.mark.parametrize("key, value, message", [
        ("threshold", math.nan, "threshold holds a non-finite number"),
        ("coef", math.inf, "coef holds a non-finite number"),
        ("intercept", -math.inf, "intercept holds a non-finite number"),
        # an index that int32 cannot hold is refused, not wrapped
        ("design", 2**31, "subsets must hold integers that int32 holds"),
        ("feature", -2**31 - 1, "feature must hold integers that int32"),
    ])
    def test_non_finite_array_or_wide_index_not_written(self, key, value,
                                                        message):
        model, _ = fit_small()
        holder = model if key == "design" else model.members[0].stages[0].model
        getattr(holder, key).flat[0] = value  # int64 or float64
        with pytest.raises(ValueError, match=message):
            model_io.serialize_model(model)

    def test_missing_version_rejected(self):
        with pytest.raises(ValueError, match="format version"):
            model_io.deserialize_model("{}")

    def test_trailing_newline_and_sorted_keys(self):
        model, _ = fit_small()
        text = model_io.serialize_model(model)
        assert text.endswith("\n")
        top = list(json.loads(text))
        assert top == sorted(top)

    def test_file_is_one_compact_line(self, tmp_path):
        model, _ = fit_small(n_classes=3)
        path = tmp_path / "model.json"
        model_io.save_model(model, path)
        text = path.read_text(encoding="utf-8")
        assert text.count("\n") == 1 and text.endswith("\n")
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
        assert model_io.serialize_model(model_io.load_model(path)) == text

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_indented_file_still_loads(self, n_classes, tmp_path):
        # files written with one key or number per indented line load and
        # predict as the compact file does
        model, X = fit_small(n_classes)
        path = tmp_path / "model.json"
        doc = json.loads(model_io.serialize_model(model))
        path.write_text(json.dumps(doc, sort_keys=True, indent=1,
                                   allow_nan=False) + "\n", encoding="utf-8")
        restored = model_io.load_model(path)
        assert (model_io.serialize_model(restored)
                == model_io.serialize_model(model))
        Xq = np.vstack([X, np.random.default_rng(7).uniform(-1, 1, (200, 3))])
        np.testing.assert_array_equal(
            ensemble.predict_sbpmt_many(restored, Xq),
            ensemble.predict_sbpmt_many(model, Xq))
        assert ([ensemble.predict_sbpmt(restored, x) for x in Xq[:50]]
                == ensemble.predict_sbpmt_many(model, Xq[:50]).tolist())


class TestUntrustedFile:
    """A model file is outside input: what prediction could not follow is
    rejected on load with a ValueError naming the member and stage."""

    def doc(self):
        """A 3-class document with its arrays decoded to nested lists
        (model_doc.decoded); json.dumps(encoded(doc)) stores them again."""
        model, _ = fit_small(n_classes=3)
        return decoded(json.loads(model_io.serialize_model(model)))

    def test_nan_token_rejected(self):
        text = model_io.serialize_model(fit_small()[0])
        text = text.replace('"probit_risk": ', '"probit_risk": NaN, "x": ', 1)
        with pytest.raises(ValueError, match="non-finite number NaN"):
            model_io.deserialize_model(text)
        doc = self.doc()
        doc["members"][0]["stages"][0]["model"]["coef"][0][0][0] = math.inf
        with pytest.raises(ValueError, match="member 0 stage 0 tree: coef "
                                             "must hold finite numbers"):
            model_io.deserialize_model(json.dumps(encoded(doc)))

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t.pop("threshold"), r"missing keys \['threshold'\]"),
        (lambda t: t.update(rows=[]), r"unknown keys \['rows'\]"),
        # the child table and leaf numbers follow from the split list
        (lambda t: t.update(left=list(range(len(t["feature"])))),
         r"unknown keys \['left'\]"),
        (lambda t: t.update(feature=[99] + t["feature"][1:]),
         "node 0 has feature index 99, outside -1..2"),
        (lambda t: t.update(feature=[-2] + t["feature"][1:]),
         "node 0 has feature index -2, outside -1..2"),
        # a split list that ends inside a tree: its last leaf dropped
        (lambda t: [t.update({k: t[k][:-1]}) for k in
                    ("feature", "threshold", "intercept", "coef")],
         "split list is not one tree: it ends inside a tree"),
        # and one with a leaf after the whole tree
        (lambda t: [t[k].append(t[k][-1]) for k in
                    ("feature", "threshold", "intercept", "coef")],
         r"split list is not one tree: node \d+ follows a complete tree"),
        # a score row per leaf: one short, or one over
        (lambda t: [t.update({k: t[k][1:]}) for k in ("intercept", "coef")],
         r"must be \(L, 3\) and \(L, 3, 3\) for its L = \d+ leaves"),
        (lambda t: [t[k].append(t[k][0]) for k in ("intercept", "coef")],
         r"intercept of \d+ and coef of \d+ values must be .* for its L"),
        (lambda t: t.update(threshold=t["threshold"][1:]),
         "nonempty lists of one length"),
        (lambda t: t.update(intercept=t["intercept"][1:]),
         r"intercept of \d+ and coef of \d+ values"),
        # a coef length other than L * K * p
        (lambda t: t["coef"][0].pop(), r"coef of \d+ values must be"),
        (lambda t: t["coef"][0][0].append(0.0), r"\(L, 3, 3\) for its L"),
        (lambda t: t.update(coef=[row[:1] for row in t["coef"]]),
         r"must be \(L, 3\)"),
        (lambda t: t.update(coef=[[[0.0] * 4] * 3] * len(t["coef"])),
         r"\(L, 3, 3\)"),
        # the probit risk is the binary fit's; null for 3 classes
        (lambda t: t.update(probit_risk="abc"),
         "probit_risk must be null for more than 2 classes"),
        (lambda t: t.update(probit_risk=[1, 2]),
         "probit_risk must be null for more than 2 classes"),
    ])
    def test_bad_tree_rejected(self, edit, message):
        doc = self.doc()
        edit(doc["members"][1]["stages"][0]["model"])
        with pytest.raises(ValueError, match="member 1 stage 0 tree: "
                                             f".*{message}"):
            model_io.deserialize_model(json.dumps(encoded(doc)))

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["members"][0]["stages"][0].pop("raw_err"),
         "member 0 stage 0: missing keys"),
        # alpha and err follow from raw_err and are not stored
        (lambda d: d["members"][0]["stages"][0].update(alpha=-1e300),
         "unknown keys .*'alpha'"),
        (lambda d: d["members"][0]["stages"][0].update(raw_err="x"),
         r"member 0 stage 0: raw_err must be a number in \[0, 1\]"),
        (lambda d: d["members"][0]["stages"][0].update(raw_err=None),
         "member 0 stage 0: raw_err must be a number"),
        (lambda d: d["members"][0]["stages"][0].update(raw_err=True),
         "member 0 stage 0: raw_err must be a number"),
        (lambda d: d["members"][0]["stages"][0].update(raw_err=-0.1),
         "member 0 stage 0: raw_err must be a number"),
        (lambda d: d["members"][0]["stages"][0].update(raw_err=1.001),
         "member 0 stage 0: raw_err must be a number"),
        (lambda d: d["config"].update(depth="6"), "config: depth"),
        # integers are JSON integers, not booleans or floats
        (lambda d: d["config"].update(depth=True),
         "config: depth must be a number"),
        (lambda d: d["config"].update(M=True), "config: M"),
        (lambda d: d["config"].update(T=2.0), "config: T"),
        (lambda d: d["config"].update(alpha=False), "config: alpha"),
        # and each lies in its range
        (lambda d: d["config"].update(alpha=5.0),
         "config: need 0 < alpha <= 1, got alpha = 5.0"),
        (lambda d: d["config"].update(B=-5), "config: need B >= 0"),
        (lambda d: d["config"].update(min_leaf_size=0),
         "config: need min_leaf_size >= 1"),
        # non-finite values inside the arrays' bytes
        (lambda d: d["members"][1]["stages"][0]["model"]["threshold"]
         .__setitem__(0, math.inf),
         "member 1 stage 0 tree: threshold must hold finite numbers"),
        (lambda d: d["members"][1]["stages"][0]["model"]["intercept"][0]
         .__setitem__(0, -math.inf),
         "member 1 stage 0 tree: intercept must hold finite numbers"),
        (lambda d: d["members"][0]["stages"][1]["model"]["coef"][0][0]
         .__setitem__(2, math.inf),
         "member 0 stage 1 tree: coef must hold finite numbers"),
        (lambda d: d["members"][2]["stages"][0]["model"]["threshold"]
         .__setitem__(1, math.nan),
         "member 2 stage 0 tree: threshold must hold finite numbers"),
        (lambda d: d.update(n_classes=3.0), "n_classes must be an integer"),
        (lambda d: d.update(n_classes=True), "n_classes must be an integer"),
        (lambda d: d.update(format_version=float(model_io.FORMAT_VERSION)),
         "unsupported model format version 6.0"),
        # the member count is config.M; no member has more than config.T
        # stages
        (lambda d: d["config"].update(M=50),
         "model file: 3 members, but config.M is 50"),
        (lambda d: d["config"].update(T=1),
         "member 0: stages must be a list of 1 to config.T = 1 stages"),
        (lambda d: d["config"].update(extra=1), r"unknown keys \['extra'\]"),
        (lambda d: d.update(members=[]), "members must be a nonempty list"),
        (lambda d: d["members"][2].update(stages=[]), "member 2: stages"),
        (lambda d: d.update(n_classes=1), "n_classes"),
        # no tree is deeper than config.depth
        (lambda d: d["config"].update(depth=0),
         "member 0 stage 0 tree: depth 2, deeper than config.depth = 0"),
        (lambda d: d["config"].update(depth=1),
         "member 0 stage 0 tree: depth 2, deeper than config.depth = 1"),
        # the schema that data.encode_rows follows
        (lambda d: d["schema"]["columns"][0].pop("kind"),
         r"schema column 0: missing keys \['kind'\]"),
        (lambda d: d["schema"]["columns"][1].update(kind="text"),
         "schema column 1: kind must be 'numeric' or 'categorical'"),
        (lambda d: d["schema"]["columns"][1].update(kind="categorical"),
         r"schema column 1: missing keys \['levels'\]"),
        (lambda d: d["schema"]["columns"][1].update(kind="categorical",
                                                    levels=["a", "a"]),
         "schema column 1: levels must be a nonempty list of distinct"),
        (lambda d: d["schema"]["columns"][1].update(kind="categorical",
                                                    levels=["a", "b"]),
         "the columns encode 4 features, but the trees read 3"),
        (lambda d: d["schema"]["columns"].pop(),
         "the columns encode 2 features, but the trees read 3"),
        (lambda d: d["schema"]["columns"][2].update(name=2),
         "schema column 2: name must be a string"),
        (lambda d: d["schema"]["columns"][2].update(position=-1),
         "schema column 2: position must be >= 0, got -1"),
        (lambda d: d["schema"]["label"].update(position="3"),
         "schema label: position must be an integer >= 0"),
        (lambda d: d["schema"]["columns"][2].update(name="x0"),
         "two columns share a name"),
        (lambda d: d["schema"]["columns"][2].update(position=3),
         "two columns share a position"),
        (lambda d: d["schema"]["label"]["classes"].pop(),
         "schema label: classes must be 3 distinct strings"),
        (lambda d: d["schema"]["label"].pop("classes"),
         r"schema label: missing keys \['classes'\]"),
        (lambda d: d["schema"].update(has_header="yes"), "has_header"),
        (lambda d: d["schema"].pop("columns"),
         r"schema: missing keys \['columns'\]"),
        # the design: one subset per member, increasing row indices
        (lambda d: d["design"]["subsets"][1].__setitem__(0, -1),
         "design: each subset must hold nonnegative row indices"),
        (lambda d: d["design"]["subsets"][1].reverse(),
         "in strictly increasing order"),
        (lambda d: d["design"]["subsets"][1].pop(),
         "design: subsets must be M = 3 nonempty subsets of one size, got "
         "314 indices"),
        (lambda d: d["design"].update(subsets=[[], [], []]),
         "design: subsets must be M = 3 nonempty subsets of one size, got 0"),
        # 2 subsets of 105 read as 3 of 70: the second runs back to row 0
        (lambda d: d["design"]["subsets"].pop(),
         "in strictly increasing order"),
    ])
    def test_bad_document_rejected(self, edit, message):
        doc = self.doc()
        edit(doc)
        with pytest.raises(ValueError, match=message):
            model_io.deserialize_model(json.dumps(encoded(doc)))

    @pytest.mark.parametrize("where, key", [
        ("member 1 stage 0 tree", "feature"),
        ("member 1 stage 0 tree", "threshold"),
        ("member 1 stage 0 tree", "intercept"),
        ("member 1 stage 0 tree", "coef"),
        ("design", "subsets"),
    ])
    @pytest.mark.parametrize("value, message", [
        # a JSON true, a number list or an integer where bytes belong
        (True, "must be a base64 string"),
        ([0.0, 1.0], "must be a base64 string"),
        ([], "must be a base64 string"),
        (0, "must be a base64 string"),
        (None, "must be a base64 string"),
        ("AAAA!AAA", "is not valid base64"),
        ("AAA", "is not valid base64"),  # no padding
        ("AAAA\nAAAA", "is not valid base64"),
        ("AAAA\u00e9AAA", "is not valid base64"),
        # 3 bytes: not a whole number of 4- or 8-byte items
        ("AAAA", r"holds 3 bytes, not a whole number of [48]-byte items"),
    ])
    def test_bad_array_string_rejected(self, where, key, value, message):
        doc = json.loads(model_io.serialize_model(fit_small(n_classes=3)[0]))
        holder = (doc["design"] if key == "subsets"
                  else doc["members"][1]["stages"][0]["model"])
        holder[key] = value
        with pytest.raises(ValueError, match=f"^{where}: {key} {message}"):
            model_io.deserialize_model(json.dumps(doc))

    @pytest.mark.parametrize("risk", ['"abc"', "[1, 2]", "null", "1e999"])
    def test_binary_probit_risk_must_be_finite(self, risk):
        text = model_io.serialize_model(fit_small()[0])
        text = re.sub(r'"probit_risk": [^,\n]*', f'"probit_risk": {risk}',
                      text, count=1)
        with pytest.raises(ValueError, match="member 0 stage 0 tree: "
                           "probit_risk must be a finite number"):
            model_io.deserialize_model(text)

    def test_raw_err_past_one_rejected(self):
        # a stage that misses every row sums its weights, which rounding
        # can leave above 1: nine weights of 1/9 sum to 1.0000000000000002.
        # A fit caps it at 1, so a file's raw_err lies in [0, 1] exactly.
        X, y = np.arange(9.0)[:, None], np.ones(9, dtype=int)
        cfg = SbpmtConfig(M=1, T=1, B=0, alpha=1.0, depth=0, seed=0)
        model = ensemble.fit_sbpmt(X, y, 2, cfg, workers=1)
        assert model.members[0].stages[0].raw_err == 1.0
        text = model_io.serialize_model(model)
        restored = model_io.deserialize_model(text)
        assert restored.members[0].stages[0].raw_err == 1.0
        assert model_io.serialize_model(restored) == text
        model.members[0].stages[0].raw_err = 1.0000000000000002
        with pytest.raises(ValueError, match=r"member 0 stage 0: raw_err "
                           r"must be a number in \[0, 1\]"):
            model_io.deserialize_model(model_io.serialize_model(model))

    def test_cli_predict_reports_the_tree(self, tmp_path, capsys):
        from sbpmt import cli
        doc = self.doc()
        doc["members"][0]["stages"][1]["model"]["feature"][0] = 99
        path = tmp_path / "model.json"
        path.write_text(json.dumps(encoded(doc)), encoding="utf-8")
        query = tmp_path / "q.csv"
        query.write_text("x0,x1,x2\n0.1,0.2,0.3\n", encoding="utf-8")
        out = tmp_path / "p.csv"
        assert cli.main(["predict", "--model", str(path), "--data",
                         str(query), "--out", str(out)]) == 1
        assert "member 0 stage 1 tree" in capsys.readouterr().err
        assert not out.exists()


# What a mutation test puts in place of a value in a model document.
MUTANTS = [None, True, 0, -1, 1.5, 1e308, "", "x", [], {}, [[]]]


def key_paths(value, path=()):
    """Every key path of a JSON value: each dict key, and the first two
    items of each list, outermost first."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value[:2])
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from key_paths(child, path + (key,))


@pytest.mark.parametrize("n_classes", [2, 3])
def test_mutated_documents_load_or_raise_value_error(n_classes, tmp_path,
                                                     capsys):
    """Each value of a document replaced by each mutant either loads or
    raises ValueError, and sbpmt predict reports every file that does not
    load as an error line, not a traceback."""
    rng = np.random.default_rng(5)
    a = rng.uniform(-1, 1, 60)
    labels = np.digitize(a, [0.0] if n_classes == 2 else [-0.3, 0.3])
    labels[::6] = (labels[::6] + 1) % n_classes  # no stage is perfect
    rows = [f"{x:.3f},{c},k{k}"
            for x, c, k in zip(a, rng.choice(["u", "v"], 60), labels)]
    train = tmp_path / "train.csv"
    train.write_text("a,color,label\n" + "\n".join(rows) + "\n",
                     encoding="utf-8")
    dataset = data.load_csv(train, "label")
    model = ensemble.fit_sbpmt(dataset.X, dataset.y, n_classes, SbpmtConfig(
        M=2, T=2, B=2, depth=1, min_leaf_size=5), schema=dataset.schema,
        workers=1)
    doc = json.loads(model_io.serialize_model(model))
    assert all(len(m["stages"]) == 2 for m in doc["members"])
    rejected = []
    for path in list(key_paths(doc)):
        *parents, last = path
        holder = doc
        for key in parents:
            holder = holder[key]
        original = holder[last]
        for value in MUTANTS:
            holder[last] = value
            text = json.dumps(doc)
            try:
                model_io.deserialize_model(text)
            except ValueError:
                rejected.append(text)
        holder[last] = original
    assert rejected
    model_path, out = tmp_path / "model.json", tmp_path / "p.csv"
    for text in rejected:
        model_path.write_text(text, encoding="utf-8")
        assert cli.main(["predict", "--model", str(model_path), "--data",
                         str(train), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@st.composite
def small_problems(draw):
    """Small fits with constant columns, duplicate rows, single-class
    (sub)samples and min_leaf_size above n."""
    n_classes = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 30))
    p = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.round(rng.normal(size=(n, p)), 1)
    X[:, draw(st.integers(0, p - 1))] = 0.5  # a constant column
    dup = draw(st.integers(0, n // 2))
    X[n - dup:] = X[:dup]  # the last dup rows repeat the first ones
    if draw(st.booleans()):
        y = np.full(n, draw(st.integers(0, n_classes - 1)))
    else:
        y = rng.integers(0, n_classes, size=n)
    cfg = SbpmtConfig(M=draw(st.integers(1, 3)), T=draw(st.integers(1, 3)),
                      B=draw(st.integers(0, 4)),
                      alpha=draw(st.sampled_from([0.5, 0.8, 1.0])),
                      depth=draw(st.integers(0, 3)),
                      min_leaf_size=draw(st.integers(1, n + 3)),
                      seed=draw(st.integers(0, 100)))
    Xq = np.vstack([X, np.round(rng.normal(size=(10, p)), 1)])
    return X, y, n_classes, cfg, Xq


@settings(max_examples=60, deadline=None)
@given(small_problems())
def test_round_trip_and_single_rows_agree(problem):
    X, y, n_classes, cfg, Xq = problem
    model = ensemble.fit_sbpmt(X, y, n_classes, cfg)
    text = model_io.serialize_model(model)
    restored = model_io.deserialize_model(text)
    batch = ensemble.predict_sbpmt_many(model, Xq)
    np.testing.assert_array_equal(ensemble.predict_sbpmt_many(restored, Xq),
                                  batch)
    assert [ensemble.predict_sbpmt(restored, x) for x in Xq] == batch.tolist()
    assert model_io.serialize_model(restored) == text
