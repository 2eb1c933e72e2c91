import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbpmt import ensemble, model_io
from sbpmt.ensemble import SbpmtConfig


def fit_small(n_classes=2, seed=0, n=150):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 3))
    if n_classes == 2:
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
    else:
        y = np.digitize(X[:, 0], [-0.3, 0.3])
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
        doc = model_io.model_to_dict(model)
        doc["format_version"] = 999
        with pytest.raises(ValueError, match="format version"):
            model_io.model_from_dict(doc)

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_version_1_rejected_with_refit_message(self, version):
        model, _ = fit_small()
        doc = model_io.model_to_dict(model)
        doc["format_version"] = version
        with pytest.raises(ValueError, match=rf"version {version}\b.*refit"):
            model_io.model_from_dict(doc)

    def test_stages_are_flat_arrays(self):
        model, _ = fit_small(n_classes=3)
        doc = json.loads(model_io.serialize_model(model))
        tree = doc["members"][0]["stages"][0]["model"]
        # the tree is the arguments of pmt.make_tree: its preorder split
        # list (feature -1 at a leaf) and a score row per leaf
        assert set(tree) == {"feature", "threshold", "intercept", "coef",
                             "probit_risk"}
        n_nodes, n_leaves = len(tree["feature"]), len(tree["intercept"])
        assert n_nodes == 2 * n_leaves - 1 == len(tree["threshold"])
        assert tree["feature"].count(-1) == n_leaves
        assert np.shape(tree["coef"]) == (n_leaves, 3, 3)
        assert "rows" not in json.dumps(doc["members"])
        # each fact once: the probit risk in the tree, n_classes in the
        # document, the design seed in the config; a stage's err and alpha
        # follow from its raw_err, a tree's child table, leaf numbers and
        # depth from its split list
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

    def test_missing_version_rejected(self):
        with pytest.raises(ValueError, match="format version"):
            model_io.model_from_dict({})

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
        path.write_text(json.dumps(model_io.model_to_dict(model),
                                   sort_keys=True, indent=1,
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
        model, _ = fit_small(n_classes=3)
        return json.loads(model_io.serialize_model(model))

    def test_nan_token_rejected(self):
        text = model_io.serialize_model(fit_small()[0])
        text = text.replace('"probit_risk": ', '"probit_risk": NaN, "x": ', 1)
        with pytest.raises(ValueError, match="non-finite number NaN"):
            model_io.deserialize_model(text)
        doc = self.doc()
        doc["members"][0]["stages"][0]["model"]["coef"][0][0][0] = math.inf
        with pytest.raises(ValueError, match="non-finite number Infinity"):
            model_io.deserialize_model(json.dumps(doc))

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
         r"\(\d+, 3\) and coef \(\d+, 3, 3\) must be .* for its L"),
        (lambda t: t.update(feature=[0.5] * len(t["feature"])),
         "feature must hold integers"),
        (lambda t: t.update(threshold=t["threshold"][1:]),
         "nonempty lists of one length"),
        (lambda t: t.update(intercept=t["intercept"][1:]),
         r"intercept \(\d+, 3\) and coef"),
        (lambda t: t["coef"][0].pop(), ""),  # ragged lists
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
            model_io.deserialize_model(json.dumps(doc))

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
        # json.dumps writes inf as Infinity; the test writes it as 1e999,
        # which the parser reads as inf
        (lambda d: d["members"][1]["stages"][0]["model"]["threshold"]
         .__setitem__(0, math.inf),
         "member 1 stage 0 tree: threshold must hold finite numbers"),
        (lambda d: d["members"][1]["stages"][0]["model"]["intercept"][0]
         .__setitem__(0, -math.inf),
         "member 1 stage 0 tree: intercept must hold finite numbers"),
        (lambda d: d["members"][0]["stages"][1]["model"]["coef"][0][0]
         .__setitem__(2, math.inf),
         "member 0 stage 1 tree: coef must hold finite numbers"),
        (lambda d: d.update(n_classes=3.0), "n_classes must be an integer"),
        (lambda d: d.update(n_classes=True), "n_classes must be an integer"),
        (lambda d: d.update(format_version=float(model_io.FORMAT_VERSION)),
         "unsupported model format version 5.0"),
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
         "schema column 2: position must be an integer >= 0"),
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
        (lambda d: d["design"]["subsets"][1].__setitem__(0, 0.5),
         "design: subsets must hold integers"),
        (lambda d: d["design"]["subsets"][1].__setitem__(0, -1),
         "design: each subset must hold nonnegative row indices"),
        (lambda d: d["design"]["subsets"][1].reverse(),
         "in strictly increasing order"),
        (lambda d: d["design"]["subsets"][1].pop(),
         "design: subsets must be nonempty lists of one size"),
        (lambda d: d["design"]["subsets"].pop(),
         "design: subsets must be a list of 3 index lists, one per member"),
    ])
    def test_bad_document_rejected(self, edit, message):
        doc = self.doc()
        edit(doc)
        text = json.dumps(doc).replace("Infinity", "1e999")
        with pytest.raises(ValueError, match=message):
            model_io.deserialize_model(text)

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
        path.write_text(json.dumps(doc), encoding="utf-8")
        query = tmp_path / "q.csv"
        query.write_text("x0,x1,x2\n0.1,0.2,0.3\n", encoding="utf-8")
        out = tmp_path / "p.csv"
        assert cli.main(["predict", "--model", str(path), "--data",
                         str(query), "--out", str(out)]) == 1
        assert "member 0 stage 1 tree" in capsys.readouterr().err
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
