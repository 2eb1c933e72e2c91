import json
import math

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
        for a, b in zip(restored.design.subsets, model.design.subsets):
            np.testing.assert_array_equal(a, b)
        for ma, mb in zip(restored.members, model.members):
            assert len(ma.stages) == len(mb.stages)
            for sa, sb in zip(ma.stages, mb.stages):
                assert sa.alpha == sb.alpha
                assert sa.err == sb.err and sa.raw_err == sb.raw_err
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

    @pytest.mark.parametrize("version", [1, 2])
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
        n_nodes, n_leaves = len(tree["feature"]), len(tree["intercept"])
        assert n_nodes == 2 * n_leaves - 1
        for key in ("threshold", "left", "right", "leaf"):
            assert len(tree[key]) == n_nodes
        assert np.shape(tree["coef"]) == (n_leaves, 3, 3)
        assert "rows" not in json.dumps(doc["members"])
        # each fact once: the probit risk in the tree, n_classes and depth
        # in the document and its config, the design seed in the config
        stage = doc["members"][0]["stages"][0]
        assert set(stage) == {"alpha", "err", "raw_err", "model"}
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
