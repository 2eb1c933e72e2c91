import base64
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbpmt import cart, cli, data, ensemble, model_io
from sbpmt.ensemble import SbpmtConfig

from model_doc import DTYPES, decoded, encoded


def fit_small(n_classes=2, seed=0, n=150, **config):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 3))
    if n_classes == 2:
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
    else:
        # every tenth label moved on, so no member's first stage is
        # perfect and each keeps its second
        y = np.digitize(X[:, 0], [-0.3, 0.3] if n_classes == 3
                        else np.linspace(-1, 1, n_classes + 1)[1:-1])
        y[::10] = (y[::10] + 1) % n_classes
    cfg = SbpmtConfig(**{**dict(M=3, T=2, B=3, alpha=0.7, depth=2,
                                min_leaf_size=5, seed=seed), **config})
    schema = {"label": {"name": "y", "position": 3,
                        "classes": [str(c) for c in range(n_classes)]},
              "columns": [{"name": f"x{j}", "kind": "numeric", "position": j}
                          for j in range(3)],
              "has_header": True}
    return ensemble.fit_sbpmt(X, y, n_classes, cfg, schema=schema,
                              workers=1), X


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
        assert restored.design.dtype == bool
        assert restored.design.shape == (3, 150)
        np.testing.assert_array_equal(restored.design, model.design)
        for ma, mb in zip(restored.members, model.members, strict=True):
            # raw_err and probit_risk; err and alpha follow from raw_err
            assert ma.stages == mb.stages


class TestOnePassLoad:
    """A load decodes each array once for the whole committee and builds
    its trees with one pmt.make_tree: one cart.links pass, with its one
    cart.balance, which also builds the tables prediction routes
    through."""

    def test_load_and_predictions_run_balance_and_links_once(
            self, tmp_path, monkeypatch):
        model, X = fit_small(n_classes=3)
        path = tmp_path / "model.json"
        model_io.save_model(model, path)
        calls = []
        for name in ("balance", "links"):
            monkeypatch.setattr(cart, name, lambda feature, name=name,
                                original=getattr(cart, name): (
                calls.append((name, np.size(feature))), original(feature))[1])
        loaded = model_io.load_model(path)
        ensemble.predict_sbpmt(loaded, X[0])
        ensemble.predict_sbpmt_many(loaded, X)
        trees = model.committee.trees
        assert trees.roots.size == 6
        assert calls == [("links", trees.feature.size),
                         ("balance", trees.feature.size)]

    def test_strings_decoded_do_not_grow_with_the_trees(self, monkeypatch):
        # the six tree arrays and the design's incidence, for 2 trees
        # and for 20
        counts = []
        for M, T in ((1, 2), (4, 5)):
            model, _ = fit_small(n_classes=3, M=M, T=T)
            assert model.committee.trees.roots.size == M * T
            text = model_io.serialize_model(model)
            calls, decode = [], base64.b64decode
            monkeypatch.setattr(base64, "b64decode", lambda s, **kw: (
                calls.append(len(s)), decode(s, **kw))[1])
            model_io.deserialize_model(text)
            monkeypatch.undo()
            counts.append(len(calls))
        assert counts == [7, 7]

    def test_load_peak_memory_is_a_small_multiple_of_the_array_bytes(self):
        # a csv-multiclass-shaped model (J = 4, M = 5, T = 5, p = 21,
        # depth 5), against the bytes of its arrays in memory (the dense
        # coef and every node's threshold), so that the bound does not
        # shrink with the file.  A load holds the document's strings (4/3
        # of the bytes they encode), the decoded bytes once, which the
        # intercept views rather than copies, b64decode's ASCII copy of
        # the string it decodes, and the dense coef it rebuilds from the
        # support and the nonzero values: 2.3 times the array bytes at
        # the peak.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(600, 21))
        y = np.digitize(X[:, 0] + 0.5 * X[:, 1]
                        + 0.5 * rng.normal(size=600), [-0.7, 0, 0.7])
        model = ensemble.fit_sbpmt(X, y, 4, SbpmtConfig(
            M=5, T=5, B=15, depth=5), workers=1)
        assert model.committee.trees.roots.size == 25
        text = model_io.serialize_model(model)
        trees = model.committee.trees
        array_bytes = (4 * (trees.roots.size + trees.feature.size)
                       + 8 * (trees.threshold.size + trees.intercept.size
                              + trees.coef.size)
                       + np.packbits(model.design).size)
        assert array_bytes > 250_000  # the coefficients, mostly
        tracemalloc.start()
        try:
            model_io.deserialize_model(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * array_bytes, peak / array_bytes

    @pytest.mark.parametrize("n_classes", [2, 4])
    def test_loaded_committee_equals_the_fitted(self, n_classes):
        model, _ = fit_small(n_classes)
        text = model_io.serialize_model(model)
        loaded = model_io.deserialize_model(text)
        a, b = loaded.committee, model.committee
        for name in ("feature", "threshold", "child", "leaf", "roots",
                     "intercept", "coef"):
            np.testing.assert_array_equal(getattr(a.trees, name),
                                          getattr(b.trees, name),
                                          strict=True, err_msg=name)
        assert a.trees.depth == b.trees.depth
        np.testing.assert_array_equal(a.alpha, b.alpha, strict=True)
        np.testing.assert_array_equal(a.member, b.member, strict=True)
        assert model_io.serialize_model(loaded) == text


def gain_a_row(design):
    design[0, np.flatnonzero(~design[0])[0]] = True
    return design


def drop_a_row(design):
    design[2, np.flatnonzero(design[2])[0]] = False
    return design


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
        assert doc["format_version"] == model_io.FORMAT_VERSION == 8
        assert set(doc) == {"config", "design", "format_version", "members",
                            "n_classes", "schema", "trees"}

    def test_wrong_version_rejected(self):
        model, _ = fit_small()
        doc = json.loads(model_io.serialize_model(model))
        doc["format_version"] = 999
        with pytest.raises(ValueError, match="format version"):
            model_io.deserialize_model(json.dumps(doc))

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7])
    def test_version_1_rejected_with_refit_message(self, version):
        model, _ = fit_small()
        doc = json.loads(model_io.serialize_model(model))
        doc["format_version"] = version
        with pytest.raises(ValueError, match=rf"version {version}\b.*refit"):
            model_io.deserialize_model(json.dumps(doc))

    def test_committee_is_stored_once(self):
        model, _ = fit_small(n_classes=3)
        doc = json.loads(model_io.serialize_model(model))
        trees = doc["trees"]
        # the committee's trees as the arguments of pmt.make_tree, each
        # array the base64 of its little-endian bytes with no shape
        # stored, and each tree's node count
        assert set(trees) == {"nodes", "feature", "threshold", "intercept",
                              "support", "coef"}
        a = {k: np.frombuffer(base64.b64decode(v, validate=True), DTYPES[k])
             for k, v in trees.items()}
        fitted = model.committee.trees
        np.testing.assert_array_equal(a["nodes"], np.diff(
            fitted.roots, append=fitted.feature.size))
        assert a["nodes"].size == 6 and a["nodes"].sum() == a["feature"].size
        for k in ("feature", "intercept"):
            np.testing.assert_array_equal(
                a[k].reshape(np.shape(getattr(fitted, k))),
                getattr(fitted, k))
        # the thresholds of the split nodes only, in preorder; a leaf's
        # is 0.0
        split = fitted.feature != -1
        np.testing.assert_array_equal(a["threshold"],
                                      fitted.threshold[split])
        assert not fitted.threshold[~split].any()
        # the coefficients as the (p, L * K) support, a padded row per
        # feature, and the nonzero values feature by feature
        L = np.sum(a["feature"] == -1)
        assert a["intercept"].size == L * 3
        by_feature = fitted.coef.reshape(L * 3, 3).T
        assert a["support"].size == 3 * -(-L * 3 // 8)
        support = np.unpackbits(a["support"].reshape(3, -1), axis=1,
                                count=L * 3, bitorder="little")
        nonzero = by_feature.view(np.uint64) != 0
        np.testing.assert_array_equal(support, nonzero)
        assert 0 < a["coef"].size < fitted.coef.size
        np.testing.assert_array_equal(a["coef"], by_feature[nonzero])
        # each stage once: its raw_err and its tree's probit risk
        stages = [st for m in doc["members"] for st in m["stages"]]
        assert len(stages) == 6
        assert all(set(st) == {"raw_err", "probit_risk"} for st in stages)
        # the design as n and its (M, n) incidence, packed little-endian
        assert set(doc["design"]) == {"n", "incidence"}
        assert doc["design"]["n"] == 150
        incidence = np.unpackbits(np.frombuffer(base64.b64decode(
            doc["design"]["incidence"]), np.uint8), bitorder="little")
        assert incidence.size == 456  # 3 * 150 bits in 57 bytes
        assert not incidence[450:].any()
        np.testing.assert_array_equal(incidence[:450].reshape(3, 150),
                                      model.design)
        assert "rows" not in json.dumps(doc)

    def test_non_finite_number_not_written(self):
        model, _ = fit_small()
        model.members[0].stages[0].probit_risk = math.nan
        with pytest.raises(ValueError):
            model_io.serialize_model(model)

    @pytest.mark.parametrize("key, value, message", [
        ("threshold", math.nan, "threshold holds a non-finite number"),
        ("coef", math.inf, "coef holds a non-finite number"),
        ("intercept", -math.inf, "intercept holds a non-finite number"),
        # an index that int32 cannot hold is refused, not wrapped
        ("feature", -2**31 - 1, "feature must hold integers that int32"),
    ])
    def test_non_finite_array_or_bad_index_not_written(self, key, value,
                                                       message):
        model, _ = fit_small()
        getattr(model.committee.trees, key).flat[0] = value
        with pytest.raises(ValueError, match=message):
            model_io.serialize_model(model)

    @pytest.mark.parametrize("change", [
        lambda d: d.astype(np.uint8),  # an incidence of another dtype
        lambda d: np.stack([np.flatnonzero(r) for r in d]),  # row indices
        lambda d: d.ravel(),
        lambda d: d[:-1],  # fewer rows than config.M
    ], ids=["uint8", "indices", "1-D", "M-1 rows"])
    def test_design_not_an_incidence_not_written(self, change):
        model, _ = fit_small()
        model.design = change(model.design)
        with pytest.raises(ValueError, match=r"design must be an \(M, n\) "
                                             r"bool array with config\.M = 3"):
            model_io.serialize_model(model)

    # the loader refuses each of these, so the writer must not write them
    @pytest.mark.parametrize("change, message", [
        (gain_a_row, r"^design: each subset must hold floor\(alpha \* n\) "
                     r"= 105 rows, but subset 0 holds 106$"),
        (drop_a_row, r"^design: each subset must hold floor\(alpha \* n\) "
                     r"= 105 rows, but subset 2 holds 104$"),
        (lambda d: np.ones((3, 1), dtype=bool),
         r"^design: floor\(alpha \* n\) = 0 rows per subset for n = 1$"),
    ], ids=["one row more", "one row fewer", "n=1"])
    def test_design_of_other_subset_sizes_not_written(self, change,
                                                      message):
        model, _ = fit_small()
        model.design = change(model.design)
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


def edit_array(doc, key, change):
    """Replace the stored tree array key of a raw document with change of
    it, as an array of its stored dtype."""
    a = np.frombuffer(base64.b64decode(doc["trees"][key]), DTYPES[key])
    doc["trees"][key] = base64.b64encode(np.asarray(
        change(a.copy()), DTYPES[key]).tobytes()).decode()


def put(i, x):
    """A change for edit_array that sets item i to x."""
    def change(a):
        a[i] = x
        return a
    return change


def stored(doc, key):
    return np.frombuffer(base64.b64decode(doc["trees"][key]), DTYPES[key])


class TestSparseCoef:
    """The coefficients are stored as their support and nonzero values,
    and the thresholds of the split nodes only; a load rebuilds the
    arrays of the fitted committee bit for bit."""

    def round_trip(self, model):
        text = model_io.serialize_model(model)
        loaded = model_io.deserialize_model(text)
        a, b = loaded.committee.trees, model.committee.trees
        for name in ("feature", "threshold", "intercept", "coef"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.shape == y.shape and x.dtype == y.dtype, name
            assert x.tobytes() == y.tobytes(), name  # bit for bit
        assert a.coef.flags.c_contiguous
        assert model_io.serialize_model(loaded) == text
        return json.loads(text), a

    @pytest.mark.parametrize("n_classes", [2, 3, 4])
    def test_fitted_committee_round_trips_bit_for_bit(self, n_classes):
        model, _ = fit_small(n_classes)
        self.round_trip(model)

    def test_negative_zero_coefficient_is_kept(self):
        model, _ = fit_small(n_classes=4)
        coef = model.committee.trees.coef
        coef[0, 1, 2] = -0.0
        coef[3, 0, 0] = 0.0
        doc, loaded = self.round_trip(model)
        assert np.signbit(loaded.coef[0, 1, 2]) and loaded.coef[0, 1, 2] == 0
        assert not np.signbit(loaded.coef[3, 0, 0])
        assert stored(doc, "coef").size == np.count_nonzero(
            coef.view(np.uint64))

    def test_all_zero_leaf_columns(self):
        model, _ = fit_small(n_classes=4)
        coef = model.committee.trees.coef
        coef[1, 2] = 0.0  # one leaf's column
        coef[5] = 0.0  # every column of one leaf
        coef[:, :, 1] = 0.0  # one feature in every leaf
        _, loaded = self.round_trip(model)
        assert not loaded.coef[5].any() and not loaded.coef[:, :, 1].any()

    def test_fully_dense_block(self):
        model, _ = fit_small(n_classes=4)
        coef = model.committee.trees.coef
        coef[:] = np.random.default_rng(3).normal(size=coef.shape)
        doc, _ = self.round_trip(model)
        assert stored(doc, "coef").size == coef.size
        support = stored(doc, "support").reshape(3, -1)
        np.testing.assert_array_equal(np.unpackbits(
            support, axis=1, count=coef.shape[0] * 4, bitorder="little"), 1)

    def test_depth_0_committee_packs_a_byte_per_feature(self):
        # one leaf per tree, so L * K = 6 < 8 bits: a row of one byte for
        # each of the p = 3 features, which a flat packing of the
        # coefficients' bits would not tell apart from other shapes
        model, _ = fit_small(depth=0)
        assert model.committee.trees.coef.shape == (6, 1, 3)
        doc, _ = self.round_trip(model)
        assert stored(doc, "support").size == 3
        assert stored(doc, "threshold").size == 0

    @pytest.mark.parametrize("n_classes", [2, 4])
    def test_coef_holds_8_bytes_per_set_support_bit(self, n_classes):
        model, _ = fit_small(n_classes)
        doc = json.loads(model_io.serialize_model(model))
        set_bits = np.unpackbits(stored(doc, "support")).sum()
        assert 0 < set_bits < model.committee.trees.coef.size
        assert len(base64.b64decode(doc["trees"]["coef"])) == 8 * set_bits

    def test_loaded_coef_is_c_contiguous(self):
        model, _ = fit_small(n_classes=4)
        loaded = model_io.deserialize_model(model_io.serialize_model(model))
        assert loaded.committee.trees.coef.flags.c_contiguous

    # a 3-class fit_small: L = 24 leaves, K = 3, so L * K = 72 columns
    # and 9 bytes a support row for each of p = 3 features; 18 splits
    @pytest.mark.parametrize("key, change, message", [
        ("support", lambda a: a[:-1],
         r"support holds 26 bytes, not p >= 1 rows of ceil\(L \* K / 8\) "
         r"= 9 bytes for the L \* K = 72 score columns"),
        ("support", lambda a: a[:0], r"support holds 0 bytes, not p >= 1 "
         r"rows of ceil\(L \* K / 8\) = 9 bytes for the L \* K = 72 score "
         "columns"),
        ("support", lambda a: np.append(a, 0), r"support holds 28 bytes, not "
         r"p >= 1 rows of ceil\(L \* K / 8\) = 9 bytes for the L \* K = 72 "
         "score columns"),
        ("threshold", lambda a: a[:-1],
         r"threshold holds 17 values for the 18 split nodes"),
        ("threshold", lambda a: np.append(a, 0.0),
         r"threshold holds 19 values for the 18 split nodes"),
    ])
    def test_bad_support_or_counts_rejected(self, key, change, message):
        doc = json.loads(model_io.serialize_model(fit_small(n_classes=3)[0]))
        edit_array(doc, key, change)
        with pytest.raises(ValueError, match=f"^trees: {message}$"):
            model_io.deserialize_model(json.dumps(doc))

    # a value without its bit, or a bit without its value
    @pytest.mark.parametrize("change, more", [
        (lambda a: a[:-1], -1), (lambda a: np.append(a, 1.0), 1)])
    def test_support_bits_must_match_the_values(self, change, more):
        doc = json.loads(model_io.serialize_model(fit_small(n_classes=3)[0]))
        n = stored(doc, "coef").size
        edit_array(doc, "coef", change)
        with pytest.raises(ValueError, match=f"^trees: support sets {n} bits "
                                             f"for the {n + more} values of "
                                             "coef$"):
            model_io.deserialize_model(json.dumps(doc))

    def test_padding_bit_rejected(self):
        # L * K = 6 bits of each one-byte row; the top two are padding
        doc = json.loads(model_io.serialize_model(fit_small(depth=0)[0]))
        model_io.deserialize_model(json.dumps(doc))
        for bit in (0x40, 0x80):
            bad = json.loads(json.dumps(doc))
            # in the second feature's row
            edit_array(bad, "support", lambda a: a | [0, bit, 0])
            with pytest.raises(ValueError, match=r"^trees: support sets a "
                                                 r"padding bit"):
                model_io.deserialize_model(json.dumps(bad))

    def test_stored_positive_zero_rejected_and_named(self):
        # a stored +0.0 would be left out by the next write, so a load
        # then save would not give the file back; -0.0 is a value
        doc = json.loads(model_io.serialize_model(fit_small(n_classes=3)[0]))
        support = np.unpackbits(stored(doc, "support").reshape(3, -1),
                                axis=1, count=72, bitorder="little")
        leaf = np.flatnonzero(support) % 72 // 3
        # a value in one of the leaves 8-11, those of member 1's stage 0
        v = int(np.flatnonzero((leaf >= 8) & (leaf < 12))[0])
        negative = json.loads(json.dumps(doc))
        edit_array(negative, "coef", put(v, -0.0))
        text = json.dumps(negative, sort_keys=True) + "\n"
        assert model_io.serialize_model(model_io.deserialize_model(text)) == (
            text)
        edit_array(doc, "coef", put(v, 0.0))
        with pytest.raises(ValueError, match=r"^member 1 stage 0 tree: coef "
                                             r"stores a 0\.0, which support "
                                             r"must leave out$"):
            model_io.deserialize_model(json.dumps(doc))


GOLDEN = Path(__file__).parent / "data" / "model_v8.json"


def test_golden_v8_file_loads_predicts_and_reserializes():
    # a committed file of a seeded fit_small(4, seed=1, depth=3,
    # min_leaf_size=15): L * K = 116 support columns, so each of the
    # three rows ends in 4 padding bits.  It pins the bit and value order
    # of packbits and unpackbits(axis=1, count=...) on every NumPy that
    # runs the tests: where the nonzero coefficients sit, and the last
    # leaf's, whose columns end each support row.
    text = GOLDEN.read_text(encoding="utf-8")
    model = model_io.deserialize_model(text)
    coef = model.committee.trees.coef
    assert coef.shape == (29, 4, 3)
    assert np.count_nonzero(coef, axis=(0, 1)).tolist() == [89, 43, 38]
    assert np.count_nonzero(coef, axis=(1, 2)).tolist() == [
        8, 8, 4, 0, 4, 8, 8, 6, 4, 6, 6, 6, 6, 6, 6, 6, 8, 8, 6, 6, 4, 6, 2,
        4, 8, 8, 6, 6, 6]
    assert coef[-1].tolist() == [
        [0.0, -3.176423922212803, 0.0], [-1.254901079598826e-30, 0.0, 0.0],
        [-3.2714715760426163, -0.6004516329594434, 0.0],
        [1.3599509538145598, 2.1532999424914196, 0.0]]
    rows = np.array([[a, b, 0.25] for a in (-0.9, -0.45, -0.1, 0.2, 0.55, 0.9)
                     for b in (-0.5, 0.5)])
    assert ensemble.predict_sbpmt_many(model, rows).tolist() == [
        0, 0, 1, 1, 1, 1, 2, 2, 3, 3, 3, 3]
    assert model_io.serialize_model(model) == text


def tree_of(doc, k, t):
    """The stored tree of member k's stage t in a decoded document."""
    return doc["trees"][sum(len(m["stages"]) for m in doc["members"][:k])
                        + t]


def drop_last_leaf(tree):
    """Drop a decoded tree's last node, a leaf, and its score row, so its
    split list ends inside the tree."""
    for key in ("feature", "threshold", "intercept", "coef"):
        tree[key] = tree[key][:-1]


class TestUntrustedFile:
    """A model file is outside input: what prediction could not follow is
    rejected on load with a ValueError naming the member and stage."""

    def doc(self):
        """A 3-class document with its trees and design decoded to nested
        lists (model_doc.decoded); json.dumps(encoded(doc)) stores them
        again."""
        model, _ = fit_small(n_classes=3)
        return decoded(json.loads(model_io.serialize_model(model)))

    def raw_doc(self):
        """The same document, its arrays as stored."""
        return json.loads(model_io.serialize_model(fit_small(n_classes=3)[0]))

    def test_nan_token_rejected(self):
        text = model_io.serialize_model(fit_small()[0])
        text = text.replace('"probit_risk": ', '"probit_risk": NaN, "x": ', 1)
        with pytest.raises(ValueError, match="non-finite number NaN"):
            model_io.deserialize_model(text)
        doc = self.doc()
        tree_of(doc, 0, 0)["coef"][0][0][0] = math.inf
        with pytest.raises(ValueError, match="member 0 stage 0 tree: coef "
                                             "must hold finite numbers"):
            model_io.deserialize_model(json.dumps(encoded(doc)))

    @pytest.mark.parametrize("edit, message", [
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
        # each stored tree is one tree, though make_tree takes many
        (lambda t: t.update(feature=[-1, -1], threshold=[0.0] * 2,
                            intercept=[[0.0] * 3] * 2,
                            coef=[[[0.0] * 3] * 3] * 2),
         "split list is not one tree: node 1 follows a complete tree"),
        (lambda t: t.update(feature=[0, -1, -1, -1], threshold=[0.0] * 4,
                            intercept=[[0.0] * 3] * 3,
                            coef=[[[0.0] * 3] * 3] * 3),
         "split list is not one tree: node 3 follows a complete tree"),
        # node 4, the tree's last split node (a leaf's threshold is not
        # stored)
        (lambda t: t["threshold"].__setitem__(4, math.nan),
         "threshold must hold finite numbers"),
        (lambda t: t["intercept"][-1].__setitem__(0, -math.inf),
         "intercept must hold finite numbers"),
        (lambda t: t.update(feature=[0, 0, 0, -1, -1, -1, -1],
                            threshold=[0.0] * 7, intercept=[[0.0] * 3] * 4,
                            coef=[[[0.0] * 3] * 3] * 4),
         "depth 3, deeper than config.depth = 2"),
    ])
    def test_bad_tree_rejected(self, edit, message):
        doc = self.doc()
        edit(tree_of(doc, 1, 0))
        with pytest.raises(ValueError, match="^member 1 stage 0 tree: "
                                             f"{message}$"):
            model_io.deserialize_model(json.dumps(encoded(doc)))

    @pytest.mark.parametrize("edit, message", [
        # a middle stage that ends inside a tree, which the next stage's
        # nodes would complete (see the test below)
        (lambda d: drop_last_leaf(tree_of(d, 1, 0)),
         "member 1 stage 0 tree: split list is not one tree: it ends "
         "inside a tree"),
        # a middle stage that holds two trees
        (lambda d: tree_of(d, 1, 1).update(
            feature=[0, -1, -1, -1], threshold=[0.0] * 4,
            intercept=[[0.0] * 3] * 3, coef=[[[0.0] * 3] * 3] * 3),
         "member 1 stage 1 tree: split list is not one tree: node 3 "
         "follows a complete tree"),
        # a non-finite coef in the last stage
        (lambda d: tree_of(d, 2, 1)["coef"][-1][-1].__setitem__(-1, math.inf),
         "member 2 stage 1 tree: coef must hold finite numbers"),
        # a feature out of range in a middle stage
        (lambda d: tree_of(d, 1, 1)["feature"].__setitem__(0, 3),
         "member 1 stage 1 tree: node 0 has feature index 3, outside -1..2"),
        # of two faults that one rule finds, the one in the earlier tree
        (lambda d: (tree_of(d, 2, 0)["threshold"].__setitem__(0, math.nan),
                    tree_of(d, 0, 1)["threshold"].__setitem__(1, math.nan)),
         "member 0 stage 1 tree: threshold must hold finite numbers"),
        # and of two coef values, the one in the earlier tree, though it
        # comes later in the values, which run feature by feature
        (lambda d: (tree_of(d, 2, 0)["coef"][0][0].__setitem__(0, math.inf),
                    tree_of(d, 0, 1)["coef"][-1][-1].__setitem__(-1,
                                                                 math.inf)),
         "member 0 stage 1 tree: coef must hold finite numbers"),
        # of two faults, the one whose rule comes first (model_io's module
        # docstring): stage values before the trees, a feature out of
        # range before the split lists, the split lists before the values
        (lambda d: (tree_of(d, 0, 1)["threshold"].__setitem__(0, math.nan),
                    d["members"][2]["stages"][0].pop("raw_err")),
         r"member 2 stage 0: missing keys ['raw_err'], unknown keys []"),
        (lambda d: (tree_of(d, 0, 0)["feature"].__setitem__(0, 7),
                    tree_of(d, 1, 1).update(
                        feature=[-1, -1], threshold=[0.0] * 2,
                        intercept=[[0.0] * 3] * 2,
                        coef=[[[0.0] * 3] * 3] * 2)),
         "member 0 stage 0 tree: node 0 has feature index 7, outside -1..2"),
        (lambda d: (drop_last_leaf(tree_of(d, 1, 0)),
                    tree_of(d, 1, 0)["feature"].__setitem__(0, 99)),
         "member 1 stage 0 tree: node 0 has feature index 99, outside -1..2"),
        (lambda d: (tree_of(d, 0, 0)["threshold"].__setitem__(0, math.nan),
                    drop_last_leaf(tree_of(d, 2, 1))),
         "member 2 stage 1 tree: split list is not one tree: it ends "
         "inside a tree"),
    ])
    def test_one_pass_check_names_the_tree(self, edit, message):
        # the checks run on all the trees at once, and the error names
        # the first tree at fault
        doc = self.doc()
        edit(doc)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            model_io.deserialize_model(json.dumps(encoded(doc)))

    def test_a_cut_stage_can_leave_whole_trees_end_to_end(self):
        # the premise of the first case above: the committee's split
        # lists laid end to end still read as whole trees, so only the
        # stored node counts show the cut stage
        doc = self.doc()
        drop_last_leaf(tree_of(doc, 1, 0))
        cart.links(np.concatenate([t["feature"] for t in doc["trees"]]))

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t.pop("threshold"),
         r"^trees: missing keys \['threshold'\]"),
        (lambda t: t.pop("support"), r"^trees: missing keys \['support'\]"),
        (lambda t: t.update(rows=""), r"^trees: .*unknown keys \['rows'\]"),
        # the child table and leaf numbers follow from the split list
        (lambda t: t.update(left=""), r"unknown keys \['left'\]"),
        # one node count >= 1 per stage, summing to the node count
        (lambda t: t.update(nodes=base64.b64encode(np.frombuffer(
            base64.b64decode(t["nodes"]), "<i4")[:-1].tobytes()).decode()),
         r"^trees: nodes must hold a count >= 1 for each of the 6 stages, "
         r"summing to the \d+ of feature$"),
        (lambda t: t.update(nodes=base64.b64encode(np.frombuffer(
            base64.b64decode(t["nodes"]), "<i4") * 2).decode()),
         "^trees: nodes must hold a count >= 1"),
        (lambda t: t.update(nodes=base64.b64encode(np.array(
            [0, 0, 0, 0, 0, np.frombuffer(base64.b64decode(t["feature"]),
                                          "<i4").size], "<i4")).decode()),
         "^trees: nodes must hold a count >= 1"),
    ])
    def test_bad_committee_keys_or_node_counts_rejected(self, edit, message):
        doc = self.raw_doc()
        edit(doc["trees"])
        with pytest.raises(ValueError, match=message):
            model_io.deserialize_model(json.dumps(doc))

    @pytest.mark.parametrize("edit, message", [
        # a score row per leaf: one short, or one over
        (lambda t: [t.update({k: t[k][1:]}) for k in ("intercept", "coef")],
         r"score block: intercept \(\d+, 3\) and coef \(\d+, 3, 3\) must be "
         r"\(L, K\) and \(L, K, p\) for the L = \d+ leaves"),
        (lambda t: [t[k].append(t[k][0]) for k in ("intercept", "coef")],
         r"score block: .* for the L = \d+ leaves"),
        # the support still has the coef's L * K = 72 columns, so for the
        # intercept's 69 the last three set padding bits
        (lambda t: t.update(intercept=t["intercept"][1:]),
         "support sets a padding bit"),
        (lambda t: t.update(intercept=[row[:2] for row in t["intercept"]]),
         r"intercept of 68 values must be \(L, 3\)$"),
    ])
    def test_bad_score_block_rejected(self, edit, message):
        # the score block is the committee's: a row too few or too many
        # belongs to no one tree
        doc = self.doc()
        edit(tree_of(doc, 1, 0))
        with pytest.raises(ValueError, match=f"^trees: .*{message}"):
            model_io.deserialize_model(json.dumps(encoded(doc)))

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["members"][0]["stages"][0].pop("raw_err"),
         "member 0 stage 0: missing keys"),
        # alpha and err follow from raw_err and are not stored
        (lambda d: d["members"][0]["stages"][0].update(alpha=-1e300),
         "unknown keys .*'alpha'"),
        # a stage holds no tree of its own
        (lambda d: d["members"][0]["stages"][0].update(model={}),
         r"member 0 stage 0: missing keys \[\], unknown keys \['model'\]"),
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
        # the probit risk is the binary fit's; null for 3 classes
        (lambda d: d["members"][1]["stages"][0].update(probit_risk="abc"),
         "member 1 stage 0: probit_risk must be null for more than 2 "
         "classes"),
        (lambda d: d["members"][1]["stages"][0].update(probit_risk=[1, 2]),
         "member 1 stage 0: probit_risk must be null for more than 2 "
         "classes"),
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
        (lambda d: tree_of(d, 1, 0)["threshold"].__setitem__(0, math.inf),
         "member 1 stage 0 tree: threshold must hold finite numbers"),
        (lambda d: tree_of(d, 1, 0)["intercept"][0].__setitem__(0, -math.inf),
         "member 1 stage 0 tree: intercept must hold finite numbers"),
        (lambda d: tree_of(d, 0, 1)["coef"][0][0].__setitem__(2, math.inf),
         "member 0 stage 1 tree: coef must hold finite numbers"),
        (lambda d: tree_of(d, 2, 0)["threshold"].__setitem__(1, math.nan),
         "member 2 stage 0 tree: threshold must hold finite numbers"),
        (lambda d: d.update(n_classes=3.0), "n_classes must be an integer"),
        (lambda d: d.update(n_classes=True), "n_classes must be an integer"),
        (lambda d: d.update(format_version=float(model_io.FORMAT_VERSION)),
         "unsupported model format version 8.0"),
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
        # a stage per stored tree
        (lambda d: d["members"][2]["stages"].pop(),
         "trees: nodes must hold a count >= 1 for each of the 5 stages"),
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
        # the design: every subset holds floor(alpha * n) = 105 of n rows
        (lambda d: d["design"]["subsets"][1].pop(),
         r"design: each subset must hold floor\(alpha \* n\) = 105 rows, "
         "but subset 1 holds 104"),
        (lambda d: d["design"]["subsets"][2].extend(
            set(range(150)) - set(d["design"]["subsets"][2])),
         "but subset 2 holds 150"),
        (lambda d: d["design"].update(subsets=[[], [], []]),
         "but subset 0 holds 0"),
        (lambda d: d["design"].update(n=160),
         r"floor\(alpha \* n\) = 112 rows, but subset 0 holds 105"),
        # M * n bits in whole bytes: 450 bits of 3 x 150
        (lambda d: d["design"]["subsets"].pop(),
         r"design: incidence must hold the M \* n = 450 bits of M = 3 "
         r"subsets of n = 150 rows, padded with zeros to whole bytes, got "
         "38 bytes"),
    ])
    def test_bad_document_rejected(self, edit, message):
        doc = self.doc()
        edit(doc)
        with pytest.raises(ValueError, match=message):
            model_io.deserialize_model(json.dumps(encoded(doc)))

    @pytest.mark.parametrize("n, message", [
        (160, r"^design: incidence must hold the M \* n = 480 bits of M = 3 "
              r"subsets of n = 160 rows, padded with zeros to whole bytes, "
              "got 57 bytes$"),
        (0, "^design: n must be >= 1, got 0$"),
        (150.0, "^design: n must be an integer >= 1, got 150.0$"),
        (True, "^design: n must be an integer >= 1, got True$"),
        (1, r"^design: floor\(alpha \* n\) = 0 rows per subset for n = 1$"),
    ])
    def test_bad_design_size_rejected(self, n, message):
        doc = self.raw_doc()
        doc["design"]["n"] = n
        with pytest.raises(ValueError, match=message):
            model_io.deserialize_model(json.dumps(doc))

    def test_incidence_padding_must_be_zero(self):
        # 450 bits fill 56 bytes and 2 bits of the 57th; the other 6 are 0
        doc = self.raw_doc()
        raw = bytearray(base64.b64decode(doc["design"]["incidence"]))
        assert len(raw) == 57
        model_io.deserialize_model(json.dumps(doc))
        raw[-1] |= 0x80
        doc["design"]["incidence"] = base64.b64encode(raw).decode()
        with pytest.raises(ValueError, match="padded with zeros to whole "
                                             "bytes, got 57 bytes"):
            model_io.deserialize_model(json.dumps(doc))

    @pytest.mark.parametrize("where, key", [
        ("trees", "nodes"),
        ("trees", "feature"),
        ("trees", "threshold"),
        ("trees", "intercept"),
        ("trees", "support"),
        ("trees", "coef"),
        ("design", "incidence"),
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
        ("AAAAéAAA", "is not valid base64"),
        ("A===", "is not valid base64"),
        # 3 bytes: not a whole number of 4- or 8-byte items, nor of the
        # support's rows, nor M * n bits
        ("AAAA", r"(holds 3 bytes, not (a whole number of [48]-byte items"
                 r"|p >= 1 rows)|must hold the M \* n = 450 bits)"),
    ])
    def test_bad_array_string_rejected(self, where, key, value, message):
        doc = self.raw_doc()
        doc[where][key] = value
        with pytest.raises(ValueError, match=f"^{where}: {key} {message}"):
            model_io.deserialize_model(json.dumps(doc))

    @pytest.mark.parametrize("risk", ['"abc"', "[1, 2]", "null", "1e999"])
    def test_binary_probit_risk_must_be_finite(self, risk):
        text = model_io.serialize_model(fit_small()[0])
        text = re.sub(r'"probit_risk": [^,\n]*', f'"probit_risk": {risk}',
                      text, count=1)
        with pytest.raises(ValueError, match="member 0 stage 0: "
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
        tree_of(doc, 0, 1)["feature"][0] = 99
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
