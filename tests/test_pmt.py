import math
import re

import numpy as np
import pytest

from sbpmt import numerics, pmt


def one_leaf(intercept, coef):
    """A single-leaf PMT with the given (K,) intercepts and (K, p) slopes."""
    coef = np.asarray(coef, dtype=float)
    K = coef.shape[0]
    return pmt.make_tree([-1], [0.0],
                         np.asarray(intercept, dtype=float).reshape(1, K),
                         coef[None])


def reference_predict(model, x):
    """Scalar reference: walk the split list, then decide on the margins."""
    node = 0
    while model.feature[node] != -1:
        f, t = model.feature[node], model.threshold[node]
        node = model.child[node, int(x[f] <= t)]
    lf = model.leaf[node]
    margins = [model.intercept[lf, k] + float(np.dot(model.coef[lf, k], x))
               for k in range(model.coef.shape[1])]
    if model.n_classes == 2:
        return 1 if margins[0] > 0 else 0
    return int(np.argmax(margins))


def weighted_probit_risk(model, X, y, sample_weights) -> float:
    """Reference for PmtModel.probit_risk: the binary PMT probit risk
    sum_i w_i * Q(y_i * f_leaf(x_i)) on given data, weights renormalized."""
    if model.n_classes != 2:
        raise ValueError("probit risk is defined for binary models")
    ypm = np.where(np.asarray(y) == 1, 1.0, -1.0)
    w = np.asarray(sample_weights, dtype=float)
    w = w / float(np.sum(w))
    f = pmt.margins(model, np.asarray(X, dtype=float))[:, 0, 0]
    return float(np.dot(w, numerics.probit_loss(ypm * f)))


def xor_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
    return X, y


class TestFitPmt:
    def test_depth_zero_no_boost_predicts_class0(self):
        # trivial configuration: one leaf, zero boosting iterations,
        # zero margin, sign(0) -> class 0
        X, y = xor_data(50)
        model = pmt.fit_pmt(X, y, 2, np.ones(50), 0, 1, 0)
        assert model.feature.tolist() == [-1]
        assert model.child.tolist() == [[0, 0]]
        assert np.all(pmt.predict_pmt_many(model, X) == 0)
        assert model.probit_risk == pytest.approx(math.log(2))

    def test_xor_needs_both_layers(self):
        # depth-1 tree with linear leaves solves XOR; a single global
        # linear model cannot
        X, y = xor_data(400)
        linear_only = pmt.fit_pmt(X, y, 2, np.ones(400), 0, 1, 30)
        tree_model = pmt.fit_pmt(X, y, 2, np.ones(400), 1, 5, 30)
        acc_linear = np.mean(pmt.predict_pmt_many(linear_only, X) == y)
        acc_tree = np.mean(pmt.predict_pmt_many(tree_model, X) == y)
        assert acc_linear < 0.75
        assert acc_tree > 0.95

    def test_every_leaf_has_a_model(self):
        X, y = xor_data(300, seed=3)
        model = pmt.fit_pmt(X, y, 2, np.ones(300), 3, 10, 5)
        nodes = np.arange(model.feature.size)
        is_leaf = model.feature == -1
        assert np.all(model.child[is_leaf] == nodes[is_leaf, None])
        L = int(is_leaf.sum())
        assert sorted(model.leaf[is_leaf]) == list(range(L))
        assert model.intercept.shape == (L, 1)
        assert model.coef.shape == (L, 1, 2)
        # no training artefacts: the fitted model is its arrays only
        assert not hasattr(model, "rows") and not hasattr(model, "tree")

    def test_probit_risk_is_leaf_mass_average(self):
        X, y = xor_data(300, seed=5)
        w = np.random.default_rng(5).uniform(0.5, 2.0, size=300)
        model = pmt.fit_pmt(X, y, 2, w, 2, 20, 8)
        recomputed = weighted_probit_risk(model, X, y, w)
        assert model.probit_risk == pytest.approx(recomputed, rel=1e-10)
        assert 0.0 < model.probit_risk < math.log(2) + 1e-12

    def test_multiclass_has_no_probit_risk(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(size=(90, 2))
        y = rng.integers(0, 3, size=90)
        model = pmt.fit_pmt(X, y, 3, np.ones(90), 2, 5, 3)
        assert model.probit_risk is None
        L = model.intercept.shape[0]
        assert model.intercept.shape == (L, 3)
        assert model.coef.shape == (L, 3, 2)

    def test_nonpositive_weights_rejected(self):
        X, y = xor_data(10)
        with pytest.raises(ValueError, match="positive sum"):
            pmt.fit_pmt(X, y, 2, np.zeros(10), 1, 1, 1)


class TestPredict:
    def test_scalar_matches_vectorized(self):
        X, y = xor_data(250, seed=11)
        model = pmt.fit_pmt(X, y, 2, np.ones(250), 2, 10, 10)
        rng = np.random.default_rng(12)
        Xq = rng.uniform(-1, 1, size=(120, 2))
        many = pmt.predict_pmt_many(model, Xq)
        assert many.tolist() == [reference_predict(model, x) for x in Xq]
        assert many.tolist() == [pmt.predict_pmt_many(model, x[None])[0]
                                 for x in Xq]

    def test_multiclass_scalar_matches_vectorized(self):
        rng = np.random.default_rng(14)
        X = np.vstack([c + 0.4 * rng.normal(size=(30, 2))
                       for c in ([0, 0], [4, 0], [0, 4])])
        y = np.repeat([0, 1, 2], 30)
        model = pmt.fit_pmt(X, y, 3, np.ones(90), 2, 5, 10)
        Xq = rng.normal(size=(60, 2)) * 2
        many = pmt.predict_pmt_many(model, Xq)
        assert many.tolist() == [reference_predict(model, x) for x in Xq]
        assert many.tolist() == [pmt.predict_pmt_many(model, x[None])[0]
                                 for x in Xq]
        assert np.mean(pmt.predict_pmt_many(model, X) == y) > 0.95

    def test_binary_tie_goes_to_class0(self):
        model = one_leaf([0.0], [[0.0]])
        assert pmt.predict_pmt_many(model, [[3.0]]).tolist() == [0]
        assert pmt.predict_pmt_many(model, [[3.0], [-1.0]]).tolist() == [0, 0]

    def test_multiclass_tie_goes_to_smallest_index(self):
        model = one_leaf([1.0, 1.0, 1.0], np.zeros((3, 1)))
        assert pmt.predict_pmt_many(model, [[0.0]]).tolist() == [0]
        model = one_leaf([0.0, 2.0, 2.0], np.zeros((3, 1)))
        assert pmt.predict_pmt_many(model, [[0.0]]).tolist() == [1]

    def test_stacked_trees_match_each_tree(self):
        X, y = xor_data(300, seed=21)
        w = np.random.default_rng(21).uniform(0.5, 2.0, size=300)
        models = [pmt.fit_pmt(X, y, 2, w, d, 10, 4) for d in (0, 1, 3)]
        trees = pmt.join(models)
        assert trees.roots.tolist() == [0, 1, 4]
        Xq = np.random.default_rng(22).uniform(-1, 1, size=(80, 2))
        classes = pmt.tree_classes(trees, Xq)
        for t, model in enumerate(models):
            np.testing.assert_array_equal(classes[:, t],
                                          pmt.predict_pmt_many(model, Xq))


class TestMakeTree:
    @pytest.mark.parametrize("intercept, coef", [
        # no score row for the one leaf, then a row too many
        (np.zeros((0, 1)), np.zeros((0, 1, 3))),
        (np.zeros((2, 1)), np.zeros((2, 1, 3))),
        # coef for another K than the intercept's, or without its p
        (np.zeros((1, 3)), np.zeros((1, 2, 3))),
        (np.zeros((1, 1)), np.zeros((1, 1))),
        (np.zeros((1, 1)), np.zeros((1, 1, 0))),
        (np.zeros(1), np.zeros((1, 1, 3))),
    ])
    def test_score_block_must_fit_the_leaves(self, intercept, coef):
        # a row per leaf, each (K,) intercepts and (K, p) slopes: before,
        # the first of these was accepted and prediction raised IndexError
        with pytest.raises(ValueError, match=re.escape(
                f"score block: intercept {intercept.shape} and coef "
                f"{coef.shape} must be (L, K) and (L, K, p) for the L = 1 "
                "leaves")):
            pmt.make_tree([-1], [0.0], intercept, coef)

    def test_threshold_per_node(self):
        with pytest.raises(ValueError,
                           match="^threshold holds 2 values for 3 nodes$"):
            pmt.make_tree([0, -1, -1], [0.0, 0.0], np.zeros((2, 1)),
                          np.zeros((2, 1, 1)))

    def test_tables_of_a_small_list(self):
        # the tables come with the tree: child, depth and roots from
        # cart.links, and each leaf's score row
        t = pmt.make_tree([0, -1, 1, -1, -1], np.zeros(5), np.zeros((3, 1)),
                          np.zeros((3, 1, 2)))
        assert t.child.tolist() == [[2, 1], [1, 1], [4, 3], [3, 3], [4, 4]]
        assert t.depth == 2 and t.roots.tolist() == [0]
        assert t.leaf.tolist() == [-1, 0, -1, 1, 2]


class TestWeightedProbitRisk:
    def test_multiclass_rejected(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(30, 2))
        y = rng.integers(0, 3, size=30)
        model = pmt.fit_pmt(X, y, 3, np.ones(30), 1, 3, 2)
        with pytest.raises(ValueError, match="binary"):
            weighted_probit_risk(model, X, y, np.ones(30))

    def test_zero_model_risk_is_ln2(self):
        model = one_leaf([0.0], [[0.0]])
        X = np.zeros((4, 1))
        y = np.array([0, 1, 0, 1])
        risk = weighted_probit_risk(model, X, y, np.ones(4))
        assert risk == pytest.approx(math.log(2), rel=1e-14)

    def test_risk_uses_renormalized_weights(self):
        X, y = xor_data(100, seed=2)
        model = pmt.fit_pmt(X, y, 2, np.ones(100), 2, 10, 5)
        r1 = weighted_probit_risk(model, X, y, np.ones(100))
        r2 = weighted_probit_risk(model, X, y, 7.0 * np.ones(100))
        assert r1 == pytest.approx(r2, rel=1e-14)
