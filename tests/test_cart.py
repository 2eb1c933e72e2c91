from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbpmt import cart, pmt
from sbpmt.cart import Internal, Leaf


def reference_best_split(X, y, w, rows, n_classes, min_leaf_size):
    """Per-feature reference for cart._best_split: each feature's cuts are
    scored on their own, and a running best keeps the first feature whose
    best gain is strictly greater than every earlier feature's."""

    def weighted_gini_sum(class_weights):
        total = float(np.sum(class_weights))
        if total <= 0.0:
            return 0.0
        return total - float(np.sum(np.square(class_weights))) / total

    n = rows.size
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y[rows]] = 1.0
    onehot *= w[rows][:, None]
    parent_impurity = weighted_gini_sum(onehot.sum(axis=0))
    best = None
    for j in range(X.shape[1]):
        v = X[rows, j]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        cut = np.arange(1, n)
        ok = vs[1:] > vs[:-1]
        ok &= (cut >= min_leaf_size) & (n - cut >= min_leaf_size)
        if not np.any(ok):
            continue
        cw = np.cumsum(onehot[order], axis=0)
        left = cw[:-1][ok]
        right = cw[-1] - left
        lt = left.sum(axis=1)
        rt = right.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            gl = lt - np.where(lt > 0, np.square(left).sum(axis=1) / lt, 0.0)
            gr = rt - np.where(rt > 0, np.square(right).sum(axis=1) / rt, 0.0)
        gains = parent_impurity - gl - gr
        k = int(np.argmax(gains))
        if gains[k] > cart._GAIN_TOL and (best is None or gains[k] > best[0]):
            idx = cut[ok][k]
            best = (float(gains[k]), j, float(0.5 * (vs[idx - 1] + vs[idx])))
    return best


def flat(tree, depth):
    """The node arrays of a grown tree, routable by cart.route_many."""
    feature, threshold, left, right, leaf, rows = cart.flatten(tree)
    return SimpleNamespace(feature=feature, threshold=threshold, left=left,
                           right=right, leaf=leaf, rows=rows, depth=depth)


def leaf_labels(tree, y):
    return {i: set(y[rows].tolist())
            for i, rows in enumerate(cart.flatten(tree)[-1])}


def preorder_leaves(node):
    """The leaves of a grown tree, in the preorder that numbers them."""
    if isinstance(node, Leaf):
        return [node]
    return preorder_leaves(node.left) + preorder_leaves(node.right)


def leaf_number(tree, node):
    return next(i for i, leaf in enumerate(preorder_leaves(tree))
                if leaf is node)


def walk(tree, x):
    """Reference router: follow the grown nodes to x's leaf and return its
    preorder number."""
    node = tree
    while isinstance(node, Internal):
        node = node.left if x[node.feature] <= node.threshold else node.right
    return leaf_number(tree, node)


def route_leaves(tree, depth, X):
    t = flat(tree, depth)
    return t.leaf[cart.route_many(t, [0], np.asarray(X, dtype=float))[:, 0]]


class TestBuildTree:
    def test_depth_zero_is_single_leaf(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        tree = cart.build_tree(X, y, 2, np.ones(2), 0, 1)
        assert isinstance(tree, Leaf)
        assert flat(tree, 0).leaf.tolist() == [0]
        np.testing.assert_array_equal(np.sort(tree.rows), [0, 1])

    def test_pure_node_not_split(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1, 1, 1])
        tree = cart.build_tree(X, y, 2, np.ones(3), 5, 1)
        assert isinstance(tree, Leaf)

    def test_perfect_axis_split(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        tree = cart.build_tree(X, y, 2, np.ones(4), 3, 1)
        assert isinstance(tree, Internal)
        assert tree.feature == 0
        assert tree.threshold == pytest.approx(1.5)
        assert isinstance(tree.left, Leaf) and isinstance(tree.right, Leaf)
        np.testing.assert_array_equal(np.sort(tree.left.rows), [0, 1])
        np.testing.assert_array_equal(np.sort(tree.right.rows), [2, 3])

    def test_midpoint_threshold_between_distinct_values(self):
        X = np.array([[1.0], [1.0], [5.0]])
        y = np.array([0, 0, 1])
        tree = cart.build_tree(X, y, 2, np.ones(3), 2, 1)
        assert tree.threshold == pytest.approx(3.0)

    def test_min_leaf_size_blocks_split(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        tree = cart.build_tree(X, y, 2, np.ones(4), 3, 3)
        assert isinstance(tree, Leaf)  # no cut leaves 3 rows on both sides

    def test_min_leaf_counts_raw_rows_not_weight(self):
        # heavy row cannot compensate for row count
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        w = np.array([100.0, 1.0, 1.0, 1.0])
        assert isinstance(cart.build_tree(X, y, 2, w, 3, 3), Leaf)
        assert isinstance(cart.build_tree(X, y, 2, w, 3, 2), Internal)

    def test_feature_tie_breaks_low_index(self):
        # features 1 and 2 both split perfectly; feature 0 is noise
        X = np.array([[9.0, 0.0, 0.0],
                      [9.0, 0.0, 0.0],
                      [9.0, 1.0, 1.0],
                      [9.0, 1.0, 1.0]])
        y = np.array([0, 0, 1, 1])
        tree = cart.build_tree(X, y, 2, np.ones(4), 1, 1)
        assert tree.feature == 1

    def test_threshold_tie_breaks_low_value(self):
        # the symmetric pattern 0,1,1,0 offers equal gain at cuts 1 and 3;
        # the first (lowest threshold) must win
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 1, 1, 0])
        tree = cart.build_tree(X, y, 2, np.ones(4), 1, 1)
        assert tree.threshold == pytest.approx(0.5)

    def test_weights_steer_the_split(self):
        # unweighted best split isolates the two 1s at the right end, but
        # putting huge weight on the left 1 moves the best cut
        X = np.arange(6.0).reshape(-1, 1)
        y = np.array([1, 0, 0, 0, 1, 1])
        tree_u = cart.build_tree(X, y, 2, np.ones(6), 1, 1)
        assert tree_u.threshold == pytest.approx(3.5)
        w = np.array([50.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        tree_w = cart.build_tree(X, y, 2, w, 1, 1)
        assert tree_w.threshold == pytest.approx(0.5)
        assert tree_u.threshold != tree_w.threshold

    def test_depth_limit_respected(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(200, 3))
        y = (rng.uniform(size=200) > 0.5).astype(int)
        for d in (0, 1, 2, 4):
            tree = cart.build_tree(X, y, 2, np.ones(200), d, 1)

            def max_depth(node):
                if isinstance(node, Leaf):
                    return 0
                return 1 + max(max_depth(node.left), max_depth(node.right))

            assert max_depth(tree) <= d

    def test_multiclass_three_bands(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
        y = np.array([0, 0, 1, 1, 2, 2])
        tree = cart.build_tree(X, y, 3, np.ones(6), 3, 1)
        labels = leaf_labels(tree, y)
        assert len(labels) == 3
        assert all(len(s) == 1 for s in labels.values())

    def test_leaf_ids_contiguous_and_rows_partition(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(100, 4))
        y = (X[:, 0] + 0.3 * rng.normal(size=100) > 0).astype(int)
        tree = cart.build_tree(X, y, 2, np.ones(100), 4, 5)
        t = flat(tree, 4)
        is_leaf = t.left == np.arange(t.left.size)
        np.testing.assert_array_equal(t.right[is_leaf],
                                      np.flatnonzero(is_leaf))
        np.testing.assert_array_equal(t.leaf[is_leaf],
                                      np.arange(len(t.rows)))
        assert np.all(t.leaf[~is_leaf] == -1)
        all_rows = np.concatenate(t.rows)
        np.testing.assert_array_equal(np.sort(all_rows), np.arange(100))
        leaves = preorder_leaves(tree)
        assert len(leaves) == len(t.rows)
        assert all(r is lf.rows for r, lf in zip(t.rows, leaves))

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            cart.build_tree(np.zeros((0, 2)), np.zeros(0, dtype=int), 2,
                            np.zeros(0), 2, 1)
        with pytest.raises(ValueError, match="empty"):
            cart.build_tree(np.zeros((3, 0)), np.array([0, 1, 0]), 2,
                            np.ones(3), 2, 1)

    def test_bad_configuration_rejected(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        with pytest.raises(ValueError, match="configuration"):
            cart.build_tree(X, y, 2, np.ones(2), -1, 1)
        with pytest.raises(ValueError, match="configuration"):
            cart.build_tree(X, y, 2, np.ones(2), 2, 0)

    @pytest.mark.parametrize("X, y, w, message", [
        ([[0.0], [1.0]], [0, 2], [1.0, 1.0], "label 2 outside 0..1"),
        ([[0.0], [1.0]], [0, 1, 1], [1.0, 1.0], "one integer class index"),
        ([[0.0], [1.0]], [0, 1], [1.0], "one sample weight per row"),
        ([[0.0], [np.nan]], [0, 1], [1.0, 1.0], "non-finite value nan"),
        ([[0.0], [1.0]], [0, 1], [1.0, -1.0], "nonnegative"),
    ])
    def test_bad_input_rejected(self, X, y, w, message):
        with pytest.raises(ValueError, match=message):
            cart.build_tree(np.array(X), np.array(y), 2, np.array(w), 2, 1)

    def test_one_class_rejected(self):
        # beside the table above, whose rows all pass n_classes = 2
        with pytest.raises(ValueError, match="need at least 2 classes"):
            cart.build_tree(np.array([[0.0], [1.0]]), np.array([0, 0]), 1,
                            np.ones(2), 2, 1)


class TestBestSplit:
    @given(seed=st.integers(0, 2**32 - 1), n_classes=st.integers(2, 4),
           min_leaf_size=st.integers(1, 5),
           decimals=st.sampled_from([0, 1, 6]), n=st.integers(2, 40),
           p=st.integers(1, 5), equal_weights=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_exactly(self, seed, n_classes, min_leaf_size,
                                       decimals, n, p, equal_weights):
        # rounding to few decimals ties feature values, equal weights tie
        # gains across features and cuts, and a large min_leaf_size on few
        # rows leaves nodes with no valid cut
        rng = np.random.default_rng(seed)
        X = np.round(rng.normal(size=(n + 5, p)), decimals)
        y = rng.integers(0, n_classes, size=n + 5)
        w = (np.ones(n + 5) if equal_weights else
             rng.uniform(size=n + 5) * (rng.uniform(size=n + 5) > 0.1))
        rows = np.sort(rng.choice(n + 5, size=n, replace=False))
        got = cart._best_split(X, y, w, rows, n_classes, min_leaf_size)
        assert got == reference_best_split(X, y, w, rows, n_classes,
                                           min_leaf_size)

    def test_no_valid_cut(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        y = np.array([0, 1, 2])
        rows = np.arange(3)
        assert cart._best_split(X, y, np.ones(3), rows, 3, 1) is None
        assert reference_best_split(X, y, np.ones(3), rows, 3, 1) is None


class TestRouting:
    def tree(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 2, 3])
        return cart.build_tree(X, y, 4, np.ones(4), 2, 1), X

    def test_training_rows_route_to_their_leaf(self):
        tree, X = self.tree()
        leaves = route_leaves(tree, 2, X)
        for leaf_id, rows in enumerate(flat(tree, 2).rows):
            assert np.all(leaves[rows] == leaf_id)

    def test_boundary_goes_left(self):
        X = np.array([[0.0], [2.0]])
        y = np.array([0, 1])
        tree = cart.build_tree(X, y, 2, np.ones(2), 1, 1)
        assert tree.threshold == pytest.approx(1.0)
        left_id = leaf_number(tree, tree.left)
        assert route_leaves(tree, 1, [[1.0]])[0] == left_id  # x == threshold
        assert route_leaves(tree, 1, [[np.nextafter(1.0, 2.0)]])[0] != left_id

    def test_route_many_matches_scalar(self):
        # batch routing equals the reference walk over the grown nodes,
        # and each row routed as a batch of one
        rng = np.random.default_rng(17)
        X = rng.normal(size=(300, 3))
        y = (X[:, 1] > 0).astype(int)
        tree = cart.build_tree(X, y, 2, np.ones(300), 5, 2)
        Xq = rng.normal(size=(500, 3))
        many = route_leaves(tree, 5, Xq)
        assert many.tolist() == [walk(tree, x) for x in Xq]
        assert many.tolist() == [route_leaves(tree, 5, x[None, :])[0]
                                 for x in Xq]

    def test_trees_side_by_side_route_independently(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(200, 3))
        trees = [cart.build_tree(X, (X[:, j] > 0).astype(int), 2,
                                 np.ones(200), d, 5)
                 for j, d in ((0, 1), (1, 4), (2, 0))]
        flats = [flat(t, d) for t, d in zip(trees, (1, 4, 0))]
        roots = np.cumsum([0] + [f.feature.size for f in flats[:-1]])
        both = SimpleNamespace(
            feature=np.concatenate([f.feature for f in flats]),
            threshold=np.concatenate([f.threshold for f in flats]),
            left=np.concatenate([f.left + r for f, r in zip(flats, roots)]),
            right=np.concatenate([f.right + r for f, r in zip(flats, roots)]),
            depth=4)
        Xq = rng.normal(size=(100, 3))
        nodes = cart.route_many(both, roots, Xq)
        for t, (tree, f, r) in enumerate(zip(trees, flats, roots)):
            assert f.leaf[nodes[:, t] - r].tolist() == [walk(tree, x)
                                                        for x in Xq]

    def test_route_many_empty(self):
        tree, _ = self.tree()
        assert cart.route_many(flat(tree, 2), [0],
                               np.zeros((0, 2))).shape == (0, 1)

    def test_dimension_mismatch(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        model = pmt.fit_pmt(X, np.array([0, 1, 0, 1]), 2, np.ones(4), 2, 1, 1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            pmt.predict_pmt_many(model, [[0.0]])
        with pytest.raises(ValueError, match="dimension mismatch"):
            pmt.predict_pmt_many(model, np.zeros((3, 1)))
