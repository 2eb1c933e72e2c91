import re

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


def reference_build_tree(X, y, n_classes, w, max_depth, min_leaf_size):
    """Recursive reference for cart.build_tree: every node argsorts its
    own rows again and is scored by reference_best_split."""

    def grow(rows, depth):
        if depth < max_depth and np.unique(y[rows]).size > 1:
            found = reference_best_split(X, y, w, rows, n_classes,
                                         min_leaf_size)
            if found is not None:
                _, j, thr = found
                mask = X[rows, j] <= thr
                return Internal(feature=j, threshold=thr,
                                left=grow(rows[mask], depth + 1),
                                right=grow(rows[~mask], depth + 1))
        return Leaf(rows=rows)

    return grow(np.arange(X.shape[0]), 0)


def node_order(X, rows):
    """A node's presorted order as build_tree makes it: the stable argsort
    of all of X, each feature's row filtered down to the node's rows."""
    full = np.argsort(X.T, axis=1, kind="stable")
    return full[np.isin(full, rows)].reshape(X.shape[1], -1)


def class_mass(y, w, n_classes):
    return np.where(y == np.arange(n_classes)[:, None], w, 0.0)


def flat(tree):
    """The PmtModel of a grown tree with an all-zero score block, routable
    by cart.route_many, and the training rows of its leaves."""
    feature, threshold, rows = cart.flatten(tree)
    zeros = np.zeros((len(rows), 1))
    return pmt.make_tree(feature, threshold, zeros, zeros[:, :, None]), rows


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


def max_depth(node):
    if isinstance(node, Leaf):
        return 0
    return 1 + max(max_depth(node.left), max_depth(node.right))


def route_leaves(tree, X):
    t, _ = flat(tree)
    return t.leaf[cart.route_many(t, np.asarray(X, dtype=float))[:, 0]]


def reference_links(feature):
    """Stack-loop reference for cart.links: one node at a time, a node
    fills the last pending child slot or, when none is pending, starts a
    new tree."""
    feature = np.asarray(feature).tolist()
    child = [list(range(len(feature))), list(range(len(feature)))]
    level = [0] * len(feature)
    roots = []
    todo = []  # (side, parent) of each node still to come, last first
    for i, f in enumerate(feature):
        if todo:
            side, parent = todo.pop()
            child[side][parent] = i
            level[i] = level[parent] + 1
        else:
            roots.append(i)
        if f != -1:
            todo += [(0, i), (1, i)]  # the left subtree comes first
    if todo or not feature:
        raise ValueError("split list is not one tree: it ends inside a tree")
    return np.array(child).T.copy(), max(level), np.array(roots)


# A preorder split list of one whole tree: -1 at a leaf, a feature index
# at a split, whose left subtree comes first.
preorder_trees = st.recursive(
    st.just([-1]),
    lambda sub: st.tuples(st.integers(0, 4), sub, sub).map(
        lambda t: [t[0]] + t[1] + t[2]),
    max_leaves=40)


@st.composite
def split_lists(draw):
    """1-5 whole trees laid end to end, as they are, cut short by some
    nodes, or followed by some more (which may or may not close)."""
    feature = sum(draw(st.lists(preorder_trees, min_size=1, max_size=5)), [])
    how = draw(st.sampled_from(["whole", "truncated", "over-long"]))
    if how == "truncated":
        return feature[:draw(st.integers(0, len(feature) - 1))]
    if how == "over-long":
        return feature + draw(st.lists(st.integers(-1, 4), min_size=1,
                                       max_size=6))
    return feature


class TestBuildTree:
    def test_depth_zero_is_single_leaf(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        tree = cart.build_tree(X, y, 2, np.ones(2), 0, 1)
        assert isinstance(tree, Leaf)
        assert flat(tree)[0].leaf.tolist() == [0]
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
        t, rows = flat(tree)
        is_leaf = t.child[:, 1] == np.arange(t.feature.size)
        np.testing.assert_array_equal(is_leaf, t.feature == -1)
        np.testing.assert_array_equal(t.child[is_leaf, 0],
                                      np.flatnonzero(is_leaf))
        np.testing.assert_array_equal(t.leaf[is_leaf], np.arange(len(rows)))
        assert np.all(t.leaf[~is_leaf] == -1)
        assert np.all(t.threshold[is_leaf] == 0.0)
        all_rows = np.concatenate(rows)
        np.testing.assert_array_equal(np.sort(all_rows), np.arange(100))
        leaves = preorder_leaves(tree)
        assert len(leaves) == len(rows)
        assert all(r is lf.rows for r, lf in zip(rows, leaves))

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            cart.build_tree(np.zeros((0, 2)), np.zeros(0, dtype=int), 2,
                            np.zeros(0), 2, 1)
        with pytest.raises(ValueError, match="X has no feature columns"):
            cart.build_tree(np.zeros((3, 0)), np.array([0, 1, 0]), 2,
                            np.ones(3), 2, 1)

    def test_shape_checked_by_check_inputs(self):
        with pytest.raises(ValueError, match="X must be 2-D, got 1-D"):
            cart.build_tree(np.zeros(3), np.array([0, 1, 0]), 2,
                            np.ones(3), 2, 1)

    def test_bad_configuration_rejected(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        with pytest.raises(ValueError,
                           match="^max_depth must be >= 0, got -1$"):
            cart.build_tree(X, y, 2, np.ones(2), -1, 1)
        with pytest.raises(ValueError,
                           match="^min_leaf_size must be >= 1, got 0$"):
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
        with pytest.raises(ValueError, match="n_classes must be >= 2, got 1"):
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
        order = node_order(X, rows)
        # the filtered presort is the stable argsort of the node's own rows
        np.testing.assert_array_equal(
            order, rows[np.argsort(X[rows].T, axis=1, kind="stable")])
        got = cart._best_split(X, class_mass(y, w, n_classes), rows, order,
                               min_leaf_size)
        assert got == reference_best_split(X, y, w, rows, n_classes,
                                           min_leaf_size)

    def test_no_valid_cut(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        y = np.array([0, 1, 2])
        rows = np.arange(3)
        mass = class_mass(y, np.ones(3), 3)
        assert cart._best_split(X, mass, rows, node_order(X, rows), 1) is None
        assert reference_best_split(X, y, np.ones(3), rows, 3, 1) is None


class TestPresortedBuilder:
    """build_tree, which sorts once per tree, grows the partition that the
    per-node-argsort reference grows: same features, thresholds and leaf
    rows, bit for bit."""

    @staticmethod
    def assert_same_partition(X, y, n_classes, w, depth, min_leaf_size):
        got = cart.flatten(cart.build_tree(X, y, n_classes, w, depth,
                                           min_leaf_size))
        want = cart.flatten(reference_build_tree(X, y, n_classes, w, depth,
                                                 min_leaf_size))
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tolist() == want[1].tolist()
        assert [r.tolist() for r in got[2]] == [r.tolist() for r in want[2]]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("decimals", [0, 1, None])
    def test_sim_fit_shape(self, seed, decimals):
        # two classes, ten continuous features, depth 6; rounding to 0 or 1
        # decimals makes many ties, and some weights are zero
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(700, 10)) * 4
        if decimals is not None:
            X = np.round(X, decimals)
        y = (X[:, 0] + X[:, 1] * X[:, 2] + rng.normal(size=700) > 4
             ).astype(int)
        w = rng.uniform(size=700) * (rng.uniform(size=700) > 0.1)
        self.assert_same_partition(X, y, 2, w, 6, 20)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("decimals", [0, 1, None])
    def test_csv_multiclass_shape(self, seed, decimals):
        # four classes; five numeric columns and two one-hot blocks of 8
        # levels, 21 features in all, depth 5
        rng = np.random.default_rng(seed)
        n = 900
        numeric = rng.uniform(size=(n, 5))
        if decimals is not None:
            numeric = np.round(numeric, decimals)
        a, b = rng.integers(8, size=n), rng.integers(8, size=n)
        X = np.hstack([numeric[:, :4], np.eye(8)[a], numeric[:, 4:],
                       np.eye(8)[b]])
        y = (2 * (numeric[:, 0] + numeric[:, 1] > 1)
             + (numeric[:, 2] + (a % 3) / 4 > 0.5)).astype(int)
        noisy = rng.uniform(size=n) < 0.15
        y[noisy] = rng.integers(4, size=noisy.sum())
        w = rng.uniform(size=n) * (rng.uniform(size=n) > 0.1)
        self.assert_same_partition(X, y, 4, w, 5, 20)

    def test_every_node_order_is_a_stable_argsort(self, monkeypatch):
        # the order each node is scored on equals a stable argsort of that
        # node's own rows, ties (values rounded to 0 decimals) included
        rng = np.random.default_rng(3)
        X = np.round(rng.normal(size=(600, 4)), 0)
        y = (X[:, 0] + rng.normal(size=600) > 0).astype(int)
        seen = []

        def spy(X, mass, rows, order, min_leaf_size):
            seen.append((rows, order))
            return best_split(X, mass, rows, order, min_leaf_size)

        best_split = cart._best_split
        monkeypatch.setattr(cart, "_best_split", spy)
        cart.build_tree(X, y, 2, np.ones(600), 4, 5)
        assert len(seen) > 3
        for rows, order in seen:
            np.testing.assert_array_equal(
                order, rows[np.argsort(X[rows].T, axis=1, kind="stable")])

    @given(seed=st.integers(0, 2**32 - 1), n_classes=st.integers(2, 7),
           min_leaf_size=st.integers(1, 8), decimals=st.sampled_from([0, 1]),
           n=st.integers(2, 120), p=st.integers(1, 6),
           depth=st.integers(0, 6))
    @settings(max_examples=100, deadline=None)
    # up to 7 classes: a NumPy last-axis sum of 8 or more terms, as in the
    # reference, adds them pairwise, not in class order as cart._gini does
    def test_matches_reference_on_random_data(self, seed, n_classes,
                                               min_leaf_size, decimals, n, p,
                                               depth):
        rng = np.random.default_rng(seed)
        X = np.round(rng.normal(size=(n, p)), decimals)
        y = rng.integers(0, n_classes, size=n)
        w = rng.uniform(size=n) * (rng.uniform(size=n) > 0.2)
        w[0] = 1.0  # the weights need a positive sum
        self.assert_same_partition(X, y, n_classes, w, depth, min_leaf_size)


class TestRouting:
    def tree(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 2, 3])
        return cart.build_tree(X, y, 4, np.ones(4), 2, 1), X

    def test_training_rows_route_to_their_leaf(self):
        tree, X = self.tree()
        leaves = route_leaves(tree, X)
        for leaf_id, rows in enumerate(flat(tree)[1]):
            assert np.all(leaves[rows] == leaf_id)

    def test_boundary_goes_left(self):
        X = np.array([[0.0], [2.0]])
        y = np.array([0, 1])
        tree = cart.build_tree(X, y, 2, np.ones(2), 1, 1)
        assert tree.threshold == pytest.approx(1.0)
        left_id = leaf_number(tree, tree.left)
        assert route_leaves(tree, [[1.0]])[0] == left_id  # x == threshold
        assert route_leaves(tree, [[np.nextafter(1.0, 2.0)]])[0] != left_id

    def test_route_many_matches_scalar(self):
        # batch routing equals the reference walk over the grown nodes,
        # and each row routed as a batch of one
        rng = np.random.default_rng(17)
        X = rng.normal(size=(300, 3))
        y = (X[:, 1] > 0).astype(int)
        tree = cart.build_tree(X, y, 2, np.ones(300), 5, 2)
        Xq = rng.normal(size=(500, 3))
        many = route_leaves(tree, Xq)
        assert many.tolist() == [walk(tree, x) for x in Xq]
        assert many.tolist() == [route_leaves(tree, x[None, :])[0]
                                 for x in Xq]

    def test_trees_side_by_side_route_independently(self):
        # trees of depths 1, 4, 0 (one leaf) and 2, their split lists laid
        # end to end in one make_tree, route a block, and each of its rows
        # alone, as the per-tree walk does
        rng = np.random.default_rng(5)
        X = rng.normal(size=(200, 3))
        y = (X[:, 0] + X[:, 1] * X[:, 2] > 0).astype(int)
        trees = [cart.build_tree(X, y, 2, np.ones(200), d, 5)
                 for d in (1, 4, 0, 2)]
        assert [max_depth(t) for t in trees] == [1, 4, 0, 2]
        flats = [flat(t)[0] for t in trees]
        both = pmt.make_tree(*(
            np.concatenate([getattr(f, name) for f in flats])
            for name in ("feature", "threshold", "intercept", "coef")))
        assert both.depth == 4
        assert both.roots.tolist() == np.cumsum(
            [0] + [f.feature.size for f in flats[:-1]]).tolist()
        Xq = rng.normal(size=(100, 3))
        nodes = cart.route_many(both, Xq)
        for t, (tree, f, r) in enumerate(zip(trees, flats, both.roots)):
            assert f.leaf[nodes[:, t] - r].tolist() == [walk(tree, x)
                                                        for x in Xq]
        for i, x in enumerate(Xq):
            np.testing.assert_array_equal(
                cart.route_many(both, x[None, :])[0], nodes[i])

    def test_threshold_goes_left_and_nan_goes_right(self):
        # x <= threshold picks the left child; a NaN compares false, so
        # route_many sends it right
        feature, threshold = [1, -1, 0, -1, -1], [0.5, 0.0, -2.0, 0.0, 0.0]
        zeros = np.zeros((3, 1))
        t = pmt.make_tree(feature, threshold, zeros, zeros[:, :, None])
        X = np.array([[9.0, 0.5], [9.0, np.nextafter(0.5, 1.0)],
                      [-2.0, 0.6], [np.nan, 0.7], [0.0, np.nan]])
        assert cart.route_many(t, X)[:, 0].tolist() == [1, 4, 3, 4, 4]

    @pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
    def test_links_route_like_walk(self, depth):
        # make_tree's child table, through route_many, reaches the leaf
        # that the reference walk over the grown nodes reaches, within
        # the tree's own depth
        rng = np.random.default_rng(depth)
        X = rng.normal(size=(300, 3))
        y = (X[:, 0] + X[:, 1] * X[:, 2] > 0).astype(int)
        tree = cart.build_tree(X, y, 2, np.ones(300), depth, 5)
        t, _ = flat(tree)
        assert t.depth == max_depth(tree) <= depth
        Xq = rng.normal(size=(200, 3))
        assert route_leaves(tree, Xq).tolist() == [walk(tree, x) for x in Xq]

    def test_links_of_a_small_list(self):
        # 0 splits into leaf 1 and split 2, which splits into leaves 3, 4;
        # a row is [right, left], indexed by x <= threshold
        child, depth, roots = cart.links([0, -1, 1, -1, -1])
        assert child.tolist() == [[2, 1], [1, 1], [4, 3], [3, 3], [4, 4]]
        assert depth == 2 and roots.tolist() == [0]
        child, depth, roots = cart.links([-1])
        assert child.tolist() == [[0, 0]] and depth == 0
        assert roots.tolist() == [0]

    def test_links_of_lists_laid_end_to_end(self):
        # a stump, a one-leaf tree and the depth-2 tree above: each tree
        # starts where the one before it is complete, its child table is
        # the tree's own shifted by its root, and depth is the deepest
        stump, deep = [0, -1, -1], [0, -1, 1, -1, -1]
        child, depth, roots = cart.links(stump + [-1] + deep)
        assert roots.tolist() == [0, 3, 4]
        assert child.tolist() == [[2, 1], [1, 1], [2, 2], [3, 3],
                                  [6, 5], [5, 5], [8, 7], [7, 7], [8, 8]]
        assert depth == 2
        _, depth, roots = cart.links(deep + stump)
        assert depth == 2 and roots.tolist() == [0, 5]
        _, depth, roots = cart.links([-1, -1, -1])
        assert depth == 0 and roots.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("feature", [[], [0], [0, -1], [-1, 0, -1],
                                         [0, -1, -1, 1, -1]])
    def test_links_rejects_what_is_not_one_tree(self, feature):
        with pytest.raises(ValueError, match="^split list is not one tree: "
                                             "it ends inside a tree$"):
            cart.links(feature)
        with pytest.raises(ValueError, match="ends inside a tree"):
            pmt.make_tree(feature, np.zeros(len(feature)), np.zeros((1, 1)),
                          np.zeros((1, 1, 1)))

    @settings(max_examples=300, deadline=None)
    @given(split_lists())
    def test_links_matches_the_stack_loop(self, feature):
        # the array pass and the loop agree bit for bit on whole trees,
        # and raise the same error on lists that are not
        try:
            expected = reference_links(feature)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                cart.links(feature)
            return
        got = cart.links(feature)
        for a, b in zip(got, expected):
            assert type(a) is type(b)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and a.flags.c_contiguous
            np.testing.assert_array_equal(a, b, strict=True)

    def test_route_many_empty(self):
        tree, _ = self.tree()
        assert cart.route_many(flat(tree)[0],
                               np.zeros((0, 2))).shape == (0, 1)

    def test_dimension_mismatch(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        model = pmt.fit_pmt(X, np.array([0, 1, 0, 1]), 2, np.ones(4), 2, 1, 1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            pmt.predict_pmt_many(model, [[0.0]])
        with pytest.raises(ValueError, match="dimension mismatch"):
            pmt.predict_pmt_many(model, np.zeros((3, 1)))
