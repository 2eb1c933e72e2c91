"""Weighted axis-parallel CART partition builder.

Classification splitting with weighted Gini impurity; a node's split
search scores every cut of every feature in one array pass.  Trees only
provide the partition; leaf models are attached one level up.  Routing
convention: x goes left iff x[feature] <= threshold.  Grown trees are
Leaf/Internal nodes; fitted models keep only their preorder split list
(flatten), from which links derives the child arrays that routing
follows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data

_GAIN_TOL = 1e-12


@dataclass
class Leaf:
    rows: np.ndarray  # training row indices landing here


@dataclass
class Internal:
    feature: int
    threshold: float
    left: "Internal | Leaf"
    right: "Internal | Leaf"


TreeNode = Internal | Leaf


def _gini(cw: np.ndarray) -> np.ndarray:
    # W * gini = W - sum_c w_c^2 / W over the class (last) axis, 0 where
    # W = 0; additive over children.
    total = cw.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return total - np.where(total > 0, np.square(cw).sum(axis=-1) / total,
                                0.0)


def _best_split(X, y, w, rows, n_classes, min_leaf_size):
    """Best (gain, feature, threshold) over the midpoint cuts of every
    feature at once, or None when no cut gains more than tolerance.

    A cut lies between consecutive distinct values of a feature and leaves
    min_leaf_size raw rows on both sides.  Ties break to the lowest feature
    index, then the lowest threshold (the first maximum in feature-major
    order).
    """
    n = rows.size
    Xn = X[rows]
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y[rows]] = w[rows]
    order = np.argsort(Xn, axis=0, kind="stable")
    vs = np.take_along_axis(Xn, order, axis=0)
    cw = np.cumsum(onehot[order], axis=0)  # (n, p, J) class mass up to a row
    cut = np.arange(1, n)[:, None]
    ok = ((vs[1:] > vs[:-1]) & (cut >= min_leaf_size)
          & (n - cut >= min_leaf_size))
    gains = (_gini(onehot.sum(axis=0)) - _gini(cw[:-1])
             - _gini(cw[-1] - cw[:-1]))
    gains[~ok] = -np.inf
    j, k = np.unravel_index(np.argmax(gains.T), gains.T.shape)
    if not gains[k, j] > _GAIN_TOL:
        return None
    return float(gains[k, j]), int(j), float(0.5 * (vs[k, j] + vs[k + 1, j]))


def build_tree(X, y, n_classes: int, sample_weights, max_depth: int,
               min_leaf_size: int) -> TreeNode:
    """Greedy recursive partitioning by weighted Gini decrease.

    Stops at max_depth, on pure nodes, when no split leaves min_leaf_size
    raw rows on both sides, or when the best impurity decrease is below
    tolerance.  X, y and the weights go through data.check_inputs and
    data.check_weights.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.size == 0:
        raise ValueError("empty data")
    if max_depth < 0 or min_leaf_size < 1:
        raise ValueError("bad tree configuration")
    X, y = data.check_inputs(X, y, n_classes)
    w = data.check_weights(sample_weights, X.shape[0])

    def grow(rows: np.ndarray, depth: int) -> TreeNode:
        if depth < max_depth and np.unique(y[rows]).size > 1:
            found = _best_split(X, y, w, rows, n_classes, min_leaf_size)
            if found is not None:
                _, j, thr = found
                mask = X[rows, j] <= thr
                left = grow(rows[mask], depth + 1)
                right = grow(rows[~mask], depth + 1)
                return Internal(feature=j, threshold=thr, left=left, right=right)
        return Leaf(rows=rows)

    return grow(np.arange(X.shape[0]), 0)


def flatten(tree: TreeNode):
    """Preorder split list of a grown tree.

    Returns (feature, threshold, leaf_rows): node i splits on
    feature[i] at threshold[i], a leaf has feature -1 and threshold 0.0,
    and leaf_rows holds the training rows of each leaf in preorder.
    """
    nodes, leaf_rows, todo = [], [], [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, Leaf):
            nodes.append((-1, 0.0))
            leaf_rows.append(node.rows)
        else:
            nodes.append((node.feature, node.threshold))
            todo += [node.right, node.left]  # the left subtree comes first
    feature, threshold = map(np.array, zip(*nodes))
    return feature, threshold, leaf_rows


def links(feature):
    """Child arrays and depth of a preorder split list.

    Node i is a leaf iff feature[i] == -1.  Returns (left, right, depth):
    internal node i sends x to left[i] iff x[feature[i]] <= threshold[i],
    a leaf is its own child (left[i] == right[i] == i), and depth is the
    longest root-to-leaf path.  Raises ValueError unless the list is
    exactly one whole tree.
    """
    feature = np.asarray(feature).tolist()
    child = [list(range(len(feature))), list(range(len(feature)))]
    level = [0] * len(feature)
    todo = [(0, 0)]  # (side, parent) of each node still to come, last first
    for i, f in enumerate(feature):
        if not todo:
            raise ValueError(f"split list is not one tree: node {i} follows "
                             "a complete tree")
        side, parent = todo.pop()
        if i:
            child[side][parent] = i
            level[i] = level[parent] + 1
        if f != -1:
            todo += [(1, i), (0, i)]
    if todo:
        raise ValueError("split list is not one tree: it ends inside a tree")
    return np.array(child[0]), np.array(child[1]), max(level)


def route_many(tree, roots, X) -> np.ndarray:
    """Node reached by every row of X in each of several trees.

    tree holds the node arrays (feature, threshold, left, right; see links)
    of one or more trees laid side by side, and depth, a bound on their
    depth; roots[t] is the root node of tree t.  Every row moves one level
    down in every tree per step, and a leaf routes to itself, so depth
    steps reach every leaf.  Returns node ids of shape (n, len(roots)).
    """
    node = np.tile(np.asarray(roots), (X.shape[0], 1))
    for _ in range(tree.depth):
        x = np.take_along_axis(X, tree.feature[node], axis=1)
        node = np.where(x <= tree.threshold[node], tree.left[node],
                        tree.right[node])
    return node
