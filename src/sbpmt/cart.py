"""Weighted axis-parallel CART partition builder.

Classification splitting with weighted Gini impurity.  Each feature is
sorted once per tree (as in SLIQ, Mehta, Agrawal & Rissanen, 1996): a
node holds its rows' sorted order per feature, and a split hands each
child the parent's order filtered through the split, which keeps every
row's relative order and so equals a stable sort of the child's own rows.
A node's split search scores every cut of every feature in one array pass
over class-major cumulative class masses.  Trees only provide the
partition; leaf models are attached one level up.  Routing convention: x
goes left iff x[feature] <= threshold.  Grown trees are Leaf/Internal
nodes; fitted models keep only their preorder split list (flatten).
balance checks that such a list holds whole trees, and links derives
from it, with array operations over that running balance and no loop
over the nodes, the child table that routing follows (of one tree, or of
a committee's trees laid end to end): row i of it is indexed by the
comparison x[feature[i]] <= threshold[i] itself, so route_many moves
every row down one level with one gather from X and one from the table.
"""

from __future__ import annotations

import functools
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
    # W * gini = W - sum_c w_c^2 / W over the class (first) axis, 0 where
    # W = 0; additive over children.  The classes are added in order
    # 0..J-1, one whole array at a time.
    total = functools.reduce(np.add, cw)
    with np.errstate(divide="ignore", invalid="ignore"):
        return total - np.where(
            total > 0, functools.reduce(np.add, np.square(cw)) / total, 0.0)


def _best_split(X, mass, rows, order, min_leaf_size):
    """Best (gain, feature, threshold) over the midpoint cuts of every
    feature at once, or None when no cut gains more than tolerance.

    mass (J, N) holds each row's weight in its class's row and 0 in the
    others.  rows lists the node's rows in ascending order, and order
    (p, n) holds them sorted stably by each feature (ties by row index);
    nothing here sorts.  A cut lies between consecutive distinct values
    of a feature and leaves min_leaf_size raw rows on both sides.  Ties
    break to the lowest feature index, then the lowest threshold (the
    first maximum in feature-major order).
    """
    vs = np.take_along_axis(X.T, order, axis=1)
    # (J, p, n): class mass up to each position of each feature's order
    cw = np.cumsum(np.take(mass, order, axis=1), axis=2)
    n_classes, n = mass.shape[0], rows.size
    lo, hi = min_leaf_size - 1, max(n - min_leaf_size, 0)
    ok = np.zeros(vs.shape, dtype=bool)  # ok[j, k]: cut after position k
    ok[:, lo:hi] = vs[:, lo + 1:hi + 1] > vs[:, lo:hi]
    at = np.flatnonzero(ok)  # the valid cuts, in feature-major order
    left = np.take(cw.reshape(n_classes, -1), at, axis=1)
    totals = np.repeat(cw[:, :, -1], np.count_nonzero(ok, axis=1), axis=1)
    right = totals - left
    parent = np.cumsum(mass[:, rows], axis=1)[:, -1]  # summed in row order
    gains = _gini(parent) - _gini(left) - _gini(right)
    if not gains.size or not gains.max() > _GAIN_TOL:
        return None
    best = np.argmax(gains)
    j, k = divmod(int(at[best]), n)
    return float(gains[best]), j, float(0.5 * (vs[j, k] + vs[j, k + 1]))


def build_tree(X, y, n_classes: int, sample_weights, max_depth: int,
               min_leaf_size: int) -> TreeNode:
    """Greedy recursive partitioning by weighted Gini decrease.

    Stops at max_depth, on pure nodes, when no split leaves min_leaf_size
    raw rows on both sides, or when the best impurity decrease is below
    tolerance.  X, y and the weights go through data.check_inputs and
    data.check_weights.

    X is argsorted once, stably, per feature.  A split sends each child
    its parent's sorted order filtered through the split mask, which is a
    stable partition: the child's order equals a stable argsort of its own
    rows, ties included.  Only the orders of the nodes on the current
    recursion path and of their waiting right siblings are alive,
    O(depth * n * p) in all.  _best_split scores each node from its order
    with class-major (J, p, n) cumulative class masses.
    """
    max_depth = data.check_count("max_depth", max_depth, 0)
    min_leaf_size = data.check_count("min_leaf_size", min_leaf_size, 1)
    X, y = data.check_inputs(X, y, n_classes)
    w = data.check_weights(sample_weights, X.shape[0])
    mass = np.where(y == np.arange(n_classes)[:, None], w, 0.0)
    goes_left = np.zeros(X.shape[0], dtype=bool)  # read only at node rows

    def grow(rows: np.ndarray, order: np.ndarray, depth: int) -> TreeNode:
        if depth < max_depth and np.any(y[rows] != y[rows[0]]):
            found = _best_split(X, mass, rows, order, min_leaf_size)
            if found is not None:
                _, j, thr = found
                side = X[rows, j] <= thr
                goes_left[rows] = side
                # each feature's order keeps the same number of rows
                mask, p = goes_left[order].ravel(), order.shape[0]
                left = grow(rows[side],
                            np.compress(mask, order).reshape(p, -1), depth + 1)
                right = grow(rows[~side],
                             np.compress(~mask, order).reshape(p, -1),
                             depth + 1)
                return Internal(feature=j, threshold=thr, left=left, right=right)
        return Leaf(rows=rows)

    return grow(np.arange(X.shape[0]),
                np.argsort(X.T, axis=1, kind="stable"), 0)


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


def balance(feature) -> np.ndarray:
    """Running balance of whole preorder trees laid end to end.

    Node i counts +1 if it splits (feature[i] != -1) and -1 if it is a
    leaf; entry i of the result is the sum over nodes 0..i.  A tree's
    nodes sum to -1 and each of its proper prefixes to 0 or more, so tree
    k ends where the balance first reaches -k - 1, and the list holds
    whole trees iff its last entry is below 0 and below every earlier
    one (the first minimum is the last entry).  Raises ValueError when
    the list is empty or ends inside a tree.
    """
    b = np.where(np.asarray(feature) == -1, -1, 1).cumsum()
    if not b.size or b[-1] >= 0 or b.argmin() != b.size - 1:
        raise ValueError("split list is not one tree: it ends inside a tree")
    return b


def links(feature):
    """Child table, depth and roots of whole preorder trees laid end to end.

    Node i is a leaf iff feature[i] == -1, and a node that comes when no
    child slot is pending starts a new tree.  Returns (child, depth,
    roots): child is (N, 2), and internal node i sends x to child[i, s]
    with s = 1 iff x[feature[i]] <= threshold[i] (left) and s = 0
    otherwise (right); a leaf is its own child (child[i] == [i, i]);
    depth is the longest root-to-leaf path of any tree, and roots the
    first node of each tree.  Raises ValueError when the list is empty or
    ends inside a tree.

    Array operations over the balance b before each node (0, then see
    balance), as in Blelloch's "Prefix sums and their applications"
    (1990): a node's subtree is the run of positions from it until b
    drops below the node's own b.  So split i has its left child at
    i + 1 and its right child at the next position whose b equals b[i],
    and every node's subtree ends at the next position whose b is
    b[i] - 1 (position N, after the list, included).  One sort of the
    positions by (b, position) finds both.  A node's level is the number
    of nodes before it whose subtree has not ended, and the roots are
    the nodes at level 0.
    """
    feature = np.asarray(feature)
    n = feature.size
    b = np.concatenate(([0], balance(feature)))
    key = b * (n + 1) + np.arange(n + 1)  # by balance, then by position
    order = np.argsort(key)
    keyed = key[order]
    after = np.empty(n + 1, dtype=np.int64)  # the next position at one b
    after[order[:-1]] = order[1:]
    split = np.flatnonzero(feature != -1)
    # (N, 2) in C order: route_many reads row i at flat 2i and 2i + 1
    child = np.repeat(np.arange(n), 2).reshape(n, 2)
    child[split, 0] = after[split]
    child[split, 1] = split + 1
    # order[0] is position n, the one lowest balance; the queries rise
    end = order[np.searchsorted(keyed, keyed[1:] - (n + 1))]
    level = np.arange(n) - np.cumsum(np.bincount(end, minlength=n + 1))[:n]
    return child, int(level.max()), np.flatnonzero(level == 0)


def route_many(tree, X) -> np.ndarray:
    """Node reached by every row of X in each tree of tree.

    tree holds the node arrays (feature, threshold and the (N, 2) child
    table; see links) of one or more trees laid end to end, their depth
    and their roots.  Every row moves one level down in every tree per
    step: one gather reads each row's split value from the C-order ravel
    of X (row * p + feature), and one picks the child at 2 * node + (x <=
    threshold), so a NaN goes right.  A leaf routes to itself, so depth
    steps reach every leaf.  Returns node ids of shape (n, len(roots)).
    """
    n, p = X.shape
    flat = X.ravel()
    row = np.arange(n)[:, None] * p
    node = np.tile(tree.roots, (n, 1))
    for _ in range(tree.depth):
        x = flat.take(row + tree.feature.take(node))
        node = tree.child.take(2 * node + (x <= tree.threshold.take(node)))
    return node
