"""Probit Model Tree: CART partition + per-leaf ProbitBoost models.

A fitted tree is its preorder split list (cart.flatten) and one score
block with a row per leaf, margin_k(x) = intercept[l, k] + coef[l, k] . x.
make_tree builds every PmtModel, from a fit, a model file or a
committee's trees laid end to end, and checks that the list holds whole
trees; the child table, depth and roots (one cart.links pass) and the
leaf numbers are built on first use and then kept.  Binary trees have K =
1 margin (positive predicts class 1, so ties go to class 0, the sign(0) =
-1 convention); multi-class trees have K = n_classes one-versus-all
margins, decided by argmax (ties go to the smallest class index).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import cart, data, probitboost


@dataclass
class PmtModel:
    """One Probit Model Tree, or several laid end to end (see make_tree).

    The routing tables follow from the split list.  Each is built on its
    first use and then kept as a plain attribute, so routing pays nothing
    to read it; child, depth and roots come from one cart.links pass."""

    feature: np.ndarray    # (N,) split feature per node; -1 at a leaf
    threshold: np.ndarray  # (N,) split threshold per node
    intercept: np.ndarray  # (L, K)
    coef: np.ndarray       # (L, K, p)
    # Weighted probit risk of the whole tree (binary only; None for J > 2).
    # Feeds the Theorem-6-style bound on boosted training error.
    probit_risk: float | None = None

    @property
    def n_classes(self) -> int:  # K = 1 margin means 2 classes
        return max(2, self.intercept.shape[1])

    @functools.cached_property
    def _links(self) -> tuple:
        return cart.links(self.feature)

    @functools.cached_property
    def child(self) -> np.ndarray:
        """(N, 2) [right, left] child per node; a leaf is its own."""
        return self._links[0]

    @functools.cached_property
    def depth(self) -> int:
        """Longest root-to-leaf path of any of the trees."""
        return self._links[1]

    @functools.cached_property
    def roots(self) -> np.ndarray:
        """(T,) first node of each tree."""
        return self._links[2]

    @functools.cached_property
    def leaf(self) -> np.ndarray:
        """(N,) row of the score block per node; -1 at a split."""
        is_leaf = self.feature == -1
        return np.where(is_leaf, np.cumsum(is_leaf) - 1, -1)


def make_tree(feature, threshold, intercept, coef,
              probit_risk: float | None = None) -> PmtModel:
    """The PmtModel of preorder split lists laid end to end (see
    cart.flatten) and their score block, a row per leaf in the same order:
    one tree, or a committee's trees.  cart.balance rejects a list that
    ends inside a tree, and builds no table; the leaves are numbered
    across all the trees."""
    feature = np.asarray(feature)
    cart.balance(feature)
    return PmtModel(feature, np.asarray(threshold), intercept, coef,
                    probit_risk)


def fit_pmt(X, y, n_classes: int, sample_weights, depth: int,
            min_leaf_size: int, probit_iters: int) -> PmtModel:
    """Fit the CART partition, then ProbitBoost within each leaf.

    The leaves fit K one-versus-rest columns: class 1 against class 0 when
    n_classes == 2 (K = 1), otherwise class k against the rest for every k
    (K = n_classes).  The rows are sorted by leaf once, and each column is
    one fit_probitboost call with a segment per leaf.  sample_weights are
    used both for splitting and, renormalized within each leaf, for the
    leaf fits (a leaf whose weight mass is zero gets uniform weights).
    """
    depth = data.check_count("depth", depth, 0)
    min_leaf_size = data.check_count("min_leaf_size", min_leaf_size, 1)
    probit_iters = data.check_count("probit_iters", probit_iters, 0)
    X, y = data.check_inputs(X, y, n_classes)
    w = data.check_weights(sample_weights, X.shape[0])
    w = w / float(np.sum(w))

    tree = cart.build_tree(X, y, n_classes, w, depth, min_leaf_size)
    feature, threshold, leaf_rows = cart.flatten(tree)
    order = np.concatenate(leaf_rows)
    sizes = np.array([rows.size for rows in leaf_rows])
    starts = np.cumsum(sizes) - sizes
    Xs, ys, ws = X[order], y[order], w[order]
    positive = [1] if n_classes == 2 else range(n_classes)
    fits = [probitboost.fit_probitboost(Xs, np.where(ys == c, 1.0, -1.0), ws,
                                        probit_iters, starts)
            for c in positive]
    return make_tree(feature, threshold,
                     np.stack([s.intercept for s, _ in fits], axis=1),
                     np.stack([s.coefficients for s, _ in fits], axis=1),
                     fits[0][1].risks[-1] if n_classes == 2 else None)


def margins(trees: PmtModel, X) -> np.ndarray:
    """Leaf margins of every row of X in every tree, shape (n, T, K)."""
    leaf = trees.leaf[cart.route_many(trees, X)]
    return trees.intercept[leaf] + np.einsum("ntkp,np->ntk",
                                             trees.coef[leaf], X)


def tree_classes(trees: PmtModel, X) -> np.ndarray:
    """Class index of every row of X in every tree, shape (n, T)."""
    m = margins(trees, X)
    if trees.n_classes == 2:
        return (m[:, :, 0] > 0).astype(int)
    return np.argmax(m, axis=2)


def predict_pmt_many(model: PmtModel, X) -> np.ndarray:
    X, _ = data.check_inputs(X, n_features=model.coef.shape[-1])
    return tree_classes(model, X)[:, 0]
