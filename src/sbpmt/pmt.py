"""Probit Model Tree: CART partition + per-leaf ProbitBoost models.

A fitted tree is its preorder split list (cart.flatten) and one score
block with a row per leaf, margin_k(x) = intercept[l, k] + coef[l, k] . x.
make_tree builds every PmtModel, of one tree or of trees laid end to end
(join): one cart.links pass checks that the list holds whole trees and
gives the routing tables, and the score block must have a row per leaf.
Binary trees have K = 1 margin (positive predicts class 1, so ties go
to class 0, the sign(0) = -1 convention); multi-class trees have K =
n_classes one-versus-all margins, decided by argmax (ties go to the
smallest class index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cart, data, probitboost


@dataclass
class PmtModel:
    """One Probit Model Tree, or several laid end to end (see make_tree).
    The routing tables follow from the split list."""

    feature: np.ndarray    # (N,) split feature per node; -1 at a leaf
    threshold: np.ndarray  # (N,) split threshold per node
    intercept: np.ndarray  # (L, K)
    coef: np.ndarray       # (L, K, p)
    child: np.ndarray      # (N, 2) [right, left] child; a leaf is its own
    depth: int             # longest root-to-leaf path of any tree
    roots: np.ndarray      # (T,) first node of each tree
    leaf: np.ndarray       # (N,) score row per node; -1 at a split
    # Weighted probit risk of the whole tree (binary only; None for J > 2).
    # Feeds the Theorem-6-style bound on boosted training error.
    probit_risk: float | None = None

    @property
    def n_classes(self) -> int:  # K = 1 margin means 2 classes
        return max(2, self.intercept.shape[1])


def make_tree(feature, threshold, intercept, coef,
              probit_risk: float | None = None) -> PmtModel:
    """The PmtModel of preorder split lists laid end to end (see
    cart.flatten) and their score block, a row per leaf in the same order:
    one tree, or a committee's trees; the leaves are numbered across all
    the trees.  Raises ValueError for a list that ends inside a tree
    (cart.links), a threshold per node missing, or a score block other
    than (L, K) intercepts and (L, K, p) coefficients, p >= 1, for the L
    leaves."""
    feature, threshold = np.asarray(feature), np.asarray(threshold)
    intercept, coef = np.asarray(intercept), np.asarray(coef)
    child, level, roots = cart.links(feature)
    is_leaf = feature == -1
    leaf = np.where(is_leaf, np.cumsum(is_leaf) - 1, -1)
    L = int(np.count_nonzero(is_leaf))
    if threshold.shape != feature.shape:
        raise ValueError(f"threshold holds {threshold.size} values for "
                         f"{feature.size} nodes")
    if (intercept.ndim != 2 or intercept.shape[0] != L or coef.ndim != 3
            or coef.shape[:2] != intercept.shape or coef.shape[2] < 1):
        raise ValueError(f"score block: intercept {intercept.shape} and coef "
                         f"{coef.shape} must be (L, K) and (L, K, p) for the "
                         f"L = {L} leaves")
    return PmtModel(feature, threshold, intercept, coef, child,
                    int(level.max()), roots, leaf, probit_risk)


def join(trees: list[PmtModel]) -> PmtModel:
    """The trees laid end to end as one PmtModel (see make_tree)."""
    return make_tree(*(np.concatenate([getattr(t, name) for t in trees])
                       for name in ("feature", "threshold", "intercept",
                                    "coef")))


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
