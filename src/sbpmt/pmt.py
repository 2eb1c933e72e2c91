"""Probit Model Tree: CART partition + per-leaf ProbitBoost models.

A fitted tree is a set of arrays: the node arrays of cart.flatten and one
score block with a row per leaf, margin_k(x) = intercept[l, k] +
coef[l, k] . x.  Binary trees have K = 1 margin (positive predicts class
1, so ties go to class 0, the sign(0) = -1 convention); multi-class trees
have K = n_classes one-versus-all margins, decided by argmax (ties go to
the smallest class index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cart, data, probitboost


@dataclass
class PmtModel:
    """One Probit Model Tree, or several laid side by side (see stack)."""

    feature: np.ndarray    # (N,) split feature per node
    threshold: np.ndarray  # (N,) split threshold per node
    left: np.ndarray       # (N,) left child; a leaf node is its own child
    right: np.ndarray      # (N,) right child
    leaf: np.ndarray       # (N,) row of the score block; read at leaves only
    intercept: np.ndarray  # (L, K)
    coef: np.ndarray       # (L, K, p)
    depth: int
    # Weighted probit risk of the whole tree (binary only; None for J > 2).
    # Feeds the Theorem-6-style bound on boosted training error.
    probit_risk: float | None = None

    @property
    def n_classes(self) -> int:  # K = 1 margin means 2 classes
        return max(2, self.intercept.shape[1])


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
    X, y = data.check_inputs(X, y, n_classes)
    w = data.check_weights(sample_weights, X.shape[0])
    w = w / float(np.sum(w))

    tree = cart.build_tree(X, y, n_classes, w, depth, min_leaf_size)
    feature, threshold, left, right, leaf, leaf_rows = cart.flatten(tree)
    order = np.concatenate(leaf_rows)
    sizes = np.array([rows.size for rows in leaf_rows])
    starts = np.cumsum(sizes) - sizes
    Xs, ys, ws = X[order], y[order], w[order]
    positive = [1] if n_classes == 2 else range(n_classes)
    fits = [probitboost.fit_probitboost(Xs, np.where(ys == c, 1.0, -1.0), ws,
                                        probit_iters, starts)
            for c in positive]
    return PmtModel(feature=feature, threshold=threshold, left=left,
                    right=right, leaf=leaf, depth=depth,
                    intercept=np.stack([s.intercept for s, _ in fits], axis=1),
                    coef=np.stack([s.coefficients for s, _ in fits], axis=1),
                    probit_risk=(fits[0][1].risks[-1] if n_classes == 2
                                 else None))


def stack(models: list[PmtModel]):
    """Lay trees side by side: (one PmtModel over all of them, root node
    of each tree).  Node and leaf indices are offset per tree."""
    roots = np.cumsum([0] + [m.feature.size for m in models[:-1]])
    leaf_off = np.cumsum([0] + [m.intercept.shape[0] for m in models[:-1]])

    def cat(name, offsets=np.zeros(len(models), dtype=int)):
        return np.concatenate([getattr(m, name) + o
                               for m, o in zip(models, offsets)])

    return PmtModel(feature=cat("feature"), threshold=cat("threshold"),
                    left=cat("left", roots), right=cat("right", roots),
                    leaf=cat("leaf", leaf_off), intercept=cat("intercept"),
                    coef=cat("coef"), depth=max(m.depth for m in models)), roots


def margins(trees: PmtModel, roots, X) -> np.ndarray:
    """Leaf margins of every row of X in every tree, shape (n, T, K)."""
    leaf = trees.leaf[cart.route_many(trees, roots, X)]
    return trees.intercept[leaf] + np.einsum("ntkp,np->ntk",
                                             trees.coef[leaf], X)


def tree_classes(trees: PmtModel, roots, X) -> np.ndarray:
    """Class index of every row of X in every tree, shape (n, T)."""
    m = margins(trees, roots, X)
    if trees.n_classes == 2:
        return (m[:, :, 0] > 0).astype(int)
    return np.argmax(m, axis=2)


def predict_pmt_many(model: PmtModel, X) -> np.ndarray:
    X, _ = data.check_inputs(X, n_features=model.coef.shape[-1])
    return tree_classes(model, [0], X)[:, 0]
