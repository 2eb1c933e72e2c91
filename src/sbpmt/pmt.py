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
    n_classes: int
    depth: int
    # Weighted probit risk of the whole tree (binary only; None for J > 2).
    # Feeds the Theorem-6-style bound on boosted training error.
    probit_risk: float | None = None


def fit_pmt(X, y, n_classes: int, sample_weights, depth: int,
            min_leaf_size: int, probit_iters: int) -> PmtModel:
    """Fit the CART partition, then ProbitBoost within each leaf.

    sample_weights are used both for splitting and, renormalized within
    each leaf, for the leaf fits.  A leaf whose weight mass underflowed to
    zero falls back to uniform weights over its rows.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    w = np.asarray(sample_weights, dtype=float)
    total = float(np.sum(w))
    if total <= 0:
        raise ValueError("sample weights must have positive sum")
    w = w / total

    tree = cart.build_tree(X, y, n_classes, w, depth, min_leaf_size)
    feature, threshold, left, right, leaf, leaf_rows = cart.flatten(tree)
    K = 1 if n_classes == 2 else n_classes
    intercept = np.zeros((len(leaf_rows), K))
    coef = np.zeros((len(leaf_rows), K, X.shape[1]))
    risk = 0.0
    for lf, rows in enumerate(leaf_rows):
        lw = w[rows]
        mass = float(np.sum(lw))
        if mass <= 0.0:
            lw = np.ones(rows.size)
            mass = 0.0
        if n_classes == 2:
            ypm = np.where(y[rows] == 1, 1.0, -1.0)
            score, trace = probitboost.fit_probitboost(
                X[rows], ypm, lw, probit_iters)
            scores = [score]
            risk += mass * trace.risks[-1]
        else:
            scores = probitboost.fit_probitboost_ova(
                X[rows], y[rows], n_classes, lw, probit_iters)
        intercept[lf] = [s.intercept for s in scores]
        coef[lf] = [s.coefficients for s in scores]
    return PmtModel(feature=feature, threshold=threshold, left=left,
                    right=right, leaf=leaf, intercept=intercept, coef=coef,
                    n_classes=n_classes, depth=depth,
                    probit_risk=risk if n_classes == 2 else None)


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
                    coef=cat("coef"), n_classes=models[0].n_classes,
                    depth=max(m.depth for m in models)), roots


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
