"""Boosting and subagging layers over Probit Model Trees.

Binary AdaBoost and multi-class SAMME share one loop: SAMME adds ln(J-1)
to the stage weight and retains a stage iff err_t < 1 - 1/J; for J = 2
that is exactly AdaBoost.  The subagging layer draws M index subsets of
size floor(alpha * n) without replacement (with replacement at the subset
level) and majority-votes the boosted members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import data, pmt

ERR_CLAMP = 1e-10

# Rows per prediction block are chosen so that the leaf coefficients
# gathered for one block hold at most this many floats.
BLOCK_FLOATS = 1 << 17


@dataclass
class BoostStage:
    alpha: float
    model: pmt.PmtModel
    err: float       # clamped error used for alpha
    raw_err: float   # weighted error as observed


@dataclass
class BoostedPmt:
    stages: list[BoostStage]

    @property
    def errors(self) -> list[float]:
        return [s.raw_err for s in self.stages]


@dataclass
class Design:
    subsets: list[np.ndarray]
    seed: int

    @property
    def M(self) -> int:
        return len(self.subsets)


@dataclass
class SbpmtConfig:
    """Hyperparameters of a fit; the defaults are the paper's."""

    M: int = 21
    T: int = 5
    B: int = 100
    alpha: float = 0.7
    depth: int = 6
    min_leaf_size: int = 20
    seed: int = 0


@dataclass
class SbpmtModel:
    members: list[BoostedPmt]
    design: Design
    config: SbpmtConfig
    n_classes: int
    schema: dict | None = field(default=None)

    @cached_property
    def committee(self) -> "Committee":
        return Committee.of(self.members)


@dataclass
class Committee:
    """The trees of boosted members laid side by side: tree t starts at
    node roots[t], belongs to member[t] and votes with weight alpha[t]."""

    trees: pmt.PmtModel
    roots: np.ndarray
    alpha: np.ndarray
    member: np.ndarray

    @classmethod
    def of(cls, members: list[BoostedPmt]) -> "Committee":
        stages = [(k, st) for k, m in enumerate(members) for st in m.stages]
        trees, roots = pmt.stack([st.model for _, st in stages])
        return cls(trees, roots, np.array([st.alpha for _, st in stages]),
                   np.array([k for k, _ in stages]))

    def predict(self, X) -> np.ndarray:
        """Majority vote of the members, each the stage-weighted vote of
        its trees; argmax ties go to the smallest class index (for two
        classes, the sign(0) = -1 convention).  Runs block by block over
        the rows, so no temporary grows with their number."""
        trees, J, M = self.trees, self.trees.n_classes, self.member[-1] + 1
        X, _ = data.check_inputs(X, n_features=trees.coef.shape[-1])
        block = max(1, BLOCK_FLOATS // (self.alpha.size * trees.coef[0].size))
        out = np.empty(X.shape[0], dtype=int)
        for start in range(0, X.shape[0], block):
            cls = pmt.tree_classes(trees, self.roots, X[start:start + block])
            rows = np.arange(cls.shape[0])[:, None]
            votes = np.zeros((cls.shape[0], M, J))
            np.add.at(votes, (rows, self.member, cls), self.alpha)
            counts = np.zeros((cls.shape[0], J))
            np.add.at(counts, (rows, votes.argmax(axis=2)), 1)
            out[start:start + cls.shape[0]] = counts.argmax(axis=1)
        return out


def _fit_boosted(X, y, n_classes, T, depth, min_leaf_size, probit_iters):
    X, y = data.check_inputs(X, y, n_classes)
    m = X.shape[0]
    if T < 1:
        raise ValueError("need at least one boosting round")
    err_ceiling = 1.0 - 1.0 / n_classes
    shift = math.log(n_classes - 1)
    w = np.full(m, 1.0 / m)
    stages: list[BoostStage] = []
    for t in range(T):
        model = pmt.fit_pmt(X, y, n_classes, w, depth, min_leaf_size,
                            probit_iters)
        miss = pmt.predict_pmt_many(model, X) != y
        raw_err = float(np.dot(w, miss))
        if raw_err >= err_ceiling - ERR_CLAMP and t > 0:
            break  # weak learner no better than chance; keep prior stages
        err = min(max(raw_err, ERR_CLAMP), err_ceiling - ERR_CLAMP)
        alpha = 0.5 * math.log((1.0 - err) / err) + shift
        stages.append(BoostStage(alpha=alpha, model=model, err=err,
                                 raw_err=raw_err))
        if raw_err >= err_ceiling - ERR_CLAMP:
            break  # clamped first stage; further rounds would repeat it
        w = w * np.exp(alpha * miss)
        w = w / float(np.sum(w))
    return BoostedPmt(stages=stages)


def fit_adaboost(X, y, T: int, depth: int, min_leaf_size: int,
                 probit_iters: int) -> BoostedPmt:
    """Binary AdaBoost over PMT base learners (class indices 0/1)."""
    return _fit_boosted(X, y, 2, T, depth, min_leaf_size, probit_iters)


def fit_samme(X, y, n_classes: int, T: int, depth: int, min_leaf_size: int,
              probit_iters: int) -> BoostedPmt:
    """SAMME multi-class AdaBoost; for n_classes = 2 it equals fit_adaboost."""
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    return _fit_boosted(X, y, n_classes, T, depth, min_leaf_size, probit_iters)


def predict_boosted_many(model: BoostedPmt, X) -> np.ndarray:
    return Committee.of([model]).predict(X)


def draw_design(n: int, alpha: float, M: int, seed: int) -> Design:
    """M subsets of size floor(alpha*n), sampled without replacement each,
    independently across subsets; reproducible from seed."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("subagging ratio must be in (0, 1]")
    m = int(math.floor(alpha * n))
    if m < 1:
        raise ValueError("subsample size floor(alpha*n) must be >= 1")
    rng = np.random.default_rng(seed)
    subsets = [np.sort(rng.choice(n, size=m, replace=False)) for _ in range(M)]
    return Design(subsets=subsets, seed=seed)


def fit_sbpmt(X, y, n_classes: int, config: SbpmtConfig,
              schema: dict | None = None) -> SbpmtModel:
    X, y = data.check_inputs(X, y, n_classes)
    design = draw_design(X.shape[0], config.alpha, config.M, config.seed)
    members = [
        _fit_boosted(X[idx], y[idx], n_classes, config.T, config.depth,
                     config.min_leaf_size, config.B)
        for idx in design.subsets
    ]
    return SbpmtModel(members=members, design=design, config=config,
                      n_classes=n_classes, schema=schema)


def predict_sbpmt_many(model: SbpmtModel, X) -> np.ndarray:
    return model.committee.predict(X)


def predict_sbpmt(model: SbpmtModel, x) -> int:
    return int(predict_sbpmt_many(model, np.asarray(x, dtype=float)[None, :])[0])
