"""Boosting and subagging layers over Probit Model Trees.

fit_boosted is multi-class SAMME: it adds ln(J-1) to the stage weight,
keeps stages while err_t < 1 - 1/J (the first always, clamped) and ends
the member after a stage with err_t = 0 (AdaBoost for J = 2).  BoostStage
derives the clamped error and vote weight from a stage's tree and raw
error.  The subagging layer draws an (M, m) design
of M index subsets of size floor(alpha * n) without replacement (with
replacement at the subset level) and majority-votes the boosted members
through a Committee, which an SbpmtModel builds when it is constructed,
after a fit and a load alike; its routing tables come with its first
use (see pmt.PmtModel).  fit_boosted and draw_design take a checked
SbpmtConfig; data.check_inputs checks the class count with the data.

The members are independent: each needs only its own subset, and the
design is drawn before any is fitted.  fit_sbpmt therefore maps one
member fit over the design rows, either in a pool of forked worker
processes, one per usable CPU and at most M, or in this process.  Each
task carries X, y and one subset's indices, and the members come back in
design order, so the model does not depend on the worker count.  The
pool is forked after numerics.load_kernels, so the workers inherit
SciPy's special functions rather than each importing them.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import data, numerics, pmt

ERR_CLAMP = 1e-10

# Rows per prediction block are chosen so that the leaf coefficients
# gathered for one block hold at most this many floats.
BLOCK_FLOATS = 1 << 17


@dataclass
class BoostStage:
    model: pmt.PmtModel
    raw_err: float   # weighted error as observed

    @property
    def err(self) -> float:
        """raw_err clamped into [ERR_CLAMP, 1 - 1/J - ERR_CLAMP]."""
        return min(max(self.raw_err, ERR_CLAMP),
                   1.0 - 1.0 / self.model.n_classes - ERR_CLAMP)

    @property
    def alpha(self) -> float:
        """The SAMME vote weight ln((1 - err) / err) / 2 + ln(J - 1)."""
        err = self.err
        return (0.5 * math.log((1.0 - err) / err)
                + math.log(self.model.n_classes - 1))


@dataclass
class BoostedPmt:
    stages: list[BoostStage]


@dataclass(frozen=True)
class SbpmtConfig:
    """Hyperparameters of a fit; the defaults are the paper's.  Frozen: a
    checked config stays valid (dataclasses.replace checks it again)."""

    M: int = 21
    T: int = 5
    B: int = 100
    alpha: float = 0.7
    depth: int = 6
    min_leaf_size: int = 20
    seed: int = 0

    def __post_init__(self):
        """Reject fields of the wrong kind (see data.check_config) or out
        of range."""
        data.check_config(self, M=1, T=1, B=0, depth=0, min_leaf_size=1,
                          seed=0)
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"config: need 0 < alpha <= 1, got alpha = "
                             f"{self.alpha}")


@dataclass
class SbpmtModel:
    members: list[BoostedPmt]
    design: np.ndarray  # (M, m): the rows of each member's subset, sorted
    config: SbpmtConfig
    n_classes: int
    schema: dict | None = field(default=None)
    committee: "Committee" = field(init=False, repr=False)

    def __post_init__(self):
        """Build the members' committee once, after a fit and a load alike."""
        self.committee = Committee.of(self.members)


@dataclass
class Committee:
    """The trees of boosted members as one PmtModel, their split lists and
    score blocks laid end to end: tree t starts at node trees.roots[t],
    belongs to member[t] and votes with weight alpha[t]."""

    trees: pmt.PmtModel
    alpha: np.ndarray
    member: np.ndarray

    @classmethod
    def of(cls, members: list[BoostedPmt]) -> "Committee":
        stages = [(k, st) for k, m in enumerate(members) for st in m.stages]
        trees = pmt.make_tree(*(
            np.concatenate([getattr(st.model, name) for _, st in stages])
            for name in ("feature", "threshold", "intercept", "coef")))
        return cls(trees, np.array([st.alpha for _, st in stages]),
                   np.array([k for k, _ in stages]))

    def member_classes(self, X) -> np.ndarray:
        """Each member's stage-weighted vote for every row of X, shape
        (n, M); argmax ties go to the smallest class index (for two
        classes, the sign(0) = -1 convention).  Runs block by block over
        the rows, so only the result grows with their number.  A vote is
        one bincount over the bins (row, member, class): each bin adds its
        trees' alphas in tree order, starting from 0.0."""
        trees, J, M = self.trees, self.trees.n_classes, self.member[-1] + 1
        X, _ = data.check_inputs(X, n_features=trees.coef.shape[-1])
        block = max(1, BLOCK_FLOATS // (self.alpha.size * trees.coef[0].size))
        out = np.empty((X.shape[0], M), dtype=int)
        for start in range(0, X.shape[0], block):
            cls = pmt.tree_classes(trees, X[start:start + block])
            n = cls.shape[0]
            bins = (np.arange(n)[:, None] * M + self.member) * J + cls
            votes = np.bincount(bins.ravel(), weights=np.tile(self.alpha, n),
                                minlength=n * M * J)
            out[start:start + n] = votes.reshape(n, M, J).argmax(axis=2)
        return out

    def predict(self, X) -> np.ndarray:
        """Majority vote of the members' classes; ties go to the smallest
        class index."""
        classes = self.member_classes(X)
        n, J = classes.shape[0], self.trees.n_classes
        counts = np.bincount((np.arange(n)[:, None] * J + classes).ravel(),
                             minlength=n * J)
        return counts.reshape(n, J).argmax(axis=1)


def fit_boosted(X, y, n_classes: int, config: SbpmtConfig) -> BoostedPmt:
    """SAMME over PMT base learners: at most config.T stages, each a PMT
    (config.depth, config.min_leaf_size, config.B) fitted to the current
    sample weights.  A stage that misses no row is the last one."""
    X, y = data.check_inputs(X, y, n_classes)
    m = X.shape[0]
    chance = 1.0 - 1.0 / n_classes - ERR_CLAMP
    w = np.full(m, 1.0 / m)
    stages: list[BoostStage] = []
    for _ in range(config.T):
        model = pmt.fit_pmt(X, y, n_classes, w, config.depth,
                            config.min_leaf_size, config.B)
        miss = pmt.predict_pmt_many(model, X) != y
        # a stage that misses every row can sum its weights past 1
        raw_err = min(float(np.dot(w, miss)), 1.0)
        if stages and raw_err >= chance:
            break  # no better than chance: keep the prior stages
        stages.append(BoostStage(model=model, raw_err=raw_err))
        # a member ends at a first stage no better than chance, kept with
        # its error clamped, and at a perfect stage, whose reweighting
        # leaves w as it is: every later round would fit the same tree
        if not 0.0 < raw_err < chance:
            break
        w = w * np.exp(stages[-1].alpha * miss)
        w = w / float(np.sum(w))
    return BoostedPmt(stages=stages)


def draw_design(n: int, config: SbpmtConfig) -> np.ndarray:
    """config.M sorted subsets of size m = floor(config.alpha * n) as an
    (M, m) array, each sampled without replacement, independently across
    subsets; reproducible from config.seed."""
    m = math.floor(config.alpha * data.check_count("n", n, 1))
    if m < 1:
        raise ValueError("subsample size floor(alpha*n) must be >= 1")
    rng = np.random.default_rng(config.seed)
    return np.stack([np.sort(rng.choice(n, size=m, replace=False))
                     for _ in range(config.M)])


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity off Linux
        return os.cpu_count() or 1


def _worker_count(M: int, workers, cpus: int) -> int:
    """Processes that fit M members: workers (None: one per CPU), capped
    at M and at the cpus usable."""
    return min(M, cpus, cpus if workers is None
               else data.check_count("workers", workers, 1))


def _fit_member(X, y, n_classes: int, config: SbpmtConfig,
                idx: np.ndarray) -> BoostedPmt:
    return fit_boosted(X[idx], y[idx], n_classes, config)


def _fit_members(X, y, n_classes: int, config: SbpmtConfig,
                 subsets: np.ndarray, workers: int) -> list[BoostedPmt]:
    """One boosted member per subset, in design order: fitted by a pool of
    `workers` forked processes (see the module docstring), or here, one
    after another, with one worker or without the fork start method."""
    fit = functools.partial(_fit_member, X, y, n_classes, config)
    if workers > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            numerics.load_kernels()  # once here, not once per worker
            pool = ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"))
            try:
                return list(pool.map(fit, subsets))
            finally:
                pool.shutdown(cancel_futures=True)
    return list(map(fit, subsets))


def fit_sbpmt(X, y, n_classes: int, config: SbpmtConfig,
              schema: dict | None = None, workers=None) -> SbpmtModel:
    """Fit config.M boosted members on subagged subsets of (X, y).

    workers is the number of processes that fit the members: None for one
    per usable CPU, 1 to fit them in this process; it is capped at M and
    at the usable CPUs.  The fitted model does not depend on it.  A
    schema, when given, must be one the model loader takes
    (data.check_schema, with n_classes classes and X's features)."""
    n_classes = data.check_count("n_classes", n_classes, 2)
    X, y = data.check_inputs(X, y, n_classes)
    if schema is not None:
        data.check_schema(schema, n_classes, X.shape[1])
    design = draw_design(X.shape[0], config)
    members = _fit_members(X, y, n_classes, config, design,
                           _worker_count(config.M, workers, _usable_cpus()))
    return SbpmtModel(members=members, design=design, config=config,
                      n_classes=n_classes, schema=schema)


def predict_sbpmt_many(model: SbpmtModel, X) -> np.ndarray:
    return model.committee.predict(X)


def predict_sbpmt(model: SbpmtModel, x) -> int:
    """The class of one row x, a 1-D array of the model's features."""
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError(f"x must be one row, a 1-D array, got shape "
                         f"{x.shape}")
    return int(predict_sbpmt_many(model, x[None, :])[0])
