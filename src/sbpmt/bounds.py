"""Finite-sample generalization-bound calculators.

Covers the incomplete-U-statistic voting bound (with its Q_A/Q_B/Q_C
design quantiles), exact design statistics A/B/C, the VC complexity bound
for boosted classifiers, the weighted-training-error product bound, and
its probit-risk variant, which counts its rounds from the risks it is
given.  The kernel quantities sigma1_sq, beta_kernel and gamma_kernel are
not estimable from a single dataset and must be supplied by the caller.
Theorems 3, 4 and 6 take the confidence level as a keyword-only delta
with default DELTA = 0.05, so an old positional call raises TypeError;
theorem 5 takes its margin as theta=0.0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import data, numerics
from .ensemble import SbpmtModel

DELTA = 0.05


@dataclass
class DesignStats:
    """Coverage statistics of a subagging design.

    R_k counts how many subsets contain instance k;
    A = sum_k R_k^2 / M^2, B = sum_{k != l} R_kl^2 / M^2 (ordered pairs,
    each unordered pair counted twice), C = max_k R_k / M.
    """

    R: np.ndarray
    A: float
    B: float
    C: float


def design_stats(subsets, n: int) -> DesignStats:
    """Statistics of M >= 1 subsets of rows 0..n-1; their sizes may differ.
    A subset holding an index that is not an integer in 0..n-1 (a bool
    included), or one index twice, raises ValueError naming the subset."""
    n, M = data.check_count("n", n, 1), len(subsets)
    if M < 1:
        raise ValueError("need at least one subset, got none")
    incidence = np.zeros((M, n), dtype=np.int64)
    for i, subset in enumerate(subsets):
        rows = np.asarray(subset)  # reads a bool among integers as one
        if rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu") or (
                not isinstance(subset, np.ndarray)
                and any(isinstance(v, (bool, np.bool_)) for v in subset)):
            raise ValueError(f"subset {i} must be a list of integer row "
                             f"indices, got {subset!r}")
        bad = rows[(rows < 0) | (rows >= n)]
        if bad.size:
            raise ValueError(f"subset {i} holds row index {bad[0]}, "
                             f"outside 0..{n - 1}")
        values, counts = np.unique(rows, return_counts=True)
        if values.size < rows.size:
            raise ValueError(f"subset {i} holds row index "
                             f"{values[counts > 1][0]} more than once")
        incidence[i, subset] = 1
    R = incidence.sum(axis=0)
    # sum_{k,l} R_kl^2 = ||I^T I||_F^2 = ||I I^T||_F^2, and I I^T is only
    # M x M (subset intersection sizes); the diagonal k = l gives sum R_k^2.
    gram = incidence @ incidence.T
    off_sq = float(np.sum(np.square(gram)) - np.sum(np.square(R)))
    return DesignStats(
        R=R,
        A=float(np.sum(np.square(R))) / M**2,
        B=off_sq / M**2,
        C=float(np.max(R)) / M,
    )


@dataclass
class BoundReport:
    Q_A: float
    Q_B: float
    Q_C: float
    rhs: float
    hypothesis_ok: bool
    hypothesis_threshold: float  # M must exceed ln^2(n)
    degenerate: bool = False  # set when the exponent margin t is <= 0


def theorem3_bound(n: int, m: int, M: int, p_sub: float, sigma1_sq: float,
                   beta_kernel: float, gamma_kernel: float, *,
                   delta: float = DELTA) -> BoundReport:
    """Voting-classifier generalization bound for a random subagging design.

    rhs = exp(-t^2 / (2 Q_A^2 sigma1^2 + Q_B^2 beta/2
                      + (sqrt(Q_B gamma) + 4 Q_C^2 / 3) t))
    with t = (ceil(M/2) - M/2)/M + 1 - 2 p_sub.  hypothesis_ok flags the
    M > ln^2(n) requirement and p_sub < 1/2; a nonpositive t makes the
    bound vacuous (rhs = 1, degenerate).
    """
    n, m, M = (data.check_count(name, v, 1)
               for name, v in (("n", n), ("m", m), ("M", M)))
    p_sub, sigma1_sq, beta_kernel, gamma_kernel, delta = (
        data.check_real(name, v) for name, v in (
            ("p_sub", p_sub), ("sigma1_sq", sigma1_sq),
            ("beta_kernel", beta_kernel), ("gamma_kernel", gamma_kernel),
            ("delta", delta)))
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must be in (0, 1)")
    if m > n:
        raise ValueError("subsample size m cannot exceed n")
    if not all(0.0 <= v < math.inf
               for v in (sigma1_sq, beta_kernel, gamma_kernel)):
        raise ValueError("kernel moment inputs must be finite and "
                         "nonnegative")
    if not 0.0 <= p_sub <= 1.0:
        raise ValueError(f"p_sub must be in [0, 1], got {p_sub}")
    log3d = math.log(3.0 / delta)
    c = 1.0 + 4.0 * math.sqrt(log3d)
    Q_A = math.sqrt(m**2 / n) + c * math.sqrt(m / M)
    Q_B = m**2 / n + c * m / math.sqrt(M)
    Q_C = m / n + (math.sqrt(2.0 * m) + 3.0) / math.sqrt(M) * log3d
    t = (math.ceil(M / 2) - M / 2) / M + 1.0 - 2.0 * p_sub
    threshold = math.log(n) ** 2
    hypotheses = dict(hypothesis_ok=M > threshold and p_sub < 0.5,
                      hypothesis_threshold=threshold)
    if t <= 0.0:
        return BoundReport(Q_A=Q_A, Q_B=Q_B, Q_C=Q_C, rhs=1.0,
                           degenerate=True, **hypotheses)
    denom = (2.0 * Q_A**2 * sigma1_sq + Q_B**2 * beta_kernel / 2.0
             + (math.sqrt(Q_B * gamma_kernel) + 4.0 * Q_C**2 / 3.0) * t)
    rhs = math.exp(-t * t / denom)  # denom >= 4 Q_C^2 t / 3 > 0
    return BoundReport(Q_A=Q_A, Q_B=Q_B, Q_C=Q_C, rhs=rhs, **hypotheses)


def theorem4_bound(n: int, T: int, d_vc: int, empirical_error: float, *,
                   delta: float = DELTA) -> float:
    """VC complexity bound for a T-round boosted classifier on n samples."""
    n, T, d_vc = (data.check_count(name, v, 1)
                  for name, v in (("n", n), ("T", T), ("d_vc", d_vc)))
    empirical_error = data.check_real("empirical_error", empirical_error)
    delta = data.check_real("delta", delta)
    if n < max(d_vc, T):
        raise ValueError("requires n >= max(d_vc, T)")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must be in (0, 1)")
    if not 0.0 <= empirical_error <= 1.0:
        raise ValueError(f"empirical error must be in [0, 1], got "
                         f"{empirical_error}")
    inner = (T * math.log(math.e * n / T)
             + d_vc * math.log(math.e * n / d_vc)
             + math.log(8.0 / delta))
    return empirical_error + math.sqrt(32.0 * inner / n)


def theorem5_bound(errors: list[float], theta: float = 0.0) -> float:
    """Margin bound 2^T prod_t sqrt(err_t^(1-theta) (1-err_t)^(1+theta))
    over the stage errors, a nonempty list of reals in [0, 1]."""
    errors = data.check_reals("stage errors", errors)
    if not np.all((errors >= 0) & (errors <= 1)):
        raise ValueError("stage errors must lie in [0, 1]")
    theta = data.check_real("theta", theta)
    if not -1.0 <= theta <= 1.0:  # a normalized margin; keeps it finite
        raise ValueError(f"theta must lie in [-1, 1], got {theta}")
    T = errors.size
    prod = float(np.prod(np.sqrt(errors ** (1.0 - theta)
                                 * (1.0 - errors) ** (1.0 + theta))))
    return 2.0**T * prod


@dataclass
class Theorem6Report:
    training_term: float
    complexity_term: float
    total: float
    hypothesis_ok: bool


def theorem6_bound(probit_risks: list[float], n: int, d_vc: int, *,
                   delta: float = DELTA) -> Theorem6Report:
    """Generalization bound driven by one PMT probit risk per boosting
    round, so T = len(probit_risks); the risks are a nonempty list of
    finite real numbers (data.check_reals).  gamma_t = 1/2 - eps_t / ln 2;
    requires 0 <= eps_t/ln2 < 1/2 for every round, otherwise the training
    term is reported as 1 and flagged.
    """
    risks = data.check_reals("probit risks", probit_risks)
    if not np.all(np.isfinite(risks)):
        raise ValueError("probit risks must be finite")
    scaled = risks / numerics.LN2
    ok = bool(np.all((scaled >= 0.0) & (scaled < 0.5)))
    training = (math.exp(-2.0 * float(np.sum(np.square(0.5 - scaled))))
                if ok else 1.0)
    complexity = theorem4_bound(n, risks.size, d_vc, 0.0, delta=delta)
    return Theorem6Report(training_term=training, complexity_term=complexity,
                          total=training + complexity, hypothesis_ok=ok)


def estimate_p_sub(model: SbpmtModel, X, y) -> float:
    """Out-of-subset plug-in estimate of the member error rate p_sub.

    Every member votes on every row in one committee pass; each member's
    error is taken over the rows outside its own design subset, and the
    errors are averaged.  With alpha = 1 nothing is held out and the
    (optimistic) training error is returned with a warning.  X, y must be
    the rows the design was drawn over: a subset size other than
    floor(alpha * n) or a subset index >= n raises ValueError.
    """
    X, y = data.check_inputs(X, y, model.n_classes)
    n, (M, size) = X.shape[0], model.design.shape
    m = math.floor(model.config.alpha * n)
    if size != m or model.design.max() >= n:
        raise ValueError(f"{n} rows cannot be this model's training set: "
                         f"its subsets must hold floor(alpha * n) = {m} "
                         f"indices, all below {n}")
    wrong = model.committee.member_classes(X) != y[:, None]
    held_out = np.ones((n, M), dtype=bool)
    if m < n:  # each subset's m distinct rows leave n - m out
        held_out[model.design, np.arange(M)[:, None]] = False
    else:
        warnings.warn("alpha = 1 leaves no held-out rows; "
                      "falling back to training error for p_sub")
    rates = (wrong & held_out).sum(axis=0) / held_out.sum(axis=0)
    return float(np.mean(rates))
