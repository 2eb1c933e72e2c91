"""ProbitBoost: forward-stagewise additive probit model.

Each iteration performs one Newton step on the (weighted) empirical probit
risk, realized as a weighted least-squares fit of the working response on
the single best feature.  Labels live in {-1, +1}.  One call fits several
independent models at once, one per segment of rows: a Probit Model Tree
fits all its leaves in one call per one-versus-rest column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data, numerics


@dataclass
class LinearScore:
    """Accumulated additive probit models, one per segment of a fit:
    margin_l(x) = intercept[l] + coefficients[l] . x."""

    intercept: np.ndarray     # (L,)
    coefficients: np.ndarray  # (L, p)


@dataclass
class ProbitBoostTrace:
    """What a fit did, iteration by iteration.

    leaf_risks: (iterations + 1, L) weighted probit risk of each segment
    before any step and after every step; each column is non-increasing.
    risks: the segments' risks summed with weights equal to their share of
    the sample-weight mass, one float per row of leaf_risks.
    selected_features: (iterations, L) feature each segment stepped on.
    """

    risks: list[float]
    selected_features: np.ndarray
    leaf_risks: np.ndarray


def _segment_risks(sw, y, f, starts) -> np.ndarray:
    return np.add.reduceat(sw * numerics.probit_loss(y * f), starts)


def _check_starts(starts, n: int) -> np.ndarray:
    starts = np.asarray(starts)
    if (starts.ndim != 1 or starts.size == 0 or starts.dtype.kind not in "iu"
            or starts[0] != 0 or np.any(np.diff(starts) <= 0)
            or starts[-1] >= n):
        raise ValueError("segment starts must rise strictly from 0 and stay "
                         f"below the row count {n}")
    return starts


def fit_probitboost(X, y, sample_weights, n_iter: int, starts=None):
    """Run n_iter ProbitBoost steps from f = 0 within each segment of rows.

    X: (n, p) feature matrix; y: one label in {-1, +1} per row;
    sample_weights: one finite, nonnegative weight per row, with positive
    sum.  starts: first row of each segment, rising strictly from 0; None
    makes all rows one segment.  Each segment is its own fit: its weights
    are normalized to sum 1 within it (a segment whose weights are all 0
    gets uniform ones), and every sum runs over its own rows, so an
    L-segment fit equals L one-segment fits bit for bit.  The steps are
    fitted on the segment's columns less their weighted means, which the
    intercepts take back, so a constant added to a column moves only the
    intercepts.

    Each iteration fits every segment's working response on each feature
    alone, steps on the feature with the least weighted SSE (ties go to the
    lowest index), and takes the first of the steps 1, 1/2, ..., 2^-39
    under which the segment's risk does not rise, or else step 0.  A
    segment that takes step 0 keeps its f, so it takes step 0 on the same
    feature in every later iteration, and its step search is skipped.

    Returns (LinearScore, ProbitBoostTrace): the score holds L intercepts
    and an (L, p) coefficient block, L = 1 without starts, and the trace
    always holds n_iter + 1 risks.
    """
    y = data.check_numbers("labels", y)
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    X, _ = data.check_inputs(X, (y > 0).astype(int), 2)
    sw = data.check_weights(sample_weights, X.shape[0])
    n_iter = data.check_count("n_iter", n_iter, 0)
    n, p = X.shape
    seg_starts = _check_starts([0] if starts is None else starts, n)
    L = seg_starts.size
    counts = np.diff(seg_starts, append=n)
    seg = np.repeat(np.arange(L), counts)
    mass = np.add.reduceat(sw, seg_starts)
    share = mass / float(np.sum(mass))
    empty = mass <= 0.0
    sw = np.where(empty[seg], 1.0 / counts[seg],
                  sw / np.where(empty, 1.0, mass)[seg])
    # Each segment's columns, centred at their weighted mean, so that the
    # one-pass moments of wls_fit_columns do not cancel on a column whose
    # offset dwarfs its spread; column-major for wls_fit_columns.
    mean = np.add.reduceat(sw[:, None] * X, seg_starts)
    X = np.asfortranarray(X - mean[seg])

    leaves = np.arange(L)
    coef = np.zeros((L, p))
    intercept = np.zeros(L)
    f = np.zeros(n)
    risk = _segment_risks(sw, y, f, seg_starts)
    frozen = np.zeros(L, dtype=bool)  # searches that ended at step 0
    leaf_risks = [risk]
    selected = []
    for _ in range(n_iter):
        # w >= w(U_MAX) > 0 and sw sums to 1 in each segment, so every
        # segment has positive curvature mass.
        z, w = numerics.working_response_and_weight(y, f)
        slopes, intercepts, sses = numerics.wls_fit_columns(X, z, w * sw,
                                                            seg_starts)
        s = np.argmin(sses, axis=1)  # ties resolve to the lowest feature
        a, b = slopes[leaves, s], intercepts[leaves, s]
        g = a[seg] * X[np.arange(n), s[seg]] + b[seg]
        # The WLS normal equations make g a descent direction, but the full
        # Newton step can overshoot near an optimum; halve a segment's step
        # until its risk does not increase (small steps descend).
        step = np.ones(L)
        new = _segment_risks(sw, y, f + g, seg_starts)
        rising = (new > risk) & ~frozen
        for _halving in range(39):
            if not rising.any():
                break
            step[rising] *= 0.5
            rows = rising[seg]
            sub = counts[rising]
            new[rising] = _segment_risks(
                sw[rows], y[rows], f[rows] + step[seg[rows]] * g[rows],
                np.cumsum(sub) - sub)
            rising &= new > risk
        frozen |= rising
        step[frozen] = 0.0
        new[frozen] = risk[frozen]
        coef[leaves, s] += step * a
        intercept += step * (b - a * mean[leaves, s])
        f += step[seg] * g
        risk = new
        selected.append(s)
        leaf_risks.append(risk)

    trace = ProbitBoostTrace(
        risks=[float(np.sum(share * r)) for r in leaf_risks],
        selected_features=np.array(selected, dtype=int).reshape(n_iter, L),
        leaf_risks=np.array(leaf_risks))
    return LinearScore(intercept, coef), trace
