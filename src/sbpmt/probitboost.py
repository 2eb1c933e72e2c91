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
    """Accumulated additive probit model: margin(x) = intercept + coef . x.

    One model per segment of a segmented fit: intercept (L,) and
    coefficients (L, p); a float and (p,) for a fit without segments."""

    intercept: float | np.ndarray
    coefficients: np.ndarray


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
    L-segment fit equals L one-segment fits bit for bit.

    Each iteration fits every segment's working response on each feature
    alone, steps on the feature with the least weighted SSE (ties go to the
    lowest index), and halves a segment's step while its risk would rise:
    at most 40 times, then the step is 0.

    Returns (LinearScore, ProbitBoostTrace); the trace always holds
    n_iter + 1 risks.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    X, _ = data.check_inputs(X, (y > 0).astype(int), 2)
    sw = data.check_weights(sample_weights, X.shape[0])
    if n_iter < 0:
        raise ValueError("iteration count must be >= 0")
    X = np.asfortranarray(X)  # column-major for wls_fit_columns
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

    leaves = np.arange(L)
    coef = np.zeros((L, p))
    intercept = np.zeros(L)
    f = np.zeros(n)
    risk = _segment_risks(sw, y, f, seg_starts)
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
        rising = np.ones(L, dtype=bool)
        for _halving in range(40):
            rising &= new > risk
            if not rising.any():
                break
            step[rising] *= 0.5
            rows = rising[seg]
            sub = counts[rising]
            new[rising] = _segment_risks(
                sw[rows], y[rows], f[rows] + step[seg[rows]] * g[rows],
                np.cumsum(sub) - sub)
        else:
            step[rising] = 0.0
            new[rising] = risk[rising]
        coef[leaves, s] += step * a
        intercept += step * b
        f += step[seg] * g
        risk = new
        selected.append(s)
        leaf_risks.append(risk)

    trace = ProbitBoostTrace(
        risks=[float(np.sum(share * r)) for r in leaf_risks],
        selected_features=np.array(selected, dtype=int).reshape(n_iter, L),
        leaf_risks=np.array(leaf_risks))
    if starts is None:
        return LinearScore(float(intercept[0]), coef[0]), trace
    return LinearScore(intercept, coef), trace
