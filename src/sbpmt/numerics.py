"""Numerically stable probit kernel and the per-feature WLS solver.

Everything here is pure and operates on scalars or numpy arrays alike.
The central object is the margin u = y*f(x); all response/weight algebra
is expressed through the inverse Mills ratio r(u) = phi(u)/Phi(u) so that
nothing overflows or cancels for u far below zero.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

# Margins are clamped to [-U_MAX, U_MAX] before entering response/weight
# formulas; beyond |u| = 8 the loss curvature underflows double precision.
U_MAX = 8.0

LN2 = math.log(2.0)

_SQRT2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def inv_mills(u):
    """Inverse Mills ratio r(u) = phi(u)/Phi(u).

    Uses the scaled complementary error function: r(u) = sqrt(2/pi) /
    erfcx(-u/sqrt(2)), which stays finite for u << 0 where phi and Phi
    both underflow.
    """
    return _SQRT_2_OVER_PI / special.erfcx(-np.asarray(u, dtype=float) / _SQRT2)


def probit_loss(u):
    """Probit loss Q(u) = -log Phi(u), evaluated in log space."""
    return -special.log_ndtr(u)


def working_response_and_weight(y, f):
    """Newton working response z and Hessian weight w at margin y*f.

    The margin is clamped to [-U_MAX, U_MAX] first.  With r = r(u) and
    t = u + r:  z = y / t,  w = r * t.  Both are finite and w > 0 always
    (t = (u*Phi(u) + phi(u)) / Phi(u) > 0 for every real u).
    """
    y = np.asarray(y, dtype=float)
    u = np.clip(y * np.asarray(f, dtype=float), -U_MAX, U_MAX)
    r = inv_mills(u)
    t = u + r
    return y / t, r * t


# Weighted feature variance below this is treated as a constant feature.
_VAR_TOL = 1e-12


def wls_fit_columns(X, z, w, starts):
    """Closed-form weighted least squares of z on each column of X alone,
    within each segment of rows.

    Segment l holds the rows from starts[l] up to the next start (the last
    one up to the end); starts rise strictly from 0.  Returns (slopes,
    intercepts, sses) of shape (L, p): segment l's fit of column j,
    z ~ slopes[l, j] * x_j + intercepts[l, j], and its weighted residual
    sum of squares.  A column whose weighted variance within a segment
    falls below tolerance gets slope 0 and intercept equal to the weighted
    mean of z there, so feature selection never prefers a constant column.
    Every sum runs over one segment's rows in order, so a segment's fit
    does not depend on the other segments.  This is the inner loop of
    ProbitBoost, so it is fully vectorized.

    Raises ValueError on empty input or a segment without positive weight.
    """
    X = np.asarray(X, dtype=float)
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    if X.size == 0:
        raise ValueError("empty regression")
    starts = np.asarray(starts)
    sw = np.add.reduceat(w, starts)
    if np.any(sw <= 0.0):
        raise ValueError("total weight must be positive in every segment")
    # Work on (p, n) columns: for a column-major X each column's segment
    # sums then run over contiguous memory.
    XT = X.T
    wXT = XT * w
    xm = np.add.reduceat(wXT, starts, axis=1) / sw
    zm = np.add.reduceat(w * z, starts) / sw
    dz = z - np.repeat(zm, np.diff(starts, append=z.size))
    wdz = w * dz
    sxx = np.maximum(np.add.reduceat(wXT * XT, starts, axis=1)
                     - sw * np.square(xm), 0.0)
    szz = np.add.reduceat(wdz * dz, starts)
    # sum w * (x - xm) * (z - zm), since sum w*dz*xm = 0 in every segment
    sxz = np.add.reduceat(XT * wdz, starts, axis=1)
    degenerate = sxx / sw < _VAR_TOL
    slopes = np.where(degenerate, 0.0, sxz / np.where(degenerate, 1.0, sxx))
    intercepts = zm - slopes * xm
    sses = np.maximum(szz - slopes * sxz, 0.0)
    return slopes.T, intercepts.T, sses.T
