"""ProbitBoost: forward-stagewise additive probit model.

Each iteration performs one Newton step on the (weighted) empirical probit
risk, realized as a weighted least-squares fit of the working response on
the single best feature.  Labels live in {-1, +1}; a Probit Model Tree
fits its multi-class leaves as several such one-versus-rest fits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics


@dataclass
class LinearScore:
    """Accumulated additive probit model: margin(x) = intercept + coef . x."""

    intercept: float
    coefficients: np.ndarray


@dataclass
class ProbitBoostTrace:
    """Weighted probit risk after each iteration plus the chosen features."""

    risks: list[float] = field(default_factory=list)
    selected_features: list[int] = field(default_factory=list)


def _weighted_risk(sw: np.ndarray, y: np.ndarray, f: np.ndarray) -> float:
    return float(np.dot(sw, numerics.probit_loss(y * f)))


def fit_probitboost(X, y, sample_weights, n_iter: int):
    """Run n_iter ProbitBoost steps starting from f = 0.

    X: (n, p) feature matrix; y: labels in {-1, +1}; sample_weights:
    nonnegative per-instance weights with positive sum (normalized
    internally, so scaling them leaves the fit bit-identical).

    Returns (LinearScore, ProbitBoostTrace).  The trace holds the weighted
    probit risk before any step and after every step (length n_iter + 1
    unless the Hessian weights underflow to zero, which ends the loop).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("empty data")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    sw = np.asarray(sample_weights, dtype=float)
    if np.any(sw < 0):
        raise ValueError("sample weights must be nonnegative")
    total = float(np.sum(sw))
    if total <= 0:
        raise ValueError("sample weights must have positive sum")
    sw = sw / total
    if n_iter < 0:
        raise ValueError("iteration count must be >= 0")

    n, p = X.shape
    coef = np.zeros(p)
    intercept = 0.0
    f = np.zeros(n)
    trace = ProbitBoostTrace()
    trace.risks.append(_weighted_risk(sw, y, f))

    for _ in range(n_iter):
        z, w = numerics.working_response_and_weight(y, f)
        w_eff = w * sw
        if float(np.sum(w_eff)) <= 0.0:
            break  # all curvature weights underflowed; nothing left to fit
        slopes, intercepts, sses = numerics.wls_fit_columns(X, z, w_eff)
        s = int(np.argmin(sses))  # ties resolve to the lowest feature index
        # The WLS normal equations make g a descent direction, but the full
        # Newton step can overshoot near an optimum; halve the step until
        # the risk does not increase (it terminates: small steps descend).
        g = slopes[s] * X[:, s] + intercepts[s]
        risk_now = trace.risks[-1]
        step = 1.0
        risk_new = _weighted_risk(sw, y, f + g)
        for _halving in range(40):
            if risk_new <= risk_now:
                break
            step *= 0.5
            risk_new = _weighted_risk(sw, y, f + step * g)
        else:
            step = 0.0
            risk_new = risk_now
        coef[s] += step * slopes[s]
        intercept += step * intercepts[s]
        f += step * g
        trace.selected_features.append(s)
        trace.risks.append(risk_new)

    return LinearScore(intercept=intercept, coefficients=coef), trace

