import math
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbpmt import numerics

mpmath.mp.dps = 40


def mp_inv_mills(u):
    return mpmath.npdf(u) / mpmath.ncdf(u)


def phi(u):
    """Standard normal density as the kernel evaluates it, r(u) Phi(u)."""
    return numerics.inv_mills(u) * Phi(u)


def Phi(u):
    """Standard normal cdf as the kernel evaluates it, exp(-Q(u))."""
    return np.exp(-numerics.probit_loss(u))


class TestNormPdf:
    def test_at_zero(self):
        assert phi(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi),
                                         rel=1e-15)

    def test_against_oracle(self):
        assert phi(1.0) == pytest.approx(float(mpmath.npdf(1)), rel=1e-15)

    def test_even_symmetry(self):
        u = np.linspace(-8, 8, 101)
        np.testing.assert_allclose(phi(u), phi(-u), rtol=1e-13)


class TestNormCdf:
    def test_at_zero(self):
        assert Phi(0.0) == 0.5

    def test_quantile_oracle(self):
        # 97.5% quantile from a high-precision inverse
        q = float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf("0.975") - 1))
        assert Phi(q) == pytest.approx(0.975, rel=1e-12)

    def test_deep_tail_relative_accuracy(self):
        oracle = float(mpmath.ncdf(-8))
        assert Phi(-8.0) == pytest.approx(oracle, rel=1e-13)

    def test_monotone(self):
        u = np.linspace(-10, 10, 2001)
        assert np.all(np.diff(Phi(u)) >= 0)


class TestInvMills:
    def test_at_zero(self):
        assert numerics.inv_mills(0.0) == pytest.approx(
            2 / math.sqrt(2 * math.pi), rel=1e-15)

    @pytest.mark.parametrize("u", [-8.0, -3.0, -0.5, 0.7, 4.0, 8.0])
    def test_against_oracle(self, u):
        assert numerics.inv_mills(u) == pytest.approx(
            float(mp_inv_mills(u)), rel=1e-13)

    def test_negative_tail_asymptote(self):
        # r(u) ~ -u + 1/(-u) as u -> -inf
        assert numerics.inv_mills(-8.0) == pytest.approx(8 + 1 / 8, rel=5e-3)

    def test_strictly_decreasing_and_positive(self):
        u = np.linspace(-40, 40, 4001)
        r = numerics.inv_mills(u)
        assert np.all(r >= 0)  # underflows to 0 in the far right tail
        assert np.all(np.diff(r) <= 0)
        core = np.linspace(-20, 20, 2001)
        rc = numerics.inv_mills(core)
        assert np.all(rc > 0)
        assert np.all(np.diff(rc) < 0)


class TestProbitLoss:
    def test_at_zero(self):
        assert numerics.probit_loss(0.0) == pytest.approx(math.log(2),
                                                          rel=1e-15)

    def test_deep_tail_oracle(self):
        oracle = float(-mpmath.log(mpmath.ncdf(-8)))
        assert numerics.probit_loss(-8.0) == pytest.approx(oracle, rel=1e-13)

    def test_indicator_lower_bound(self):
        u = np.arange(-8.0, 8.0 + 1e-9, 1e-3)
        q = numerics.probit_loss(u)
        assert np.all((u <= 0).astype(float) <= q / numerics.LN2)

    def test_curvature_signs(self):
        # Q'' > 0 and Q''' < 0 via central finite differences
        h = 1e-3
        u = np.arange(-8.0 - 2 * h, 8.0 + 2 * h + 1e-12, h)
        q = numerics.probit_loss(u)
        d2 = q[:-2] - 2 * q[1:-1] + q[2:]
        assert np.all(d2 > -1e-6 * h * h)
        assert np.mean(d2 > 0) > 0.999
        d3 = q[3:] - 3 * q[2:-1] + 3 * q[1:-2] - q[:-3]
        assert np.all(d3 < 1e-6 * h**3)


class TestWorkingResponseAndWeight:
    def test_at_zero_margin(self):
        r0 = 2 / math.sqrt(2 * math.pi)
        z, w = numerics.working_response_and_weight(1.0, 0.0)
        assert z == pytest.approx(1.0 / r0, rel=1e-14)
        assert w == pytest.approx(r0 * r0, rel=1e-14)

    def test_sign_antisymmetry(self):
        zp, wp = numerics.working_response_and_weight(1.0, 0.0)
        zn, wn = numerics.working_response_and_weight(-1.0, 0.0)
        assert zn == -zp and wn == wp

    def test_saturated_margin_oracle(self):
        r8 = mp_inv_mills(8)
        z, w = numerics.working_response_and_weight(1.0, 8.0)
        assert z == pytest.approx(float(1 / (8 + r8)), rel=1e-12)
        assert w == pytest.approx(float(r8 * (8 + r8)), rel=1e-12)

    def test_clamp_beyond_u_max(self):
        z_in, w_in = numerics.working_response_and_weight(1.0, 8.0)
        z_out, w_out = numerics.working_response_and_weight(1.0, 1e6)
        assert z_out == z_in and w_out == w_in

    def test_weight_floor_at_the_clamp(self):
        # The smallest weight any margin can get is w(+U_MAX) ~ 4.04e-14,
        # so a ProbitBoost segment with normalized sample weights always
        # has positive curvature mass and never needs an underflow stop.
        u = np.array([numerics.U_MAX, -numerics.U_MAX, 1e300, -1e300])
        _, w = numerics.working_response_and_weight(np.ones(4), u)
        assert np.all(w >= 4.0e-14)
        assert w[0] == np.min(w) == w[2]

    @given(st.sampled_from([-1.0, 1.0]),
           st.floats(min_value=-50, max_value=50))
    @settings(max_examples=300, deadline=None)
    def test_weight_positive_and_z_points_right(self, y, f):
        z, w = numerics.working_response_and_weight(y, f)
        assert np.isfinite(z) and np.isfinite(w)
        assert w > 0
        assert z * y > 0


@dataclass(frozen=True)
class WlsFit:
    """Weighted simple-regression fit z ~ slope*x + intercept."""

    slope: float
    intercept: float
    weighted_sse: float


def wls_fit(x, z, w) -> WlsFit:
    """Scalar reference for wls_fit_columns: the weighted least squares
    of z on a single feature x, from centred sums.  A feature whose
    weighted variance falls below numerics._VAR_TOL gets slope 0 and the
    weighted mean of z."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    if x.size == 0:
        raise ValueError("empty regression")
    sw = float(np.sum(w))
    if sw <= 0.0:
        raise ValueError("total weight must be positive")
    xm = float(np.dot(w, x)) / sw
    zm = float(np.dot(w, z)) / sw
    dx = x - xm
    dz = z - zm
    sxx = float(np.dot(w, dx * dx))
    szz = float(np.dot(w, dz * dz))
    if sxx / sw < numerics._VAR_TOL:
        return WlsFit(slope=0.0, intercept=zm, weighted_sse=szz)
    sxz = float(np.dot(w, dx * dz))
    slope = sxz / sxx
    sse = max(szz - slope * sxz, 0.0)
    return WlsFit(slope=slope, intercept=zm - slope * xm, weighted_sse=sse)


class TestWlsFit:
    def test_exact_interpolation(self):
        fit = wls_fit([0, 1], [0, 1], [1, 1])
        assert fit.slope == pytest.approx(1.0)
        assert fit.intercept == pytest.approx(0.0)
        assert fit.weighted_sse == pytest.approx(0.0, abs=1e-14)

    def test_constant_feature_returns_weighted_mean(self):
        fit = wls_fit([0, 0, 0], [1, 2, 3], [1, 1, 1])
        assert fit.slope == 0.0
        assert fit.intercept == pytest.approx(2.0)
        assert fit.weighted_sse == pytest.approx(2.0)

    def test_hand_solved_normal_equations(self):
        # 9a + 5b = 5, 5a + 4b = 3  =>  a = 5/11, b = 2/11, sse = 2/11
        fit = wls_fit([0, 1, 2], [0, 1, 1], [1, 1, 2])
        assert fit.slope == pytest.approx(5 / 11, rel=1e-14)
        assert fit.intercept == pytest.approx(2 / 11, rel=1e-14)
        assert fit.weighted_sse == pytest.approx(2 / 11, rel=1e-13)

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty regression"):
            wls_fit([], [], [])

    def test_matches_lstsq_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = rng.integers(2, 30)
            x = rng.normal(size=n)
            z = rng.normal(size=n)
            w = rng.uniform(0.1, 2.0, size=n)
            fit = wls_fit(x, z, w)
            design = np.column_stack([x, np.ones(n)]) * np.sqrt(w)[:, None]
            coef, *_ = np.linalg.lstsq(design, z * np.sqrt(w), rcond=None)
            assert fit.slope == pytest.approx(coef[0], rel=1e-9, abs=1e-9)
            assert fit.intercept == pytest.approx(coef[1], rel=1e-9, abs=1e-9)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_minimal_over_random_competitors(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 20))
        x = rng.normal(size=n)
        z = rng.normal(size=n)
        w = rng.uniform(0.01, 3.0, size=n)
        fit = wls_fit(x, z, w)
        for _ in range(20):
            a = fit.slope + rng.normal(scale=0.5)
            b = fit.intercept + rng.normal(scale=0.5)
            sse = float(np.sum(w * (z - a * x - b) ** 2))
            assert fit.weighted_sse <= sse + 1e-9

    def test_columns_variant_matches_scalar(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 6))
        X[:, 3] = 2.5  # constant column exercises the degenerate rule
        X[13:27, 4] = -1.0  # constant in the middle segment only
        z = rng.normal(size=40)
        w = rng.uniform(0.05, 1.0, size=40)
        for starts in ((0,), (0, 13, 27)):
            slopes, intercepts, sses = numerics.wls_fit_columns(X, z, w,
                                                                starts)
            assert slopes.shape == (len(starts), 6)
            bounds = list(starts) + [40]
            for seg, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                for j in range(6):
                    fit = wls_fit(X[lo:hi, j], z[lo:hi], w[lo:hi])
                    assert slopes[seg, j] == pytest.approx(
                        fit.slope, rel=1e-10, abs=1e-12)
                    assert intercepts[seg, j] == pytest.approx(
                        fit.intercept, rel=1e-10, abs=1e-12)
                    assert sses[seg, j] == pytest.approx(
                        fit.weighted_sse, rel=1e-9, abs=1e-9)

    def test_segment_without_weight_rejected(self):
        X = np.ones((4, 1))
        w = np.array([1.0, 1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="every segment"):
            numerics.wls_fit_columns(X, np.zeros(4), w, (0, 2))
