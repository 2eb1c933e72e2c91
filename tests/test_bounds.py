import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from sbpmt import bounds, ensemble
from sbpmt.ensemble import SbpmtConfig

mpmath.mp.dps = 40


def brute_force_stats(subsets, n):
    """Independent pair counter for the coverage statistics."""
    M = len(subsets)
    R = [sum(1 for s in subsets if k in s) for k in range(n)]
    A = sum(r * r for r in R) / M**2
    B = 0.0
    for k in range(n):
        for l in range(n):
            if k != l:
                Rkl = sum(1 for s in subsets if k in s and l in s)
                B += Rkl * Rkl
    return R, A, B / M**2, max(R) / M


def make_design(subsets):
    return [np.asarray(sorted(s), dtype=int) for s in subsets]


class TestDesignStats:
    def test_hand_enumerated_overlap(self):
        stats = bounds.design_stats(make_design([{0, 1}, {1, 2}]), 3)
        assert stats.R.tolist() == [1, 2, 1]
        assert stats.A == pytest.approx(1.5)
        assert stats.B == pytest.approx(1.0)
        assert stats.C == pytest.approx(1.0)

    def test_single_full_subset(self):
        n = 5
        stats = bounds.design_stats(make_design([set(range(n))]), n)
        assert stats.A == pytest.approx(n)
        assert stats.B == pytest.approx(n * (n - 1))
        assert stats.C == pytest.approx(1.0)

    def test_disjoint_subsets(self):
        stats = bounds.design_stats(make_design([{0, 1}, {2, 3}]), 4)
        assert stats.B == pytest.approx(1.0)  # only within-subset pairs

    def test_coverage_sums_to_M_times_m(self):
        d = ensemble.draw_design(40, SbpmtConfig(M=7, alpha=0.6, seed=1))
        stats = bounds.design_stats(d, 40)
        assert int(stats.R.sum()) == 7 * 24

    def test_memory_grows_with_the_design_not_n_squared(self):
        design = ensemble.draw_design(6000, SbpmtConfig(
            M=21, alpha=0.7, seed=3))
        tracemalloc.start()
        try:
            stats = bounds.design_stats(design, 6000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20
        assert int(stats.R.sum()) == 21 * 4200

    def test_exhaustive_small_designs_match_brute_force(self):
        n = 4
        pool = [frozenset(c) for m in (0, 1, 2)
                for c in itertools.combinations(range(n), m)]
        for M in (1, 2):
            for combo in itertools.combinations_with_replacement(pool, M):
                stats = bounds.design_stats(make_design(list(combo)), n)
                R, A, B, C = brute_force_stats([set(s) for s in combo], n)
                assert stats.R.tolist() == R
                assert stats.A == A and stats.B == B and stats.C == C

    @pytest.mark.parametrize("subsets, n, message", [
        ([[0, 3]], 3, r"subset 0 holds row index 3, outside 0\.\.2"),
        ([[0, 1], [0, -1]], 3, r"subset 1 holds row index -1, outside 0\.\.2"),
        ([], 3, "need at least one subset, got none"),
        ([[]], 0, "n must be >= 1, got 0"),
    ])
    def test_subsets_outside_the_rows_rejected(self, subsets, n, message):
        with pytest.raises(ValueError, match=message):
            bounds.design_stats(subsets, n)

    @pytest.mark.parametrize("subsets, message", [
        # a repeated index was counted once: R = [1, 1] for 3 indices
        ([[0, 1], [0, 0, 1]], "subset 1 holds row index 0 more than once"),
        # these escaped as NumPy IndexError
        ([[0.5]], r"subset 0 must be a list of integer row indices, got "
                  r"\[0\.5\]"),
        ([[1], [True]], r"subset 1 must be a list of integer row indices"),
        # a bool among integers was read as row 1
        ([[0, True]], r"subset 0 must be a list of integer row indices"),
    ])
    def test_repeated_or_non_integer_index_rejected(self, subsets, message):
        with pytest.raises(ValueError, match=message):
            bounds.design_stats(subsets, 2)


def mp_theorem3(n, m, M, delta, p_sub, s1, beta, gamma):
    n, m, M = mpmath.mpf(n), mpmath.mpf(m), mpmath.mpf(M)
    log3d = mpmath.log(3 / mpmath.mpf(delta))
    c = 1 + 4 * mpmath.sqrt(log3d)
    QA = mpmath.sqrt(m**2 / n) + c * mpmath.sqrt(m / M)
    QB = m**2 / n + c * m / mpmath.sqrt(M)
    QC = m / n + (mpmath.sqrt(2 * m) + 3) / mpmath.sqrt(M) * log3d
    t = (mpmath.ceil(M / 2) - M / 2) / M + 1 - 2 * mpmath.mpf(p_sub)
    denom = (2 * QA**2 * s1 + QB**2 * mpmath.mpf(beta) / 2
             + (mpmath.sqrt(QB * gamma) + 4 * QC**2 / 3) * t)
    return QA, QB, QC, mpmath.exp(-t**2 / denom)


class TestTheorem3:
    def inputs(self, **kw):
        base = dict(n=100, m=70, M=21, delta=0.05, p_sub=0.2,
                    sigma1_sq=0.25, beta_kernel=1.0, gamma_kernel=1.0)
        base.update(kw)
        return base

    def test_q_values_against_oracle(self):
        rep = bounds.theorem3_bound(**self.inputs())
        QA, QB, QC, rhs = mp_theorem3(100, 70, 21, 0.05, 0.2, 0.25, 1.0, 1.0)
        assert rep.Q_A == pytest.approx(float(QA), rel=1e-12)
        assert rep.Q_B == pytest.approx(float(QB), rel=1e-12)
        assert rep.Q_C == pytest.approx(float(QC), rel=1e-12)
        assert rep.rhs == pytest.approx(float(rhs), rel=1e-12)
        assert rep.Q_A == pytest.approx(23.6028, abs=1e-3)

    def test_hypothesis_threshold(self):
        # ln^2(20000) ~ 98.08: M=98 fails the hypothesis, M=99 passes
        lo = bounds.theorem3_bound(**self.inputs(n=20000, m=700, M=98))
        hi = bounds.theorem3_bound(**self.inputs(n=20000, m=700, M=99))
        assert not lo.hypothesis_ok
        assert hi.hypothesis_ok
        assert lo.hypothesis_threshold == hi.hypothesis_threshold
        assert lo.hypothesis_threshold == math.log(20000) ** 2
        assert lo.hypothesis_threshold == pytest.approx(98.08, abs=0.01)
        degenerate = bounds.theorem3_bound(**self.inputs(p_sub=0.5, M=20))
        assert degenerate.hypothesis_threshold == math.log(100) ** 2

    def test_even_odd_margin_term(self):
        even = bounds.theorem3_bound(**self.inputs(M=20, p_sub=0.0))
        odd = bounds.theorem3_bound(**self.inputs(M=21, p_sub=0.0))
        # exponent margin is 1 for even M and 1 + 1/(2M) for odd M;
        # recover t from the degenerate boundary at p_sub = t0/2
        t_even = 0.0 / 20 + 1.0
        t_odd = 0.5 / 21 + 1.0
        assert even.rhs == pytest.approx(
            float(mp_theorem3(100, 70, 20, 0.05, 0.0, 0.25, 1, 1)[3]),
            rel=1e-12)
        assert odd.rhs == pytest.approx(
            float(mp_theorem3(100, 70, 21, 0.05, 0.0, 0.25, 1, 1)[3]),
            rel=1e-12)
        assert t_odd > t_even  # odd M gets the extra half-vote margin

    def test_monotone_increasing_in_p_sub(self):
        vals = [bounds.theorem3_bound(**self.inputs(p_sub=p)).rhs
                for p in np.linspace(0.0, 0.45, 10)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_weakly_decreasing_in_M(self):
        vals = [bounds.theorem3_bound(**self.inputs(M=M)).rhs
                for M in (11, 21, 51, 101, 201)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_degenerate_when_p_sub_half(self):
        rep = bounds.theorem3_bound(**self.inputs(M=20, p_sub=0.5))
        assert rep.degenerate and rep.rhs == 1.0
        assert not rep.hypothesis_ok

    def test_output_in_unit_interval_and_finite(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(10, 10_000))
            m = int(rng.integers(1, n + 1))
            rep = bounds.theorem3_bound(**self.inputs(
                n=n, m=m, M=int(rng.integers(1, 300)),
                delta=float(rng.uniform(0.01, 0.99)),
                p_sub=float(rng.uniform(0, 0.49)),
                sigma1_sq=float(rng.uniform(0, 2)),
                beta_kernel=float(rng.uniform(0, 2)),
                gamma_kernel=float(rng.uniform(0, 2))))
            assert 0.0 < rep.rhs <= 1.0
            assert all(map(math.isfinite, (rep.Q_A, rep.Q_B, rep.Q_C)))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="delta"):
            bounds.theorem3_bound(**self.inputs(delta=0.0))
        with pytest.raises(ValueError, match="exceed"):
            bounds.theorem3_bound(**self.inputs(m=101))
        with pytest.raises(ValueError, match="nonnegative"):
            bounds.theorem3_bound(**self.inputs(sigma1_sq=-1.0))

    @pytest.mark.parametrize("field, value, message", [
        ("p_sub", math.nan, "p_sub"), ("p_sub", -3.0, "p_sub"),
        ("p_sub", 1.5, "p_sub"), ("sigma1_sq", math.nan, "finite"),
        ("beta_kernel", math.inf, "finite"),
        ("gamma_kernel", math.nan, "finite"),
        ("n", 0, "^n must be >= 1, got 0$"),
        ("m", 0, "^m must be >= 1, got 0$"),
        ("m", -5, "^m must be >= 1, got -5$"),
        ("M", 0, "^M must be >= 1, got 0$"),
        ("M", -3, "^M must be >= 1, got -3$")])
    def test_non_finite_or_out_of_range_inputs(self, field, value, message):
        # NaN fails every comparison, so each range test must accept,
        # not reject
        with pytest.raises(ValueError, match=message):
            bounds.theorem3_bound(**self.inputs(**{field: value}))


class TestDelta:
    """delta is keyword-only with one default, bounds.DELTA."""

    def test_default_is_delta(self):
        assert bounds.DELTA == 0.05
        t3 = dict(n=100, m=70, M=21, p_sub=0.2, sigma1_sq=0.25,
                  beta_kernel=1.0, gamma_kernel=1.0)
        assert (bounds.theorem3_bound(**t3)
                == bounds.theorem3_bound(**t3, delta=0.05))
        assert (bounds.theorem4_bound(1000, 5, 20, 0.1)
                == bounds.theorem4_bound(1000, 5, 20, 0.1, delta=0.05))
        assert (bounds.theorem6_bound([0.1], 1000, 20)
                == bounds.theorem6_bound([0.1], 1000, 20, delta=0.05))

    def test_positional_delta_raises(self):
        # the old order put delta before empirical_error; a positional call
        # in that order must fail, not swap the two
        with pytest.raises(TypeError):
            bounds.theorem4_bound(1000, 5, 20, 0.05, 0.1)
        with pytest.raises(TypeError):
            bounds.theorem6_bound([0.1], 1000, 20, 0.05)
        with pytest.raises(TypeError):
            bounds.theorem3_bound(100, 70, 21, 0.05, 0.2, 0.25, 1.0, 1.0)


class TestTheorem4:
    def test_oracle_value(self):
        e = mpmath.e
        inner = (5 * mpmath.log(200 * e) + 20 * mpmath.log(50 * e)
                 + mpmath.log(160))
        oracle = float(mpmath.sqrt(32 * inner / 1000))
        got = bounds.theorem4_bound(1000, 5, 20, 0.0, delta=0.05)
        assert got == pytest.approx(oracle, rel=1e-12)

    def test_edge_log_terms_equal_one(self):
        # T = d_vc = n makes both ln(en/.) terms exactly 1
        got = bounds.theorem4_bound(100, 100, 100, 0.25, delta=0.5)
        expected = 0.25 + math.sqrt(32 * (100 + 100 + math.log(16)) / 100)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_T(self):
        vals = [bounds.theorem4_bound(1000, T, 20, 0.0, delta=0.05)
                for T in range(1, 50)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_additive_in_empirical_error(self):
        a = bounds.theorem4_bound(1000, 5, 20, 0.0, delta=0.05)
        b = bounds.theorem4_bound(1000, 5, 20, 0.3, delta=0.05)
        assert b - a == pytest.approx(0.3, rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="n >= max"):
            bounds.theorem4_bound(10, 20, 5, 0.0, delta=0.05)
        with pytest.raises(ValueError, match="delta"):
            bounds.theorem4_bound(100, 5, 5, 0.0, delta=1.5)
        for T in (0, -1):
            with pytest.raises(ValueError, match="T must be >= 1"):
                bounds.theorem4_bound(100, T, 3, 0.1, delta=0.05)
        with pytest.raises(ValueError, match="d_vc must be >= 1"):
            bounds.theorem4_bound(100, 5, 0, 0.1, delta=0.05)

    @pytest.mark.parametrize("error", [math.nan, math.inf, -0.1, 1.5])
    def test_empirical_error_must_be_a_rate(self, error):
        with pytest.raises(ValueError, match="empirical error"):
            bounds.theorem4_bound(1000, 5, 20, error, delta=0.05)


class TestTheorem5:
    def test_all_half_is_one(self):
        assert bounds.theorem5_bound([0.5, 0.5, 0.5], 0.0) == pytest.approx(1.0)

    def test_single_quarter(self):
        assert bounds.theorem5_bound([0.25], 0.0) == pytest.approx(
            2 * math.sqrt(0.1875), rel=1e-14)

    def test_oracle_random_vector(self):
        errs = [0.1, 0.3, 0.45, 0.2]
        theta = 0.05
        oracle = mpmath.mpf(2) ** 4
        for e in errs:
            e = mpmath.mpf(e)
            oracle *= mpmath.sqrt(e ** (1 - theta) * (1 - e) ** (1 + theta))
        got = bounds.theorem5_bound(errs, theta)
        assert got == pytest.approx(float(oracle), rel=1e-12)

    def test_dominated_by_exponential_form(self):
        # 2 sqrt(e(1-e)) = sqrt(1 - 4 g^2) <= exp(-2 g^2) with g = 1/2 - e,
        # so the product bound is the tighter link in the chain
        rng = np.random.default_rng(3)
        for _ in range(100):
            errs = rng.uniform(0.01, 0.49, size=rng.integers(1, 8))
            prod = bounds.theorem5_bound(errs, 0.0)
            expo = math.exp(-2 * np.sum((0.5 - errs) ** 2))
            assert prod <= expo + 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            bounds.theorem5_bound([0.2, 1.2], 0.0)
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            bounds.theorem5_bound([math.nan, 0.2], 0.0)
        with pytest.raises(ValueError, match="theta"):
            bounds.theorem5_bound([0.2], math.nan)

    def test_rejects_no_rounds_and_non_vector_input(self):
        # [] gave 1.0 and a 2-D list was flattened (0.264)
        with pytest.raises(ValueError,
                           match="^stage errors must not be empty$"):
            bounds.theorem5_bound([])
        with pytest.raises(ValueError, match=r"stage errors must be a 1-D "
                                             r"list, got shape \(2, 2\)"):
            bounds.theorem5_bound([[0.1, 0.2], [0.3, 0.1]])
        with pytest.raises(ValueError, match=r"got shape \(\)"):
            bounds.theorem5_bound(0.3)

    @pytest.mark.parametrize("theta", [2.0, -3.0, 1.0 + 1e-12, -1.5,
                                       math.inf, -math.inf])
    def test_rejects_theta_outside_margin_range(self, theta):
        # a normalized margin lies in [-1, 1]; beyond it an error of 0 or 1
        # gives an infinite factor (theta 2) or a meaningless one (theta -3)
        with pytest.raises(ValueError, match=r"theta must lie in \[-1, 1\]"):
            bounds.theorem5_bound([0.0, 0.1], theta)

    @pytest.mark.parametrize("theta", [-1.0, 1.0])
    def test_theta_range_ends_stay_finite(self, theta):
        errs = [0.0, 0.1, 1.0]
        got = bounds.theorem5_bound(errs, theta)
        assert math.isfinite(got)
        assert got == pytest.approx(8 * np.prod(
            [math.sqrt(e ** (1 - theta) * (1 - e) ** (1 + theta))
             for e in errs]))


class TestTheorem6:
    def test_zero_risks(self):
        rep = bounds.theorem6_bound([0.0] * 4, 1000, 20, delta=0.05)
        assert rep.hypothesis_ok
        assert rep.training_term == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert rep.total == pytest.approx(
            rep.training_term
            + bounds.theorem4_bound(1000, 4, 20, 0.0, delta=0.05))

    def test_quarter_ln2_risks(self):
        T = 8
        rep = bounds.theorem6_bound([math.log(2) / 4] * T, 1000, 20,
                                    delta=0.05)
        assert rep.training_term == pytest.approx(math.exp(-T / 8), rel=1e-12)

    def test_hypothesis_violation_flags_and_caps(self):
        rep = bounds.theorem6_bound([0.5, 0.8], 1000, 20, delta=0.05)
        assert not rep.hypothesis_ok
        assert rep.training_term == 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_risk_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            bounds.theorem6_bound([0.1, bad], 1000, 20, delta=0.05)

    def test_zero_rounds_or_dimension_rejected(self):
        with pytest.raises(ValueError,
                           match="^probit risks must not be empty$"):
            bounds.theorem6_bound([], 100, 3, delta=0.05)
        with pytest.raises(ValueError, match="d_vc must be >= 1"):
            bounds.theorem6_bound([0.1], 100, 0, delta=0.05)

    def test_non_vector_risks_rejected(self):
        with pytest.raises(ValueError, match=r"probit risks must be a 1-D "
                                             r"list, got shape \(2, 2\)"):
            bounds.theorem6_bound([[0.1, 0.2], [0.3, 0.1]], 1000, 20)

    def test_round_count_is_the_number_of_risks(self):
        # the complexity term is theorem 4's at T = len(probit_risks)
        for T in (1, 3, 7):
            rep = bounds.theorem6_bound([0.1] * T, 1000, 20, delta=0.05)
            assert rep.complexity_term == bounds.theorem4_bound(
                1000, T, 20, 0.0, delta=0.05)
        with pytest.raises(ValueError, match=r"requires n >= max\(d_vc, T\)"):
            bounds.theorem6_bound([0.1] * 6, 5, 2, delta=0.05)

    def test_oracle_value(self):
        risks = [0.05, 0.12, 0.30]
        gammas = [mpmath.mpf("0.5") - mpmath.mpf(r) / mpmath.log(2)
                  for r in risks]
        oracle = mpmath.exp(-2 * sum(g * g for g in gammas))
        rep = bounds.theorem6_bound(risks, 500, 10, delta=0.1)
        assert rep.training_term == pytest.approx(float(oracle), rel=1e-12)


class TestEstimatePSub:
    def fit_toy(self, **kw):
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, size=(200, 2))
        y = (X[:, 0] > 0).astype(int)
        params = dict(M=3, T=2, B=3, alpha=0.5, depth=1,
                      min_leaf_size=5, seed=0)
        params.update(kw)
        cfg = SbpmtConfig(**params)
        return ensemble.fit_sbpmt(X, y, 2, cfg), X, y

    def test_manual_count_matches(self):
        model, X, y = self.fit_toy()
        got = bounds.estimate_p_sub(model, X, y)
        rates = []
        for member, subset in zip(model.members, model.design):
            out = np.setdiff1d(np.arange(200), subset)
            preds = ensemble.Committee.of([member]).predict(X[out])
            rates.append(np.mean(preds != y[out]))
        assert got == pytest.approx(np.mean(rates), rel=1e-14)
        assert 0.0 <= got <= 1.0

    def test_rows_that_cannot_be_the_training_set_rejected(self):
        model, X, y = self.fit_toy()
        # alpha = 0.5: 190 rows would need subsets of 95, not 100
        with pytest.raises(ValueError, match="190 rows cannot be"):
            bounds.estimate_p_sub(model, X[:190], y[:190])
        model.design[0, -1] = 200  # an index past the last row
        with pytest.raises(ValueError, match="200 rows cannot be"):
            bounds.estimate_p_sub(model, X, y)

    def test_easy_problem_near_zero(self):
        model, X, y = self.fit_toy()
        assert bounds.estimate_p_sub(model, X, y) < 0.1

    def test_alpha_one_warns_and_falls_back(self):
        model, X, y = self.fit_toy(alpha=1.0)
        with pytest.warns(UserWarning, match="alpha = 1"):
            p = bounds.estimate_p_sub(model, X, y)
        assert 0.0 <= p <= 1.0


# (calculator, a valid call, its real-valued arguments and their values)
REALS = [
    (bounds.theorem3_bound,
     dict(n=1000, m=700, M=21, p_sub=0.1, sigma1_sq=0.25, beta_kernel=1.0,
          gamma_kernel=1.0, delta=0.05),
     ("p_sub", "sigma1_sq", "beta_kernel", "gamma_kernel", "delta")),
    (bounds.theorem4_bound,
     dict(n=1000, T=5, d_vc=20, empirical_error=0.1, delta=0.05),
     ("empirical_error", "delta")),
    (bounds.theorem5_bound, dict(errors=[0.1, 0.3], theta=0.2), ("theta",)),
    (bounds.theorem6_bound, dict(probit_risks=[0.1], n=1000, d_vc=20,
                                 delta=0.05), ("delta",)),
]


class TestRealArguments:
    """A real-valued argument is a Python or NumPy real, not a bool."""

    @pytest.mark.parametrize("fn, kwargs, arg, bad", [
        pytest.param(fn, kwargs, arg, bad,
                     id=f"{fn.__name__}-{arg}-{bad!r}")
        for fn, kwargs, args in REALS for arg in args
        for bad in (None, "0", True, [0.1])])
    def test_non_number_rejected_naming_it(self, fn, kwargs, arg, bad):
        with pytest.raises(ValueError, match=f"^{arg} must be a real number"):
            fn(**dict(kwargs, **{arg: bad}))

    @pytest.mark.parametrize("fn, kwargs, args", [
        pytest.param(*row, id=row[0].__name__) for row in REALS])
    def test_numpy_reals_accepted(self, fn, kwargs, args):
        assert fn(**dict(kwargs, **{a: np.float64(kwargs[a])
                                    for a in args})) == fn(**kwargs)
