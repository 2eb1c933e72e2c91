import math

import numpy as np
import pytest

from sbpmt import data, pmt, probitboost
from sbpmt.probitboost import LinearScore


def score_margin(score: LinearScore, x) -> float:
    """Margin of one row, as a batch of one through a single-leaf PMT."""
    p = score.coefficients.size
    model = pmt.PmtModel(
        feature=np.zeros(1, dtype=int), threshold=np.zeros(1),
        left=np.zeros(1, dtype=int), right=np.zeros(1, dtype=int),
        leaf=np.zeros(1, dtype=int), intercept=np.array([[score.intercept]]),
        coef=score.coefficients.reshape(1, 1, p), n_classes=2, depth=0)
    X, _ = data.check_inputs(np.asarray(x, dtype=float)[None, :],
                             n_features=p)
    return float(pmt.margins(model, [0], X)[0, 0, 0])


def separable_1d():
    X = np.array([[-1.0], [-1.0], [1.0], [1.0]])
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    return X, y


class TestFitProbitboost:
    def test_zero_iterations(self):
        X, y = separable_1d()
        score, trace = probitboost.fit_probitboost(X, y, np.ones(4), 0)
        assert score.intercept == 0.0
        assert np.all(score.coefficients == 0.0)
        assert trace.risks == [pytest.approx(math.log(2))]

    def test_separable_first_step(self):
        # at f=0 all z_i share sign with x_i, so step 1 fits a positive
        # slope and separates the data
        X, y = separable_1d()
        score, trace = probitboost.fit_probitboost(X, y, np.ones(4), 25)
        assert score.coefficients[0] > 0
        margins = score.intercept + X @ score.coefficients
        assert np.all(np.sign(margins) == y)
        risks = np.array(trace.risks)
        assert np.all(np.diff(risks) <= 1e-9)
        assert np.all(np.diff(risks)[:5] < 0)  # strictly decreasing early on

    def test_risk_monotone_on_random_data(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, p = int(rng.integers(5, 60)), int(rng.integers(1, 6))
            X = rng.normal(size=(n, p))
            y = rng.choice([-1.0, 1.0], size=n)
            w = rng.uniform(0.01, 2.0, size=n)
            _, trace = probitboost.fit_probitboost(X, y, w, 30)
            risks = np.array(trace.risks)
            assert np.all(np.diff(risks) <= 1e-9)

    def test_one_feature_per_step_sparsity(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 8))
        y = rng.choice([-1.0, 1.0], size=50)
        for b in (0, 1, 3, 5):
            score, _ = probitboost.fit_probitboost(X, y, np.ones(50), b)
            assert np.count_nonzero(score.coefficients) <= min(b, 8)

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 4))
        y = rng.choice([-1.0, 1.0], size=30)
        w = rng.uniform(0.1, 1.0, size=30)
        s1, _ = probitboost.fit_probitboost(X, y, w, 10)
        s2, _ = probitboost.fit_probitboost(X, y, 37.5 * w, 10)
        assert s1.intercept == pytest.approx(s2.intercept, rel=1e-12)
        np.testing.assert_allclose(s1.coefficients, s2.coefficients,
                                   rtol=1e-12, atol=1e-15)

    def test_argmin_tie_prefers_lower_feature(self):
        # duplicated feature -> identical SSE; index 0 must win
        X = np.array([[-1.0, -1.0], [1.0, 1.0], [-1.0, -1.0], [1.0, 1.0]])
        y = np.array([-1.0, 1.0, -1.0, 1.0])
        _, trace = probitboost.fit_probitboost(X, y, np.ones(4), 3)
        assert all(s == 0 for s in trace.selected_features)

    def test_single_class_is_legal(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.ones(3)
        score, trace = probitboost.fit_probitboost(X, y, np.ones(3), 50)
        assert trace.risks[-1] < trace.risks[0]
        assert np.all(np.isfinite(score.coefficients))

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            probitboost.fit_probitboost(np.zeros((0, 2)), np.zeros(0),
                                        np.zeros(0), 5)

    def test_zero_weight_rows_ignored_by_fit(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(20, 3))
        y = rng.choice([-1.0, 1.0], size=20)
        w = np.ones(20)
        w[10:] = 0.0
        s1, _ = probitboost.fit_probitboost(X, y, w, 8)
        s2, _ = probitboost.fit_probitboost(X[:10], y[:10], np.ones(10), 8)
        np.testing.assert_allclose(s1.coefficients, s2.coefficients,
                                   rtol=1e-12)


class TestOneVersusAll:
    def test_two_class_antisymmetry(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        pos, _ = probitboost.fit_probitboost(X, y, np.ones(4), 15)
        neg, _ = probitboost.fit_probitboost(X, -y, np.ones(4), 15)
        assert neg.intercept == pytest.approx(-pos.intercept, abs=1e-12)
        np.testing.assert_allclose(neg.coefficients, -pos.coefficients,
                                   atol=1e-12)

    def test_zero_iterations_all_zero(self):
        X = np.zeros((6, 2))
        labels = np.array([0, 1, 2, 0, 1, 2])
        model = pmt.fit_pmt(X, labels, 3, np.ones(6), depth=0,
                            min_leaf_size=1, probit_iters=0)
        assert model.intercept.shape == (1, 3)
        assert np.all(model.intercept == 0.0) and np.all(model.coef == 0.0)

    def test_three_blobs_separable(self):
        rng = np.random.default_rng(21)
        centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
        X = np.vstack([c + 0.3 * rng.normal(size=(20, 2)) for c in centers])
        labels = np.repeat([0, 1, 2], 20)
        model = pmt.fit_pmt(X, labels, 3, np.ones(60), depth=0,
                            min_leaf_size=1, probit_iters=50)
        assert model.coef.shape == (1, 3, 2)
        assert np.array_equal(pmt.predict_pmt_many(model, X), labels)

    def test_single_class_count_rejected(self):
        with pytest.raises(ValueError, match="2 classes"):
            pmt.fit_pmt(np.zeros((3, 1)), np.zeros(3, dtype=int), 1,
                        np.ones(3), depth=0, min_leaf_size=1, probit_iters=5)


class TestPredictMargin:
    def test_zero_score(self):
        s = LinearScore(intercept=0.0, coefficients=np.zeros(3))
        assert score_margin(s, [1.0, 2.0, 3.0]) == 0.0

    def test_unit_slope(self):
        s = LinearScore(intercept=0.5, coefficients=np.array([1.0, 0.0]))
        assert score_margin(s, [2.0, 9.0]) == pytest.approx(2.5)

    def test_matches_dot_product_on_fitted_model(self):
        X, y = separable_1d()
        score, _ = probitboost.fit_probitboost(X, y, np.ones(4), 5)
        x = np.array([0.37])
        expected = score.intercept + score.coefficients[0] * 0.37
        assert score_margin(score, x) == pytest.approx(expected)

    def test_dimension_mismatch(self):
        s = LinearScore(intercept=0.0, coefficients=np.zeros(3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            score_margin(s, [1.0, 2.0])
