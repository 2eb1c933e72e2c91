import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbpmt import cart, data, numerics, pmt, probitboost
from sbpmt.probitboost import LinearScore


def reference_wls_columns(X, z, w):
    """Per-column WLS of the one-leaf loop below, on whole-column dot
    products (numerics.wls_fit_columns sums segment by segment)."""
    sw = float(np.sum(w))
    xm = (w @ X) / sw
    zm = float(np.dot(w, z)) / sw
    dz = z - zm
    sxx = np.maximum((w @ np.square(X)) - sw * np.square(xm), 0.0)
    szz = float(np.dot(w, dz * dz))
    sxz = (w * dz) @ X
    degenerate = sxx / sw < numerics._VAR_TOL
    slopes = np.where(degenerate, 0.0, sxz / np.where(degenerate, 1.0, sxx))
    return slopes, zm - slopes * xm, np.maximum(szz - slopes * sxz, 0.0)


def reference_probitboost(X, y, sample_weights, n_iter):
    """One leaf, one iteration at a time: the loop that fit_probitboost
    runs for all segments at once.  Returns (intercept, coef, risks)."""
    sw = sample_weights / float(np.sum(sample_weights))

    def risk(f):
        return float(np.dot(sw, numerics.probit_loss(y * f)))

    coef = np.zeros(X.shape[1])
    intercept = 0.0
    f = np.zeros(X.shape[0])
    risks = [risk(f)]
    for _ in range(n_iter):
        z, w = numerics.working_response_and_weight(y, f)
        slopes, intercepts, sses = reference_wls_columns(X, z, w * sw)
        s = int(np.argmin(sses))
        g = slopes[s] * X[:, s] + intercepts[s]
        step, risk_new = 1.0, risk(f + g)
        for _halving in range(40):
            if risk_new <= risks[-1]:
                break
            step *= 0.5
            risk_new = risk(f + step * g)
        else:
            step, risk_new = 0.0, risks[-1]
        coef[s] += step * slopes[s]
        intercept += step * intercepts[s]
        f += step * g
        risks.append(risk_new)
    return intercept, coef, risks


def reference_fit_pmt(X, y, n_classes, sample_weights, depth, min_leaf_size,
                      probit_iters):
    """fit_pmt leaf by leaf through reference_probitboost: (intercept (L, K),
    coef (L, K, p), probit_risk or None)."""
    w = sample_weights / float(np.sum(sample_weights))
    tree = cart.build_tree(X, y, n_classes, w, depth, min_leaf_size)
    leaf_rows = cart.flatten(tree)[-1]
    positive = [1] if n_classes == 2 else range(n_classes)
    intercept = np.zeros((len(leaf_rows), len(positive)))
    coef = np.zeros((len(leaf_rows), len(positive), X.shape[1]))
    risk = 0.0
    for lf, rows in enumerate(leaf_rows):
        lw, mass = w[rows], float(np.sum(w[rows]))
        if mass <= 0.0:
            lw, mass = np.ones(rows.size), 0.0
        for k, c in enumerate(positive):
            intercept[lf, k], coef[lf, k], risks = reference_probitboost(
                X[rows], np.where(y[rows] == c, 1.0, -1.0), lw, probit_iters)
        risk += mass * risks[-1]
    return intercept, coef, risk if n_classes == 2 else None


def reference_segmented_probitboost(X, y, sample_weights, n_iter, starts):
    """fit_probitboost as it was before segments froze: every iteration
    runs every segment's whole step search, even one that ended at step 0
    and so repeats its last search.  Columns are centred per segment as
    fit_probitboost centres them.  Returns (LinearScore,
    ProbitBoostTrace, stuck), stuck counting the (iteration, segment)
    pairs whose search ended at step 0."""
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    L = len(starts)
    counts = np.diff(starts, append=n)
    seg = np.repeat(np.arange(L), counts)
    mass = np.add.reduceat(sample_weights, starts)
    share = mass / float(np.sum(mass))
    empty = mass <= 0.0
    sw = np.where(empty[seg], 1.0 / counts[seg],
                  sample_weights / np.where(empty, 1.0, mass)[seg])
    mean = np.add.reduceat(sw[:, None] * X, starts)
    X = np.asfortranarray(X - mean[seg])

    def segment_risks(sw, y, f, starts):
        return np.add.reduceat(sw * numerics.probit_loss(y * f), starts)

    leaves = np.arange(L)
    coef = np.zeros((L, p))
    intercept = np.zeros(L)
    f = np.zeros(n)
    risk = segment_risks(sw, y, f, starts)
    leaf_risks, selected, stuck = [risk], [], 0
    for _ in range(n_iter):
        z, w = numerics.working_response_and_weight(y, f)
        slopes, intercepts, sses = numerics.wls_fit_columns(X, z, w * sw,
                                                            starts)
        s = np.argmin(sses, axis=1)
        a, b = slopes[leaves, s], intercepts[leaves, s]
        g = a[seg] * X[np.arange(n), s[seg]] + b[seg]
        step = np.ones(L)
        new = segment_risks(sw, y, f + g, starts)
        rising = new > risk
        for _halving in range(39):
            if not rising.any():
                break
            step[rising] *= 0.5
            rows = rising[seg]
            sub = counts[rising]
            new[rising] = segment_risks(
                sw[rows], y[rows], f[rows] + step[seg[rows]] * g[rows],
                np.cumsum(sub) - sub)
            rising &= new > risk
        stuck += int(np.sum(rising))
        step[rising] = 0.0
        new[rising] = risk[rising]
        coef[leaves, s] += step * a
        intercept += step * (b - a * mean[leaves, s])
        f += step[seg] * g
        risk = new
        selected.append(s)
        leaf_risks.append(risk)
    trace = probitboost.ProbitBoostTrace(
        risks=[float(np.sum(share * r)) for r in leaf_risks],
        selected_features=np.array(selected, dtype=int).reshape(n_iter, L),
        leaf_risks=np.array(leaf_risks))
    return LinearScore(intercept, coef), trace, stuck


def score_margin(score: LinearScore, x) -> float:
    """Margin of one row under a one-segment score, as a batch of one
    through a single-leaf PMT."""
    p = score.coefficients.shape[1]
    model = pmt.make_tree([-1], [0.0], score.intercept.reshape(1, 1),
                          score.coefficients.reshape(1, 1, p))
    X, _ = data.check_inputs(np.asarray(x, dtype=float)[None, :],
                             n_features=p)
    return float(pmt.margins(model, X)[0, 0, 0])


def separable_1d():
    X = np.array([[-1.0], [-1.0], [1.0], [1.0]])
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    return X, y


class TestFitProbitboost:
    def test_zero_iterations(self):
        X, y = separable_1d()
        score, trace = probitboost.fit_probitboost(X, y, np.ones(4), 0)
        assert score.intercept.tolist() == [0.0]
        assert score.coefficients.shape == (1, 1)
        assert np.all(score.coefficients == 0.0)
        assert trace.risks == [pytest.approx(math.log(2))]

    def test_capped_step_search_evaluates_each_step_once(self, monkeypatch):
        # every trial raises the risk, so the first iteration evaluates the
        # steps 1, 1/2, ..., 2^-39 once each and then keeps step 0; the
        # segment is then frozen, and each later iteration evaluates only
        # its all-rows step 1
        calls = []

        def rising(sw, y, f, starts):
            calls.append(f)
            return np.full(len(starts), float(len(calls) > 1))
        monkeypatch.setattr(probitboost, "_segment_risks", rising)
        X, y = separable_1d()
        score, trace = probitboost.fit_probitboost(X, y, np.ones(4), 3)
        assert len(calls) == 1 + 40 + 2
        assert np.all(score.coefficients == 0.0)
        assert np.all(score.intercept == 0.0)
        assert trace.risks == [0.0] * 4

    def test_separable_first_step(self):
        # at f=0 all z_i share sign with x_i, so step 1 fits a positive
        # slope and separates the data
        X, y = separable_1d()
        score, trace = probitboost.fit_probitboost(X, y, np.ones(4), 25)
        assert score.coefficients[0, 0] > 0
        margins = score.intercept[0] + X @ score.coefficients[0]
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
        np.testing.assert_allclose(s1.intercept, s2.intercept, rtol=1e-12)
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


def test_constant_offset_keeps_the_risk_path():
    # one-pass moments on uncentred columns cancel at this offset
    train, _ = data.simulate(data.SimConfig(seed=3, n_train=400, n_test=1))
    y = 2.0 * train.y - 1.0
    _, trace = probitboost.fit_probitboost(train.X, y, np.ones(400), 30)
    _, shifted = probitboost.fit_probitboost(train.X + 1e8, y, np.ones(400),
                                             30)
    np.testing.assert_allclose(shifted.risks, trace.risks, rtol=0, atol=1e-6)


class TestSegments:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_segmented_fit_equals_one_fit_per_segment(self, seed):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 30, size=int(rng.integers(1, 6)))
        n, p = int(sizes.sum()), int(rng.integers(1, 5))
        X = rng.normal(size=(n, p))
        X[:, 0] = np.round(X[:, 0])  # ties and constant segments
        y = rng.choice([-1.0, 1.0], size=n)
        w = rng.uniform(0.0, 2.0, size=n) * (rng.random(n) < 0.8)
        if seed % 3 == 0:
            w[:sizes[0]] = 0.0  # a segment without mass
        if not np.any(w > 0):
            w[-1] = 1.0
        starts = np.cumsum(sizes) - sizes
        n_iter = int(rng.integers(0, 25))
        score, trace = probitboost.fit_probitboost(X, y, w, n_iter, starts)
        assert trace.leaf_risks.shape == (n_iter + 1, sizes.size)
        assert trace.selected_features.shape == (n_iter, sizes.size)
        assert len(trace.risks) == n_iter + 1
        assert np.all(np.diff(trace.leaf_risks, axis=0) <= 0.0)
        assert np.all(np.diff(trace.risks) <= 0.0)
        for seg, (lo, size) in enumerate(zip(starts, sizes)):
            rows = slice(lo, lo + size)
            ww = w[rows] if np.any(w[rows] > 0) else np.ones(size)
            one, one_trace = probitboost.fit_probitboost(
                X[rows], y[rows], ww, n_iter)
            assert score.intercept[seg] == one.intercept[0]
            assert np.array_equal(score.coefficients[seg],
                                  one.coefficients[0])
            assert np.array_equal(trace.leaf_risks[:, seg], one_trace.risks)
            assert np.array_equal(trace.selected_features[:, seg],
                                  one_trace.selected_features[:, 0])

    def test_one_segment_matches_reference_loop(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n, p = int(rng.integers(5, 80)), int(rng.integers(1, 8))
            X = rng.normal(size=(n, p))
            y = rng.choice([-1.0, 1.0], size=n)
            w = rng.uniform(0.01, 2.0, size=n)
            score, trace = probitboost.fit_probitboost(X, y, w, 40)
            intercept, coef, risks = reference_probitboost(X, y, w, 40)
            np.testing.assert_allclose(trace.risks, risks, rtol=0, atol=1e-12)
            np.testing.assert_allclose(score.coefficients[0], coef,
                                       rtol=1e-6, atol=1e-12)
            assert score.intercept[0] == pytest.approx(intercept, rel=1e-6,
                                                       abs=1e-12)

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_fit_pmt_matches_leaf_by_leaf_reference(self, n_classes):
        train, _ = data.simulate(data.SimConfig(n_train=600, n_test=1,
                                                seed=4))
        X, y = train.X, train.y
        if n_classes == 3:
            y = np.where(X[:, 0] > 0.5, 2, y)
        w = np.random.default_rng(4).uniform(0.2, 1.0, size=y.size)
        w[y == 0] *= 3.0
        model = pmt.fit_pmt(X, y, n_classes, w, 3, 20, 60)
        intercept, coef, risk = reference_fit_pmt(X, y, n_classes, w, 3, 20,
                                                  60)
        assert model.intercept.shape[0] > 1
        np.testing.assert_allclose(model.intercept, intercept, rtol=1e-6,
                                   atol=1e-12)
        np.testing.assert_allclose(model.coef, coef, rtol=1e-6, atol=1e-12)
        if n_classes == 2:
            assert model.probit_risk == pytest.approx(risk, rel=0, abs=1e-12)
        else:
            assert model.probit_risk is None

    def test_frozen_segments_match_the_full_step_search(self):
        # the leaves of a sim-shaped tree, where some segments' step
        # searches end at step 0 and then repeat; skipping the repeats must
        # not change a bit of the score or the trace
        train, _ = data.simulate(data.SimConfig(n_train=100, n_test=1,
                                                seed=2))
        w = np.full(100, 0.01)
        tree = cart.build_tree(train.X, train.y, 2, w, 6, 20)
        leaf_rows = cart.flatten(tree)[-1]
        order = np.concatenate(leaf_rows)
        sizes = np.array([rows.size for rows in leaf_rows])
        X, y = train.X[order], np.where(train.y[order] == 1, 1.0, -1.0)
        starts = np.cumsum(sizes) - sizes
        score, trace = probitboost.fit_probitboost(X, y, w, 100, starts)
        ref, ref_trace, stuck = reference_segmented_probitboost(
            X, y, w, 100, starts)
        assert stuck > 0
        assert np.array_equal(score.intercept, ref.intercept)
        assert np.array_equal(score.coefficients, ref.coefficients)
        assert trace.risks == ref_trace.risks
        assert np.array_equal(trace.leaf_risks, ref_trace.leaf_risks)
        assert np.array_equal(trace.selected_features,
                              ref_trace.selected_features)

    def test_zero_mass_segment_gets_uniform_weights(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 2))
        y = rng.choice([-1.0, 1.0], size=30)
        w = rng.uniform(0.5, 1.0, size=30)
        w[10:20] = 0.0
        score, trace = probitboost.fit_probitboost(X, y, w, 5, [0, 10, 20])
        uniform, _ = probitboost.fit_probitboost(X[10:20], y[10:20],
                                                 np.ones(10), 5)
        assert np.array_equal(score.coefficients[1], uniform.coefficients[0])
        # the segment carries no mass in the summed risk
        share = np.array([w[:10].sum(), 0.0, w[20:].sum()]) / w.sum()
        assert trace.risks[-1] == pytest.approx(
            float(share @ trace.leaf_risks[-1]), rel=1e-14)

    @pytest.mark.parametrize("starts", [[1, 5], [0, 5, 5], [0, 12], [[0]],
                                        [0.0, 5.0], []])
    def test_bad_segment_starts_rejected(self, starts):
        X = np.zeros((10, 1))
        with pytest.raises(ValueError, match="segment starts"):
            probitboost.fit_probitboost(X, np.ones(10), np.ones(10), 1,
                                        starts)


class TestBoundaryChecks:
    @pytest.mark.parametrize("bad, message", [
        (np.nan, "finite"), (np.inf, "finite"), (-1.0, "nonnegative")])
    def test_bad_weight_rejected(self, bad, message):
        X, y = separable_1d()
        w = np.ones(4)
        w[2] = bad
        with pytest.raises(ValueError, match=message):
            probitboost.fit_probitboost(X, y, w, 3)
        with pytest.raises(ValueError, match=message):
            pmt.fit_pmt(X, (y > 0).astype(int), 2, w, 1, 1, 3)

    def test_negative_iteration_count_rejected(self):
        X, y = separable_1d()
        with pytest.raises(ValueError, match="^n_iter must be >= 0, got -1$"):
            probitboost.fit_probitboost(X, y, np.ones(4), -1)

    def test_weight_count_must_match_rows(self):
        X, y = separable_1d()
        with pytest.raises(ValueError, match="one sample weight per row"):
            probitboost.fit_probitboost(X, y, np.ones(3), 3)
        with pytest.raises(ValueError, match="one sample weight per row"):
            pmt.fit_pmt(X, (y > 0).astype(int), 2, np.ones(5), 1, 1, 3)

    def test_label_count_must_match_rows(self):
        X, y = separable_1d()
        with pytest.raises(ValueError, match="one integer class index"):
            probitboost.fit_probitboost(X, y[:3], np.ones(4), 3)

    def test_labels_outside_plus_minus_one_rejected(self):
        X, _ = separable_1d()
        with pytest.raises(ValueError, match="-1 or \\+1"):
            probitboost.fit_probitboost(X, np.array([0.0, 1.0, 0.0, 1.0]),
                                        np.ones(4), 3)

    def test_label_beyond_class_count_rejected(self):
        X, _ = separable_1d()
        with pytest.raises(ValueError, match="label 2 outside 0..1"):
            pmt.fit_pmt(X, np.array([0, 1, 2, 1]), 2, np.ones(4), 1, 1, 3)

    def test_non_finite_features_rejected(self):
        X, y = separable_1d()
        X[1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            probitboost.fit_probitboost(X, y, np.ones(4), 3)
        with pytest.raises(ValueError, match="non-finite"):
            pmt.fit_pmt(X, (y > 0).astype(int), 2, np.ones(4), 1, 1, 3)


class TestOneVersusAll:
    def test_two_class_antisymmetry(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        pos, _ = probitboost.fit_probitboost(X, y, np.ones(4), 15)
        neg, _ = probitboost.fit_probitboost(X, -y, np.ones(4), 15)
        np.testing.assert_allclose(neg.intercept, -pos.intercept, atol=1e-12)
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
        with pytest.raises(ValueError, match="n_classes must be >= 2, got 1"):
            pmt.fit_pmt(np.zeros((3, 1)), np.zeros(3, dtype=int), 1,
                        np.ones(3), depth=0, min_leaf_size=1, probit_iters=5)


class TestPredictMargin:
    def test_zero_score(self):
        s = LinearScore(intercept=np.zeros(1), coefficients=np.zeros((1, 3)))
        assert score_margin(s, [1.0, 2.0, 3.0]) == 0.0

    def test_unit_slope(self):
        s = LinearScore(intercept=np.array([0.5]),
                        coefficients=np.array([[1.0, 0.0]]))
        assert score_margin(s, [2.0, 9.0]) == pytest.approx(2.5)

    def test_matches_dot_product_on_fitted_model(self):
        X, y = separable_1d()
        score, _ = probitboost.fit_probitboost(X, y, np.ones(4), 5)
        x = np.array([0.37])
        expected = score.intercept[0] + score.coefficients[0, 0] * 0.37
        assert score_margin(score, x) == pytest.approx(expected)

    def test_dimension_mismatch(self):
        s = LinearScore(intercept=np.zeros(1), coefficients=np.zeros((1, 3)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            score_margin(s, [1.0, 2.0])
