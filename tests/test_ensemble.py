import dataclasses
import math
import multiprocessing
import os
import re

import numpy as np
import pytest

from sbpmt import bounds, cart, data, ensemble, model_io, pmt, probitboost
from sbpmt.ensemble import SbpmtConfig


def xor_data(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
    return X, y


def reference_member_classes(model, X):
    """Loop reference: each member's stage-weighted vote, shape (n, M),
    ties to the smallest class index."""
    columns = []
    for member in model.members:
        votes = np.zeros((X.shape[0], model.n_classes))
        for stage in member.stages:
            preds = pmt.predict_pmt_many(stage.model, X)
            votes[np.arange(X.shape[0]), preds] += stage.alpha
        columns.append(np.argmax(votes, axis=1))
    return np.stack(columns, axis=1)


def reference_vote(model, X):
    """Loop reference: a count of member outputs, ties to the smallest
    class index."""
    member_classes = reference_member_classes(model, X)
    counts = np.stack([(member_classes == c).sum(axis=1)
                       for c in range(model.n_classes)], axis=1)
    return np.argmax(counts, axis=1)


def add_at_vote(committee, X):
    """np.add.at reference for Committee.member_classes and predict: the
    (n, M) member classes and the (n,) majority."""
    cls = pmt.tree_classes(committee.trees, X)
    n, M, J = cls.shape[0], committee.member[-1] + 1, committee.trees.n_classes
    votes = np.zeros((n, M, J))
    np.add.at(votes, (np.arange(n)[:, None], committee.member, cls),
              committee.alpha)
    members = votes.argmax(axis=2)
    counts = np.zeros((n, J))
    np.add.at(counts, (np.arange(n)[:, None], members), 1)
    return members, counts.argmax(axis=1), votes, counts


def random_committee(n_classes, M, T, seed):
    """M members of T trees each: one-leaf trees and stumps on two
    features, with integer leaf margins (so every class is voted) and
    alphas from a few values whose sums tie exactly (0.25 + 0.5 == 0.75)
    or depend on the order of addition (0.1 + 0.2 != 0.3)."""
    rng = np.random.default_rng(seed)
    K = 1 if n_classes == 2 else n_classes
    feature, threshold, intercept = [], [], []
    for _ in range(M * T):
        if rng.integers(2):
            f, thr = [int(rng.integers(2)), -1, -1], [rng.normal(), 0.0, 0.0]
        else:
            f, thr = [-1], [0.0]
        feature += f
        threshold += thr
        intercept.append(rng.integers(-2, 3, size=(f.count(-1), K)) + 0.0)
    intercept = np.concatenate(intercept)
    trees = pmt.make_tree(feature, threshold, intercept,
                          np.zeros(intercept.shape + (2,)))
    return ensemble.Committee(trees,
                              rng.choice([0.1, 0.2, 0.3, 0.25, 0.5, 0.75],
                                         size=M * T),
                              np.repeat(np.arange(M), T))


def predict_member(member, X):
    return ensemble.Committee.of([member]).predict(X)


def noisy_stripes(n=300, seed=0):
    # 1-d data whose sign alternates across bands; depth-1 stumps with a
    # handful of boosting iterations are weak but better than chance
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 4, size=(n, 1))
    y = (np.floor(X[:, 0]).astype(int) % 2).astype(int)
    flip = rng.uniform(size=n) < 0.15
    y[flip] = 1 - y[flip]
    return X, y


class TestFitAdaboost:
    def test_stage_count_and_monotone_weights(self):
        X, y = noisy_stripes(seed=1)
        model = ensemble.fit_boosted(X, y, 2, SbpmtConfig(
            T=6, depth=1, min_leaf_size=5, B=3))
        assert 1 <= len(model.stages) <= 6
        for s in model.stages:
            assert s.raw_err < 0.5
            assert s.alpha > 0
            assert s.model.probit_risk is not None

    def test_errors_property(self):
        # the first stage sees uniform weights, so its raw error is its
        # training error rate
        X, y = noisy_stripes(seed=2)
        model = ensemble.fit_boosted(X, y, 2, SbpmtConfig(
            T=4, depth=1, min_leaf_size=5, B=3))
        first = model.stages[0]
        assert first.raw_err == pytest.approx(
            np.mean(pmt.predict_pmt_many(first.model, X) != y), rel=1e-12)

    def test_boosting_improves_training_accuracy(self):
        X, y = noisy_stripes(n=500, seed=3)
        one = ensemble.fit_boosted(X, y, 2, SbpmtConfig(
            T=1, depth=1, min_leaf_size=5, B=2))
        many = ensemble.fit_boosted(X, y, 2, SbpmtConfig(
            T=12, depth=1, min_leaf_size=5, B=2))
        acc1 = np.mean(predict_member(one, X) == y)
        acc12 = np.mean(predict_member(many, X) == y)
        assert acc12 >= acc1

    def test_perfect_stage_clamps_and_ends_member(self):
        # a perfect PMT gives raw err 0; the err is clamped and alpha is
        # large but finite.  Reweighting would leave the weights as they
        # are, so the member ends there rather than refit the same tree
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        model = ensemble.fit_boosted(X, y, 2, SbpmtConfig(
            T=10, depth=1, min_leaf_size=1, B=2))
        assert len(model.stages) == 1
        s = model.stages[0]
        assert s.raw_err == 0.0
        assert s.err == pytest.approx(ensemble.ERR_CLAMP)
        assert s.alpha == pytest.approx(11.5129, abs=1e-3)
        assert np.array_equal(predict_member(model, X), y)

    def test_useless_first_stage_kept_with_clamped_error(self):
        # depth 0, zero probit iterations: every stage predicts class 0,
        # so err = P(y=1) = 0.5 exactly -> clamped stage 1 kept, then stop
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 1, 0, 1])
        model = ensemble.fit_boosted(X, y, 2, SbpmtConfig(
            T=8, depth=0, min_leaf_size=1, B=0))
        assert len(model.stages) == 1
        assert model.stages[0].raw_err == pytest.approx(0.5)
        assert model.stages[0].err == pytest.approx(0.5 - ensemble.ERR_CLAMP)

    def test_reweighting_focuses_on_mistakes(self):
        # stage 2 must differ from stage 1 whenever stage 1 errs: upweighted
        # mistakes move the stump
        X, y = noisy_stripes(n=400, seed=7)
        model = ensemble.fit_boosted(X, y, 2, SbpmtConfig(
            T=2, depth=1, min_leaf_size=5, B=2))
        if len(model.stages) == 2:
            p1 = pmt.predict_pmt_many(model.stages[0].model, X)
            p2 = pmt.predict_pmt_many(model.stages[1].model, X)
            assert np.any(p1 != p2)


class TestFitSamme:
    def test_matches_adaboost_for_two_classes(self):
        # ln(J - 1) = 0: the stage weights are AdaBoost's
        X, y = noisy_stripes(seed=9)
        model = ensemble.fit_boosted(X, y, 2, SbpmtConfig(
            T=5, depth=1, min_leaf_size=5, B=2))
        for st in model.stages:
            assert st.alpha == 0.5 * math.log((1 - st.err) / st.err)

    def test_three_class_stage_weights_include_shift(self):
        rng = np.random.default_rng(10)
        X = rng.uniform(0, 3, size=(300, 1))
        y = np.floor(X[:, 0]).astype(int)
        flip = rng.uniform(size=300) < 0.1
        y[flip] = (y[flip] + 1) % 3
        model = ensemble.fit_boosted(X, y, 3, SbpmtConfig(
            T=5, depth=1, min_leaf_size=5, B=2))
        for s in model.stages:
            assert s.raw_err < 2 / 3
            expected = 0.5 * math.log((1 - s.err) / s.err) + math.log(2)
            assert s.alpha == pytest.approx(expected)
        acc = np.mean(predict_member(model, X) == y)
        assert acc > 0.8

    def test_single_class_count_rejected(self):
        with pytest.raises(ValueError, match="n_classes must be >= 2, got 1"):
            ensemble.fit_boosted(np.zeros((4, 1)), np.zeros(4, dtype=int), 1,
                                 SbpmtConfig(T=3, depth=1, min_leaf_size=1,
                                             B=1))


class TestPredictBoosted:
    def test_scalar_matches_vectorized(self):
        X, y = noisy_stripes(seed=11)
        model = ensemble.fit_boosted(X, y, 2, SbpmtConfig(
            T=4, depth=1, min_leaf_size=5, B=2))
        Xq = np.random.default_rng(0).uniform(0, 4, size=(50, 1))
        many = predict_member(model, Xq)
        assert many.tolist() == [
            predict_member(model, x[None])[0] for x in Xq]

    def test_single_stage_vote_is_the_stage(self):
        X, y = noisy_stripes(seed=12)
        model = ensemble.fit_boosted(X, y, 2, SbpmtConfig(
            T=1, depth=1, min_leaf_size=5, B=2))
        np.testing.assert_array_equal(
            predict_member(model, X),
            pmt.predict_pmt_many(model.stages[0].model, X))


class TestDrawDesign:
    def test_sizes_and_range(self):
        d = ensemble.draw_design(100, SbpmtConfig(M=21, alpha=0.7, seed=5))
        assert d.shape == (21, 70)
        for s in d:
            assert s.size == 70
            assert np.unique(s).size == 70  # without replacement
            assert s.min() >= 0 and s.max() < 100
            assert np.all(np.diff(s) > 0)  # stored sorted

    def test_reproducible_and_seed_sensitive(self):
        d1 = ensemble.draw_design(50, SbpmtConfig(M=5, alpha=0.5, seed=3))
        d2 = ensemble.draw_design(50, SbpmtConfig(M=5, alpha=0.5, seed=3))
        d3 = ensemble.draw_design(50, SbpmtConfig(M=5, alpha=0.5, seed=4))
        np.testing.assert_array_equal(d1, d2)
        assert any(not np.array_equal(a, b) for a, b in zip(d1, d3))

    def test_alpha_one_uses_all_rows(self):
        d = ensemble.draw_design(10, SbpmtConfig(M=3, alpha=1.0, seed=0))
        for s in d:
            np.testing.assert_array_equal(s, np.arange(10))

    def test_floor_of_alpha_n(self):
        assert ensemble.draw_design(7, SbpmtConfig(
            M=1, alpha=0.5, seed=0)).shape == (1, 3)

    def test_degenerate_subsample_size(self):
        with pytest.raises(ValueError, match=">= 1"):
            ensemble.draw_design(5, SbpmtConfig(M=2, alpha=0.1, seed=0))


class TestSbpmtConfig:
    def test_range_ends_accepted(self):
        SbpmtConfig(M=1, T=1, B=0, alpha=1, depth=0, min_leaf_size=1, seed=0)

    @pytest.mark.parametrize("field, value, message", [
        ("M", 0, "config: need M >= 1, got M = 0"),
        ("T", 0, "config: need T >= 1"),
        ("B", -1, "config: need B >= 0"),
        ("depth", -1, "config: need depth >= 0"),
        ("min_leaf_size", 0, "config: need min_leaf_size >= 1"),
        ("seed", -3, "config: need seed >= 0"),
        ("alpha", 0.0, "config: need 0 < alpha <= 1, got alpha = 0.0"),
        ("alpha", 1.5, "config: need 0 < alpha <= 1"),
        ("alpha", math.nan, "config: alpha must be a number"),
        ("alpha", "0.5", "config: alpha must be a number"),
        ("M", 2.0, "config: M must be a number of the kind of its default"),
        ("depth", True, "config: depth must be a number"),
        ("seed", np.int64(1), "config: seed must be a number"),
        ("alpha", -0.1, "config: need 0 < alpha <= 1"),
    ])
    def test_bad_field_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SbpmtConfig(**{field: value})
        with pytest.raises(ValueError, match=re.escape(message)):
            dataclasses.replace(SbpmtConfig(), **{field: value})

    def test_frozen(self):
        cfg = SbpmtConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.M = 0


class TestFitSbpmt:
    def small_config(self, **kw):
        base = dict(M=5, T=2, B=3, alpha=0.7, depth=2, min_leaf_size=5,
                    seed=0)
        base.update(kw)
        return SbpmtConfig(**base)

    def test_member_count_and_design(self):
        X, y = xor_data(120, seed=13)
        model = ensemble.fit_sbpmt(X, y, 2, self.small_config())
        assert len(model.members) == 5
        assert model.n_classes == 2
        assert model.design.shape == (5, 84)

    def test_constant_offset_leaves_the_fit_as_good(self):
        # CART is shift-invariant and the leaf fits centre their columns,
        # so adding 1e8 to every feature keeps the test error
        train, test = data.simulate(data.SimConfig(seed=3, n_train=1000,
                                                   n_test=4000))
        cfg = SbpmtConfig(M=2, T=2, B=20, depth=3, seed=3)
        errors = []
        for offset in (0.0, 1e8):
            model = ensemble.fit_sbpmt(train.X + offset, train.y, 2, cfg,
                                       workers=1)
            errors.append(np.mean(ensemble.predict_sbpmt_many(
                model, test.X + offset) != test.y))
        assert abs(errors[1] - errors[0]) <= 0.002

    @pytest.mark.parametrize("fit", [
        lambda X, y: ensemble.fit_sbpmt(X, y, 2, SbpmtConfig(M=2, T=1, B=2,
                                                             depth=1),
                                        workers=2),
        lambda X, y: ensemble.fit_boosted(X, y, 2, SbpmtConfig(T=1, B=2,
                                                               depth=1)),
        lambda X, y: pmt.fit_pmt(X, y, 2, np.ones(y.size), 1, 5, 2),
        lambda X, y: cart.build_tree(X, y, 2, np.ones(y.size), 1, 5),
        lambda X, y: probitboost.fit_probitboost(X, 2.0 * y - 1.0,
                                                 np.ones(y.size), 2),
    ], ids=["fit_sbpmt", "fit_boosted", "fit_pmt", "build_tree",
            "fit_probitboost"])
    def test_features_past_the_fit_limit_rejected(self, fit, two_cpus,
                                                  forks):
        # squares of such features overflow in the leaf fits; every fit
        # names the first one before it starts a worker
        X, y = xor_data(60, seed=2)
        with pytest.raises(ValueError, match=r"^value -?[0-9.e+]+ in row 1, "
                           r"feature 1 exceeds the fit limit 6\.704e\+153"):
            fit(X * 1e155, y)
        assert forks == []

    def test_features_at_the_fit_limit_fit_finite_and_reload(self):
        # depth 1: each leaf fits a column that spans -limit..limit
        X, y = xor_data(60, seed=2)
        X = np.where(X > 0, data.FIT_LIMIT, -data.FIT_LIMIT)
        model = ensemble.fit_sbpmt(X, y, 2, self.small_config(M=2, B=5,
                                                              depth=1),
                                   workers=1)
        for member in model.members:
            for st in member.stages:
                assert np.isfinite(st.model.coef).all()
                assert np.isfinite(st.model.intercept).all()
                assert math.isfinite(st.model.probit_risk)
        restored = model_io.deserialize_model(model_io.serialize_model(model))
        np.testing.assert_array_equal(
            ensemble.predict_sbpmt_many(restored, X),
            ensemble.predict_sbpmt_many(model, X))

    def test_determinism(self):
        X, y = xor_data(120, seed=14)
        cfg = self.small_config(seed=7)
        m1 = ensemble.fit_sbpmt(X, y, 2, cfg)
        m2 = ensemble.fit_sbpmt(X, y, 2, cfg)
        Xq = np.random.default_rng(1).uniform(-1, 1, size=(40, 2))
        np.testing.assert_array_equal(ensemble.predict_sbpmt_many(m1, Xq),
                                      ensemble.predict_sbpmt_many(m2, Xq))
        np.testing.assert_array_equal(m1.design, m2.design)

    def test_single_member_alpha_one_equals_boosted(self):
        X, y = xor_data(150, seed=15)
        cfg = self.small_config(M=1, alpha=1.0, T=3, B=5)
        sub = ensemble.fit_sbpmt(X, y, 2, cfg)
        boosted = ensemble.fit_boosted(X, y, 2, SbpmtConfig(
            T=3, depth=2, min_leaf_size=5, B=5))
        Xq = np.random.default_rng(2).uniform(-1, 1, size=(60, 2))
        np.testing.assert_array_equal(
            ensemble.predict_sbpmt_many(sub, Xq),
            predict_member(boosted, Xq))

    def test_binary_vote_tie_goes_to_class0(self):
        X, y = xor_data(100, seed=16)
        cfg = self.small_config(M=2)  # even member count permits exact ties
        model = ensemble.fit_sbpmt(X, y, 2, cfg)
        Xq = np.random.default_rng(3).uniform(-1, 1, size=(200, 2))
        member_preds = np.stack([predict_member(m, Xq)
                                 for m in model.members])
        vote = ensemble.predict_sbpmt_many(model, Xq)
        tie = member_preds.sum(axis=0) == 1  # one says 0, the other 1
        assert np.all(vote[tie] == 0)
        agree = member_preds[0] == member_preds[1]
        np.testing.assert_array_equal(vote[agree], member_preds[0][agree])

    def test_multiclass_vote_matches_counts(self):
        rng = np.random.default_rng(17)
        X = rng.uniform(0, 3, size=(150, 1))
        y = np.floor(X[:, 0]).astype(int)
        cfg = self.small_config(M=4, depth=2)
        model = ensemble.fit_sbpmt(X, y, 3, cfg)
        Xq = rng.uniform(0, 3, size=(80, 1))
        member_preds = np.stack([predict_member(m, Xq)
                                 for m in model.members])
        counts = np.stack([(member_preds == c).sum(axis=0) for c in range(3)],
                          axis=1)
        np.testing.assert_array_equal(ensemble.predict_sbpmt_many(model, Xq),
                                      np.argmax(counts, axis=1))

    def test_scalar_matches_vectorized(self):
        X, y = xor_data(100, seed=18)
        model = ensemble.fit_sbpmt(X, y, 2, self.small_config(M=3))
        Xq = np.random.default_rng(4).uniform(-1, 1, size=(30, 2))
        many = ensemble.predict_sbpmt_many(model, Xq)
        assert many.tolist() == [ensemble.predict_sbpmt(model, x) for x in Xq]

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_vote_matches_loop_reference_in_any_block_size(
            self, n_classes, monkeypatch):
        rng = np.random.default_rng(19)
        X = rng.uniform(-1, 1, size=(160, 3))
        y = np.digitize(X[:, 0] + X[:, 1], [-0.4, 0.4]) % n_classes
        model = ensemble.fit_sbpmt(X, y, n_classes,
                                   self.small_config(M=4, T=3))
        Xq = rng.uniform(-1, 1, size=(300, 3))
        members = reference_member_classes(model, Xq)
        expected = reference_vote(model, Xq)
        for block_floats in (ensemble.BLOCK_FLOATS, 1):  # 1: one row a block
            monkeypatch.setattr(ensemble, "BLOCK_FLOATS", block_floats)
            np.testing.assert_array_equal(
                model.committee.member_classes(Xq), members)
            np.testing.assert_array_equal(
                ensemble.predict_sbpmt_many(model, Xq), expected)

    @pytest.mark.parametrize("n_classes", [2, 4])
    def test_vote_matches_add_at_reference_with_ties(self, n_classes,
                                                     monkeypatch):
        committee = random_committee(n_classes, M=6, T=4, seed=3)
        Xq = np.random.default_rng(23).normal(size=(400, 2))
        members, majority, votes, counts = add_at_vote(committee, Xq)
        # exact ties, among a member's stage votes and among the members,
        # are broken to the smallest class
        top = votes.max(axis=2, keepdims=True)
        assert np.any(np.sum(votes == top, axis=2) > 1)
        assert np.any(np.sum(counts == counts.max(axis=1)[:, None],
                             axis=1) > 1)
        for block_floats in (ensemble.BLOCK_FLOATS, 1):
            monkeypatch.setattr(ensemble, "BLOCK_FLOATS", block_floats)
            np.testing.assert_array_equal(committee.member_classes(Xq),
                                          members)
            np.testing.assert_array_equal(committee.predict(Xq), majority)

    def test_no_rows_predict_nothing(self):
        X, y = xor_data(60, seed=24)
        model = ensemble.fit_sbpmt(X, y, 2, self.small_config(M=3))
        none = np.zeros((0, 2))
        assert model.committee.member_classes(none).shape == (0, 3)
        assert ensemble.predict_sbpmt_many(model, none).shape == (0,)

    def test_bad_input_rejected_at_the_boundary(self):
        X, y = xor_data(60, seed=20)
        cfg = self.small_config(M=2)
        with pytest.raises(ValueError, match="label 2 outside 0..1"):
            ensemble.fit_sbpmt(X, np.arange(60) % 3, 2, cfg)
        with pytest.raises(ValueError, match="non-finite"):
            ensemble.fit_sbpmt(np.where(np.arange(60)[:, None] == 7, np.nan,
                                        X), y, 2, cfg)
        model = ensemble.fit_sbpmt(X, y, 2, cfg)
        with pytest.raises(ValueError, match="non-finite"):
            ensemble.predict_sbpmt(model, [0.1, np.inf])
        with pytest.raises(ValueError, match="dimension mismatch"):
            ensemble.predict_sbpmt(model, [0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="2-D"):
            ensemble.predict_sbpmt_many(model, [0.1, 0.2])
        with pytest.raises(ValueError, match=r"one row.*shape \(\)"):
            ensemble.predict_sbpmt(model, 5.0)
        with pytest.raises(ValueError, match=r"one row.*shape \(1, 2\)"):
            ensemble.predict_sbpmt(model, np.zeros((1, 2)))

    @pytest.mark.parametrize("M", [0, -1])
    def test_no_members_rejected(self, M):
        X, y = xor_data(30, seed=21)
        with pytest.raises(ValueError, match=f"M = {M}"):
            ensemble.fit_sbpmt(X, y, 2, self.small_config(M=M))

    def test_single_class_count_rejected(self):
        X, _ = xor_data(30, seed=22)
        with pytest.raises(ValueError, match="n_classes must be >= 2, got 1"):
            ensemble.fit_sbpmt(X, np.zeros(30, dtype=int), 1,
                               self.small_config())

    def test_no_feature_columns_rejected(self):
        with pytest.raises(ValueError, match="no feature columns"):
            ensemble.fit_sbpmt(np.zeros((40, 0)), np.arange(40) % 2, 2,
                               self.small_config())

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ensemble.fit_sbpmt(np.zeros((0, 2)), np.zeros(0, dtype=int), 2,
                               self.small_config())


class TestWorkerPool:
    """The members are fitted in forked worker processes; the model must
    not depend on it."""

    # two_cpus and forks are shared fixtures in conftest.py
    @pytest.fixture
    def no_fork(self, monkeypatch):
        def fork():
            raise AssertionError("a process was started")
        monkeypatch.setattr(os, "fork", fork)

    @staticmethod
    def serial_reference(X, y, n_classes, cfg):
        """Loop reference: the members fitted one after another here."""
        design = ensemble.draw_design(X.shape[0], cfg)
        members = [ensemble.fit_boosted(X[idx], y[idx], n_classes, cfg)
                   for idx in design]
        return model_io.serialize_model(ensemble.SbpmtModel(
            members=members, design=design, config=cfg, n_classes=n_classes))

    @staticmethod
    def problem(n_classes):
        if n_classes == 2:  # the sim-fit shape at small n
            train, _ = data.simulate(data.SimConfig(n_train=400, n_test=1,
                                                    seed=3))
            return train.X, train.y, SbpmtConfig(M=4, T=5, B=20, seed=3)
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, size=(300, 3))
        y = np.digitize(X[:, 0] + X[:, 1], [-0.4, 0.4])
        return X, y, SbpmtConfig(M=3, T=3, B=5, depth=3, min_leaf_size=10,
                                 seed=4)

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_model_bytes_equal_the_serial_loop(self, n_classes, two_cpus):
        X, y, cfg = self.problem(n_classes)
        expected = self.serial_reference(X, y, n_classes, cfg)
        for workers in (None, 1, 2):
            model = ensemble.fit_sbpmt(X, y, n_classes, cfg, workers=workers)
            assert model_io.serialize_model(model) == expected
        assert multiprocessing.active_children() == []

    def test_default_fit_starts_one_worker_per_cpu(self, two_cpus, forks):
        X, y, cfg = self.problem(3)
        ensemble.fit_sbpmt(X, y, 3, cfg)
        assert len(forks) == 2
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [None, 1])
    def test_member_error_reaches_the_caller(self, workers, two_cpus,
                                             monkeypatch):
        def fail(*args):
            raise ValueError("bad tree configuration")
        # patched before the fork, so the workers inherit it
        monkeypatch.setattr(ensemble, "fit_boosted", fail)
        X, y = xor_data(80, seed=30)
        cfg = SbpmtConfig(M=3, T=2, B=2, depth=2)
        with pytest.raises(ValueError, match="^bad tree configuration$"):
            ensemble.fit_sbpmt(X, y, 2, cfg, workers=workers)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("M, workers, cpus", [
        (4, 1, 2),      # workers=1
        (1, None, 2),   # one member
        (4, None, 1),   # one usable CPU
    ])
    def test_one_worker_starts_no_process(self, M, workers, cpus, no_fork,
                                          monkeypatch):
        monkeypatch.setattr(ensemble, "_usable_cpus", lambda: cpus)
        X, y = xor_data(80, seed=31)
        cfg = SbpmtConfig(M=M, T=2, B=2, depth=2, min_leaf_size=5)
        ensemble.fit_sbpmt(X, y, 2, cfg, workers=workers)

    def test_no_fork_start_method_fits_in_process(self, two_cpus, no_fork,
                                                  monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        X, y, cfg = self.problem(3)
        model = ensemble.fit_sbpmt(X, y, 3, cfg)
        assert (model_io.serialize_model(model)
                == self.serial_reference(X, y, 3, cfg))

    @pytest.mark.parametrize("M, workers, cpus, expected", [
        (4, None, 2, 2), (4, None, 8, 4), (1, None, 8, 1), (4, None, 1, 1),
        (4, 1, 8, 1), (4, 3, 8, 3), (4, 16, 2, 2), (2, 16, 8, 2),
        (4, np.int64(2), 8, 2),
    ])
    def test_worker_count_caps_at_members_and_cpus(self, M, workers, cpus,
                                                   expected):
        assert ensemble._worker_count(M, workers, cpus) == expected

    @pytest.mark.parametrize("workers", [0, -1, 1.5, 2.0, "2", True])
    def test_bad_worker_count_rejected_before_any_process(self, workers,
                                                          two_cpus, no_fork):
        with pytest.raises(ValueError, match="^workers must be "):
            ensemble._worker_count(4, workers, 2)
        X, y = xor_data(60, seed=32)
        with pytest.raises(ValueError, match="^workers must be "):
            ensemble.fit_sbpmt(X, y, 2, SbpmtConfig(M=4, T=1, B=1, depth=1),
                               workers=workers)

    @pytest.mark.parametrize("fit", [
        lambda X, y: ensemble.fit_sbpmt(X, y, 2, SbpmtConfig(M=4, T=1, B=1)),
        lambda X, y: ensemble.fit_boosted(X, y, 2, SbpmtConfig(T=1, B=1)),
        lambda X, y: pmt.fit_pmt(X, y, 2, np.ones(len(X)), 1, 5, 1),
        lambda X, y: cart.build_tree(X, y, 2, np.ones(len(X)), 1, 5),
        lambda X, y: bounds.estimate_p_sub(ensemble.fit_sbpmt(
            X, (X[:, 0] > 0).astype(int), 2, SbpmtConfig(M=2, T=1, B=1),
            workers=1), X, y),
    ], ids=["fit_sbpmt", "fit_boosted", "fit_pmt", "build_tree",
            "estimate_p_sub"])
    def test_missing_labels_rejected_before_any_process(self, fit, two_cpus,
                                                        forks):
        # each failed inside the member fits, fit_sbpmt after forking
        X, _ = xor_data(60, seed=34)
        with pytest.raises(ValueError,
                           match="^need one integer class index per row$"):
            fit(X, None)
        assert forks == []

    @pytest.mark.parametrize("cut, message", [
        (lambda schema: {"foo": 1},
         r"^schema: missing keys \['columns', 'has_header', 'label'\]"),
        (lambda schema: dict(schema, columns=schema["columns"][:3]),
         "^schema: the columns encode 3 features, but the trees read 10$"),
    ], ids=["no-schema-keys", "three-of-ten-columns"])
    def test_schema_the_loader_rejects_is_rejected_before_any_process(
            self, cut, message, two_cpus, no_fork):
        # each fitted and saved a file that load_model then rejected
        train, _ = data.simulate(data.SimConfig(n_train=60, n_test=1))
        with pytest.raises(ValueError, match=message):
            ensemble.fit_sbpmt(train.X, train.y, 2,
                               SbpmtConfig(M=4, T=1, B=1, depth=1),
                               schema=cut(train.schema))

    def test_one_class_rejected_before_any_process(self, two_cpus, forks):
        X, _ = xor_data(60, seed=33)
        with pytest.raises(ValueError, match="n_classes must be >= 2, got 1"):
            ensemble.fit_sbpmt(X, np.zeros(60, dtype=int), 1,
                               SbpmtConfig(M=4, T=1, B=1, depth=1))
        assert forks == []
