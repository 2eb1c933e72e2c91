"""Acceptance suite: one printed pass/fail line per criterion.

Criteria cover risk monotonicity, loss curvature, the indicator bound,
the live stage-error product bound, bound-calculator oracles, simulation
trends, desk-scale dataset reproduction, degenerate-ensemble identities,
and byte-level determinism of model persistence.
"""

import itertools
import math
import os
import time

import mpmath
import numpy as np
import pytest

import conftest
from sbpmt import (bounds, data, ensemble, model_io, numerics, pmt,
                   probitboost)
from sbpmt.ensemble import SbpmtConfig

mpmath.mp.dps = 40

BENCH = dict(M=5, T=5, B=5, alpha=0.7, depth=3, min_leaf_size=20)


def report(criterion: str, passed: bool | None, detail: str = "") -> None:
    """Record the criterion's verdict line; passed=None records SKIP."""
    status = {True: "PASS", False: "FAIL", None: "SKIP"}[passed]
    tail = f" ({detail})" if detail else ""
    line = f"[{status}] criterion {criterion}{tail}"
    print(line)
    conftest.acceptance_lines.append(line)


def skip(criterion: str, reason: str) -> None:
    report(criterion, None, reason)
    pytest.skip(reason)


class TestCriterion1RiskMonotonicity:
    def test_probit_risk_never_increases(self):
        start = time.time()
        rng = np.random.default_rng(2024)
        worst = -np.inf
        for _ in range(200):
            n = int(rng.integers(5, 201))
            p = int(rng.integers(1, 11))
            X = rng.normal(size=(n, p))
            y = rng.choice([-1.0, 1.0], size=n)
            w = rng.uniform(0.01, 5.0, size=n)
            _, trace = probitboost.fit_probitboost(X, y, w, 50)
            worst = max(worst, float(np.max(np.diff(trace.risks))))
        elapsed = time.time() - start
        ok = worst <= 1e-9 and elapsed < 60
        report("1: risk monotonicity", ok,
               f"200 fits, max increase {worst:.2e}, {elapsed:.1f}s")
        assert worst <= 1e-9
        assert elapsed < 60


class TestCriterion2LossCurvature:
    def test_second_positive_third_negative(self):
        h = 1e-3
        u = np.arange(-8.0 - 2 * h, 8.0 + 2 * h + 1e-12, h)
        q = numerics.probit_loss(u)
        d2 = (q[:-2] - 2 * q[1:-1] + q[2:]) / h**2
        d3 = (q[4:] - 2 * q[3:-1] + 2 * q[1:-3] - q[:-4]) / (2 * h**3)
        # strict signs hold with margin well beyond 1e-6 relative
        ok2 = bool(np.all(d2 > 0))
        ok3 = bool(np.all(d3 < 0))
        report("2: loss curvature", ok2 and ok3,
               f"min Q''={d2.min():.3e}, max Q'''={d3.max():.3e}")
        assert np.all(d2 > 0)
        assert np.all(d3 < 0)


class TestCriterion3IndicatorBound:
    def test_indicator_below_scaled_loss(self):
        u = np.arange(-8.0, 8.0 + 1e-12, 1e-3)
        lhs = (u <= 0).astype(float)
        rhs = numerics.probit_loss(u) / numerics.LN2
        ok = bool(np.all(lhs <= rhs))
        report("3: indicator bound", ok,
               f"grid of {u.size} points, min slack "
               f"{float(np.min(rhs - lhs)):.3e}")
        assert ok


class TestCriterion4Theorem5Live:
    def test_training_error_below_product_bound(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(40):
            n = int(rng.integers(30, 200))
            X = rng.uniform(-1, 1, size=(n, int(rng.integers(1, 5))))
            y = (X[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(int)
            T = int(rng.integers(1, 8))
            model, trees = ensemble.fit_boosted(X, y, 2, SbpmtConfig(
                T=T, depth=int(rng.integers(1, 4)), min_leaf_size=2,
                B=int(rng.integers(0, 6))))
            preds = ensemble.Committee.of([model], pmt.join(trees)).predict(X)
            err = float(np.mean(preds != y))
            bound = bounds.theorem5_bound([s.raw_err for s in model.stages],
                                          0.0)
            assert err <= bound + 1e-12, (err, bound)
            checked += 1
        report("4: theorem-5 live bound", True,
               f"{checked} boosted runs, error <= product bound + 1e-12")


def brute_stats(subsets, n):
    M = len(subsets)
    R = [sum(1 for s in subsets if k in s) for k in range(n)]
    B = sum(sum(1 for s in subsets if k in s and l in s) ** 2
            for k in range(n) for l in range(n) if k != l)
    return R, sum(r * r for r in R) / M**2, B / M**2, max(R) / M


class TestCriterion5BoundOracles:
    def test_design_stats_exhaustive(self):
        total = 0
        for n in range(1, 7):
            pool = [frozenset(c) for m in range(1, min(3, n) + 1)
                    for c in itertools.combinations(range(n), m)]
            for M in range(1, 4):
                for combo in itertools.combinations_with_replacement(pool, M):
                    design = np.zeros((M, n), dtype=bool)
                    for k, s in enumerate(combo):
                        design[k, sorted(s)] = True
                    stats = bounds.design_stats(design)
                    R, A, B, C = brute_stats([set(s) for s in combo], n)
                    assert stats.R.tolist() == R
                    assert stats.A == A and stats.B == B and stats.C == C
                    total += 1
        report("5a: design-statistics oracle", True,
               f"{total} designs enumerated, exact match")

    def test_theorem_calculators_vs_high_precision(self):
        worst = 0.0

        def check(got, oracle):
            nonlocal worst
            rel = abs(got - float(oracle)) / max(abs(float(oracle)), 1e-300)
            worst = max(worst, rel)
            assert rel <= 1e-9, (got, float(oracle), rel)

        # theorem 3 on five pinned input sets
        t3_cases = [
            (100, 70, 21, "0.05", "0.2", "0.25", "1.0", "1.0"),
            (20000, 14000, 99, "0.05", "0.1", "0.25", "0.5", "0.5"),
            (500, 100, 11, "0.1", "0.3", "1.0", "2.0", "0.1"),
            (1000, 700, 50, "0.01", "0.05", "0.01", "0.01", "0.01"),
            (64, 8, 16, "0.5", "0.45", "3.0", "0.0", "5.0"),
        ]
        for n, m, M, delta, p, s1, beta, gamma in t3_cases:
            rep = bounds.theorem3_bound(
                n=n, m=m, M=M, delta=float(delta), p_sub=float(p),
                sigma1_sq=float(s1), beta_kernel=float(beta),
                gamma_kernel=float(gamma))
            mn, mm, mM = map(mpmath.mpf, (n, m, M))
            log3d = mpmath.log(3 / mpmath.mpf(delta))
            c = 1 + 4 * mpmath.sqrt(log3d)
            QA = mpmath.sqrt(mm**2 / mn) + c * mpmath.sqrt(mm / mM)
            QB = mm**2 / mn + c * mm / mpmath.sqrt(mM)
            QC = mm / mn + (mpmath.sqrt(2 * mm) + 3) / mpmath.sqrt(mM) * log3d
            t = ((mpmath.ceil(mM / 2) - mM / 2) / mM
                 + 1 - 2 * mpmath.mpf(p))
            denom = (2 * QA**2 * mpmath.mpf(s1)
                     + QB**2 * mpmath.mpf(beta) / 2
                     + (mpmath.sqrt(QB * mpmath.mpf(gamma))
                        + 4 * QC**2 / 3) * t)
            check(rep.Q_A, QA)
            check(rep.Q_B, QB)
            check(rep.Q_C, QC)
            check(rep.rhs, mpmath.exp(-t**2 / denom))

        # theorem 4 on five pinned input sets
        t4_cases = [(1000, 5, 20, "0.05", "0.0"), (100, 100, 100, "0.5", "0.25"),
                    (5000, 10, 3, "0.01", "0.1"), (250, 1, 1, "0.9", "0.5"),
                    (10**6, 50, 30, "0.001", "0.02")]
        for n, T, d, delta, err in t4_cases:
            got = bounds.theorem4_bound(n, T, d, float(err),
                                        delta=float(delta))
            mn = mpmath.mpf(n)
            inner = (T * mpmath.log(mpmath.e * mn / T)
                     + d * mpmath.log(mpmath.e * mn / d)
                     + mpmath.log(8 / mpmath.mpf(delta)))
            check(got, mpmath.mpf(err) + mpmath.sqrt(32 * inner / mn))

        # theorem 5 on five pinned input sets
        t5_cases = [(["0.5", "0.5"], "0.0"), (["0.25"], "0.0"),
                    (["0.1", "0.3", "0.45", "0.2"], "0.05"),
                    (["0.01"] * 6, "0.0"), (["0.49", "0.33"], "0.2")]
        for errs, theta in t5_cases:
            got = bounds.theorem5_bound([float(e) for e in errs],
                                        float(theta))
            th = mpmath.mpf(theta)
            oracle = mpmath.mpf(2) ** len(errs)
            for e in errs:
                e = mpmath.mpf(e)
                oracle *= mpmath.sqrt(e ** (1 - th) * (1 - e) ** (1 + th))
            check(got, oracle)

        # theorem 6 on five pinned input sets
        t6_cases = [(["0.0"] * 4, 1000, 20, "0.05"),
                    ([str(math.log(2) / 4)] * 8, 1000, 20, "0.05"),
                    (["0.05", "0.12", "0.30"], 500, 10, "0.1"),
                    (["0.2"], 100, 5, "0.5"),
                    (["0.01", "0.3"], 10**5, 40, "0.01")]
        for risks, n, d, delta in t6_cases:
            T = len(risks)
            rep = bounds.theorem6_bound([float(r) for r in risks], n, d,
                                        delta=float(delta))
            gsum = sum((mpmath.mpf("0.5")
                        - mpmath.mpf(r) / mpmath.log(2)) ** 2 for r in risks)
            training = mpmath.exp(-2 * gsum)
            mn = mpmath.mpf(n)
            inner = (T * mpmath.log(mpmath.e * mn / T)
                     + d * mpmath.log(mpmath.e * mn / d)
                     + mpmath.log(8 / mpmath.mpf(delta)))
            check(rep.training_term, training)
            check(rep.total, training + mpmath.sqrt(32 * inner / mn))

        report("5b: theorem 3/4/5/6 oracles", True,
               f"20 pinned input sets, worst relative error {worst:.2e}")


def sim_error(cfg_kwargs, seed):
    train, test = data.simulate(data.SimConfig(seed=seed))
    cfg = SbpmtConfig(seed=seed, **cfg_kwargs)
    model = ensemble.fit_sbpmt(train.X, train.y, 2, cfg)
    preds = ensemble.predict_sbpmt_many(model, test.X)
    return float(np.mean(preds != test.y))


@pytest.fixture(scope="module")
def simulation_sweeps():
    start = time.time()
    seeds = range(5)
    results = {}
    for M in (1, 5, 100):
        kwargs = dict(BENCH, M=M)
        results[("M", M)] = [sim_error(kwargs, s) for s in seeds]
    for B in (1, 5, 100):
        kwargs = dict(BENCH, B=B)
        results[("B", B)] = [sim_error(kwargs, s) for s in seeds]
    results["elapsed"] = time.time() - start
    return results


class TestCriterion6SimulationTrends:
    def test_trends_and_corridor(self, simulation_sweeps):
        res = simulation_sweeps
        mean = {k: float(np.mean(v)) for k, v in res.items() if k != "elapsed"}
        ok_m = mean[("M", 100)] <= mean[("M", 1)]
        ok_b = mean[("B", 100)] <= mean[("B", 1)]
        all_points = [e for k, v in res.items() if k != "elapsed" for e in v]
        ok_corridor = all(0.1 < e < 0.5 for e in all_points)
        ok_time = res["elapsed"] <= 15 * 60
        detail = (f"err(M=1)={mean[('M', 1)]:.4f} "
                  f"err(M=100)={mean[('M', 100)]:.4f}, "
                  f"err(B=1)={mean[('B', 1)]:.4f} "
                  f"err(B=100)={mean[('B', 100)]:.4f}, "
                  f"range [{min(all_points):.4f}, {max(all_points):.4f}], "
                  f"{res['elapsed']:.0f}s")
        report("6: simulation trends", ok_m and ok_b and ok_corridor
               and ok_time, detail)
        assert ok_m and ok_b
        assert ok_corridor
        assert ok_time


CV_TIMES: dict[str, float] = {}


def run_cv(X, y, n_classes, seed=0):
    start = time.time()
    cfg = SbpmtConfig(seed=seed)  # the paper defaults
    accs = []
    for train_idx, test_idx in data.stratified_kfold(y, 10, seed):
        model = ensemble.fit_sbpmt(X[train_idx], y[train_idx], n_classes, cfg)
        preds = ensemble.predict_sbpmt_many(model, X[test_idx])
        accs.append(data.accuracy(preds, y[test_idx]))
    mean, sd = data.summarize_cv(accs)
    return mean, sd, time.time() - start


def banknote_path():
    candidates = [os.environ.get("SBPMT_BANKNOTE_CSV"),
                  os.path.join(os.path.dirname(__file__), "..", "data",
                               "banknote_authentication.csv")]
    for c in candidates:
        if c and os.path.isfile(c):
            return c
    return None


class TestCriterion7DatasetReproduction:
    def test_banknote(self):
        path = banknote_path()
        if path is None:
            skip("7: banknote >= 98.5%",
                 "dataset unavailable offline; supply "
                 "data/banknote_authentication.csv or $SBPMT_BANKNOTE_CSV")
        ds = data.load_csv(path, -1, has_header=False)
        mean, sd, elapsed = run_cv(ds.X, ds.y, ds.n_classes)
        CV_TIMES["banknote"] = elapsed
        report("7: banknote >= 98.5%", mean >= 98.5,
               f"{mean:.2f} +/- {sd:.2f}, {elapsed:.0f}s")
        assert mean >= 98.5

    def test_iris(self):
        sklearn_datasets = pytest.importorskip("sklearn.datasets")
        iris = sklearn_datasets.load_iris()
        mean, sd, elapsed = run_cv(iris.data, iris.target, 3)
        CV_TIMES["iris"] = elapsed
        report("7: iris >= 93.0%", mean >= 93.0,
               f"{mean:.2f} +/- {sd:.2f}, {elapsed:.0f}s")
        assert mean >= 93.0

    def test_breast_cancer(self):
        sklearn_datasets = pytest.importorskip("sklearn.datasets")
        bc = sklearn_datasets.load_breast_cancer()
        mean, sd, elapsed = run_cv(bc.data, bc.target, 2)
        CV_TIMES["breast-cancer"] = elapsed
        report("7: breast-cancer >= 94.5%", mean >= 94.5,
               f"{mean:.2f} +/- {sd:.2f}, {elapsed:.0f}s")
        assert mean >= 94.5

    def test_total_runtime_budget(self):
        if not CV_TIMES:
            # the budget gate timed nothing, so its verdict is SKIP; the
            # test still passes, as the budget cannot have been exceeded
            report("7: CV runtime <= 10 min", None, "no dataset ran")
            return
        total = sum(CV_TIMES.values())
        report("7: CV runtime <= 10 min", total <= 600, f"{total:.0f}s")
        assert total <= 600


class TestCriterion8DegenerateIdentities:
    def test_m1_alpha1_equals_single_boosted_pmt(self):
        rng = np.random.default_rng(81)
        X = rng.uniform(-1, 1, size=(200, 3))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
        cfg = SbpmtConfig(M=1, T=4, B=5, alpha=1.0, depth=2,
                          min_leaf_size=5, seed=0)
        sub = ensemble.fit_sbpmt(X, y, 2, cfg)
        single, trees = ensemble.fit_boosted(X, y, 2, SbpmtConfig(
            T=4, depth=2, min_leaf_size=5, B=5))
        Xq = rng.uniform(-1, 1, size=(1000, 3))
        same = np.array_equal(
            ensemble.predict_sbpmt_many(sub, Xq),
            ensemble.Committee.of([single], pmt.join(trees)).predict(Xq))
        report("8a: M=1, alpha=1 equals single boosted PMT", same)
        assert same

    def test_depth0_b0_is_constant_class0(self):
        rng = np.random.default_rng(82)
        X = rng.uniform(-1, 1, size=(100, 2))
        y = (rng.uniform(size=100) > 0.4).astype(int)
        cfg = SbpmtConfig(M=3, T=2, B=0, alpha=0.7, depth=0,
                          min_leaf_size=1, seed=0)
        model = ensemble.fit_sbpmt(X, y, 2, cfg)
        preds = ensemble.predict_sbpmt_many(model,
                                            rng.uniform(-1, 1, size=(500, 2)))
        ok = bool(np.all(preds == 0))
        report("8b: depth 0, B=0 is the constant class-0 classifier", ok)
        assert ok

    def test_unanimous_members_vote_equals_member(self):
        rng = np.random.default_rng(83)
        X = rng.uniform(-1, 1, size=(150, 2))
        y = (X[:, 0] > 0).astype(int)
        # alpha = 1 makes every subset the full index set, so all members
        # are identical and the vote must match any one of them
        cfg = SbpmtConfig(M=5, T=2, B=3, alpha=1.0, depth=2,
                          min_leaf_size=5, seed=0)
        model = ensemble.fit_sbpmt(X, y, 2, cfg)
        Xq = rng.uniform(-1, 1, size=(400, 2))
        members = model.committee.member_classes(Xq)
        member = members[:, 0]
        for k in range(1, 5):
            assert np.array_equal(member, members[:, k])
        vote = ensemble.predict_sbpmt_many(model, Xq)
        ok = np.array_equal(vote, member)
        report("8c: unanimous members, vote equals member output", ok)
        assert ok


class TestCriterion9Determinism:
    def test_byte_identical_files_and_bit_identical_predictions(self,
                                                                tmp_path):
        rng = np.random.default_rng(91)
        X = rng.uniform(-1, 1, size=(250, 4))
        y = ((X[:, 0] + X[:, 1] > 0)).astype(int)
        cfg = SbpmtConfig(M=5, T=3, B=5, alpha=0.7, depth=3,
                          min_leaf_size=5, seed=17)
        m1 = ensemble.fit_sbpmt(X, y, 2, cfg)
        m2 = ensemble.fit_sbpmt(X, y, 2, cfg)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        model_io.save_model(m1, p1)
        model_io.save_model(m2, p2)
        byte_identical = p1.read_bytes() == p2.read_bytes()

        restored = model_io.load_model(p1)
        Xq = rng.uniform(-2, 2, size=(10_000, 4))
        bit_identical = np.array_equal(
            ensemble.predict_sbpmt_many(m1, Xq),
            ensemble.predict_sbpmt_many(restored, Xq))
        report("9: determinism and persistence",
               byte_identical and bit_identical,
               f"{p1.stat().st_size} bytes, 10000 query rows")
        assert byte_identical
        assert bit_identical
