"""The benchmark's tracer counts fits and rows through hooks keyed by the
names of sbpmt's public functions.  A hook whose function was renamed or
made private is silently never installed, so its counts would read 0."""

import importlib
import inspect
import runpy
from pathlib import Path

import numpy as np

import sbpmt
from sbpmt import data, ensemble, pmt

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def test_every_hook_names_a_public_function():
    hooks = runpy.run_path(str(TRACER))["HOOKS"]  # compiled, no bytecode file
    assert hooks
    for name in hooks:
        layer, attr = name.split(".")
        module = importlib.import_module(f"sbpmt.{layer}")
        fn = getattr(module, attr, None)
        assert not attr.startswith("_") and inspect.isfunction(fn), name
        assert fn.__module__ == module.__name__, name


def test_probitboost_hook_sees_a_multi_leaf_fit():
    # fit_pmt fits all leaves of a tree in one fit_probitboost call per
    # one-vs-rest column; the tracer's hook must still count its steps and
    # find no rise in its risk path.
    tracer = runpy.run_path(str(TRACER))
    train, _ = data.simulate(data.SimConfig(n_train=600, n_test=1, seed=2))
    tr = tracer["Tracer"](sbpmt)
    tr.install()
    try:
        with tr.op("fit"):
            model = pmt.fit_pmt(train.X, train.y, 2, np.ones(600), 3, 20, 30)
    finally:
        tr.restore()
    metrics, problems = tracer["per_layer_metrics"](tr, 0.0)
    assert model.intercept.shape[0] > 1
    assert metrics["probitboost.fit_probitboost.calls"] == 1
    assert metrics["probitboost.iterations"] == 30
    assert metrics["probitboost.iterations_ratio"] == 1.0
    assert metrics["probitboost.halvings"] >= 0
    assert "probitboost.risk_increases" not in tr.counters
    assert not problems


def test_traced_serial_fit_counts_every_stage():
    # fitted in this process, the fit's stages reach the fit_sbpmt hook
    tracer = runpy.run_path(str(TRACER))
    train, _ = data.simulate(data.SimConfig(n_train=300, n_test=1, seed=4))
    cfg = ensemble.SbpmtConfig(M=3, T=3, B=5, depth=2, seed=4)
    tr = tracer["Tracer"](sbpmt)
    tr.install()
    try:
        with tr.op("fit"):
            model = ensemble.fit_sbpmt(train.X, train.y, 2, cfg, workers=1)
    finally:
        tr.restore()
    metrics, problems = tracer["per_layer_metrics"](tr, 0.0)
    stages = sum(len(member.stages) for member in model.members)
    assert metrics["ensemble.stages"] == stages
    assert metrics["ensemble.stages_ratio"] == stages / (cfg.M * cfg.T)
    assert metrics["pmt.fit_pmt.calls"] >= stages  # and any cut at chance
    assert not problems
