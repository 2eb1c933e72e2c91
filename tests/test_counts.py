"""data.check_count is the one rule for count arguments, and
data.check_reals the one rule for lists of real numbers.

COUNTS lists every count argument of the public API with a valid call
and the argument's floor; every bad value of every row must raise
ValueError naming the argument, and fit_sbpmt must reject it before it
starts a worker process.  test_every_int_parameter_is_a_count_or_exempt
keeps the table complete: a public function that gains an int parameter
fails it until the parameter is added to COUNTS or to EXEMPT.  LISTS does
the same for every list[float] parameter: an item that is not a real
number must raise ValueError naming the list.
"""

import dataclasses
import importlib
import inspect
import math
import pkgutil
import re

import numpy as np
import pytest

import sbpmt
from sbpmt import bounds, cart, data, ensemble, model_io, pmt, probitboost
from sbpmt.ensemble import SbpmtConfig

_rng = np.random.default_rng(0)
X = _rng.uniform(-1, 1, size=(40, 2))
Y = (X[:, 0] > 0).astype(int)
W = np.ones(40)
CFG = SbpmtConfig(M=2, T=1, B=1, depth=1, min_leaf_size=5)

# (function, its valid keyword arguments, {count argument: floor})
COUNTS = [
    (bounds.theorem3_bound,
     dict(n=1000, m=700, M=21, p_sub=0.1, sigma1_sq=0.25, beta_kernel=1.0,
          gamma_kernel=1.0), {"n": 1, "m": 1, "M": 1}),
    (bounds.theorem4_bound, dict(n=1000, T=5, d_vc=20, empirical_error=0.1),
     {"n": 1, "T": 1, "d_vc": 1}),
    (bounds.theorem6_bound, dict(probit_risks=[0.1, 0.2], n=1000, d_vc=20),
     {"n": 1, "d_vc": 1}),
    (bounds.design_stats, dict(subsets=[[0, 1], [1, 2]], n=3), {"n": 1}),
    (cart.build_tree, dict(X=X, y=Y, n_classes=2, sample_weights=W,
                           max_depth=2, min_leaf_size=1),
     {"n_classes": 2, "max_depth": 0, "min_leaf_size": 1}),
    (pmt.fit_pmt, dict(X=X, y=Y, n_classes=2, sample_weights=W, depth=1,
                       min_leaf_size=5, probit_iters=2),
     {"n_classes": 2, "depth": 0, "min_leaf_size": 1, "probit_iters": 0}),
    (probitboost.fit_probitboost,
     dict(X=X, y=2.0 * Y - 1.0, sample_weights=W, n_iter=2), {"n_iter": 0}),
    (ensemble.fit_boosted, dict(X=X, y=Y, n_classes=2, config=CFG),
     {"n_classes": 2}),
    # two workers, so a valid call would fork under the two_cpus fixture
    (ensemble.fit_sbpmt, dict(X=X, y=Y, n_classes=2, config=CFG, workers=2),
     {"n_classes": 2, "workers": 1}),
    (ensemble.draw_design, dict(n=40, config=CFG), {"n": 1}),
    (data.check_inputs, dict(X=X, y=Y, n_classes=2), {"n_classes": 2}),
    (data.stratified_kfold, dict(y=Y, k=3, seed=0), {"k": 2, "seed": 0}),
]

# int parameters of public functions that are not counts checked here
EXEMPT = {
    ("data.check_count", "low"): "the rule's own floor, fixed by each caller",
    ("data.check_weights", "n"): "callers pass X.shape[0]",
    ("data.check_inputs", "n_features"):
        "compared for equality with X's columns; callers read it off a "
        "fitted model",
    ("data.check_schema", "n_classes"):
        "compared for equality with the class list; the loader has checked "
        "it",
    ("data.check_schema", "n_features"):
        "compared for equality with the encoded width; the loader reads it "
        "off the trees",
}


# (function, its valid keyword arguments, its list argument, the list's
# name in messages)
LISTS = [
    (bounds.theorem5_bound, dict(errors=[0.1, 0.2]), "errors",
     "stage errors"),
    (bounds.theorem6_bound, dict(probit_risks=[0.1, 0.2], n=1000, d_vc=20),
     "probit_risks", "probit risks"),
    (data.summarize_cv, dict(fold_accuracies=[90.0, 80.0]),
     "fold_accuracies", "fold accuracies"),
]


def qualname(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"


def annotated_parameters(annotation: str) -> set:
    """(function, parameter) of every public function in sbpmt whose
    parameter is annotated with annotation, alone or in a union."""
    found = set()
    for info in pkgutil.iter_modules(sbpmt.__path__):
        module = importlib.import_module(f"sbpmt.{info.name}")
        for name, fn in vars(module).items():
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__):
                continue
            for p in inspect.signature(fn).parameters.values():
                if annotation in str(p.annotation).split(" | "):
                    found.add((qualname(fn), p.name))
    return found


CASES = [pytest.param(fn, kwargs, arg, bad, id=f"{qualname(fn)}-{arg}-{bad}")
         for fn, kwargs, floors in COUNTS
         for arg, floor in floors.items()
         for bad in (math.nan, math.inf, 2.5, True, floor - 1)]


@pytest.mark.parametrize("fn, kwargs, arg, bad", CASES)
def test_bad_count_rejected_naming_it(fn, kwargs, arg, bad, two_cpus, forks):
    with pytest.raises(ValueError, match=f"^{re.escape(arg)} must be "):
        fn(**dict(kwargs, **{arg: bad}))
    assert forks == []  # fit_sbpmt rejects it before any worker starts


@pytest.mark.parametrize("fn, kwargs, floors", [
    pytest.param(*row, id=qualname(row[0])) for row in COUNTS])
def test_numpy_integer_counts_accepted(fn, kwargs, floors):
    fn(**dict(kwargs, **{arg: np.int64(kwargs[arg]) for arg in floors}))


@pytest.mark.parametrize("value", [np.int64(3), np.uint8(3), np.int32(3)])
def test_check_count_returns_a_python_int(value):
    out = data.check_count("n", value, 1)
    assert type(out) is int and out == 3


def test_numpy_class_count_saves_and_round_trips(tmp_path):
    model = ensemble.fit_sbpmt(X, Y, np.int64(2), CFG, workers=1)
    assert type(model.n_classes) is int
    text = model_io.serialize_model(model)
    assert text == model_io.serialize_model(
        ensemble.fit_sbpmt(X, Y, 2, CFG, workers=1))
    model_io.save_model(model, tmp_path / "m.json")
    loaded = model_io.load_model(tmp_path / "m.json")
    assert model_io.serialize_model(loaded) == text


@pytest.mark.parametrize("fn, kwargs, floors", [
    pytest.param(*row, id=qualname(row[0])) for row in COUNTS[:3]])
def test_theorems_agree_for_numpy_and_python_ints(fn, kwargs, floors):
    py = fn(**kwargs)
    np_ = fn(**dict(kwargs, **{arg: np.int64(kwargs[arg])
                               for arg in floors}))
    if dataclasses.is_dataclass(py):
        py, np_ = dataclasses.asdict(py), dataclasses.asdict(np_)
        assert all(type(v) is type(py[k]) for k, v in np_.items())
    else:
        assert type(np_) is type(py)
    assert np_ == py


def test_every_int_parameter_is_a_count_or_exempt():
    found = annotated_parameters("int")
    counted = {(qualname(fn), arg) for fn, _, floors in COUNTS
               for arg in floors}
    assert found - counted - EXEMPT.keys() == set()
    assert EXEMPT.keys() <= found  # no stale exemption


@pytest.mark.parametrize("fn, kwargs, arg, name, bad", [
    pytest.param(fn, kwargs, arg, name, bad, id=f"{qualname(fn)}-{bad!r}")
    for fn, kwargs, arg, name in LISTS
    for bad in (["0.1"], [0.1, True], [None], [{}])])
def test_bad_list_item_rejected_naming_the_list(fn, kwargs, arg, name, bad):
    # the last item is the bad one; str and bool items were converted
    with pytest.raises(ValueError, match=f"^{re.escape(name)}: item "
                                         f"{len(bad) - 1} must be a real"):
        fn(**dict(kwargs, **{arg: bad}))


def test_every_list_parameter_is_in_lists():
    assert annotated_parameters("list[float]") == {
        (qualname(fn), arg) for fn, _, arg, _ in LISTS}
