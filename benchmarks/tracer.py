"""Spans around sbpmt's public functions, recorded from outside the library.

`Tracer.install` replaces every public function of each module in LAYERS
with a wrapper that records a span (name, start, end, parent) while an
operation of the benchmark is open, and `Tracer.restore` puts the
originals back.  Modules look their own functions up as globals at call
time, so calls made inside the library are traced too.  Spans stay in
memory; `per_layer_metrics` reduces them to the metrics in PER_LAYER.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = ("data", "cart", "numerics", "probitboost", "pmt", "ensemble",
          "model_io", "cli")

OP_PREFIX = "bench."        # spans of the benchmark's own operations
HOOK_SPAN = "bench.hook"    # the tracer's own bookkeeping after a call

_CALLS_AND_SELF = [
    "numerics.working_response_and_weight", "numerics.wls_fit_columns",
    "numerics.probit_loss", "probitboost.fit_probitboost",
    "probitboost.fit_probitboost_ova", "pmt.fit_pmt", "cart.build_tree",
    "cart.route_many", "pmt.predict_pmt_many",
    "ensemble.predict_boosted_many", "ensemble.predict_sbpmt_many",
    "ensemble.predict_sbpmt", "data.load_csv", "data.encode_rows",
]
_SELF_ONLY = [
    "ensemble.fit_sbpmt", "ensemble.draw_design", "model_io.model_to_dict",
    "model_io.serialize_model", "model_io.save_model",
    "model_io.model_from_dict", "model_io.deserialize_model",
    "model_io.load_model", "cli.cmd_train", "cli.cmd_predict",
]

# Every per-layer metric, in output order, with its unit.
PER_LAYER = (
    [(f"{f}.{k}", u) for f in _CALLS_AND_SELF
     for k, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"{f}.self_s", "s") for f in _SELF_ONLY]
    + [("cart.route_many.rows", "rows"), ("pmt.predict_pmt_many.rows", "rows"),
       ("probitboost.iterations", "count"),
       ("probitboost.iterations_ratio", "ratio"),
       ("probitboost.halvings", "count"), ("cart.leaves", "count"),
       ("cart.leaf_rows_mean", "rows"), ("ensemble.stages", "count"),
       ("ensemble.stages_ratio", "ratio")]
    + [(f"layer.{layer}.self_s", "s") for layer in LAYERS]
    + [("trace.traced_s", "s"), ("trace.untraced_s", "s"),
       ("trace.overhead_s", "s"), ("trace.remainder_s", "s"),
       ("trace.spans", "count")]
)


def self_times(parent, start, end) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so a span's children never overlap and
    their durations add up to the part of the span they cover.
    """
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    return dur - covered


class Tracer:
    def __init__(self, sbpmt_package):
        self.package = sbpmt_package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack = [-1]
        self._saved: list = []
        self.recording = False
        self.counters: dict[str, float] = {}

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    # -- spans ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def op(self, name: str):
        """Root span around one operation of the benchmark; the library is
        traced only inside such spans."""
        return _Op(self, self.intern(OP_PREFIX + name))

    # -- wrapping --------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"{self.package.__name__}.{layer}")
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                setattr(module, attr, self._wrap(f"{layer}.{attr}", fn))
                self._saved.append((module, attr, fn))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn):
        nid = self.intern(name)
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None
        hook_id = self.intern(HOOK_SPAN)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            sid = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if hook is not None:
                hid = self._open(hook_id)
                hook(self, sig.bind(*args, **kwargs).arguments, result)
                self._close(hid)
            return result

        return wrapper

    # -- reduction -------------------------------------------------------

    def arrays(self):
        return (np.asarray(self.name_id, dtype=np.int64),
                np.asarray(self.parent, dtype=np.int64),
                np.asarray(self.start), np.asarray(self.end))

    def save(self, path) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id,
                 parent=parent, start=start, end=end)


class _Op:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.sid = self.tracer._open(self.nid)
        self.tracer.recording = True

    def __exit__(self, *exc):
        self.tracer.recording = False
        self.tracer._close(self.sid)
        return False


# -- hooks: counts taken at the layer boundary from a call's arguments and
# result.  They run in their own HOOK_SPAN so they cost no layer time.

def _probitboost_hook(tr: Tracer, args, result):
    _, trace = result
    risks = trace.risks
    if any(b > a for a, b in zip(risks, risks[1:])):
        tr.count("probitboost.risk_increases")
    tr.count("probitboost.iterations", len(trace.selected_features))
    tr.count("probitboost.requested", args["n_iter"])


def _build_tree_hook(tr: Tracer, args, tree):
    todo = [tree]
    while todo:
        node = todo.pop()
        if hasattr(node, "rows"):
            tr.count("cart.leaves")
            tr.count("cart.leaf_rows", len(node.rows))
        else:
            todo += [node.left, node.right]


def _rows_hook(key):
    def hook(tr: Tracer, args, result):
        tr.count(key, np.shape(args["X"])[0])
    return hook


def _fit_sbpmt_hook(tr: Tracer, args, model):
    cfg = args["config"]
    tr.count("ensemble.stages", sum(len(m.stages) for m in model.members))
    tr.count("ensemble.stages_requested", cfg.M * cfg.T)


HOOKS = {
    "probitboost.fit_probitboost": _probitboost_hook,
    "cart.build_tree": _build_tree_hook,
    "cart.route_many": _rows_hook("cart.route_many.rows"),
    "pmt.predict_pmt_many": _rows_hook("pmt.predict_pmt_many.rows"),
    "ensemble.fit_sbpmt": _fit_sbpmt_hook,
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer_metrics(tr: Tracer, untraced_s: float):
    """(metrics, problems): every PER_LAYER metric from the recorded spans,
    and the failed consistency checks (empty when all hold).  ProbitBoost
    traces whose risk rose are counted by the hook and fail the operation
    they occurred in."""
    name_id, parent, start, end = tr.arrays()
    own = self_times(parent, start, end)
    n_names = len(tr.names)
    calls = np.bincount(name_id, minlength=n_names)
    self_by_name = np.bincount(name_id, weights=own, minlength=n_names)

    def stat(name, which):
        i = tr._ids.get(name)
        if i is None:
            return 0 if which == "calls" else 0.0
        return int(calls[i]) if which == "calls" else float(self_by_name[i])

    c = tr.counters.get
    m = {}
    for f in _CALLS_AND_SELF:
        m[f"{f}.calls"] = stat(f, "calls")
        m[f"{f}.self_s"] = stat(f, "self_s")
    for f in _SELF_ONLY:
        m[f"{f}.self_s"] = stat(f, "self_s")
    m["cart.route_many.rows"] = int(c("cart.route_many.rows", 0))
    m["pmt.predict_pmt_many.rows"] = int(c("pmt.predict_pmt_many.rows", 0))

    fits = stat("probitboost.fit_probitboost", "calls")
    steps = int(c("probitboost.iterations", 0))
    loss_in_fit = 0
    if fits:
        parent_name = name_id[np.maximum(parent, 0)]
        loss_in_fit = int(np.sum(
            (name_id == tr._ids["numerics.probit_loss"]) & (parent >= 0)
            & (parent_name == tr._ids["probitboost.fit_probitboost"])))
    m["probitboost.iterations"] = steps
    m["probitboost.iterations_ratio"] = _ratio(
        steps, c("probitboost.requested", 0))
    m["probitboost.halvings"] = (loss_in_fit - fits - steps) if fits else 0
    m["cart.leaves"] = int(c("cart.leaves", 0))
    m["cart.leaf_rows_mean"] = _ratio(c("cart.leaf_rows", 0),
                                      c("cart.leaves", 0))
    m["ensemble.stages"] = int(c("ensemble.stages", 0))
    m["ensemble.stages_ratio"] = _ratio(c("ensemble.stages", 0),
                                        c("ensemble.stages_requested", 0))

    layer_of = [n.split(".", 1)[0] for n in tr.names]
    layer_total = 0.0
    for layer in LAYERS:
        ids = [i for i, lay in enumerate(layer_of) if lay == layer]
        m[f"layer.{layer}.self_s"] = float(np.sum(self_by_name[ids]))
        layer_total += m[f"layer.{layer}.self_s"]
    bench_ids = [i for i, n in enumerate(tr.names) if n.startswith(OP_PREFIX)]
    remainder = float(np.sum(self_by_name[bench_ids]))
    roots = parent < 0
    traced = float(np.sum(end[roots] - start[roots]))
    m["trace.traced_s"] = traced
    m["trace.untraced_s"] = untraced_s
    m["trace.overhead_s"] = traced - untraced_s
    m["trace.remainder_s"] = remainder
    m["trace.spans"] = int(name_id.size)

    problems = []
    if abs(layer_total + remainder - traced) > 1e-6 * max(1.0, traced):
        problems.append(f"layer self times {layer_total} + remainder "
                        f"{remainder} != traced time {traced}")
    return m, problems
