"""The benchmark's tracer counts fits and rows through hooks keyed by the
names of sbpmt's public functions.  A hook whose function was renamed or
made private is silently never installed, so its counts would read 0."""

import importlib
import inspect
import runpy
from pathlib import Path

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
