"""What importing and using sbpmt loads of SciPy.

SciPy serves only the probit kernels in numerics, which look
scipy.special up when they are called, so a process that never fits
never imports it: importing sbpmt and its CLI, loading a model,
predicting and the bound calculators load the SciPy package alone.  A
fit that forks workers imports scipy.special in the parent first, so
the workers inherit it instead of each importing it again.  Each case
runs in a fresh interpreter, since this one has long since imported it.
test_only_numerics_imports_scipy keeps the rule in the source: a
`from scipy import ...` or an `import scipy.<submodule>` would load the
submodule with the package.  test_only_make_tree_builds_a_pmt_model keeps
another: pmt.make_tree is the one constructor of a PmtModel, for one tree
and for a committee's trees alike.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sbpmt import cli

SRC = Path(cli.__file__).resolve().parents[1]

READ_ONLY = """
import sys
import sbpmt, sbpmt.cli
from sbpmt import cli, data, ensemble, model_io

model_path, csv_path, out_path = sys.argv[1:]
model = model_io.load_model(model_path)
ensemble.predict_sbpmt_many(model,
                            data.load_csv(csv_path, schema=model.schema).X)
assert cli.main(["predict", "--model", model_path, "--data", csv_path,
                 "--out", out_path]) == 0
for argv in (
        ["--theorem", "3", "--from-model", model_path, "--data", csv_path,
         "--sigma1-sq", "0.25", "--beta", "1", "--gamma", "1"],
        ["--theorem", "4", "--n", "1000", "--T", "5", "--d-vc", "20",
         "--empirical-error", "0.1"],
        ["--theorem", "5", "--errors", "0.2,0.3"],
        ["--theorem", "6", "--probit-risks", "0.1,0.05", "--n", "1000",
         "--d-vc", "20"]):
    assert cli.main(["bound", *argv]) == 0, argv
assert "scipy" in sys.modules
assert "scipy.special" not in sys.modules
"""

# _fit_member is replaced by a check that runs first in each worker; the
# fork start method pickles it by reference to this script's __main__.
POOL = """
import sys
import numpy as np
from sbpmt import ensemble

fit_member = ensemble._fit_member


def inherited_fit_member(*args):
    assert "scipy.special" in sys.modules, "a worker lacks scipy.special"
    return fit_member(*args)


ensemble._fit_member = inherited_fit_member
ensemble._usable_cpus = lambda: 2  # the pool starts whatever the host
X = np.random.default_rng(0).uniform(-1, 1, size=(40, 2))
y = (X[:, 0] > 0).astype(int)
ensemble.fit_sbpmt(X, y, 2, ensemble.SbpmtConfig(M=2, T=1, B=2, depth=1,
                                                 min_leaf_size=5),
                   workers=2)
assert "scipy.special" in sys.modules
"""


def run_fresh(script: str, *argv) -> None:
    out = subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert out.returncode == 0, out.stderr


def test_import_predict_and_bound_leave_scipy_special_unloaded(tmp_path):
    csv_path = tmp_path / "train.csv"
    csv_path.write_text("f1,f2,label\n" + "".join(
        f"{i % 7 / 7:.3f},{i % 5 / 5:.3f},{'ab'[i % 7 > 3]}\n"
        for i in range(60)), encoding="utf-8")
    model_path = tmp_path / "model.json"
    assert cli.main(["train", "--data", str(csv_path), "--out",
                     str(model_path), "--M", "2", "--T", "1", "--B", "2",
                     "--depth", "1", "--min-leaf", "5"]) == 0
    run_fresh(READ_ONLY, model_path, csv_path, tmp_path / "pred.csv")


@pytest.mark.skipif(sys.platform == "win32" or not hasattr(os, "fork"),
                    reason="the worker pool needs the fork start method")
def test_pool_workers_inherit_scipy_special():
    run_fresh(POOL)


def scipy_imports(path: Path):
    """(line, what) of every import of SciPy in a module other than a
    module-level `import scipy`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    top = {id(node) for node in tree.body}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "scipy":
                yield node.lineno, f"from {node.module} import ..."
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "scipy":
                    continue
                if (alias.name != "scipy" or alias.asname
                        or id(node) not in top):
                    yield node.lineno, f"import {alias.name}"
                elif path.stem != "numerics":
                    yield node.lineno, "import scipy outside numerics"


def test_only_numerics_imports_scipy():
    found = [f"{path.name}:{line}: {what}"
             for path in sorted((SRC / "sbpmt").glob("*.py"))
             for line, what in scipy_imports(path)]
    assert found == []


def model_constructions(node, where="<module>"):
    """(line, function) of every PmtModel(...) call under node, the
    function being the innermost def around the call."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from model_constructions(child, child.name)
            continue
        if isinstance(child, ast.Call):
            func = child.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None)
            if name == "PmtModel":
                yield child.lineno, where
        yield from model_constructions(child, where)


def test_only_make_tree_builds_a_pmt_model():
    calls = [(path.stem, line, where)
             for path in sorted((SRC / "sbpmt").glob("*.py"))
             for line, where in model_constructions(
                 ast.parse(path.read_text(encoding="utf-8"), str(path)))]
    assert [(module, where) for module, _, where in calls] == [
        ("pmt", "make_tree")], calls
