"""Tests of the benchmark itself: generators, encoder, tracer, small runs.

Run from the root of a checkout:  python3 -m pytest benchmarks
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import inputs
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sb = inputs.import_sbpmt()


def test_sim_generator_matches_its_distribution():
    d = inputs.make_sim(seed=11, n_train=20000, n_test=20000)
    assert d.X.shape == (20000, inputs.SIM_D)
    assert d.X.min() >= 0.0 and d.X.max() < 1.0
    assert np.allclose(d.X.mean(axis=0), 0.5, atol=0.01)
    bayes = inputs.sim_bayes(d.X)
    # P(y=1|x) is 0.9 on one side of x1+..+x5 = 5/2 and 0.1 on the other
    assert abs(d.y[bayes == 1].mean() - 0.9) < 0.01
    assert abs(d.y[bayes == 0].mean() - 0.1) < 0.01
    assert abs(np.mean(d.bayes_test != d.y_test) - inputs.SIM_Q) < 0.01


def test_sim_generator_is_seeded():
    a = inputs.make_sim(seed=5, n_train=50, n_test=50)
    b = inputs.make_sim(seed=5, n_train=50, n_test=50)
    c = inputs.make_sim(seed=6, n_train=50, n_test=50)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y_test, b.y_test)
    assert not np.array_equal(a.X, c.X)


def test_csv_generator_matches_its_distribution(tmp_path):
    d = inputs.make_csv(seed=4, n_train=200, n_test=20000, workdir=tmp_path)
    header, rows = inputs.read_csv(d.test_path)
    assert inputs.CSV_LABEL not in header and len(rows) == 20000
    truth, clean = np.array(d.y_test_names), np.array(d.bayes_test_names)
    assert abs(np.mean(truth != clean) - inputs.CSV_NOISE) < 0.01
    # flipped labels go to each other class about equally often
    flipped = truth[truth != clean]
    shares = [np.mean(flipped == c) for c in inputs.CSV_CLASSES]
    assert max(shares) < 0.3
    # the Bayes rule recomputed from the file's cells gives the same class
    num = np.array([[float(r[header.index(c)]) for c in inputs.CSV_NUMERIC]
                    for r in rows])
    shade = [r[header.index(inputs.CSV_CAT_A[0])] for r in rows]
    assert inputs.csv_bayes(num, shade) == d.bayes_test_names
    assert set(shade) == set(inputs.CSV_CAT_A[1])


def test_encoder_sorts_levels_lexicographically():
    header = ["a", "cat", "label"]
    rows = [["0.5", "lv10", "x"], ["1", "lv2", "y"], ["2", "lv1", "x"]]
    plan = inputs.fit_encoder(header, rows, "label")
    assert plan == [("a", None), ("cat", ["lv1", "lv10", "lv2"])]
    X = inputs.encode(plan, header, rows)
    assert X.tolist() == [[0.5, 0, 1, 0], [1, 0, 0, 1], [2, 1, 0, 0]]


def test_encoder_agrees_with_load_csv(tmp_path):
    d = inputs.make_csv(seed=2, n_train=300, n_test=10, workdir=tmp_path)
    header, rows = inputs.read_csv(d.train_path)
    plan = inputs.fit_encoder(header, rows, inputs.CSV_LABEL)
    ours = inputs.encode(plan, header, rows)
    theirs = sb.data.load_csv(d.train_path, inputs.CSV_LABEL)
    assert ours.shape == (300, 21)
    assert np.array_equal(ours, theirs.X)


def test_self_times_on_a_hand_built_tree():
    #   0 [0, 10]
    #   +- 1 [1, 4]
    #   |  +- 3 [2, 3]
    #   +- 2 [5, 9]
    #   4 [11, 12]   (a second root)
    parent = [-1, 0, 0, 1, -1]
    start = [0.0, 1.0, 5.0, 2.0, 11.0]
    end = [10.0, 4.0, 9.0, 3.0, 12.0]
    own = tracer.self_times(parent, start, end)
    assert own.tolist() == [3.0, 2.0, 4.0, 1.0, 1.0]
    assert own.sum() == 11.0  # the two roots' durations


def _public_functions():
    import importlib
    return {(layer, name): fn
            for layer in tracer.LAYERS
            for name, fn in vars(importlib.import_module(
                f"sbpmt.{layer}")).items() if callable(fn)}


def test_wrappers_restore_the_original_functions():
    before = _public_functions()
    tr = tracer.Tracer(sb)
    tr.install()
    try:
        during = _public_functions()
        assert during[("cart", "build_tree")] is not before[("cart",
                                                               "build_tree")]
        assert during[("cli", "main")] is not before[("cli", "main")]
    finally:
        tr.restore()
    after = _public_functions()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_wrappers_record_only_inside_an_operation():
    tr = tracer.Tracer(sb)
    tr.install()
    try:
        sb.numerics.probit_loss(np.zeros(3))
        assert tr.start == []
        with tr.op("probe"):
            sb.numerics.probit_loss(np.zeros(3))
    finally:
        tr.restore()
    assert [tr.names[i] for i in tr.name_id] == ["bench.probe",
                                                 "numerics.probit_loss"]
    assert tr.parent == [-1, 0]


def test_benchmark_json_names_the_metrics_the_code_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.SPECS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        workloads.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        tracer.PER_LAYER


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(workloads.SPECS))
def test_small_run_passes_its_checks(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--small"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = (workloads.END_TO_END if trace == "0" else tracer.PER_LAYER)
    assert list(result["metrics"]) == [name for name, _ in expected]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "sim-fit", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
