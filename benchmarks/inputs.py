"""Input generators for the benchmark, with their Bayes rules.

Everything here is computed apart from the library under test: the
simulation, its Bayes rule, the CSV files and the one-hot encoder that the
CSV workload's outputs are checked against.  The library only ever sees
the arrays or files made here.
"""

from __future__ import annotations

import csv
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# Mease & Wyner (JMLR 2008) simulation, as used by the paper: X uniform on
# [0,1]^10, P(y=1|x) = 0.9 if x1+...+x5 > 5/2 else 0.1.
SIM_D = 10
SIM_E = 5
SIM_Q = 0.1

# CSV workload: 8 numeric and 2 categorical columns, four classes.  Level
# names are chosen so that lexicographic order differs from numeric order.
CSV_NUMERIC = [f"x{j}" for j in range(1, 9)]
CSV_CAT_A = ("shade", ["lv1", "lv2", "lv3", "lv10", "lv11"])
CSV_CAT_B = ("batch", ["q1", "q2", "q3", "q9", "q10", "q11", "q12", "q20"])
CSV_CLASSES = ["north", "east", "south", "west"]
CSV_LABEL = "class"
CSV_NOISE = 0.1
# Shift of the x3 threshold per level of CSV_CAT_A, so the category matters.
_CAT_A_SHIFT = {"lv1": -0.25, "lv2": -0.1, "lv3": 0.0, "lv10": 0.1,
                "lv11": 0.25}


def import_sbpmt():
    """Import sbpmt and its CLI from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "sbpmt" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no sbpmt sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import sbpmt
    import sbpmt.cli  # noqa: F401  (not imported by the package itself)
    if Path(sbpmt.__file__).resolve().parent != (src / "sbpmt").resolve():
        raise SystemExit(f"benchmark: sbpmt imported from {sbpmt.__file__}, "
                         f"not from {src}")
    return sbpmt


@dataclass
class SimData:
    X: np.ndarray
    y: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray
    bayes_test: np.ndarray  # Bayes-rule class of every test row


@dataclass
class CsvData:
    train_path: Path
    test_path: Path       # features only, no label column
    y_test_names: list    # true (noisy) label of every test row
    bayes_test_names: list


def sim_bayes(X) -> np.ndarray:
    return (X[:, :SIM_E].sum(axis=1) > SIM_E / 2.0).astype(int)


def _sim_rows(rng, n):
    X = rng.random((n, SIM_D))
    p1 = np.where(sim_bayes(X) == 1, 1.0 - SIM_Q, SIM_Q)
    y = (rng.random(n) < p1).astype(int)
    return X, y


def make_sim(seed: int, n_train: int, n_test: int) -> SimData:
    rng = np.random.default_rng([seed, 1])
    X, y = _sim_rows(rng, n_train)
    X_test, y_test = _sim_rows(rng, n_test)
    return SimData(X=X, y=y, X_test=X_test, y_test=y_test,
                   bayes_test=sim_bayes(X_test))


def csv_bayes(numeric: np.ndarray, cat_a: list) -> list:
    """Noise-free class name for rows given their numeric block and the
    level of the first categorical column."""
    shift = np.array([_CAT_A_SHIFT[v] for v in cat_a])
    b1 = numeric[:, 0] + numeric[:, 1] > 1.0
    b2 = numeric[:, 2] + shift > 0.5
    return [CSV_CLASSES[k] for k in 2 * b1.astype(int) + b2.astype(int)]


def _csv_rows(rng, n):
    # numeric cells are rounded to the 6 decimals written to the file, so
    # the Bayes rule sees exactly what a reader of the file sees
    numeric = np.round(rng.random((n, len(CSV_NUMERIC))), 6)
    cat_a = [CSV_CAT_A[1][k] for k in rng.integers(len(CSV_CAT_A[1]), size=n)]
    cat_b = [CSV_CAT_B[1][k] for k in rng.integers(len(CSV_CAT_B[1]), size=n)]
    clean = csv_bayes(numeric, cat_a)
    flip = rng.random(n) < CSV_NOISE
    other = rng.integers(1, len(CSV_CLASSES), size=n)
    labels = [CSV_CLASSES[(CSV_CLASSES.index(c) + o) % len(CSV_CLASSES)]
              if f else c for c, f, o in zip(clean, flip, other)]
    return numeric, cat_a, cat_b, labels, clean


def _write_csv(path, numeric, cat_a, cat_b, labels=None):
    # the categorical columns sit between numeric ones, so their one-hot
    # blocks land in the middle of the encoded matrix
    header = (CSV_NUMERIC[:4] + [CSV_CAT_A[0]] + CSV_NUMERIC[4:]
              + [CSV_CAT_B[0]] + ([CSV_LABEL] if labels is not None else []))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(numeric.shape[0]):
            cells = [f"{v:.6f}" for v in numeric[i]]
            row = cells[:4] + [cat_a[i]] + cells[4:] + [cat_b[i]]
            if labels is not None:
                row.append(labels[i])
            w.writerow(row)


def make_csv(seed: int, n_train: int, n_test: int, workdir) -> CsvData:
    rng = np.random.default_rng([seed, 2])
    workdir = Path(workdir)
    train_path = workdir / "train.csv"
    test_path = workdir / "test.csv"
    num, ca, cb, labels, _ = _csv_rows(rng, n_train)
    _write_csv(train_path, num, ca, cb, labels)
    num, ca, cb, labels, clean = _csv_rows(rng, n_test)
    _write_csv(test_path, num, ca, cb)
    return CsvData(train_path=train_path, test_path=test_path,
                   y_test_names=labels, bayes_test_names=clean)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    return rows[0], rows[1:]


def fit_encoder(header, rows, label):
    """Column plan from a training file: numeric columns stay, every other
    column becomes one 0/1 column per level, levels sorted as strings."""
    plan = []
    for c, name in enumerate(header):
        if name == label:
            continue
        values = [row[c] for row in rows]
        try:
            [float(v) for v in values]
            plan.append((name, None))
        except ValueError:
            plan.append((name, sorted(set(values))))
    return plan


def encode(plan, header, rows) -> np.ndarray:
    index = {name: c for c, name in enumerate(header)}
    width = sum(1 if levels is None else len(levels) for _, levels in plan)
    X = np.zeros((len(rows), width))
    col = 0
    for name, levels in plan:
        c = index[name]
        if levels is None:
            X[:, col] = [float(row[c]) for row in rows]
            col += 1
        else:
            for r, row in enumerate(rows):
                X[r, col + levels.index(row[c])] = 1.0
            col += len(levels)
    return X


def make_inputs(workload_kind: str, seed: int, sizes: dict, workdir):
    """Generate one workload's inputs; for CSV this writes the files."""
    Path(workdir).mkdir(parents=True, exist_ok=True)
    if workload_kind == "sim":
        return make_sim(seed, sizes["n_train"], sizes["n_test"])
    return make_csv(seed, sizes["n_train"], sizes["n_test"], workdir)
