"""Dataset ingestion, encoding, CV splitting and the synthetic generator.

CSV files are comma-delimited UTF-8 with '.' decimals; a leading
byte-order mark is dropped.  Numeric columns are parsed as reals; any
other column is one-hot expanded, one 0/1 column per observed level
(levels sorted lexicographically).  The label column is mapped to class
indices in first-appearance order, or through a fitted model's schema,
which check_schema vets as the model loader does.  Rows with missing
cells or of the wrong width are rejected at ingestion.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, fields

import numpy as np


@dataclass
class Dataset:
    X: np.ndarray             # (n, p) encoded feature matrix
    y: np.ndarray | None      # class indices 0..J-1; None without labels
    schema: dict              # column/label metadata for round-trip encoding

    @property
    def class_names(self) -> list[str]:
        return self.schema["label"]["classes"]

    @property
    def feature_names(self) -> list[str]:
        return _feature_names(self.schema)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


def _is_numeric_column(values: list[str]) -> bool:
    for v in values:
        try:
            float(v)
        except ValueError:
            return False
    return True


def _read_rows(path, has_header: bool):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            rows = [row for row in reader if row]
        except csv.Error as exc:
            raise ValueError(
                f"{path}, line {reader.line_num}: {exc}") from None
    header = rows.pop(0) if has_header and rows else None
    return header, rows


def _check_rows(rows, header) -> int:
    """Reject rows narrower or wider than the header (or, without one, the
    first row) and empty cells; returns the width."""
    width = len(header) if header is not None else len(rows[0])
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"inconsistent column counts: row {r + 1} has "
                             f"{len(row)} cells, expected {width}")
        for c, cell in enumerate(row):
            if cell.strip() == "":
                col = header[c] if header else str(c)
                raise ValueError(f"missing value at row {r + 1}, column {col}")
    return width


def _check_unique(header) -> None:
    if header is not None and len(set(header)) < len(header):
        name = next(h for i, h in enumerate(header) if h in header[:i])
        raise ValueError(f"header repeats column {name!r}")


def check_inputs(X, y=None, n_classes: int | None = None,
                 n_features: int | None = None):
    """Reject input the models cannot take, with a message naming it.

    X must be a 2-D array of finite values with at least one column (with
    n_features columns when given); y, when given, one class index in
    0..n_classes-1 per row, with n_classes >= 2.
    Returns (X as floats, y); a fit (y given) also needs at least one row.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got {X.ndim}-D")
    if X.shape[1] == 0:
        raise ValueError("X has no feature columns")
    if n_features is not None and X.shape[1] != n_features:
        raise ValueError(f"feature dimension mismatch: got {X.shape[1]}, "
                         f"expected {n_features}")
    if not np.isfinite(X).all():
        r, c = np.argwhere(~np.isfinite(X))[0]
        raise ValueError(f"non-finite value {X[r, c]} in row {r + 1}, "
                         f"feature {c + 1}")
    if y is not None:
        if n_classes < 2:
            raise ValueError("need at least 2 classes")
        y = np.asarray(y)
        if X.shape[0] == 0:
            raise ValueError("empty data")
        if y.shape != (X.shape[0],) or y.dtype.kind not in "iu":
            raise ValueError("need one integer class index per row")
        out = (y < 0) | (y >= n_classes)
        if np.any(out):
            raise ValueError(f"label {y[out][0]} outside 0..{n_classes - 1}")
    return X, y


def check_config(config, **lows) -> None:
    """Reject a config dataclass with a field of the wrong kind (an integer
    field takes an int, not a bool or a float; a float field a finite int
    or float) or with a field below its lower bound in lows."""
    for f in fields(config):
        v = getattr(config, f.name)
        if not (type(v) in (int, float) and math.isfinite(v)
                if isinstance(f.default, float) else type(v) is int):
            raise ValueError(f"config: {f.name} must be a number of the "
                             f"kind of its default {f.default!r}")
    for name, low in lows.items():
        if getattr(config, name) < low:
            raise ValueError(f"config: need {name} >= {low}, got "
                             f"{name} = {getattr(config, name)}")


def check_weights(sample_weights, n: int) -> np.ndarray:
    """Reject sample weights a fit cannot take: there must be one finite,
    nonnegative weight per row, with a positive, finite sum.  Returns the
    weights as floats."""
    w = np.asarray(sample_weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"need one sample weight per row: got shape "
                         f"{w.shape}, expected ({n},)")
    if not np.all(np.isfinite(w)):
        raise ValueError("sample weights must be finite")
    if np.any(w < 0):
        raise ValueError("sample weights must be nonnegative")
    if not 0.0 < float(np.sum(w)) < np.inf:
        raise ValueError("sample weights must have positive sum")
    return w


# The keys of a schema and of its label and columns.
_SCHEMA_KEYS = {"label", "columns", "has_header"}
_LABEL_KEYS = {"name", "position", "classes"}
_COLUMN_KEYS = {"numeric": {"name", "kind", "position"},
                "categorical": {"name", "kind", "position", "levels"}}


def check_keys(obj, keys: set, where: str) -> None:
    """Reject obj unless it is a dict with exactly the given keys."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} is not a JSON object")
    if obj.keys() != keys:
        raise ValueError(f"{where}: missing keys {sorted(keys - set(obj))}, "
                         f"unknown keys {sorted(set(obj) - keys)}")


def _distinct_strings(values) -> bool:
    return (isinstance(values, list) and all(isinstance(v, str) for v in values)
            and len(set(values)) == len(values))


def check_schema(schema, n_classes: int | None = None,
                 n_features: int | None = None) -> None:
    """Reject a schema that encode_rows could not follow: every column
    needs a name, a kind and a position (a categorical one also its
    levels), names and positions must be distinct, and the label must list
    at least 2 classes.  When given, the label must list n_classes classes
    and the columns must encode n_features features."""
    check_keys(schema, _SCHEMA_KEYS, "schema")
    if not isinstance(schema["has_header"], bool):
        raise ValueError("schema: has_header must be true or false")
    label = schema["label"]
    check_keys(label, _LABEL_KEYS, "schema label")
    classes = label["classes"]
    if not (_distinct_strings(classes) and (
            len(classes) >= 2 if n_classes is None
            else len(classes) == n_classes)):
        want = "at least 2" if n_classes is None else n_classes
        raise ValueError(f"schema label: classes must be {want} distinct "
                         "strings, one per class")
    columns = schema["columns"]
    if not isinstance(columns, list) or not columns:
        raise ValueError("schema: columns must be a nonempty list")
    for i, col in enumerate(columns):
        where = f"schema column {i}"
        kind = col.get("kind") if isinstance(col, dict) else None
        check_keys(col, _COLUMN_KEYS["categorical" if kind == "categorical"
                                     else "numeric"], where)
        if kind not in _COLUMN_KEYS:
            raise ValueError(f"{where}: kind must be 'numeric' or "
                             f"'categorical', got {kind!r}")
        if kind == "categorical" and not (_distinct_strings(col["levels"])
                                          and col["levels"]):
            raise ValueError(f"{where}: levels must be a nonempty list of "
                             "distinct strings")
    for where, col in [("schema label", label)] + [
            (f"schema column {i}", c) for i, c in enumerate(columns)]:
        if not isinstance(col["name"], str):
            raise ValueError(f"{where}: name must be a string")
        position = col["position"]
        if type(position) is not int or position < 0:
            raise ValueError(f"{where}: position must be an integer >= 0")
    named = [label] + columns
    for key in ("name", "position"):
        if len({col[key] for col in named}) < len(named):
            raise ValueError(f"schema: two columns share a {key}")
    width = len(_feature_names(schema))
    if n_features is not None and width != n_features:
        raise ValueError(f"schema: the columns encode {width} features, "
                         f"but the trees read {n_features}")


def load_csv(path, label_column=-1, has_header: bool = True,
             schema: dict | None = None) -> Dataset:
    """Load and encode a CSV file through encode_rows.

    Without a schema, one is inferred from the file: label_column (a name
    or an index) holds the labels, and classes follow first appearance.
    With a schema (a fitted model's), the file is encoded under it and
    label_column is not used; the file may lack the label column, and y is
    then None.  A schema that encode_rows could not follow raises
    ValueError (see check_schema).
    """
    if schema is not None:
        check_schema(schema)
        has_header = has_header and schema["has_header"]
    header, rows = _read_rows(path, has_header)
    if schema is None:
        if not rows:
            raise ValueError(f"no data rows in {path}")
        schema = _infer_schema(header, rows, label_column)
    X, y = encode_rows(rows, header, schema)
    check_inputs(X)
    return Dataset(X=X, y=y, schema=schema)


def _infer_schema(header, rows, label_column) -> dict:
    # encode_rows checks the header and every cell; only the widths are
    # needed here, and a row of another width is reported as _check_rows would.
    width = len(header) if header is not None else len(rows[0])
    if any(len(row) != width for row in rows):
        _check_rows(rows, header)
    try:
        label_idx = int(label_column)
    except ValueError:
        if header is None:
            raise ValueError("label column by name requires a header")
        if label_column not in header:
            raise ValueError(f"label column {label_column!r} not found")
        label_idx = header.index(label_column)
    if label_idx < 0:
        label_idx += width
    if not 0 <= label_idx < width:
        raise ValueError("label column index out of range")
    if width == 1:
        raise ValueError("no feature columns: the label is the only column")

    class_names = list(dict.fromkeys(row[label_idx] for row in rows))
    if len(class_names) < 2:
        raise ValueError("need at least 2 classes")

    columns = []
    for c in range(width):
        if c == label_idx:
            continue
        name = header[c] if header else f"col{c}"
        values = [row[c] for row in rows]
        if _is_numeric_column(values):
            columns.append({"name": name, "kind": "numeric", "position": c})
        else:
            levels = sorted(set(values))
            columns.append({"name": name, "kind": "categorical",
                            "position": c, "levels": levels})

    return {
        "label": {"name": header[label_idx] if header else f"col{label_idx}",
                  "position": label_idx, "classes": class_names},
        "columns": columns,
        "has_header": header is not None,
    }


def _feature_names(schema) -> list[str]:
    names = []
    for col in schema["columns"]:
        if col["kind"] == "numeric":
            names.append(col["name"])
        else:
            names.extend(f"{col['name']}={lv}" for lv in col["levels"])
    return names


def encode_rows(rows, header, schema):
    """Encode raw CSV rows under a recorded schema; returns (X, y).

    Columns are matched by name.  Rows without a header take the names of
    the schema's recorded positions, less the label's when the rows are
    too narrow to hold it.  y holds each row's index in
    schema["label"]["classes"], or is None when the rows carry no label
    column.  A header that repeats a name, rows of another width than the
    header (or the first row), empty cells, non-numeric cells in numeric
    columns and labels outside the class list raise ValueError.  Unseen
    categorical levels encode as an all-zero one-hot block with a warning.
    """
    label = schema["label"]
    _check_unique(header)
    if not rows:
        return np.zeros((0, len(_feature_names(schema)))), None
    width = _check_rows(rows, header)
    if header is None:
        named = sorted([label, *schema["columns"]],
                       key=lambda col: col["position"])
        if width <= len(schema["columns"]):
            named.remove(label)
        header = [col["name"] for col in named[:width]]
    index = {name: i for i, name in enumerate(header)}
    label_idx = index.get(label["name"])

    blocks = []
    for col in schema["columns"]:
        if col["name"] not in index:
            raise ValueError(f"column {col['name']!r} missing from input")
        raw = [row[index[col["name"]]] for row in rows]
        if col["kind"] == "numeric":
            try:
                blocks.append(np.array([float(v) for v in raw])[:, None])
            except ValueError:
                raise ValueError(f"non-numeric value in column {col['name']!r}")
        else:
            unseen = sorted(set(raw) - set(col["levels"]))
            if unseen:
                warnings.warn(f"column {col['name']!r}: unseen levels "
                              f"{unseen} encoded as all-zero")
            blocks.append((np.array(raw)[:, None]
                           == np.array(col["levels"])).astype(float))
    y = None
    if label_idx is not None:
        class_of = {c: i for i, c in enumerate(label["classes"])}
        try:
            y = np.array([class_of[row[label_idx]] for row in rows])
        except KeyError as exc:
            raise ValueError(f"label {exc.args[0]!r} is not one of the "
                             f"classes {label['classes']}") from None
    return np.hstack(blocks), y


def stratified_kfold(y, k: int, seed: int):
    """k (train_indices, test_indices) pairs with per-class round-robin
    assignment after a seeded shuffle.  Folds partition the rows and class
    proportions stay within one instance of the global ones."""
    y = np.asarray(y)
    n = y.size
    if not 2 <= k <= n:
        raise ValueError("k must be between 2 and n")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(n, dtype=int)
    next_fold = 0
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        idx = idx[rng.permutation(idx.size)]
        for i, row in enumerate(idx):
            fold_of[row] = (next_fold + i) % k
        next_fold = (next_fold + idx.size) % k
    splits = []
    for f in range(k):
        test = np.flatnonzero(fold_of == f)
        train = np.flatnonzero(fold_of != f)
        splits.append((train, test))
    return splits


@dataclass(frozen=True)
class SimConfig:
    """Synthetic binary problem: X uniform on [0,1]^d, P(Y=1|x) jumps from
    q to 1-q when the first E coordinates sum past E/2 (q = Bayes error).
    Frozen and checked when built, like ensemble.SbpmtConfig."""

    d: int = 10
    E: int = 5
    q: float = 0.1
    n_train: int = 2000
    n_test: int = 10000
    seed: int = 0

    def __post_init__(self):
        check_config(self, d=1, n_train=1, n_test=1, seed=0)
        if not 1 <= self.E <= self.d:
            raise ValueError("effective dimension must satisfy 1 <= E <= d")
        if not 0.0 <= self.q < 0.5:
            raise ValueError("Bayes error q must be in [0, 0.5)")


def _sim_dataset(rng, n, cfg: SimConfig) -> Dataset:
    X = rng.random((n, cfg.d))
    p1 = cfg.q + (1.0 - 2.0 * cfg.q) * (X[:, :cfg.E].sum(axis=1) > cfg.E / 2.0)
    y = (rng.random(n) < p1).astype(int)
    return Dataset(X=X, y=y, schema={
        "label": {"name": "y", "position": cfg.d, "classes": ["-1", "1"]},
        "columns": [{"name": f"x{j + 1}", "kind": "numeric", "position": j}
                    for j in range(cfg.d)],
        "has_header": True})


def simulate(cfg: SimConfig):
    """Generate (train, test) datasets, reproducible from cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    return _sim_dataset(rng, cfg.n_train, cfg), _sim_dataset(rng, cfg.n_test, cfg)


def accuracy(predictions, labels) -> float:
    """Classification accuracy as a percentage."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.size == 0:
        raise ValueError("empty predictions")
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels differ in length")
    return 100.0 * float(np.mean(predictions == labels))


def summarize_cv(fold_accuracies):
    """(mean, sample sd) of per-fold accuracy percentages (divisor k-1)."""
    a = np.asarray(fold_accuracies, dtype=float)
    if a.size == 0:
        raise ValueError("no fold accuracies")
    mean = float(np.mean(a))
    sd = float(np.std(a, ddof=1)) if a.size > 1 else 0.0
    return mean, sd
