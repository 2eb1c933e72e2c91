"""Dataset ingestion, encoding, CV splitting and the synthetic generator.

CSV files are comma-delimited UTF-8 with '.' decimals; a leading
byte-order mark is dropped.  A column is numeric when float takes every
cell; _float_column decides it for inference and encoding alike.  Any
other column is one-hot expanded, one 0/1 column per observed level
(levels sorted lexicographically).  The label column is mapped to class
indices in first-appearance order, or through a fitted model's schema,
which check_schema vets as the model loader does.  Rows with missing
cells or of the wrong width are rejected at ingestion.  is_finite_number
is the one test of a stored number, for check_config and the model loader.
"""

from __future__ import annotations

import csv
import math
import numbers
import warnings
from dataclasses import dataclass, fields
from operator import itemgetter

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


def _float_column(rows, i: int) -> np.ndarray | None:
    """Column i of rows as floats, or None when float rejects a cell."""
    try:
        return np.fromiter(map(float, map(itemgetter(i), rows)), float,
                           len(rows))
    except ValueError:
        return None


def _read_rows(path, has_header: bool):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(filter(None, reader))
        except csv.Error as exc:
            raise ValueError(
                f"{path}, line {reader.line_num}: {exc}") from None
    header = rows.pop(0) if has_header and rows else None
    return header, rows


def _check_rows(rows, header, width: int) -> None:
    """Reject the first row, in file order, that is not width cells wide
    or holds a blank cell.  The one place that words these errors; it runs
    only after a cheap whole-column check has found one."""
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"inconsistent column counts: row {r + 1} has "
                             f"{len(row)} cells, expected {width}")
        for c, cell in enumerate(row):
            if cell.strip() == "":
                col = header[c] if header else str(c)
                raise ValueError(f"missing value at row {r + 1}, column {col}")


def _row_width(rows, header) -> int:
    """The width of every row: the header's, or without one the first
    row's.  A row of another width is reported by _check_rows."""
    width = len(header) if header is not None else len(rows[0])
    if set(map(len, rows)) != {width}:
        _check_rows(rows, header, width)
    return width


def _check_unique(header) -> None:
    if header is not None and len(set(header)) < len(header):
        name = next(h for i, h in enumerate(header) if h in header[:i])
        raise ValueError(f"header repeats column {name!r}")


def check_count(name: str, value, low: int) -> int:
    """value as a Python int, if it is a Python or NumPy integer (not a
    bool) >= low; anything else raises ValueError naming the argument."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


def check_real(name: str, value) -> float:
    """value as a float, if it is a Python or NumPy real number (not a
    bool); anything else raises ValueError naming the argument.  Its
    range is the caller's to check."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def check_reals(name: str, values) -> np.ndarray:
    """values as a float array, if it is a nonempty 1-D list or array
    whose every item passes check_real; anything else raises ValueError
    naming the list.  The items' range is the caller's to check."""
    items = np.asarray(values, dtype=object)
    if items.ndim != 1:
        raise ValueError(f"{name} must be a 1-D list, got shape {items.shape}")
    if items.size == 0:
        raise ValueError(f"{name} must not be empty")
    return np.array([check_real(f"{name}: item {i}", v)
                     for i, v in enumerate(items)])


# The largest |x| a fit takes: a column centred at its mean then stays
# within sqrt(float max), so the leaf fits' squares stay finite.
FIT_LIMIT = math.sqrt(np.finfo(float).max) / 2


def check_inputs(X, y=None, n_classes: int | None = None,
                 n_features: int | None = None):
    """Reject input the models cannot take, with a message naming it.

    X must be a 2-D array of finite values with at least one column (with
    n_features columns when given).  A fit, which gives y or n_classes,
    also needs at least one row, no |x| above FIT_LIMIT, n_classes a count
    >= 2 (check_count) and y one class index in 0..n_classes-1 per row;
    y = None then fails.  Returns (X as floats, y).
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
    if y is not None or n_classes is not None:
        n_classes = check_count("n_classes", n_classes, 2)
        y = np.asarray(y)
        if X.shape[0] == 0:
            raise ValueError("empty data")
        huge = np.abs(X) > FIT_LIMIT
        if huge.any():
            r, c = np.argwhere(huge)[0]
            raise ValueError(f"value {X[r, c]} in row {r + 1}, feature "
                             f"{c + 1} exceeds the fit limit "
                             f"{FIT_LIMIT:.4g} in magnitude")
        if y.shape != (X.shape[0],) or y.dtype.kind not in "iu":
            raise ValueError("need one integer class index per row")
        out = (y < 0) | (y >= n_classes)
        if np.any(out):
            raise ValueError(f"label {y[out][0]} outside 0..{n_classes - 1}")
    return X, y


def is_finite_number(value) -> bool:
    """Whether value is a finite Python int or float (not a bool, nor a
    NumPy scalar): the kind of a float field of a config, and of every
    number a model file holds outside its arrays."""
    return type(value) in (int, float) and math.isfinite(value)


def check_config(config, **lows) -> None:
    """Reject a config dataclass with a field of the wrong kind (an integer
    field takes an int, not a bool or a float; a float field a finite int
    or float) or with a field below its lower bound in lows."""
    for f in fields(config):
        v = getattr(config, f.name)
        if not (is_finite_number(v) if isinstance(f.default, float)
                else type(v) is int):
            raise ValueError(f"config: {f.name} must be a number of the "
                             f"kind of its default {f.default!r}")
    for name, low in lows.items():
        if getattr(config, name) < low:
            raise ValueError(f"config: need {name} >= {low}, got "
                             f"{name} = {getattr(config, name)}")


def check_weights(sample_weights, n: int) -> np.ndarray:
    """Reject sample weights a fit cannot take: there must be one finite,
    nonnegative weight per row, with a positive, finite sum.  An array of
    integer or float dtype is taken on its dtype; any other input item by
    item, each item a real number (check_real).  Returns the weights as
    floats."""
    w = sample_weights
    if not (isinstance(w, np.ndarray) and w.dtype.kind in "iuf"):
        items = np.asarray(w, dtype=object)
        w = np.array([check_real(f"sample weights: item {i}", v)
                      for i, v in enumerate(items.ravel())]
                     ).reshape(items.shape)
    w = np.asarray(w, dtype=float)
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
        if not isinstance(kind, str) or kind not in _COLUMN_KEYS:
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
        check_count(f"{where}: position", col["position"], 0)
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

    Without a schema, one is inferred from the file: label_column, a name
    or an integer index (negative counts from the end; a name of digits is
    an index), holds the labels, and classes follow first appearance.
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
    # needed here.
    width = _row_width(rows, header)
    label_idx = label_column
    if isinstance(label_column, str):
        try:
            label_idx = int(label_column)
        except ValueError:
            if header is None:
                raise ValueError("label column by name requires a header")
            if label_column not in header:
                raise ValueError(f"label column {label_column!r} not found")
            label_idx = header.index(label_column)
    if not isinstance(label_idx, numbers.Real):
        raise ValueError(f"label_column must be a column name or an "
                         f"integer, got {label_column!r}")
    if not -width <= label_idx < width:
        raise ValueError("label column index out of range")
    label_idx = check_count("label_column", label_idx, -width) % width
    if width == 1:
        raise ValueError("no feature columns: the label is the only column")

    class_names = list(dict.fromkeys(map(itemgetter(label_idx), rows)))
    if len(class_names) < 2:
        raise ValueError("need at least 2 classes")

    columns = []
    for c in range(width):
        if c == label_idx:
            continue
        name = header[c] if header else f"col{c}"
        if _float_column(rows, c) is not None:
            columns.append({"name": name, "kind": "numeric", "position": c})
        else:
            levels = sorted(set(map(itemgetter(c), rows)))
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
    column.  ValueError is raised, in this order, for a header that
    repeats a name; for the first row, in file order, of another width
    than the header (or the first row) or with an empty cell; for a
    column missing from the input or a non-numeric cell in a numeric
    column, in schema order; and for the first label outside the class
    list.  Unseen categorical levels encode as an all-zero one-hot block
    with a warning.

    Each column is checked and converted in one pass over the rows, with
    no copy of the cells: a numeric column that converts holds no blank
    (float rejects one), and every other column is checked for blanks over
    its distinct values.
    """
    label = schema["label"]
    _check_unique(header)
    n = len(rows)
    if not n:
        return np.zeros((0, len(_feature_names(schema)))), None
    width = _row_width(rows, header)
    names = header
    if header is None:
        named = sorted([label, *schema["columns"]],
                       key=lambda col: col["position"])
        if width <= len(schema["columns"]):
            named.remove(label)
        names = [col["name"] for col in named[:width]]
    index = {name: i for i, name in enumerate(names)}

    converted = {index[col["name"]]: _float_column(rows, index[col["name"]])
                 for col in schema["columns"]
                 if col["kind"] == "numeric" and col["name"] in index}
    distinct = {i: set(map(itemgetter(i), rows))
                for i in range(width) if converted.get(i) is None}
    if any(not v.strip() for values in distinct.values() for v in values):
        _check_rows(rows, header, width)  # names the first blank in file order

    blocks = []
    for col in schema["columns"]:
        name = col["name"]
        if name not in index:
            raise ValueError(f"column {name!r} missing from input")
        i = index[name]
        if col["kind"] == "numeric":
            if converted[i] is None:
                raise ValueError(f"non-numeric value in column {name!r}")
            blocks.append(converted[i][:, None])
        else:
            levels = col["levels"]
            unseen = sorted(distinct[i] - set(levels))
            if unseen:
                warnings.warn(f"column {name!r}: unseen levels {unseen} "
                              "encoded as all-zero")
            code = {lv: k for k, lv in enumerate(levels)}
            code.update(dict.fromkeys(unseen, -1))
            codes = np.fromiter(map(code.__getitem__,
                                    map(itemgetter(i), rows)), int, n)
            blocks.append((codes[:, None]
                           == np.arange(len(levels))).astype(float))
    y = None
    if label["name"] in index:
        class_of = {c: i for i, c in enumerate(label["classes"])}
        try:
            y = np.fromiter(map(class_of.__getitem__,
                                map(itemgetter(index[label["name"]]), rows)),
                            int, n)
        except KeyError as exc:
            raise ValueError(f"label {exc.args[0]!r} is not one of the "
                             f"classes {label['classes']}") from None
    return np.hstack(blocks), y


def stratified_kfold(y, k: int, seed: int):
    """k (train_indices, test_indices) pairs.  Each class's rows are
    shuffled with one seeded generator, the classes are concatenated in
    sorted order, and the concatenation is dealt to the folds round-robin.
    Folds partition the rows and class proportions stay within one
    instance of the global ones."""
    y = np.asarray(y)
    n = y.size
    k = check_count("k", k, 2)
    if k > n:
        raise ValueError(f"k must be between 2 and n = {n}, got {k}")
    rng = np.random.default_rng(check_count("seed", seed, 0))
    order = np.concatenate([rng.permutation(np.flatnonzero(y == cls))
                            for cls in np.unique(y)])
    fold_of = np.empty(n, dtype=int)
    fold_of[order] = np.arange(n) % k
    return [(np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f))
            for f in range(k)]


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


def summarize_cv(fold_accuracies: list[float]):
    """(mean, sample sd) of per-fold accuracy percentages (divisor k-1),
    given as a nonempty list of real numbers (check_reals) in [0, 100]."""
    a = check_reals("fold accuracies", fold_accuracies)
    bad = ~((a >= 0) & (a <= 100))  # NaN fails both
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"fold accuracies: item {i} must be a percentage "
                         f"in [0, 100], got {a[i]}")
    return float(np.mean(a)), float(np.std(a, ddof=1)) if a.size > 1 else 0.0
