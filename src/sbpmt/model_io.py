"""Versioned JSON model persistence.

The format is a self-describing JSON document with explicit
format_version; coefficients stay human-inspectable.  A stage is stored
as its raw_err and its tree, the tree as the arrays of pmt.PmtModel,
written as (nested) lists, with its probit risk.  Every fact is written
once: ensemble.BoostStage derives a stage's err and alpha from raw_err,
a tree's class count is read off its score block and its depth is
config.depth.  Serialization is deterministic (sorted keys, fixed
layout), so identical models produce byte-identical files, and
deserialize(serialize(m)) predicts bit-identically.  Loading treats the
document as outside input: NaN or Infinity tokens, missing or unknown
keys, numbers of the wrong kind, member and stage counts that break
config.M and config.T, tree arrays that routing or scoring could not
follow (the error names the member and stage), a schema that encoding
could not follow and a malformed design raise ValueError.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, fields

import numpy as np

from . import ensemble, pmt

FORMAT_VERSION = 4

# PmtModel fields that the document holds once for all trees.
_SHARED = ("depth",)

# raw_err is the weight share of the rows a stage misses, in [0, 1] up to
# rounding: the weights sum to 1 only as closely as a float sum can, so a
# stage that misses every row can record 1.0000000000000002.
_ERR_SLACK = 1e-6

# The keys of each object in a document.
_DOC_KEYS = {"format_version", "config", "n_classes", "schema", "design",
             "members"}
_STAGE_KEYS = {"raw_err", "model"}
_TREE_KEYS = {f.name for f in fields(pmt.PmtModel)} - set(_SHARED)
_NODE_KEYS = ("feature", "threshold", "left", "right", "leaf")
_INDEX_KEYS = ("feature", "left", "right", "leaf")
_ARRAY_KEYS = _NODE_KEYS + ("intercept", "coef")
_SCHEMA_KEYS = {"label", "columns", "has_header"}
_LABEL_KEYS = {"name", "position", "classes"}
_COLUMN_KEYS = {"numeric": {"name", "kind", "position"},
                "categorical": {"name", "kind", "position", "levels"}}


def model_to_dict(model: ensemble.SbpmtModel) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "config": asdict(model.config),
        "n_classes": model.n_classes,
        "schema": model.schema,
        "design": {"subsets": model.design.tolist()},
        "members": [
            {"stages": [
                {"raw_err": st.raw_err,
                 "model": {f.name: np.asarray(getattr(st.model, f.name))
                           .tolist() for f in fields(st.model)
                           if f.name not in _SHARED}}
                for st in member.stages]}
            for member in model.members],
    }


def _check_keys(obj, keys: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{where} is not a JSON object")
    if obj.keys() != keys:
        raise ValueError(f"{where}: missing keys {sorted(keys - set(obj))}, "
                         f"unknown keys {sorted(set(obj) - keys)}")


def _is_number(v) -> bool:
    return type(v) in (int, float) and math.isfinite(v)


def _tree_fields(tree, n_classes: int, n_features, where: str) -> dict:
    """The PmtModel fields of one stored tree but its depth: the arrays,
    with their kinds and shapes checked, and the probit risk, a finite
    number for 2 classes and None for more.  n_features None takes the
    feature count from this tree's coef."""
    _check_keys(tree, _TREE_KEYS, where)
    risk = tree["probit_risk"]
    if not (_is_number(risk) if n_classes == 2 else risk is None):
        raise ValueError(f"{where}: probit_risk must be " + (
            "a finite number for 2 classes" if n_classes == 2
            else "null for more than 2 classes"))
    try:
        a = {k: np.array(tree[k]) for k in _ARRAY_KEYS}
    except ValueError as exc:  # ragged lists
        raise ValueError(f"{where}: {exc}") from None
    for k, v in a.items():
        index = k in _INDEX_KEYS
        if v.dtype.kind not in ("iu" if index else "iuf"):
            raise ValueError(f"{where}: {k} must hold "
                             + ("integers" if index else "numbers"))
    n = a["feature"].size
    if n == 0 or any(a[k].shape != (n,) for k in _NODE_KEYS):
        raise ValueError(f"{where}: {', '.join(_NODE_KEYS)} must be "
                         "nonempty lists of one length")
    K = 1 if n_classes == 2 else n_classes
    L = len(a["intercept"]) if a["intercept"].ndim else 0
    if n_features is None and a["coef"].ndim == 3:
        n_features = a["coef"].shape[2]
    if (L == 0 or a["intercept"].shape != (L, K)
            or a["coef"].shape != (L, K, n_features)):
        raise ValueError(
            f"{where}: intercept {a['intercept'].shape} and coef "
            f"{a['coef'].shape} must be (L, {K}) and (L, {K}, {n_features})")
    return {**a, "probit_risk": risk}


def _check_indices(trees: list[dict], wheres: list[str], n_features: int,
                   depth: int) -> None:
    """Reject trees that routing or scoring could not follow, in one
    whole-array pass over all trees: feature indices below n_features,
    children within their tree, a row of the tree's score block at every
    leaf node (a node that is its own child), and every path from the root
    reaching a leaf within depth steps."""
    sizes = np.array([t["feature"].size for t in trees])
    tree_of = np.repeat(np.arange(sizes.size), sizes)
    base = (np.cumsum(sizes) - sizes)[tree_of]  # each node's tree offset
    node = np.arange(tree_of.size) - base
    n_leaves = np.array([len(t["intercept"]) for t in trees])[tree_of]
    cat = {k: np.concatenate([t[k] for t in trees]) for k in _INDEX_KEYS}
    is_leaf = (cat["left"] == node) & (cat["right"] == node)

    def reject(i, what):
        raise ValueError(f"{wheres[tree_of[i]]} tree: node {node[i]} {what}")

    for k, lo, hi in (("feature", 0, n_features), ("left", 0, sizes[tree_of]),
                      ("right", 0, sizes[tree_of]),
                      ("leaf", np.where(is_leaf, 0, -1), n_leaves)):
        bad = (cat[k] < lo) | (cat[k] >= hi)
        if bad.any():
            i = int(np.argmax(bad))
            reject(i, f"has {k} index {cat[k][i]}, outside "
                      f"{np.broadcast_to(lo, bad.shape)[i]}.."
                      f"{np.broadcast_to(hi, bad.shape)[i] - 1}")
    # nodes reached after depth steps; a leaf is its own child, so once
    # reached it stays
    left, right = cat["left"] + base, cat["right"] + base
    reached = np.flatnonzero(node == 0)
    for _ in range(depth):
        hit = np.zeros(node.size, dtype=bool)
        hit[left[reached]] = True
        hit[right[reached]] = True
        reached = np.flatnonzero(hit)
    deep = reached[~is_leaf[reached]]
    if deep.size:
        reject(deep[0], f"is {depth} steps below the root, the model's "
                        "depth, but is not a leaf")


def _distinct_strings(values) -> bool:
    return (isinstance(values, list) and all(isinstance(v, str) for v in values)
            and len(set(values)) == len(values))


def _check_schema(schema, n_classes: int, n_features: int) -> None:
    """Reject a schema that data.encode_rows could not follow: every column
    needs a name, a kind and a position (a categorical one also its
    levels), names and positions must be distinct, the label must list
    n_classes classes, and the columns must encode n_features features."""
    if schema is None:
        return
    _check_keys(schema, _SCHEMA_KEYS, "schema")
    if not isinstance(schema["has_header"], bool):
        raise ValueError("schema: has_header must be true or false")
    label = schema["label"]
    _check_keys(label, _LABEL_KEYS, "schema label")
    if not _distinct_strings(label["classes"]) \
            or len(label["classes"]) != n_classes:
        raise ValueError(f"schema label: classes must be {n_classes} "
                         "distinct strings, one per class")
    columns = schema["columns"]
    if not isinstance(columns, list) or not columns:
        raise ValueError("schema: columns must be a nonempty list")
    width = 0
    for i, col in enumerate(columns):
        where = f"schema column {i}"
        kind = col.get("kind") if isinstance(col, dict) else None
        _check_keys(col, _COLUMN_KEYS["categorical" if kind == "categorical"
                                      else "numeric"], where)
        if kind not in _COLUMN_KEYS:
            raise ValueError(f"{where}: kind must be 'numeric' or "
                             f"'categorical', got {kind!r}")
        if kind == "categorical":
            if not _distinct_strings(col["levels"]) or not col["levels"]:
                raise ValueError(f"{where}: levels must be a nonempty list "
                                 "of distinct strings")
            width += len(col["levels"])
        else:
            width += 1
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
    if width != n_features:
        raise ValueError(f"schema: the columns encode {width} features, "
                         f"but the trees read {n_features}")


def _design(subsets, M: int) -> np.ndarray:
    """The stored design as an (M, m) array: one subset per member, each
    a strictly increasing list of m > 0 nonnegative row indices."""
    if not isinstance(subsets, list) or len(subsets) != M:
        raise ValueError(f"design: subsets must be a list of {M} index "
                         "lists, one per member")
    ragged = ValueError("design: subsets must be nonempty lists of one size")
    try:
        a = np.array(subsets)
    except ValueError:
        raise ragged from None
    if a.ndim != 2 or a.shape[1] == 0:
        raise ragged
    if a.dtype.kind not in "iu":
        raise ValueError("design: subsets must hold integers")
    if a.min() < 0 or np.any(np.diff(a, axis=1) <= 0):
        raise ValueError("design: each subset must hold nonnegative row "
                         "indices in strictly increasing order")
    return a


def model_from_dict(doc: dict) -> ensemble.SbpmtModel:
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format version {version!r}; this release "
            f"reads version {FORMAT_VERSION} only, so refit the model")
    _check_keys(doc, _DOC_KEYS, "model file")
    _check_keys(doc["config"], {f.name for f in fields(ensemble.SbpmtConfig)},
                "config")
    _check_keys(doc["design"], {"subsets"}, "design")
    for f in fields(ensemble.SbpmtConfig):
        v = doc["config"][f.name]
        if not (_is_number(v) if isinstance(f.default, float)
                else type(v) is int):
            raise ValueError(f"config: {f.name} must be a number of the "
                             f"kind of its default {f.default!r}")
    cfg = ensemble.SbpmtConfig(**doc["config"])
    n_classes = doc["n_classes"]
    if type(n_classes) is not int or n_classes < 2:
        raise ValueError(f"n_classes must be an integer >= 2, got {n_classes}")
    if not isinstance(doc["members"], list) or not doc["members"]:
        raise ValueError("model file: members must be a nonempty list")
    if len(doc["members"]) != cfg.M:
        raise ValueError(f"model file: {len(doc['members'])} members, but "
                         f"config.M is {cfg.M}")
    design = _design(doc["design"]["subsets"], cfg.M)
    members, n_features, trees, wheres = [], None, [], []
    for k, mdoc in enumerate(doc["members"]):
        _check_keys(mdoc, {"stages"}, f"member {k}")
        if not (isinstance(mdoc["stages"], list)
                and 1 <= len(mdoc["stages"]) <= cfg.T):
            raise ValueError(f"member {k}: stages must be a list of 1 to "
                             f"config.T = {cfg.T} stages")
        stages = []
        for t, sd in enumerate(mdoc["stages"]):
            where = f"member {k} stage {t}"
            _check_keys(sd, _STAGE_KEYS, where)
            raw_err = sd["raw_err"]
            if not (_is_number(raw_err) and 0 <= raw_err <= 1 + _ERR_SLACK):
                raise ValueError(f"{where}: raw_err must be a number in "
                                 "[0, 1]")
            tree = _tree_fields(sd["model"], n_classes, n_features,
                                where + " tree")
            n_features = tree["coef"].shape[2]
            trees.append(tree)
            wheres.append(where)
            stages.append(ensemble.BoostStage(
                raw_err=raw_err, model=pmt.PmtModel(depth=cfg.depth, **tree)))
        members.append(ensemble.BoostedPmt(stages=stages))
    _check_indices(trees, wheres, n_features, cfg.depth)
    _check_schema(doc["schema"], n_classes, n_features)
    return ensemble.SbpmtModel(members=members, design=design, config=cfg,
                               n_classes=n_classes, schema=doc["schema"])


def serialize_model(model: ensemble.SbpmtModel) -> str:
    return json.dumps(model_to_dict(model), sort_keys=True, indent=1,
                      allow_nan=False) + "\n"


def _reject_constant(token: str):
    raise ValueError(f"model file holds the non-finite number {token}")


def deserialize_model(text: str) -> ensemble.SbpmtModel:
    return model_from_dict(json.loads(text, parse_constant=_reject_constant))


def save_model(model: ensemble.SbpmtModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_model(model))


def load_model(path) -> ensemble.SbpmtModel:
    with open(path, encoding="utf-8") as fh:
        return deserialize_model(fh.read())
