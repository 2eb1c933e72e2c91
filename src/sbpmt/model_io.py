"""Versioned JSON model persistence.

The format is a self-describing JSON document with explicit
format_version; coefficients stay human-inspectable.  Each tree is stored
as the arrays of pmt.PmtModel, written as (nested) lists, with its probit
risk.  Every fact is written once: a tree's n_classes and depth come from
the document's n_classes and config.depth.  Serialization is
deterministic (sorted keys, fixed layout), so identical models produce
byte-identical files, and deserialize(serialize(m)) predicts
bit-identically.  Loading treats the document as outside input: NaN or
Infinity tokens, missing or unknown keys, tree arrays that routing or
scoring could not follow (the error names the member and stage), a schema
that encoding could not follow and a malformed design raise ValueError.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields

import numpy as np

from . import ensemble, pmt

FORMAT_VERSION = 3

# PmtModel fields that the document holds once for all trees.
_SHARED = ("n_classes", "depth")

# The keys of each object in a document.
_DOC_KEYS = {"format_version", "config", "n_classes", "schema", "design",
             "members"}
_STAGE_KEYS = {"alpha", "err", "raw_err", "model"}
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
        "design": {"subsets": [s.tolist() for s in model.design.subsets]},
        "members": [
            {"stages": [
                {"alpha": st.alpha, "err": st.err, "raw_err": st.raw_err,
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


def _tree_arrays(tree, n_classes: int, n_features, where: str) -> dict:
    """The arrays of one stored tree, with their kinds and shapes checked.
    n_features None takes the feature count from this tree's coef."""
    _check_keys(tree, _TREE_KEYS, where)
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
    return a


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


def _design(subsets, M: int) -> ensemble.Design:
    """The stored design, checked: one subset per member, each a nonempty,
    strictly increasing list of nonnegative row indices, all of one size."""
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
    return ensemble.Design(subsets=list(a))


def model_from_dict(doc: dict) -> ensemble.SbpmtModel:
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format version {version!r}; this release "
            f"reads version {FORMAT_VERSION} only, so refit the model")
    _check_keys(doc, _DOC_KEYS, "model file")
    _check_keys(doc["config"], {f.name for f in fields(ensemble.SbpmtConfig)},
                "config")
    _check_keys(doc["design"], {"subsets"}, "design")
    for f in fields(ensemble.SbpmtConfig):
        kind = (int, float) if isinstance(f.default, float) else int
        if not isinstance(doc["config"][f.name], kind):
            raise ValueError(f"config: {f.name} must be a number of the "
                             f"kind of its default {f.default!r}")
    cfg = ensemble.SbpmtConfig(**doc["config"])
    n_classes = doc["n_classes"]
    if not isinstance(n_classes, int) or n_classes < 2:
        raise ValueError(f"n_classes must be an integer >= 2, got {n_classes}")
    if not isinstance(doc["members"], list) or not doc["members"]:
        raise ValueError("model file: members must be a nonempty list")
    design = _design(doc["design"]["subsets"], len(doc["members"]))
    members, n_features, trees, wheres = [], None, [], []
    for k, mdoc in enumerate(doc["members"]):
        _check_keys(mdoc, {"stages"}, f"member {k}")
        if not isinstance(mdoc["stages"], list) or not mdoc["stages"]:
            raise ValueError(f"member {k}: stages must be a nonempty list")
        stages = []
        for t, sd in enumerate(mdoc["stages"]):
            where = f"member {k} stage {t}"
            _check_keys(sd, _STAGE_KEYS, where)
            if not all(isinstance(sd[x], (int, float))
                       for x in ("alpha", "err", "raw_err")):
                raise ValueError(f"{where}: alpha, err and raw_err must be "
                                 "numbers")
            arrays = _tree_arrays(sd["model"], n_classes, n_features,
                                  where + " tree")
            n_features = arrays["coef"].shape[2]
            trees.append(arrays)
            wheres.append(where)
            stages.append(ensemble.BoostStage(
                alpha=sd["alpha"], err=sd["err"], raw_err=sd["raw_err"],
                model=pmt.PmtModel(n_classes=n_classes, depth=cfg.depth,
                                   probit_risk=sd["model"]["probit_risk"],
                                   **arrays)))
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
