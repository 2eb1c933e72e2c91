"""Versioned JSON model persistence.

serialize_model is the one writer of a model document and
deserialize_model its one reader; save_model and load_model add only the
file.  The format is a self-describing JSON document with explicit
format_version, written as one compact line with sorted keys (python -m
json.tool lays it out for reading).  A stage is stored as its raw_err and
its tree, the tree as the arguments of pmt.make_tree: its preorder split
list (feature -1 at a leaf), its score block and its probit risk.

The arrays are stored as bytes, so a load parses no list of numbers: a
tree's feature, threshold, intercept and coef and the document's
design.subsets are each one base64 string (RFC 4648, standard alphabet,
padded) of the array's C-order bytes, feature and subsets as
little-endian int32 ("<i4"), the others as little-endian float64
("<f8").  No shape is stored; each follows from counts the document
already holds.  A tree's node count is the length of feature and its leaf
count L the number of -1 entries in it; K is 1 for n_classes 2 and
n_classes otherwise; the feature count p is the length of coef / (L * K),
the same in every tree; and the subset size m is the length of subsets /
config.M.  Every fact is written once: ensemble.BoostStage derives a
stage's err and alpha from raw_err, and make_tree a tree's child table,
leaf numbers and depth.  Serialization is deterministic (sorted keys,
compact layout), so identical models produce byte-identical files, and
deserialize(serialize(m)) predicts bit-identically.  The writer refuses a
non-finite number and an index that int32 cannot hold.

Loading treats the document as outside input.  These raise ValueError: a
format version other than 6 (versions 1-5, whose arrays were JSON lists,
ask for a refit); NaN or Infinity tokens; missing or unknown keys; a
number outside the arrays that data.is_finite_number rejects (1e999
parses as inf); a config that SbpmtConfig rejects; member
and stage counts that break config.M and config.T; a raw_err outside
[0, 1]; a schema that data.check_schema rejects.  So do these, the error
naming the member and stage for a tree: an array that is not a string of
valid base64, whose byte length is not a whole number of items or does
not match its shape, or whose floats are not finite; a feature outside
-1..p-1; a split list that is not one tree; a depth above config.depth;
and a subset that is not nonnegative and strictly increasing.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, fields

import numpy as np

from . import data, ensemble, pmt

FORMAT_VERSION = 6

# The keys of each object in a document.
_DOC_KEYS = {"format_version", "config", "n_classes", "schema", "design",
             "members"}
_STAGE_KEYS = {"raw_err", "model"}
_ARRAY_KEYS = ("feature", "threshold", "intercept", "coef")
_TREE_KEYS = set(_ARRAY_KEYS) | {"probit_risk"}
# The stored dtype of each array.
_DTYPES = {"feature": np.dtype("<i4"), "threshold": np.dtype("<f8"),
           "intercept": np.dtype("<f8"), "coef": np.dtype("<f8"),
           "subsets": np.dtype("<i4")}
_INT32 = np.iinfo(np.int32)


def _encode(name: str, a) -> str:
    """An array as base64 of its C-order bytes in its stored dtype."""
    a = np.asarray(a)
    dtype = _DTYPES[name]
    if dtype.kind == "i":
        if a.dtype.kind not in "iu" or a.size and (
                a.min() < _INT32.min or a.max() > _INT32.max):
            raise ValueError(f"{name} must hold integers that int32 holds")
    elif not np.all(np.isfinite(a)):
        raise ValueError(f"{name} holds a non-finite number, which a model "
                         "file cannot store")
    return base64.b64encode(a.astype(dtype).tobytes()).decode("ascii")


def _decode(obj: dict, name: str, where: str) -> np.ndarray:
    """obj[name], a base64 string of name's stored dtype, as a flat int64
    or float64 array of finite numbers."""
    value = obj[name]
    if not isinstance(value, str):
        raise ValueError(f"{where}: {name} must be a base64 string")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError:  # binascii.Error, or a character outside ASCII
        raise ValueError(f"{where}: {name} is not valid base64") from None
    dtype = _DTYPES[name]
    if len(raw) % dtype.itemsize:
        raise ValueError(f"{where}: {name} holds {len(raw)} bytes, not a "
                         f"whole number of {dtype.itemsize}-byte items")
    a = np.frombuffer(raw, dtype)
    if dtype.kind == "f" and not np.all(np.isfinite(a)):
        raise ValueError(f"{where}: {name} must hold finite numbers")
    return a.astype(np.int64 if dtype.kind == "i" else np.float64)


def _tree_fields(tree, n_classes: int, n_features, where: str) -> dict:
    """The make_tree arguments of one stored tree: the arrays, decoded and
    shaped, and the probit risk, a finite number for 2 classes and None
    for more.  n_features None takes the feature count from this tree's
    coef."""
    data.check_keys(tree, _TREE_KEYS, where)
    risk = tree["probit_risk"]
    if not (data.is_finite_number(risk) if n_classes == 2 else risk is None):
        raise ValueError(f"{where}: probit_risk must be " + (
            "a finite number for 2 classes" if n_classes == 2
            else "null for more than 2 classes"))
    a = {k: _decode(tree, k, where) for k in _ARRAY_KEYS}
    n = a["feature"].size
    if n == 0 or a["threshold"].size != n:
        raise ValueError(f"{where}: feature, threshold must be nonempty "
                         "lists of one length")
    K = 1 if n_classes == 2 else n_classes
    L = int(np.sum(a["feature"] == -1))  # a leaf per -1, a score row each
    p = n_features or (a["coef"].size // (L * K) if L else 0)
    if (p == 0 or a["intercept"].size != L * K
            or a["coef"].size != L * K * p):
        raise ValueError(
            f"{where}: intercept of {a['intercept'].size} and coef of "
            f"{a['coef'].size} values must be (L, {K}) and "
            f"(L, {K}, {n_features or 'p'}) for its L = {L} leaves")
    bad = (a["feature"] < -1) | (a["feature"] >= p)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{where}: node {i} has feature index "
                         f"{a['feature'][i]}, outside -1..{p - 1}")
    return {**a, "intercept": a["intercept"].reshape(L, K),
            "coef": a["coef"].reshape(L, K, p), "probit_risk": risk}


def _design(design, M: int) -> np.ndarray:
    """The stored design as an (M, m) array: one subset per member, each
    a strictly increasing list of m > 0 nonnegative row indices."""
    data.check_keys(design, {"subsets"}, "design")
    a = _decode(design, "subsets", "design")
    if a.size == 0 or a.size % M:
        raise ValueError(f"design: subsets must be M = {M} nonempty subsets "
                         f"of one size, got {a.size} indices")
    a = a.reshape(M, -1)
    if a.min() < 0 or np.any(np.diff(a, axis=1) <= 0):
        raise ValueError("design: each subset must hold nonnegative row "
                         "indices in strictly increasing order")
    return a


def serialize_model(model: ensemble.SbpmtModel) -> str:
    """The model's document (see the module docstring) as one line of
    JSON; the one writer of a model document."""
    doc = {
        "format_version": FORMAT_VERSION,
        "config": asdict(model.config),
        "n_classes": model.n_classes,
        "schema": model.schema,
        "design": {"subsets": _encode("subsets", model.design)},
        "members": [
            {"stages": [
                {"raw_err": st.raw_err,
                 "model": {"probit_risk": st.model.probit_risk,
                           **{k: _encode(k, getattr(st.model, k))
                              for k in _ARRAY_KEYS}}}
                for st in member.stages]}
            for member in model.members],
    }
    return json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"


def _reject_constant(token: str):
    raise ValueError(f"model file holds the non-finite number {token}")


def deserialize_model(text: str) -> ensemble.SbpmtModel:
    """The model a document holds; the one reader of a model document,
    which rejects what the module docstring lists with ValueError."""
    doc = json.loads(text, parse_constant=_reject_constant)
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format version {version!r}; this release "
            f"reads version {FORMAT_VERSION} only, so refit the model")
    data.check_keys(doc, _DOC_KEYS, "model file")
    data.check_keys(doc["config"],
                    {f.name for f in fields(ensemble.SbpmtConfig)}, "config")
    cfg = ensemble.SbpmtConfig(**doc["config"])
    n_classes = data.check_count("n_classes", doc["n_classes"], 2)
    if not isinstance(doc["members"], list) or not doc["members"]:
        raise ValueError("model file: members must be a nonempty list")
    if len(doc["members"]) != cfg.M:
        raise ValueError(f"model file: {len(doc['members'])} members, but "
                         f"config.M is {cfg.M}")
    design = _design(doc["design"], cfg.M)
    members, n_features = [], None
    for k, mdoc in enumerate(doc["members"]):
        data.check_keys(mdoc, {"stages"}, f"member {k}")
        if not (isinstance(mdoc["stages"], list)
                and 1 <= len(mdoc["stages"]) <= cfg.T):
            raise ValueError(f"member {k}: stages must be a list of 1 to "
                             f"config.T = {cfg.T} stages")
        stages = []
        for t, sd in enumerate(mdoc["stages"]):
            where = f"member {k} stage {t}"
            data.check_keys(sd, _STAGE_KEYS, where)
            raw_err = sd["raw_err"]
            if not (data.is_finite_number(raw_err) and 0 <= raw_err <= 1):
                raise ValueError(f"{where}: raw_err must be a number in "
                                 "[0, 1]")
            tree = _tree_fields(sd["model"], n_classes, n_features,
                                where + " tree")
            n_features = tree["coef"].shape[2]
            try:
                model = pmt.make_tree(**tree)
            except ValueError as exc:
                raise ValueError(f"{where} tree: {exc}") from None
            if model.depth > cfg.depth:
                raise ValueError(f"{where} tree: depth {model.depth}, deeper "
                                 f"than config.depth = {cfg.depth}")
            stages.append(ensemble.BoostStage(raw_err=raw_err, model=model))
        members.append(ensemble.BoostedPmt(stages=stages))
    if doc["schema"] is not None:
        data.check_schema(doc["schema"], n_classes, n_features)
    return ensemble.SbpmtModel(members=members, design=design, config=cfg,
                               n_classes=n_classes, schema=doc["schema"])


def save_model(model: ensemble.SbpmtModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_model(model))


def load_model(path) -> ensemble.SbpmtModel:
    with open(path, encoding="utf-8") as fh:
        return deserialize_model(fh.read())
