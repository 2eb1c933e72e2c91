"""Versioned JSON model persistence.

serialize_model is the one writer of a model document and
deserialize_model its one reader; save_model and load_model add only the
file.  The format is a self-describing JSON document with explicit
format_version, written as one compact line (no indentation, so the json
module's C encoder writes it; python -m json.tool lays it out for
reading).  A stage is stored as its raw_err and its tree, the tree as the
arguments of pmt.make_tree written as (nested) lists: its preorder split
list (feature -1 at a leaf), its score block and its probit risk.  Every
fact is written once: ensemble.BoostStage derives a stage's err and alpha
from raw_err, and make_tree a tree's child table, leaf numbers and depth;
its class count is read off its score block.  Serialization is
deterministic (sorted keys, compact layout), so identical models produce
byte-identical files, and deserialize(serialize(m)) predicts
bit-identically.  Loading treats the document as outside input: NaN or
Infinity tokens, missing or unknown keys, numbers of the wrong kind, a
config that SbpmtConfig rejects, member and stage counts that break
config.M and config.T, a tree with a feature outside -1..p-1, a split
list that is not one tree, a score row count other than its leaf count,
a depth above config.depth or a number too large for a float (the error
names the member and stage), a schema that data.check_schema rejects and
a malformed design raise ValueError, and so does a raw_err outside
[0, 1].  A number outside the arrays is of the right kind when
data.is_finite_number says so, the test a config's float fields pass.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields

import numpy as np

from . import data, ensemble, pmt

FORMAT_VERSION = 5

# The keys of each object in a document.
_DOC_KEYS = {"format_version", "config", "n_classes", "schema", "design",
             "members"}
_STAGE_KEYS = {"raw_err", "model"}
_NODE_KEYS = ("feature", "threshold")
_ARRAY_KEYS = _NODE_KEYS + ("intercept", "coef")
_TREE_KEYS = set(_ARRAY_KEYS) | {"probit_risk"}


def _tree_fields(tree, n_classes: int, n_features, where: str) -> dict:
    """The make_tree arguments of one stored tree: the arrays, with their
    kinds and shapes checked, and the probit risk, a finite number for 2
    classes and None for more.  n_features None takes the feature count
    from this tree's coef."""
    data.check_keys(tree, _TREE_KEYS, where)
    risk = tree["probit_risk"]
    if not (data.is_finite_number(risk) if n_classes == 2 else risk is None):
        raise ValueError(f"{where}: probit_risk must be " + (
            "a finite number for 2 classes" if n_classes == 2
            else "null for more than 2 classes"))
    try:
        a = {k: np.array(tree[k]) for k in _ARRAY_KEYS}
    except ValueError as exc:  # ragged lists
        raise ValueError(f"{where}: {exc}") from None
    for k, v in a.items():
        index = k == "feature"
        if v.dtype.kind not in ("iu" if index else "iuf"):
            raise ValueError(f"{where}: {k} must hold "
                             + ("integers" if index else "numbers"))
        if not index and not np.all(np.isfinite(v)):  # 1e999 parses as inf
            raise ValueError(f"{where}: {k} must hold finite numbers")
    n = a["feature"].size
    if n == 0 or any(a[k].shape != (n,) for k in _NODE_KEYS):
        raise ValueError(f"{where}: {', '.join(_NODE_KEYS)} must be "
                         "nonempty lists of one length")
    K = 1 if n_classes == 2 else n_classes
    L = int(np.sum(a["feature"] == -1))  # a leaf per -1, a score row each
    if n_features is None and a["coef"].ndim == 3:
        n_features = a["coef"].shape[2]
    if (L == 0 or a["intercept"].shape != (L, K)
            or a["coef"].shape != (L, K, n_features)):
        raise ValueError(
            f"{where}: intercept {a['intercept'].shape} and coef "
            f"{a['coef'].shape} must be (L, {K}) and (L, {K}, {n_features}) "
            f"for its L = {L} leaves")
    bad = (a["feature"] < -1) | (a["feature"] >= n_features)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{where}: node {i} has feature index "
                         f"{a['feature'][i]}, outside -1..{n_features - 1}")
    return {**a, "probit_risk": risk}


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


def serialize_model(model: ensemble.SbpmtModel) -> str:
    """The model's document (see the module docstring) as one line of
    JSON; the one writer of a model document."""
    doc = {
        "format_version": FORMAT_VERSION,
        "config": asdict(model.config),
        "n_classes": model.n_classes,
        "schema": model.schema,
        "design": {"subsets": model.design.tolist()},
        "members": [
            {"stages": [
                {"raw_err": st.raw_err,
                 "model": {k: np.asarray(getattr(st.model, k)).tolist()
                           for k in _TREE_KEYS}}
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
    data.check_keys(doc["design"], {"subsets"}, "design")
    cfg = ensemble.SbpmtConfig(**doc["config"])
    n_classes = data.check_count("n_classes", doc["n_classes"], 2)
    if not isinstance(doc["members"], list) or not doc["members"]:
        raise ValueError("model file: members must be a nonempty list")
    if len(doc["members"]) != cfg.M:
        raise ValueError(f"model file: {len(doc['members'])} members, but "
                         f"config.M is {cfg.M}")
    design = _design(doc["design"]["subsets"], cfg.M)
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
