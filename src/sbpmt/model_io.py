"""Versioned JSON model persistence.

serialize_model is the one writer of a model document and
deserialize_model its one reader; save_model and load_model add only the
file.  The format is a self-describing JSON document with explicit
format_version, written as one compact line with sorted keys (python -m
json.tool lays it out for reading).

The trees are stored once, as the model's committee: "trees" holds the
arguments of pmt.make_tree for every stage's tree in member order laid
end to end (the preorder split lists, feature -1 at a leaf, and the
score block, a row per leaf) and "nodes", each tree's node count.  A
stage is stored as its raw_err and its tree's probit_risk; the design as
"n", the rows it was drawn from, and "incidence", model.design as it is
in memory: the (M, n) matrix whose row k marks subset k, packed in C
order eight bits to a byte, the first bit lowest (np.packbits with
bitorder="little"), zero-padded.

Each array is one base64 string (RFC 4648, standard alphabet, padded) of
its C-order bytes: nodes and feature as little-endian int32 ("<i4"),
threshold, intercept and coef as little-endian float64 ("<f8").  No
shape is stored: the node count N is the length of feature, the leaf
count L the number of -1 entries in it, K is 1 for n_classes 2 and
n_classes otherwise, the feature count p is the length of coef / (L *
K), and each subset holds m = floor(config.alpha * n) rows.  Every fact
is written once: ensemble.BoostStage derives a stage's err and alpha
from raw_err, pmt.make_tree the child table, leaf numbers and depth.
Serialization is deterministic, so identical models produce
byte-identical files, and deserialize(serialize(m)) predicts
bit-identically.  The writer refuses a non-finite number, an index that
int32 cannot hold and a design that is not a 2-D bool array of config.M
rows of floor(config.alpha * n) >= 1 rows each.

Loading treats the document as outside input.  These raise ValueError: a
format version other than 7 (versions 1-6 ask for a refit); NaN or
Infinity tokens; missing or unknown keys; a number outside the arrays
that data.is_finite_number rejects (1e999 parses as inf); a config that
SbpmtConfig rejects; member and stage counts that break config.M and
config.T; a raw_err outside [0, 1]; a probit_risk that is not a finite
number for 2 classes or null for more; a schema that data.check_schema
rejects; an array that is not valid base64 or not a whole number of
items; node counts that are not one count >= 1 per stage summing to N;
a score block that make_tree rejects; an incidence that is not M * n
bits, or has a subset of other than m rows.  So do these, naming the
member and stage of the first tree at fault, in this order: a feature
outside -1..p-1; a split list that is not one tree; a float that is not
finite; a depth above config.depth.

A load decodes each array once for all the trees, calls make_tree once
(one cart.links pass, which also builds the routing tables) and checks
each rule once over the committee.  Only a failed rule looks for its
tree: np.searchsorted of the faulty node into the trees' first nodes.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, fields

import numpy as np

from . import cart, data, ensemble, pmt

FORMAT_VERSION = 7

# The keys of each object in a document.
_DOC_KEYS = {"format_version", "config", "n_classes", "schema", "design",
             "members", "trees"}
_STAGE_KEYS = {"raw_err", "probit_risk"}
_ARRAY_KEYS = ("feature", "threshold", "intercept", "coef")
_TREE_KEYS = ("nodes",) + _ARRAY_KEYS
# The stored dtype of each array.
_DTYPES = {"nodes": np.dtype("<i4"), "feature": np.dtype("<i4"),
           "threshold": np.dtype("<f8"), "intercept": np.dtype("<f8"),
           "coef": np.dtype("<f8"), "incidence": np.dtype("u1")}


def _encode(name: str, a) -> str:
    """An array as base64 of its C-order bytes in its stored dtype."""
    a = np.asarray(a)
    dtype = _DTYPES[name]
    if dtype.kind == "f":
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{name} holds a non-finite number, which a "
                             "model file cannot store")
    elif a.dtype.kind not in "iu" or a.size and (
            a.min() < np.iinfo(dtype).min or a.max() > np.iinfo(dtype).max):
        raise ValueError(f"{name} must hold integers that int32 holds")
    return base64.b64encode(a.astype(dtype).tobytes()).decode("ascii")


def _raw(obj: dict, name: str, where: str) -> bytes:
    """obj[name], a base64 string of name's stored dtype, as its bytes, a
    whole number of items."""
    value = obj[name]
    if not isinstance(value, str):
        raise ValueError(f"{where}: {name} must be a base64 string")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError:  # binascii.Error, or a character outside ASCII
        raise ValueError(f"{where}: {name} is not valid base64") from None
    size = _DTYPES[name].itemsize
    if len(raw) % size:
        raise ValueError(f"{where}: {name} holds {len(raw)} bytes, not a "
                         f"whole number of {size}-byte items")
    return raw


def _decode(raw: bytes, name: str) -> np.ndarray:
    """Bytes of name's stored dtype as a flat int64 or float64 array; a
    float64 array is a read-only view of raw on a little-endian host."""
    a = np.frombuffer(raw, _DTYPES[name])
    return a.astype(np.int64 if a.dtype.kind == "i" else np.float64,
                    copy=False)


def _design(design, cfg: ensemble.SbpmtConfig) -> np.ndarray:
    """The stored design as its (M, n) bool incidence, each row marking
    the m = floor(alpha * n) rows of one member's subset."""
    data.check_keys(design, {"n", "incidence"}, "design")
    n = data.check_count("design: n", design["n"], 1)
    M, m = cfg.M, _subset_size(cfg, n)
    raw, bits = _raw(design, "incidence", "design"), M * n
    if len(raw) != -(-bits // 8) or bits % 8 and raw[-1] >> bits % 8:
        raise ValueError(f"design: incidence must hold the M * n = {bits} "
                         f"bits of M = {M} subsets of n = {n} rows, padded "
                         f"with zeros to whole bytes, got {len(raw)} bytes")
    incidence = np.unpackbits(np.frombuffer(raw, np.uint8), count=bits,
                              bitorder="little").view(bool).reshape(M, n)
    _check_subset_sizes(incidence, m)
    return incidence


def _subset_size(cfg: ensemble.SbpmtConfig, n: int) -> int:
    """m = floor(alpha * n), the rows of each subset; m = 0 raises."""
    m = math.floor(cfg.alpha * n)
    if m < 1:
        raise ValueError(f"design: floor(alpha * n) = 0 rows per subset "
                         f"for n = {n}")
    return m


def _check_subset_sizes(incidence: np.ndarray, m: int) -> None:
    sizes = incidence.sum(axis=1)
    if np.any(sizes != m):
        k = int(np.argmax(sizes != m))
        raise ValueError(f"design: each subset must hold floor(alpha * n) = "
                         f"{m} rows, but subset {k} holds {sizes[k]}")


def _members(doc, T: int, n_classes: int):
    """The stored members, each stage a raw_err in [0, 1] and a probit
    risk that is a finite number for 2 classes and None for more, and the
    name of each stage's tree in errors, in document order."""
    members, where = [], []
    for k, mdoc in enumerate(doc["members"]):
        data.check_keys(mdoc, {"stages"}, f"member {k}")
        if not (isinstance(mdoc["stages"], list)
                and 1 <= len(mdoc["stages"]) <= T):
            raise ValueError(f"member {k}: stages must be a list of 1 to "
                             f"config.T = {T} stages")
        members.append(ensemble.BoostedPmt(stages=[]))
        for t, sd in enumerate(mdoc["stages"]):
            stage = f"member {k} stage {t}"
            data.check_keys(sd, _STAGE_KEYS, stage)
            raw_err, risk = sd["raw_err"], sd["probit_risk"]
            if not (data.is_finite_number(raw_err) and 0 <= raw_err <= 1):
                raise ValueError(f"{stage}: raw_err must be a number in "
                                 "[0, 1]")
            if not (data.is_finite_number(risk) if n_classes == 2
                    else risk is None):
                raise ValueError(f"{stage}: probit_risk must be " + (
                    "a finite number for 2 classes" if n_classes == 2
                    else "null for more than 2 classes"))
            members[-1].stages.append(ensemble.BoostStage(raw_err, risk))
            where.append(f"{stage} tree")
    return members, where


def _trees(tdoc, where: list[str], n_classes: int,
           depth: int) -> pmt.PmtModel:
    """The stored committee of the len(where) trees that where names, in
    order, checked as the module docstring lists."""
    data.check_keys(tdoc, set(_TREE_KEYS), "trees")
    a = {name: _decode(_raw(tdoc, name, "trees"), name)
         for name in _TREE_KEYS}
    nodes, feature = a["nodes"], a["feature"]
    if (nodes.size != len(where) or nodes.min() < 1
            or nodes.sum() != feature.size):
        raise ValueError(f"trees: nodes must hold a count >= 1 for each of "
                         f"the {len(where)} stages, summing to the "
                         f"{feature.size} of feature")
    K = 1 if n_classes == 2 else n_classes
    try:
        intercept = a["intercept"].reshape(-1, K)
        coef = a["coef"].reshape(len(intercept), K, -1)
    except ValueError:  # no whole number of (K,) or (K, p) rows
        raise ValueError(f"trees: intercept of {a['intercept'].size} and "
                         f"coef of {a['coef'].size} values must be (L, {K}) "
                         f"and (L, {K}, p)") from None
    starts = np.cumsum(nodes) - nodes
    p = coef.shape[2]

    def tree_of(node: int) -> int:
        return int(np.searchsorted(starts, node, side="right")) - 1

    bad = (feature < -1) | (feature >= p)
    if bad.any():
        i = int(np.argmax(bad))
        t = tree_of(i)
        raise ValueError(f"{where[t]}: node {i - starts[t]} has feature "
                         f"index {feature[i]}, outside -1..{p - 1}")
    try:
        trees = pmt.make_tree(feature, a["threshold"], intercept, coef)
    except ValueError as exc:
        raise ValueError(_split_fault(feature, starts, where)
                         or f"trees: {exc}") from None
    if not np.array_equal(trees.roots, starts):
        raise ValueError(_split_fault(feature, starts, where))
    for name in ("threshold", "intercept", "coef"):
        x = getattr(trees, name)
        if not np.isfinite(x).all():
            # the first node, or score row, that holds one
            i = int(np.argmin(np.isfinite(x).reshape(len(x), -1).all(1)))
            node = i if name == "threshold" else np.flatnonzero(
                trees.leaf >= 0)[i]
            raise ValueError(f"{where[tree_of(node)]}: {name} must hold "
                             "finite numbers")
    if trees.depth > depth:
        level = cart.links(feature)[1]
        t = tree_of(int(np.argmax(level > depth)))
        raise ValueError(f"{where[t]}: depth "
                         f"{level[starts[t]:starts[t] + nodes[t]].max()}, "
                         f"deeper than config.depth = {depth}")
    return trees


def _split_fault(feature, starts, where: list[str]) -> str | None:
    """The error for the first stored tree, its nodes from starts[t] to
    the next start, that is not one whole tree; None if each is.  A tree
    is complete at its first node after which the running balance (see
    cart.balance) is below its value before the tree's first node."""
    b = np.concatenate(([0], np.where(feature == -1, -1, 1).cumsum()))
    ends = np.append(starts[1:], feature.size)
    base = np.repeat(b[starts], ends - starts)
    done = np.flatnonzero(b[1:] < base)
    complete = np.append(done, feature.size)[np.searchsorted(done, starts)]
    bad = np.flatnonzero(complete != ends - 1)
    if not bad.size:
        return None
    t = bad[0]
    if complete[t] < ends[t]:
        return (f"{where[t]}: split list is not one tree: node "
                f"{complete[t] + 1 - starts[t]} follows a complete tree")
    return f"{where[t]}: split list is not one tree: it ends inside a tree"


def serialize_model(model: ensemble.SbpmtModel) -> str:
    """The model's document (see the module docstring) as one line of
    JSON; the one writer of a model document."""
    trees, design = model.committee.trees, model.design
    if not (isinstance(design, np.ndarray) and design.dtype == bool
            and design.ndim == 2 and len(design) == model.config.M):
        raise ValueError(f"design must be an (M, n) bool array with "
                         f"config.M = {model.config.M} rows")
    # the loader's rule, so no model is written that cannot be loaded
    _check_subset_sizes(design, _subset_size(model.config, design.shape[1]))
    doc = {
        "format_version": FORMAT_VERSION,
        "config": asdict(model.config),
        "n_classes": model.n_classes,
        "schema": model.schema,
        "design": {"n": design.shape[1], "incidence": _encode(
            "incidence", np.packbits(design, bitorder="little"))},
        "members": [
            {"stages": [{"raw_err": st.raw_err, "probit_risk": st.probit_risk}
                        for st in member.stages]}
            for member in model.members],
        "trees": {"nodes": _encode("nodes", np.diff(
            trees.roots, append=trees.feature.size)),
                  **{k: _encode(k, getattr(trees, k)) for k in _ARRAY_KEYS}},
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
    design = _design(doc["design"], cfg)
    members, where = _members(doc, cfg.T, n_classes)
    trees = _trees(doc["trees"], where, n_classes, cfg.depth)
    if doc["schema"] is not None:
        data.check_schema(doc["schema"], n_classes, trees.coef.shape[2])
    return ensemble.SbpmtModel(members=members, trees=trees, design=design,
                               config=cfg, n_classes=n_classes,
                               schema=doc["schema"])


def save_model(model: ensemble.SbpmtModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_model(model))


def load_model(path) -> ensemble.SbpmtModel:
    with open(path, encoding="utf-8") as fh:
        return deserialize_model(fh.read())
