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
stage's err and alpha from raw_err, and pmt.PmtModel a tree's child
table, leaf numbers and depth.  Serialization is deterministic (sorted keys,
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

A load treats the trees as one committee.  It reads every stage's keys
and its arrays' bytes, decodes each array for all the trees at once (a
tree's arrays are slices of it), and builds each tree, whose score block
must fit its leaves and whose split list must not end inside a tree.  It
then checks the values on the model's committee: finiteness and feature
range over the concatenated arrays, and the one-tree rule and depth from
the committee's one cart.links pass, whose trees must start where the
stored trees do.  That pass also builds the tables prediction routes
through.  Only when a check fails are the trees checked one by one, so
the error names the first faulty tree in document order, as a tree by
tree load would; within one tree, a malformed or misshapen array is
reported before a float that is not finite.
"""

from __future__ import annotations

import base64
import itertools
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
    """Bytes of name's stored dtype as a flat int64 or float64 array."""
    dtype = _DTYPES[name]
    return np.frombuffer(raw, dtype).astype(
        np.int64 if dtype.kind == "i" else np.float64)


def _count(raw: dict, name: str) -> int:
    """The number of items in the bytes raw[name]."""
    return len(raw[name]) // _DTYPES[name].itemsize


def _stages(doc, T: int):
    """(member, stage, stored stage) of every stage in document order,
    each member checked before its stages."""
    for k, mdoc in enumerate(doc["members"]):
        data.check_keys(mdoc, {"stages"}, f"member {k}")
        if not (isinstance(mdoc["stages"], list)
                and 1 <= len(mdoc["stages"]) <= T):
            raise ValueError(f"member {k}: stages must be a list of 1 to "
                             f"config.T = {T} stages")
        for t, sd in enumerate(mdoc["stages"]):
            yield k, t, sd


def _read_stage(k: int, t: int, sd, n_classes: int):
    """A stored stage's raw_err and tree, checked as far as they can be
    without the arrays' values: (raw_err, (where, probit_risk, bytes of
    each array)).  The probit risk is a finite number for 2 classes and
    None for more."""
    where = f"member {k} stage {t}"
    data.check_keys(sd, _STAGE_KEYS, where)
    raw_err = sd["raw_err"]
    if not (data.is_finite_number(raw_err) and 0 <= raw_err <= 1):
        raise ValueError(f"{where}: raw_err must be a number in [0, 1]")
    where += " tree"
    tree = sd["model"]
    data.check_keys(tree, _TREE_KEYS, where)
    risk = tree["probit_risk"]
    if not (data.is_finite_number(risk) if n_classes == 2 else risk is None):
        raise ValueError(f"{where}: probit_risk must be " + (
            "a finite number for 2 classes" if n_classes == 2
            else "null for more than 2 classes"))
    raw = {name: _raw(tree, name, where) for name in _ARRAY_KEYS}
    n = _count(raw, "feature")
    if n == 0 or _count(raw, "threshold") != n:
        raise ValueError(f"{where}: feature, threshold must be nonempty "
                         "arrays of one length")
    return raw_err, (where, risk, raw)


def _make_trees(read, n_classes: int, p):
    """The PmtModel of each tree in read, (where, probit_risk, bytes of
    each array) in document order, as (where, PmtModel) pairs, and the
    feature count p (None: the first tree's).  Each array is decoded for
    all the trees at once, and a tree's are slices of it.  Raises, naming
    the tree, for the first whose score block does not fit its leaves or
    whose split list ends inside a tree; its values are checked later, by
    _tree_fault."""
    K = 1 if n_classes == 2 else n_classes
    joined = {name: _decode(b"".join(raw[name] for _, _, raw in read), name)
              for name in _ARRAY_KEYS}
    starts = {name: list(itertools.accumulate(
        (_count(raw, name) for _, _, raw in read), initial=0))
        for name in _ARRAY_KEYS}
    # a leaf per -1, a score row each
    leaves = np.add.reduceat(joined["feature"] == -1, starts["feature"][:-1],
                             dtype=np.int64).tolist()
    trees = []
    for i, ((where, risk, _), L) in enumerate(zip(read, leaves)):
        a = {name: joined[name][starts[name][i]:starts[name][i + 1]]
             for name in _ARRAY_KEYS}
        q = p or (a["coef"].size // (L * K) if L else 0)
        if (q == 0 or a["intercept"].size != L * K
                or a["coef"].size != L * K * q):
            raise ValueError(
                f"{where}: intercept of {a['intercept'].size} and coef of "
                f"{a['coef'].size} values must be (L, {K}) and "
                f"(L, {K}, {p or 'p'}) for its L = {L} leaves")
        p = q
        a["intercept"] = a["intercept"].reshape(L, K)
        a["coef"] = a["coef"].reshape(L, K, p)
        try:
            trees.append((where, pmt.make_tree(**a, probit_risk=risk)))
        except ValueError as exc:  # a list that ends inside a tree
            raise ValueError(f"{where}: {_array_fault(a, p) or exc}"
                             ) from None
    return trees, p


def _array_fault(a, p: int) -> str | None:
    """What the loader rejects in the arrays a (a dict, or a PmtModel's
    vars) of one tree or of trees laid end to end, or None: a float that
    is not finite, then a feature outside -1..p-1."""
    for name in ("threshold", "intercept", "coef"):
        if not np.isfinite(a[name]).all():
            return f"{name} must hold finite numbers"
    bad = (a["feature"] < -1) | (a["feature"] >= p)
    if bad.any():
        i = int(np.argmax(bad))
        return (f"node {i} has feature index {a['feature'][i]}, outside "
                f"-1..{p - 1}")
    return None


def _tree_fault(tree: pmt.PmtModel, p: int, depth: int,
                roots) -> str | None:
    """_array_fault of tree, then trees that do not start at roots, then
    a depth above depth, or None.  One call checks a whole committee."""
    fault = _array_fault(vars(tree), p)
    if fault:
        return fault
    if not np.array_equal(tree.roots, roots):
        return (f"split list is not one tree: node {tree.roots[1]} follows "
                "a complete tree")
    if tree.depth > depth:
        return f"depth {tree.depth}, deeper than config.depth = {depth}"
    return None


def _raise_first_fault(doc, cfg, n_classes: int) -> None:
    """Check the stored trees one by one, in document order, and raise the
    error of the first that the loader rejects."""
    p = None
    for k, t, sd in _stages(doc, cfg.T):
        _, tree = _read_stage(k, t, sd, n_classes)
        [(where, model)], p = _make_trees([tree], n_classes, p)
        fault = _tree_fault(model, p, cfg.depth, [0])
        if fault:
            raise ValueError(f"{where}: {fault}")


def _design(design, M: int) -> np.ndarray:
    """The stored design as an (M, m) array: one subset per member, each
    a strictly increasing list of m > 0 nonnegative row indices."""
    data.check_keys(design, {"subsets"}, "design")
    a = _decode(_raw(design, "subsets", "design"), "subsets")
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
    try:
        read = [(k, *_read_stage(k, t, sd, n_classes))
                for k, t, sd in _stages(doc, cfg.T)]
        trees, p = _make_trees([tree for _, _, tree in read], n_classes,
                               None)
        members = [ensemble.BoostedPmt(stages=[]) for _ in range(cfg.M)]
        for (k, raw_err, _), (_, tree) in zip(read, trees):
            members[k].stages.append(ensemble.BoostStage(raw_err=raw_err,
                                                         model=tree))
        model = ensemble.SbpmtModel(members=members, design=design,
                                    config=cfg, n_classes=n_classes,
                                    schema=doc["schema"])
        # every tree's values at once, through the committee's one
        # cart.links pass: its trees must start where the stored trees do
        starts = np.cumsum([0] + [t.feature.size for _, t in trees[:-1]])
        fault = _tree_fault(model.committee.trees, p, cfg.depth, starts)
        if fault:
            raise ValueError(f"committee: {fault}")
    except ValueError:
        _raise_first_fault(doc, cfg, n_classes)
        raise
    if doc["schema"] is not None:
        data.check_schema(doc["schema"], n_classes, p)
    return model


def save_model(model: ensemble.SbpmtModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_model(model))


def load_model(path) -> ensemble.SbpmtModel:
    with open(path, encoding="utf-8") as fh:
        return deserialize_model(fh.read())
