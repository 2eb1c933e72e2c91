"""Decode a model document's arrays to nested lists and encode them back,
so a test can edit a stored tree or design as it would a list."""

import base64

import numpy as np

# The stored dtype of each tree array (model_io's module docstring).
DTYPES = {"nodes": "<i4", "feature": "<i4", "threshold": "<f8",
          "intercept": "<f8", "support": "u1", "coef": "<f8"}
ARRAYS = ("feature", "threshold", "intercept", "coef")


def _array(value, key):
    return np.frombuffer(base64.b64decode(value), DTYPES[key])


def _string(a) -> str:
    return base64.b64encode(np.asarray(a).tobytes()).decode("ascii")


def decoded(doc):
    """doc with its trees as a list of one dict per stage, in document
    order, of nested lists, the arguments of pmt.make_tree: feature and
    threshold (nodes,), 0.0 at a leaf, intercept (L, K) and the dense coef
    (L, K, p); and its design's incidence as subsets, the (M, m) row
    indices that it marks."""
    K = 1 if doc["n_classes"] == 2 else doc["n_classes"]
    a = {key: _array(doc["trees"][key], key) for key in DTYPES}
    starts = np.concatenate(([0], np.cumsum(a["nodes"])))
    rows = np.concatenate(([0], np.cumsum(a["feature"] == -1)))[starts]
    threshold = np.zeros(a["feature"].size)
    threshold[a["feature"] != -1] = a["threshold"]
    intercept = a["intercept"].reshape(-1, K)
    support = np.unpackbits(a["support"].reshape(-1, -(-intercept.size // 8)),
                            axis=1, count=intercept.size,
                            bitorder="little").astype(bool)
    coef = np.zeros((intercept.size, len(support)))
    coef.T[support] = a["coef"]
    blocks = {"feature": (a["feature"], starts),
              "threshold": (threshold, starts),
              "intercept": (intercept, rows),
              "coef": (coef.reshape(len(intercept), K, -1), rows)}
    doc["trees"] = [{key: x[at[i]:at[i + 1]].tolist()
                     for key, (x, at) in blocks.items()}
                    for i in range(a["nodes"].size)]
    design = doc["design"]
    M, n = doc["config"]["M"], design["n"]
    incidence = np.unpackbits(
        np.frombuffer(base64.b64decode(design.pop("incidence")), np.uint8),
        count=M * n, bitorder="little").reshape(M, n)
    design["subsets"] = [np.flatnonzero(row).tolist() for row in incidence]
    return doc


def _flat(value):
    return ([x for item in value for x in _flat(item)]
            if isinstance(value, list) else [value])


def encoded(doc):
    """doc with a list of trees stored again as the committee's arrays and
    node counts: the split nodes' thresholds (each tree's threshold list
    as long as its feature list), each (nested) intercept list's items in
    order, and the (L, K, p) coef of all the trees as its support and
    nonzero values; and a design's subsets as its incidence over n
    rows."""
    if isinstance(doc["trees"], list):
        trees = doc["trees"]
        coef = np.array([row for t in trees for row in t["coef"]], "<f8")
        by_feature = coef.reshape(-1, coef.shape[-1]).T
        support = by_feature.view("<u8") != 0
        arrays = {
            "nodes": [len(t["feature"]) for t in trees],
            "feature": [x for t in trees for x in t["feature"]],
            "threshold": [x for t in trees for f, x in zip(
                t["feature"], t["threshold"], strict=True) if f != -1],
            "intercept": [x for t in trees for x in _flat(t["intercept"])],
            "support": np.packbits(support, axis=1, bitorder="little"),
            "coef": by_feature[support]}
        doc["trees"] = {key: _string(np.array(a, DTYPES[key]))
                        for key, a in arrays.items()}
    design = doc["design"]
    if "subsets" in design:
        subsets = design.pop("subsets")
        incidence = np.zeros((len(subsets), design["n"]), dtype=bool)
        for k, rows in enumerate(subsets):
            incidence[k, rows] = True
        design["incidence"] = _string(np.packbits(incidence,
                                                  bitorder="little"))
    return doc
