"""Decode a model document's arrays to nested lists and encode them back,
so a test can edit a stored tree or design as it would a list."""

import base64

import numpy as np

# The stored dtype of each array (model_io's module docstring).
DTYPES = {"feature": "<i4", "threshold": "<f8", "intercept": "<f8",
          "coef": "<f8", "subsets": "<i4"}


def _holders(doc):
    """(object, key) of every array a document holds: each tree's four
    and the design's subsets."""
    for member in doc["members"]:
        for stage in member["stages"]:
            tree = stage["model"]
            for key in ("feature", "threshold", "intercept", "coef"):
                yield tree, key
    yield doc["design"], "subsets"


def _array(value, key):
    return np.frombuffer(base64.b64decode(value), DTYPES[key])


def decoded(doc):
    """doc with each array as a nested list of its shape: feature and
    threshold (nodes,), intercept (L, K), coef (L, K, p) and subsets
    (M, m)."""
    K = 1 if doc["n_classes"] == 2 else doc["n_classes"]
    for obj, key in list(_holders(doc)):
        a = _array(obj[key], key)
        if key in ("intercept", "coef"):
            L = obj["feature"].count(-1)  # feature comes first, decoded
            a = a.reshape((L, K) if key == "intercept" else (L, K, -1))
        elif key == "subsets":
            a = a.reshape(doc["config"]["M"], -1)
        obj[key] = a.tolist()
    return doc


def _flat(value):
    return ([x for item in value for x in _flat(item)]
            if isinstance(value, list) else [value])


def encoded(doc):
    """doc with each array that is a (nested, maybe ragged) list stored
    as base64 of its items in order; any other value is left as it is."""
    for obj, key in list(_holders(doc)):
        if isinstance(obj.get(key), list):
            a = np.array(_flat(obj[key]), DTYPES[key])
            obj[key] = base64.b64encode(a.tobytes()).decode("ascii")
    return doc
