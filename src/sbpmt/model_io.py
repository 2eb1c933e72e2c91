"""Versioned JSON model persistence.

The format is a self-describing JSON document with explicit
format_version; coefficients stay human-inspectable.  Each tree is stored
as the arrays of pmt.PmtModel, written as (nested) lists, with its probit
risk.  Every fact is written once: a tree's n_classes and depth come from
the document's n_classes and config.depth.  Serialization is
deterministic (sorted keys, fixed layout), so identical models produce
byte-identical files, and deserialize(serialize(m)) predicts
bit-identically.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields

import numpy as np

from . import ensemble, pmt

FORMAT_VERSION = 3

# PmtModel fields that the document holds once for all trees.
_SHARED = ("n_classes", "depth")


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


def model_from_dict(doc: dict) -> ensemble.SbpmtModel:
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format version {version!r}; this release "
            f"reads version {FORMAT_VERSION} only, so refit the model")
    cfg = ensemble.SbpmtConfig(**doc["config"])
    n_classes = doc["n_classes"]
    design = ensemble.Design(
        subsets=[np.array(s, dtype=int) for s in doc["design"]["subsets"]])
    members = [ensemble.BoostedPmt(stages=[
        ensemble.BoostStage(
            alpha=sd["alpha"], err=sd["err"], raw_err=sd["raw_err"],
            model=pmt.PmtModel(n_classes=n_classes, depth=cfg.depth,
                               **{k: np.array(v) if isinstance(v, list) else v
                                  for k, v in sd["model"].items()}))
        for sd in mdoc["stages"]]) for mdoc in doc["members"]]
    return ensemble.SbpmtModel(members=members, design=design, config=cfg,
                               n_classes=n_classes, schema=doc["schema"])


def serialize_model(model: ensemble.SbpmtModel) -> str:
    return json.dumps(model_to_dict(model), sort_keys=True, indent=1,
                      allow_nan=False) + "\n"


def deserialize_model(text: str) -> ensemble.SbpmtModel:
    return model_from_dict(json.loads(text))


def save_model(model: ensemble.SbpmtModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_model(model))


def load_model(path) -> ensemble.SbpmtModel:
    with open(path, encoding="utf-8") as fh:
        return deserialize_model(fh.read())
