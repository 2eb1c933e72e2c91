"""Versioned JSON model persistence.

The format is a self-describing JSON document with explicit
format_version; coefficients stay human-inspectable.  Each tree is stored
as the arrays of pmt.PmtModel, written as (nested) lists.  Serialization is
deterministic (sorted keys, fixed layout), so identical models produce
byte-identical files, and deserialize(serialize(m)) predicts bit-identically.
"""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np

from . import ensemble, pmt

FORMAT_VERSION = 2


def model_to_dict(model: ensemble.SbpmtModel) -> dict:
    cfg = model.config
    return {
        "format_version": FORMAT_VERSION,
        "config": {"M": cfg.M, "T": cfg.T, "B": cfg.B, "alpha": cfg.alpha,
                   "depth": cfg.depth, "min_leaf_size": cfg.min_leaf_size,
                   "seed": cfg.seed},
        "n_classes": model.n_classes,
        "schema": model.schema,
        "design": {"seed": model.design.seed,
                   "subsets": [s.tolist() for s in model.design.subsets]},
        "members": [
            {"stages": [
                {"alpha": st.alpha, "err": st.err, "raw_err": st.raw_err,
                 "probit_risk": st.probit_risk,
                 "model": {f.name: np.asarray(getattr(st.model, f.name))
                           .tolist() for f in fields(st.model)}}
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
    design = ensemble.Design(
        subsets=[np.array(s, dtype=int) for s in doc["design"]["subsets"]],
        seed=doc["design"]["seed"])
    members = [ensemble.BoostedPmt(n_classes=doc["n_classes"], stages=[
        ensemble.BoostStage(
            alpha=sd["alpha"], err=sd["err"], raw_err=sd["raw_err"],
            probit_risk=sd["probit_risk"],
            model=pmt.PmtModel(**{k: np.array(v) if isinstance(v, list) else v
                                  for k, v in sd["model"].items()}))
        for sd in mdoc["stages"]]) for mdoc in doc["members"]]
    return ensemble.SbpmtModel(members=members, design=design, config=cfg,
                               n_classes=doc["n_classes"],
                               schema=doc["schema"])


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
