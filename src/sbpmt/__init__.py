"""Subagging Boosted Probit Model Trees (SBPMT).

A classification library built from three layers: ProbitBoost linear
models fitted at CART leaf nodes (Probit Model Trees), boosted with
AdaBoost/SAMME, and ensembled by subagging — plus calculators for the
associated finite-sample generalization-error bounds.
"""

from .bounds import (BoundInputs, BoundReport, DesignStats, design_stats,
                     estimate_p_sub, theorem3_bound, theorem4_bound,
                     theorem5_bound, theorem6_bound)
from .cart import build_tree, route_many
from .data import (Dataset, SimConfig, accuracy, check_inputs, load_csv,
                   simulate, stratified_kfold, summarize_cv)
from .ensemble import (BoostedPmt, SbpmtConfig, SbpmtModel, draw_design,
                       fit_boosted, fit_sbpmt, predict_sbpmt,
                       predict_sbpmt_many)
from .model_io import deserialize_model, load_model, save_model, serialize_model
from .numerics import inv_mills, probit_loss, working_response_and_weight
from .pmt import PmtModel, fit_pmt, predict_pmt_many
from .probitboost import LinearScore, ProbitBoostTrace, fit_probitboost

__version__ = "0.1.0"
