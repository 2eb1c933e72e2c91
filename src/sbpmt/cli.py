"""Command-line interface: train / predict / cv / simulate / bound.

Exit codes: 0 success, 2 usage error, 1 runtime failure.  Every report
embeds the full hyperparameter configuration and seed; --report writes the
same content as machine-readable JSON.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from . import bounds, data, ensemble, model_io
from .ensemble import SbpmtConfig


# Every SbpmtConfig field is a flag of train, cv and simulate.
_HYPER_HELP = {
    "M": "number of subagged members",
    "T": "AdaBoost/SAMME rounds per member",
    "B": "ProbitBoost iterations per leaf",
    "alpha": "subagging ratio in (0, 1]",
    "depth": "maximum CART depth",
    "min_leaf_size": "minimum raw rows per leaf",
    "seed": "random seed",
}


def _add_hyper_flags(p: argparse.ArgumentParser) -> None:
    for f in fields(SbpmtConfig):
        flag = "--min-leaf" if f.name == "min_leaf_size" else f"--{f.name}"
        p.add_argument(flag, dest=f.name, type=type(f.default),
                       default=f.default,
                       help=f"{_HYPER_HELP[f.name]} (default %(default)s)")


def _build_config(args, cls=SbpmtConfig):
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def _load_with_schema(path) -> ensemble.SbpmtModel:
    model = model_io.load_model(path)
    if model.schema is None:
        raise RuntimeError("model file carries no encoding schema")
    return model


def _write_report(args, report: dict) -> None:
    if getattr(args, "report", None):
        text = json.dumps(report, indent=1, sort_keys=True, allow_nan=False)
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _member_rows(model: ensemble.SbpmtModel) -> list[dict]:
    rows = []
    for k, member in enumerate(model.members):
        stage_errs = [st.raw_err for st in member.stages]
        rows.append({
            "member": k,
            "stage_errors": stage_errs,
            "stage_alphas": [st.alpha(model.n_classes)
                             for st in member.stages],
            "stage_probit_risks": [st.probit_risk for st in member.stages],
            "theorem5_product_bound": bounds.theorem5_bound(stage_errs),
        })
    return rows


def cmd_train(args) -> int:
    cfg = _build_config(args)
    dataset = data.load_csv(args.data, args.label, not args.no_header)
    model = ensemble.fit_sbpmt(dataset.X, dataset.y, dataset.n_classes, cfg,
                               schema=dataset.schema)
    preds = ensemble.predict_sbpmt_many(model, dataset.X)
    acc = data.accuracy(preds, dataset.y)
    report = {
        "command": "train",
        "config": asdict(cfg),
        "data": args.data,
        "n": int(dataset.X.shape[0]),
        "n_features": int(dataset.X.shape[1]),
        "n_classes": dataset.n_classes,
        "training_accuracy_pct": acc,
        "members": _member_rows(model),
        "model_file": args.out,
    }
    # the report goes first, so a failing report leaves no model file
    _write_report(args, report)
    model_io.save_model(model, args.out)
    print(f"trained SBPMT on {args.data}: n={report['n']} "
          f"p={report['n_features']} J={dataset.n_classes}")
    print(f"config: {asdict(cfg)}")
    print(f"training accuracy: {acc:.2f}%")
    for row in report["members"]:
        errs = ", ".join(f"{e:.4f}" for e in row["stage_errors"])
        print(f"member {row['member']:2d}: stage errors [{errs}] "
              f"theorem5 bound {row['theorem5_product_bound']:.4g}")
    print(f"model written to {args.out}")
    return 0


def _csv_line(cell: str) -> str:
    """The line csv.writer writes for a one-cell row, terminator included."""
    buf = io.StringIO()
    csv.writer(buf).writerow([cell])
    return buf.getvalue()


def cmd_predict(args) -> int:
    model = _load_with_schema(args.model)
    dataset = data.load_csv(args.data, has_header=not args.no_header,
                            schema=model.schema)
    preds = ensemble.predict_sbpmt_many(model, dataset.X)
    lines = [_csv_line(name) for name in dataset.class_names]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(map(lines.__getitem__, preds.tolist())))
    print(f"wrote {len(preds)} predictions to {args.out}")
    return 0


def cmd_cv(args) -> int:
    cfg = _build_config(args)
    # k <= n needs the rows, and stratified_kfold checks it
    data.check_count("--k", args.k, 2)
    dataset = data.load_csv(args.data, args.label, not args.no_header)
    splits = data.stratified_kfold(dataset.y, args.k, args.seed)
    fold_accuracies = []
    for f, (train_idx, test_idx) in enumerate(splits):
        model = ensemble.fit_sbpmt(dataset.X[train_idx], dataset.y[train_idx],
                                   dataset.n_classes, cfg)
        preds = ensemble.predict_sbpmt_many(model, dataset.X[test_idx])
        acc = data.accuracy(preds, dataset.y[test_idx])
        fold_accuracies.append(acc)
        print(f"fold {f + 1}/{args.k}: accuracy {acc:.2f}%")
    mean, sd = data.summarize_cv(fold_accuracies)
    report = {
        "command": "cv",
        "config": asdict(cfg),
        "data": args.data,
        "k": args.k,
        "fold_accuracies_pct": fold_accuracies,
        "mean_accuracy_pct": mean,
        "sd_accuracy_pct": sd,
    }
    _write_report(args, report)
    print(f"{args.k}-fold CV accuracy: {mean:.2f} +/- {sd:.2f}")
    return 0


def _parse_list(flag: str, cast, text: str) -> list:
    values = []
    for v in text.split(","):
        try:
            values.append(cast(v))
        except ValueError:
            raise ValueError(f"{flag} expects {cast.__name__} values, "
                             f"got {v!r}") from None
    return values


def _parse_sweep(spec: str):
    name, _, values = spec.partition("=")
    if name not in {"M", "T", "B", "alpha"} or not values:
        raise ValueError("--sweep expects one of M|T|B|alpha=v1,v2,...")
    cast = float if name == "alpha" else int
    return name, _parse_list(f"--sweep {name}", cast, values)


def cmd_simulate(args) -> int:
    data.check_count("--repeats", args.repeats, 1)
    sim = _build_config(args, data.SimConfig)
    base = _build_config(args)
    sweep_name, sweep_values = (_parse_sweep(args.sweep) if args.sweep
                                else (None, [None]))
    # every point's config is checked before the first fit
    points = [replace(base, **{sweep_name: v}) if sweep_name else base
              for v in sweep_values]
    results = []
    for value, point in zip(sweep_values, points):
        errors = []
        for rep in range(args.repeats):
            seed = args.seed + rep
            train, test = data.simulate(replace(sim, seed=seed))
            model = ensemble.fit_sbpmt(train.X, train.y, 2,
                                       replace(point, seed=seed))
            preds = ensemble.predict_sbpmt_many(model, test.X)
            errors.append(float(np.mean(preds != test.y)))
        results.append({"sweep": sweep_name, "value": value,
                        "test_errors": errors,
                        "mean_test_error": float(np.mean(errors))})
    report = {
        "command": "simulate",
        "config": asdict(base),
        "sim": dict(asdict(sim), repeats=args.repeats),
        "results": results,
    }
    _write_report(args, report)
    label = sweep_name or "-"
    print(f"{label:>8}  mean_test_error")
    for row in results:
        value = row["value"] if row["value"] is not None else "-"
        print(f"{value!s:>8}  {row['mean_test_error']:.4f}")
    return 0


# theorem -> calculator; each calculator's signature states what its
# theorem takes, which inputs it needs and their defaults
_THEOREMS = {3: bounds.theorem3_bound, 4: bounds.theorem4_bound,
             5: bounds.theorem5_bound, 6: bounds.theorem6_bound}
# calculator parameter -> its flag and type (list: comma-separated floats)
_BOUND_FLAGS = {
    "n": ("--n", int), "m": ("--m", int), "M": ("--M", int),
    "T": ("--T", int), "d_vc": ("--d-vc", int),
    "delta": ("--delta", float), "p_sub": ("--p-sub", float),
    "sigma1_sq": ("--sigma1-sq", float), "beta_kernel": ("--beta", float),
    "gamma_kernel": ("--gamma", float), "theta": ("--theta", float),
    "empirical_error": ("--empirical-error", float),
    "errors": ("--errors", list), "probit_risks": ("--probit-risks", list),
}
# the inputs --from-model fixes from the model and --data
_FROM_MODEL = ("n", "m", "M", "p_sub")


def cmd_bound(args, parser: argparse.ArgumentParser) -> int:
    calculator = _THEOREMS[args.theorem]
    params = inspect.signature(calculator).parameters
    given = {name: getattr(args, name) for name in _BOUND_FLAGS
             if getattr(args, name) is not None}
    foreign = [_BOUND_FLAGS[name][0] for name in given if name not in params]
    if not set(_FROM_MODEL) <= params.keys():
        foreign += [flag for flag, value in (("--from-model", args.from_model),
                                             ("--data", args.data))
                    if value is not None]
    if foreign:
        parser.error(f"theorem {args.theorem} does not take "
                     f"{', '.join(foreign)}")
    fixed = _FROM_MODEL if args.from_model else ()
    if args.from_model and args.data is None:
        parser.error("--from-model requires --data for p_sub")
    if args.data is not None and not args.from_model:
        parser.error("--data needs --from-model")
    clash = [_BOUND_FLAGS[name][0] for name in fixed if name in given]
    if clash:
        parser.error("--from-model takes n, m, M and p_sub from the model "
                     f"and --data; drop {', '.join(clash)}")
    missing = [_BOUND_FLAGS[name][0] for name, param in params.items()
               if param.default is param.empty
               and name not in given and name not in fixed]
    if missing:
        parser.error(f"theorem {args.theorem} needs {', '.join(missing)}")

    for name, text in given.items():
        flag, kind = _BOUND_FLAGS[name]
        if kind is list:
            given[name] = _parse_list(flag, float, text)
    if args.from_model:
        model = _load_with_schema(args.from_model)
        dataset = data.load_csv(args.data, schema=model.schema)
        if dataset.y is None:
            raise ValueError(f"{args.data} has no label column")
        given["n"] = dataset.X.shape[0]
        given["M"], given["m"] = len(model.design), int(model.design[0].sum())
        given["p_sub"] = bounds.estimate_p_sub(model, dataset.X, dataset.y)
    # the call's arguments, defaults applied, in the signature's order
    inputs = {name: given.get(name, param.default)
              for name, param in params.items()}
    out = calculator(**inputs)

    report: dict = {"command": "bound", "theorem": args.theorem}
    if args.theorem == 3:
        M, p_sub = inputs["M"], inputs["p_sub"]
        threshold = out.hypothesis_threshold
        print(f"hypothesis: M > ln^2(n) = {threshold:.2f} -> "
              f"{'ok' if M > threshold else 'VIOLATED'} (M = {M})")
        print(f"p_sub = {p_sub:.6f} "
              f"({'ok' if p_sub < 0.5 else 'VIOLATED: bound vacuous'})")
        print(f"Q_A = {out.Q_A:.6f}  Q_B = {out.Q_B:.6f}  Q_C = {out.Q_C:.6f}")
        print(f"generalization error bound (prob >= "
              f"{1 - inputs['delta']:g}): {out.rhs:.6g}"
              f"{' [degenerate]' if out.degenerate else ''}")
        report.update(asdict(out), inputs=inputs)
    elif args.theorem == 6:
        if not out.hypothesis_ok:
            print("hypothesis 0 <= eps_t/ln2 < 1/2 VIOLATED; "
                  "training term reported as 1")
        print(f"training term: {out.training_term:.6g}")
        print(f"complexity term: {out.complexity_term:.6f}")
        print(f"theorem 6 bound: {out.total:.6f}")
        report.update(inputs, training_term=out.training_term,
                      complexity_term=out.complexity_term,
                      bound=out.total, hypothesis_ok=out.hypothesis_ok)
    else:
        theta = f" (theta={inputs['theta']:g})" if args.theorem == 5 else ""
        print(f"theorem {args.theorem} bound{theta}: {out:.6f}")
        report.update(inputs, bound=out)
    _write_report(args, report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbpmt",
        description="Subagging Boosted Probit Model Trees")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit an SBPMT model")
    p_train.add_argument("--data", required=True, help="training CSV")
    p_train.add_argument("--label", default="-1",
                         help="label column name or index (default: last)")
    p_train.add_argument("--out", required=True, help="model file to write")
    p_train.add_argument("--no-header", action="store_true")
    p_train.add_argument("--report", help="write a JSON training report")
    _add_hyper_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_pred = sub.add_parser("predict", help="predict labels with a model")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--out", required=True)
    p_pred.add_argument("--no-header", action="store_true")
    p_pred.set_defaults(func=cmd_predict)

    p_cv = sub.add_parser("cv", help="stratified k-fold cross-validation")
    p_cv.add_argument("--data", required=True)
    p_cv.add_argument("--label", default="-1")
    p_cv.add_argument("--k", type=int, default=10)
    p_cv.add_argument("--no-header", action="store_true")
    p_cv.add_argument("--report", help="write a JSON CV report")
    _add_hyper_flags(p_cv)
    p_cv.set_defaults(func=cmd_cv)

    p_sim = sub.add_parser("simulate",
                           help="synthetic benchmark with parameter sweeps")
    for f in fields(data.SimConfig):
        if f.name != "seed":  # the hyperparameter flags supply --seed
            p_sim.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                               type=type(f.default), default=f.default)
    p_sim.add_argument("--repeats", type=int, default=1,
                       help="seeds per sweep point (seed, seed+1, ...)")
    p_sim.add_argument("--sweep", help="M|T|B|alpha=v1,v2,...")
    p_sim.add_argument("--report", help="write a JSON result table")
    _add_hyper_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_bound = sub.add_parser(
        "bound", help="generalization bound calculators",
        description="Each theorem takes the flags of its calculator's "
        "parameters and needs those without a default. Theorem 3's kernel "
        "moments --sigma1-sq, --beta and --gamma are not estimable from "
        "one dataset, so they have none.")
    p_bound.add_argument("--theorem", type=int, choices=(3, 4, 5, 6),
                         required=True)
    for name, (flag, kind) in _BOUND_FLAGS.items():
        p_bound.add_argument(flag, dest=name,
                             type=str if kind is list else kind,
                             metavar="x1,x2,..." if kind is list else None)
    p_bound.add_argument("--from-model", dest="from_model",
                         help="model file; estimates p_sub out-of-subset")
    p_bound.add_argument("--data", help="CSV used with --from-model")
    p_bound.add_argument("--report", help="write a JSON bound report")
    p_bound.set_defaults(func=lambda a: cmd_bound(a, p_bound))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
