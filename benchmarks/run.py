"""Benchmark of sbpmt: fit, batch and single-row prediction, save and load.

usage: python3 benchmarks/run.py --workload NAME --seed N --seconds S
                                 --trace 0|1 [--small]

Run from the root of a checkout: sbpmt is imported from its src/.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; with --trace 0 the metrics are the end-to-end ones,
with --trace 1 the per-layer ones from a traced round.  The full result,
with every timing sample (and with --trace 1 the spans), is written under
.bench_out/ in the checkout.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3   # the median of this many set-ups is setup_s
WORKLOADS = ("sim-fit", "csv-multiclass")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="reduced sizes, for the benchmark's own tests")
    return p.parse_args(argv)


def probe_setup(spec, seed, workdir) -> float:
    """Time one set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe_setup.py"), spec.kind, str(seed),
         str(spec.n_train), str(spec.n_test), str(workdir)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sbpmt" / "__init__.py").is_file():
        print(f"benchmark: no sbpmt sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir) -> int:
    t0 = time.perf_counter()
    import inputs
    sb = inputs.import_sbpmt()
    import workloads
    spec = workloads.SPECS[args.workload]
    if args.small:
        spec = workloads.small_spec(spec)
    data = inputs.make_inputs(spec.kind, args.seed, spec.sizes, workdir)
    setup = [time.perf_counter() - t0]
    wl = workloads.make_workload(sb, spec, args.seed, data, workdir)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "small": args.small, "python": sys.version.split()[0],
              "numpy": sys.modules["numpy"].__version__,
              "scipy": sys.modules["scipy"].__version__,
              "cpus": os.cpu_count()}
    if args.trace:
        import tracer
        untraced = workloads.Run()
        wl.round(untraced)
        tr = tracer.Tracer(sb)
        tr.install()
        try:
            traced = workloads.Run(tracer=tr)
            wl.round(traced)
        finally:
            tr.restore()
        untraced_s = sum(sum(v) for v in untraced.samples.values())
        metrics, problems = tracer.per_layer_metrics(tr, untraced_s)
        units = dict(tracer.PER_LAYER)
        runs = [untraced, traced]
        for p in problems:
            traced.require(False, p)
        workloads.check_accuracy(traced, wl)
        tr.save(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
    else:
        for k in range(1, SETUP_SAMPLES):
            setup.append(probe_setup(spec, args.seed, workdir / f"probe{k}"))
        run = workloads.measure(wl, args.seconds)
        metrics = workloads.end_to_end_metrics(run, wl, setup)
        units = dict(workloads.END_TO_END)
        runs = [run]
        record["setup_samples"] = setup
        record["samples"] = run.samples

    problems = [p for r in runs for p in r.problems]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": all(r.correct for r in runs),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }
    record.update(result, problems=problems, rounds=wl.rounds)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
