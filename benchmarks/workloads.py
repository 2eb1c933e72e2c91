"""The workloads: what each round does, what it checks, what it reports.

A run repeats whole rounds of the same operations until its time is up
(at least MIN_ROUNDS), and reports the median of every timed operation
over the run.  A round is one fit followed by `slices` slices, each one
batch prediction, one save, one load and `singles` single-row
predictions; interleaving them spreads every metric's samples over the
round, so a spell of slow or fast host speed does not land on one metric
alone.  Every operation's output is checked; one that fails its check
counts in `failed`.
"""

from __future__ import annotations

import contextlib
import gc
import io
import math
import resource
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import inputs

MIN_ROUNDS = 3

# Each end-to-end metric with its unit, in output order.
END_TO_END = [
    ("setup_s", "s"), ("fit_s", "s"), ("predict_batch_rows_per_s", "rows/s"),
    ("predict_one_p50_us", "us"), ("predict_one_p90_us", "us"),
    ("save_s", "s"), ("load_s", "s"), ("model_bytes", "bytes"),
    ("peak_rss_mb", "MB"), ("test_accuracy", "ratio"),
]

# test_accuracy must beat the majority-class rate by this much ...
ACCURACY_MARGIN = {"sim": 0.15, "csv": 0.25}
# ... and may exceed the Bayes rule's accuracy on the same test rows by at
# most SLACK_SE / sqrt(n_test), a sampling slack.
SLACK_SE = 2.0


@dataclass(frozen=True)
class Spec:
    kind: str            # "sim" (arrays) or "csv" (files through the CLI)
    n_train: int
    n_test: int
    config: dict         # SbpmtConfig fields except the seed
    slices: int          # slices per round
    singles: int         # single-row predictions per slice
    min_rounds: int = MIN_ROUNDS

    @property
    def sizes(self):
        return {"n_train": self.n_train, "n_test": self.n_test}


PAPER_SHAPE = dict(T=5, alpha=0.7, depth=6, min_leaf_size=20)

# slices * singles is 350 or 351, so the MIN_ROUNDS rounds of a run give at
# least 1,050 single-row samples: more than 100 lie beyond p90.  A
# paper-default ensemble workload (M=21, B=1, 105 trees) was dropped: on a
# host whose speed switches between two modes its load_s and
# predict_one_p50_us spread past 0.25 between runs (benchmarks/README.md).

SPECS = {
    # the paper's per-member shape with few members: ProbitBoost over
    # ~40-row leaves dominates the fit
    "sim-fit": Spec("sim", 2000, 10000, dict(PAPER_SHAPE, M=4, B=100),
                    slices=5, singles=70),
    # the CLI path on CSV files: ingestion, one-hot encoding, SAMME and
    # one-vs-all ProbitBoost for J=4 classes
    "csv-multiclass": Spec("csv", 3000, 20000,
                           dict(M=5, T=5, B=15, alpha=0.7, depth=5,
                                min_leaf_size=20),
                           slices=3, singles=117),
}


def small_spec(spec: Spec) -> Spec:
    """The same workload at a size that runs in a few seconds (for tests)."""
    return replace(spec, n_train=400, n_test=800,
                   config=dict(spec.config, M=2, T=2, B=5, depth=3,
                               min_leaf_size=10),
                   slices=1, singles=10, min_rounds=1)


@dataclass
class Run:
    """Samples and operation counts of one run."""

    tracer: object = None
    samples: dict = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    correct: bool = True
    _op_bad: bool = False

    def timed(self, metric: str, fn, *args, collect: bool = True):
        """Run one operation, record its wall time under metric.

        With collect, a garbage collection runs first (untimed), so every
        repetition starts from the same collector state; otherwise a
        full collection of whatever the run holds lands in some
        repetitions and not others.
        """
        if collect:
            gc.collect()
        tr = self.tracer
        if tr is None:
            t0 = time.perf_counter()
            result = fn(*args)
            self.samples[metric].append(time.perf_counter() - t0)
            return result
        before = tr.counters.get("probitboost.risk_increases", 0)
        with tr.op(metric):
            t0 = time.perf_counter()
            result = fn(*args)
            self.samples[metric].append(time.perf_counter() - t0)
        self._op_bad = tr.counters.get("probitboost.risk_increases", 0) > before
        return result

    def check(self, ok: bool, what: str) -> None:
        """Count the last operation, failed unless its output checked out."""
        self.attempted += 1
        if not ok or self._op_bad:
            self.failed += 1
            self.problems.append(what if not ok else
                                 f"{what}: ProbitBoost risk increased")
        self._op_bad = False

    def require(self, ok: bool, what: str) -> None:
        """A check on the run as a whole, not on one operation."""
        if not ok:
            self.problems.append(what)
            self.correct = False


def _read(path) -> bytes:
    return Path(path).read_bytes()


def _save_load(run, sb, model, path, reference: bytes):
    """One timed save and one timed load, checked against the reference
    bytes; returns the loaded model."""
    run.timed("save", sb.model_io.save_model, model, path)
    run.check(_read(path) == reference, "saved file differs")
    loaded = run.timed("load", sb.model_io.load_model, path)
    run.check(sb.model_io.serialize_model(loaded).encode() == reference,
              "re-serialized loaded model differs from the saved file")
    return loaded


def _singles(run, sb, wl, model, X, expected):
    """spec.singles single-row predictions, cycling through the rows."""
    for _ in range(wl.spec.singles):
        i = wl.singles_done % X.shape[0]
        wl.singles_done += 1
        p = run.timed("predict_one", sb.ensemble.predict_sbpmt, model, X[i],
                      collect=False)
        run.check(p == expected[i], f"single-row prediction of row {i}")


class SimWorkload:
    def __init__(self, sb, spec: Spec, seed: int, data, workdir: Path):
        self.sb, self.spec, self.seed, self.data = sb, spec, seed, data
        self.path = workdir / "model.json"
        self.config = sb.ensemble.SbpmtConfig(seed=seed, **spec.config)
        self.reference = None   # model file bytes of the first fit
        self.preds = None       # batch predictions of the first fit
        self.rounds = 0
        self.singles_done = 0

    def round(self, run: Run) -> None:
        sb, d, spec = self.sb, self.data, self.spec
        model = run.timed("fit", sb.ensemble.fit_sbpmt, d.X, d.y, 2,
                          self.config)
        text = sb.model_io.serialize_model(model).encode()
        if self.reference is None:
            self.reference = text
        run.check(text == self.reference, "refit is not byte-identical")
        for k in range(spec.slices):
            preds = run.timed("predict_batch", sb.ensemble.predict_sbpmt_many,
                              model, d.X_test)
            if self.preds is None:
                self.preds = preds
            run.check(np.array_equal(preds, self.preds),
                      "batch prediction changed")
            loaded = _save_load(run, sb, model, self.path, self.reference)
            if self.rounds == 0 and k == 0:
                # every later load reads the same bytes, checked above
                run.require(np.array_equal(
                    sb.ensemble.predict_sbpmt_many(loaded, d.X_test),
                    self.preds),
                    "loaded model predicts differently from the fitted one")
            _singles(run, sb, self, loaded, d.X_test, self.preds)
        self.rounds += 1

    def accuracy(self):
        d = self.data
        acc = float(np.mean(self.preds == d.y_test))
        bayes = float(np.mean(d.bayes_test == d.y_test))
        majority = float(max(np.mean(d.y_test), 1 - np.mean(d.y_test)))
        return acc, bayes, majority

    def model_bytes(self) -> int:
        return len(self.reference)


class CsvWorkload:
    def __init__(self, sb, spec: Spec, seed: int, data, workdir: Path):
        self.sb, self.spec, self.seed, self.data = sb, spec, seed, data
        self.model_path = workdir / "model.json"
        self.copy_path = workdir / "copy.json"
        self.out_path = workdir / "predictions.csv"
        cfg = spec.config
        self.train_argv = [
            "train", "--data", str(data.train_path), "--label",
            inputs.CSV_LABEL, "--out", str(self.model_path),
            "--M", str(cfg["M"]), "--T", str(cfg["T"]), "--B", str(cfg["B"]),
            "--alpha", str(cfg["alpha"]), "--depth", str(cfg["depth"]),
            "--min-leaf", str(cfg["min_leaf_size"]), "--seed", str(seed)]
        self.predict_argv = [
            "predict", "--model", str(self.model_path), "--data",
            str(data.test_path), "--out", str(self.out_path)]
        # the benchmark's own encoding of the test rows
        header, rows = inputs.read_csv(data.train_path)
        self.plan = inputs.fit_encoder(header, rows, inputs.CSV_LABEL)
        # class indices follow first appearance in the training file
        self.classes = list(dict.fromkeys(
            row[header.index(inputs.CSV_LABEL)] for row in rows))
        test_header, test_rows = inputs.read_csv(data.test_path)
        self.X_test = inputs.encode(self.plan, test_header, test_rows)
        self.reference = None
        self.labels = None      # labels written by the first predict command
        self.rounds = 0
        self.singles_done = 0

    def _cli(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.sb.cli.main(argv)

    def round(self, run: Run) -> None:
        sb, spec = self.sb, self.spec
        rc = run.timed("fit", self._cli, self.train_argv)
        text = _read(self.model_path)
        if self.reference is None:
            self.reference = text
        run.check(rc == 0 and text == self.reference,
                  "train command failed or its model file changed")
        model = sb.model_io.load_model(self.model_path)
        run.require(model.schema["label"]["classes"] == self.classes,
                    "class order is not first-appearance order")
        idx = sb.ensemble.predict_sbpmt_many(model, self.X_test)
        expected = [self.classes[i] for i in idx]
        for _ in range(spec.slices):
            rc = run.timed("predict_batch", self._cli, self.predict_argv)
            # the predict command writes one label per line, no header
            labels = self.out_path.read_text(encoding="utf-8").splitlines()
            if self.labels is None:
                self.labels = labels
            run.check(rc == 0 and labels == expected,
                      "CLI labels differ from predictions on the "
                      "benchmark's own encoding")
            loaded = _save_load(run, sb, model, self.copy_path,
                                self.reference)
            _singles(run, sb, self, loaded, self.X_test, idx)
        self.rounds += 1

    def accuracy(self):
        truth = self.data.y_test_names
        acc = float(np.mean([a == b for a, b in zip(self.labels, truth)]))
        bayes = float(np.mean([a == b for a, b in
                               zip(self.data.bayes_test_names, truth)]))
        _, counts = np.unique(truth, return_counts=True)
        return acc, bayes, float(counts.max() / len(truth))

    def model_bytes(self) -> int:
        return len(self.reference)


def make_workload(sb, spec, seed, data, workdir):
    cls = SimWorkload if spec.kind == "sim" else CsvWorkload
    return cls(sb, spec, seed, data, Path(workdir))


def check_accuracy(run: Run, wl) -> float:
    acc, bayes, majority = wl.accuracy()
    margin = ACCURACY_MARGIN[wl.spec.kind]
    slack = SLACK_SE / math.sqrt(wl.spec.n_test)
    run.require(acc >= majority + margin,
                f"test accuracy {acc:.4f} not above majority rate "
                f"{majority:.4f} + {margin}")
    run.require(acc <= bayes + slack,
                f"test accuracy {acc:.4f} above Bayes accuracy "
                f"{bayes:.4f} + slack {slack:.4f}")
    return acc


def measure(wl, seconds: float) -> Run:
    """Untraced rounds until the time is up; at least spec.min_rounds."""
    run = Run()
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        wl.round(run)
        now = time.perf_counter()
        if (wl.rounds >= wl.spec.min_rounds
                and now - t_start + (now - t0) > seconds):
            return run


def end_to_end_metrics(run: Run, wl, setup_samples) -> dict:
    s = run.samples
    one = np.array(s["predict_one"]) * 1e6
    return {
        "setup_s": float(np.median(setup_samples)),
        "fit_s": float(np.median(s["fit"])),
        "predict_batch_rows_per_s":
            wl.spec.n_test / float(np.median(s["predict_batch"])),
        "predict_one_p50_us": float(np.percentile(one, 50)),
        "predict_one_p90_us": float(np.percentile(one, 90)),
        "save_s": float(np.median(s["save"])),
        "load_s": float(np.median(s["load"])),
        "model_bytes": wl.model_bytes(),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_accuracy": check_accuracy(run, wl),
    }
