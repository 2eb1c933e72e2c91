import csv
import inspect
import io
import json
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from sbpmt import bounds, cli, data, ensemble, model_io

from model_doc import decoded, encoded

FAST = ["--M", "3", "--T", "2", "--B", "3", "--alpha", "0.7",
        "--depth", "2", "--min-leaf", "5"]
KERNEL = ["--theorem", "3", "--sigma1-sq", "0.25", "--beta", "1", "--gamma",
          "1"]
# every (theorem, flag its calculator lacks) pair, from the two CLI tables
FOREIGN = [(theorem, flag, kind) for theorem, calc in cli._THEOREMS.items()
           for name, (flag, kind) in cli._BOUND_FLAGS.items()
           if name not in inspect.signature(calc).parameters]


def write_csv(tmp_path, name="train.csv", n=120, seed=0, header=True):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
    lines = ["f1,f2,label"] if header else []
    lines += [f"{a:.6f},{b:.6f},c{c}" for (a, b), c in zip(X, y)]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestTrain:
    def test_train_writes_model_and_report(self, tmp_path, capsys):
        csv_path = write_csv(tmp_path)
        out = tmp_path / "model.json"
        report = tmp_path / "report.json"
        rc = cli.main(["train", "--data", str(csv_path), "--label", "label",
                       "--out", str(out), "--report", str(report),
                       "--seed", "1"] + FAST)
        assert rc == 0
        text = capsys.readouterr().out
        assert "training accuracy:" in text
        assert "theorem5 bound" in text
        assert out.exists()
        doc = json.loads(report.read_text())
        assert doc["config"]["M"] == 3 and doc["config"]["seed"] == 1
        assert doc["n"] == 120 and doc["n_classes"] == 2
        assert len(doc["members"]) == 3
        model = model_io.load_model(out)
        # first-appearance order of the generated labels
        assert sorted(model.schema["label"]["classes"]) == ["c0", "c1"]

    def test_default_label_is_last_column(self, tmp_path):
        csv_path = write_csv(tmp_path)
        out = tmp_path / "model.json"
        rc = cli.main(["train", "--data", str(csv_path),
                       "--out", str(out)] + FAST)
        assert rc == 0

    def test_preset_paper_default(self, tmp_path, capsys):
        # without hyperparameter flags a run uses the paper's defaults
        csv_path = write_csv(tmp_path, n=30)
        out = tmp_path / "m.json"
        rc = cli.main(["train", "--data", str(csv_path), "--out", str(out)])
        assert rc == 0
        assert ("config: {'M': 21, 'T': 5, 'B': 100, 'alpha': 0.7, "
                "'depth': 6, 'min_leaf_size': 20, 'seed': 0}"
                in capsys.readouterr().out)
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--data", str(csv_path), "--out", str(out),
                      "--preset", "paper-default"])
        assert exc.value.code == 2

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        rc = cli.main(["train", "--data", str(tmp_path / "nope.csv"),
                       "--out", str(tmp_path / "m.json")] + FAST)
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_non_finite_cell_is_runtime_error(self, tmp_path, capsys):
        csv_path = write_csv(tmp_path, n=60)
        lines = csv_path.read_text().splitlines()
        lines[17] = "nan," + lines[17].split(",", 1)[1]
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "m.json"
        rc = cli.main(["train", "--data", str(csv_path), "--out", str(out)]
                      + FAST)
        assert rc == 1
        assert "non-finite value nan in row 17" in capsys.readouterr().err
        assert not out.exists()

    def test_feature_past_fit_limit_is_runtime_error(self, tmp_path, capsys,
                                                     monkeypatch):
        # rejected before the fit, not after it when the model is saved
        def fork():
            raise AssertionError("a process was started")
        monkeypatch.setattr(os, "fork", fork)
        csv_path = write_csv(tmp_path, n=60)
        lines = csv_path.read_text().splitlines()
        lines[17] = "-1e155," + lines[17].split(",", 1)[1]
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "m.json"
        rc = cli.main(["train", "--data", str(csv_path), "--out", str(out)]
                      + FAST)
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: value -1e+155 in row 17, feature 1 exceeds the fit limit")
        assert not out.exists()

    @pytest.mark.parametrize("M", ["0", "-1"])
    def test_no_members_is_runtime_error(self, tmp_path, capsys, M):
        csv_path = write_csv(tmp_path, n=30)
        out = tmp_path / "m.json"
        rc = cli.main(["train", "--data", str(csv_path), "--out", str(out)]
                      + FAST + ["--M", M])
        assert rc == 1
        assert f"M = {M}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_is_runtime_error_before_any_process(
            self, tmp_path, capsys, monkeypatch):
        def fork():
            raise AssertionError("a process was started")
        monkeypatch.setattr(os, "fork", fork)
        csv_path = write_csv(tmp_path, n=30)
        out = tmp_path / "m.json"
        rc = cli.main(["train", "--data", str(csv_path), "--out", str(out)]
                      + FAST + ["--depth", "-1"])
        assert rc == 1
        assert "config: need depth >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_stage_that_misses_every_row(self, tmp_path):
        # with seed 7, one subset lacks the only `a` row, so its one-leaf
        # tree predicts `b` everywhere and misses every row: the weights
        # sum past 1 by rounding, and the stage must record 1
        path = tmp_path / "tiny.csv"
        path.write_text("x,label\n" + "".join(
            f"{i},{'a' if i == 0 else 'b'}\n" for i in range(10)),
            encoding="utf-8")
        out = tmp_path / "m.json"
        rc = cli.main(["train", "--data", str(path), "--out", str(out),
                       "--M", "3", "--T", "1", "--B", "0", "--depth", "0",
                       "--alpha", "0.9", "--seed", "7"])
        assert rc == 0
        errors = [st.raw_err for m in model_io.load_model(out).members
                  for st in m.stages]
        assert max(errors) == 1.0

    def test_failing_report_writes_no_model(self, tmp_path, capsys,
                                            monkeypatch):
        def fail(errors):
            raise ValueError("stage errors must lie in [0, 1]")
        monkeypatch.setattr(bounds, "theorem5_bound", fail)
        out = tmp_path / "m.json"
        rc = cli.main(["train", "--data", str(write_csv(tmp_path, n=30)),
                       "--out", str(out)] + FAST)
        assert rc == 1
        assert "stage errors" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_report_writes_no_model(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        rc = cli.main(["train", "--data", str(write_csv(tmp_path, n=30)),
                       "--out", str(out),
                       "--report", str(tmp_path / "nodir" / "r.json")] + FAST)
        assert rc == 1
        assert "error: [Errno 2]" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_field_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text('a,label\n1,x\n"' + "z" * 200_000 + '",y\n',
                        encoding="utf-8")
        rc = cli.main(["train", "--data", str(path),
                       "--out", str(tmp_path / "m.json")] + FAST)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}, line 3: field larger than")
        assert not (tmp_path / "m.json").exists()

    def test_label_only_file_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "labels.csv"
        path.write_text("label\na\nb\na\n", encoding="utf-8")
        rc = cli.main(["train", "--data", str(path),
                       "--out", str(tmp_path / "m.json")] + FAST)
        assert rc == 1
        assert "no feature columns" in capsys.readouterr().err

    def test_missing_required_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--data", "x.csv"])  # no --out
        assert exc.value.code == 2


class TestPredict:
    def train(self, tmp_path):
        csv_path = write_csv(tmp_path)
        out = tmp_path / "model.json"
        assert cli.main(["train", "--data", str(csv_path), "--label", "label",
                         "--out", str(out), "--seed", "3"] + FAST) == 0
        return csv_path, out

    def test_predict_restores_class_names(self, tmp_path):
        csv_path, model_path = self.train(tmp_path)
        query = tmp_path / "query.csv"
        query.write_text("f1,f2\n0.9,0.9\n-0.9,0.9\n", encoding="utf-8")
        preds_path = tmp_path / "preds.csv"
        rc = cli.main(["predict", "--model", str(model_path),
                       "--data", str(query), "--out", str(preds_path)])
        assert rc == 0
        preds = preds_path.read_text().split()
        assert len(preds) == 2
        assert set(preds) <= {"c0", "c1"}

    def test_predict_training_file_with_label_column(self, tmp_path):
        # schema-aware encoding ignores the label column when present
        csv_path, model_path = self.train(tmp_path)
        preds_path = tmp_path / "preds.csv"
        rc = cli.main(["predict", "--model", str(model_path),
                       "--data", str(csv_path), "--out", str(preds_path)])
        assert rc == 0
        preds = preds_path.read_text().split()
        assert len(preds) == 120

    def test_predictions_file_quotes_class_names(self, tmp_path):
        # the file holds exactly what csv.writer writes for one-cell rows,
        # quoting and \r\n terminators included
        names = ["a,b", 'say "hi"', " padded ", "two\nlines"]
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 4, size=160)
        train_csv = tmp_path / "train.csv"
        with open(train_csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "label"])
            writer.writerows([f"{v:.6f}", names[int(v)]] for v in x)
        model_path = tmp_path / "model.json"
        preds_path = tmp_path / "preds.csv"
        assert cli.main(["train", "--data", str(train_csv), "--label",
                         "label", "--out", str(model_path)] + FAST) == 0
        assert cli.main(["predict", "--model", str(model_path), "--data",
                         str(train_csv), "--out", str(preds_path)]) == 0
        model = model_io.load_model(model_path)
        X = data.load_csv(train_csv, schema=model.schema).X
        want = [[model.schema["label"]["classes"][p]]
                for p in ensemble.predict_sbpmt_many(model, X)]
        assert {row[0] for row in want} == set(names)
        buf = io.StringIO()
        csv.writer(buf).writerows(want)
        assert preds_path.read_bytes() == buf.getvalue().encode("utf-8")
        with open(preds_path, encoding="utf-8", newline="") as fh:
            assert list(csv.reader(fh)) == want

    def test_predict_empty_input(self, tmp_path, capsys):
        _, model_path = self.train(tmp_path)
        empty = tmp_path / "empty.csv"
        empty.write_text("f1,f2\n", encoding="utf-8")
        preds_path = tmp_path / "preds.csv"
        rc = cli.main(["predict", "--model", str(model_path),
                       "--data", str(empty), "--out", str(preds_path)])
        assert rc == 0
        assert preds_path.read_text() == ""
        assert "wrote 0 predictions" in capsys.readouterr().out

    def test_short_row_is_runtime_error(self, tmp_path, capsys):
        _, model_path = self.train(tmp_path)
        query = tmp_path / "query.csv"
        query.write_text("f1,f2\n0.9,0.9\n-0.9\n", encoding="utf-8")
        preds_path = tmp_path / "preds.csv"
        rc = cli.main(["predict", "--model", str(model_path),
                       "--data", str(query), "--out", str(preds_path)])
        assert rc == 1
        assert "row 2 has 1 cells, expected 2" in capsys.readouterr().err
        assert not preds_path.exists()

    def test_no_header_file_one_column_short(self, tmp_path, capsys):
        # without a header the columns are found by their recorded names,
        # so a missing one is named
        _, model_path = self.train(tmp_path)
        query = tmp_path / "query.csv"
        query.write_text("0.9\n-0.9\n", encoding="utf-8")
        preds_path = tmp_path / "preds.csv"
        rc = cli.main(["predict", "--model", str(model_path), "--no-header",
                       "--data", str(query), "--out", str(preds_path)])
        assert rc == 1
        assert "column 'f2' missing from input" in capsys.readouterr().err
        assert not preds_path.exists()

    def test_no_header_predicts_as_with_header(self, tmp_path):
        csv_path, model_path = self.train(tmp_path)
        rows = csv_path.read_text(encoding="utf-8").splitlines()[1:]
        unlabeled = [r.rsplit(",", 1)[0] for r in rows]
        files = {
            "header": ("f1,f2\n" + "\n".join(unlabeled), []),
            "no-header": ("\n".join(unlabeled), ["--no-header"]),
            "no-header-label": ("\n".join(rows), ["--no-header"]),
        }
        preds = {}
        for name, (text, flags) in files.items():
            query = tmp_path / f"{name}.csv"
            query.write_text(text + "\n", encoding="utf-8")
            out = tmp_path / f"{name}.out"
            assert cli.main(["predict", "--model", str(model_path), "--data",
                             str(query), "--out", str(out)] + flags) == 0
            preds[name] = out.read_text()
        assert len(preds["header"].split()) == 120
        assert preds["no-header"] == preds["header"]
        assert preds["no-header-label"] == preds["header"]

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["schema"]["columns"][0].pop("kind"),
         "schema column 0: missing keys ['kind']"),
        (lambda d: d["schema"]["columns"][0].update(kind=[]),
         "schema column 0: kind must be 'numeric' or 'categorical', got []"),
        (lambda d: d["schema"]["label"]["classes"].pop(),
         "schema label: classes must be 2 distinct strings"),
        (lambda d: d["design"]["subsets"][0].pop(),
         "design: each subset must hold floor(alpha * n) = "),
    ])
    def test_bad_schema_or_design_is_runtime_error(self, tmp_path, capsys,
                                                   edit, message):
        csv_path, model_path = self.train(tmp_path)
        doc = decoded(json.loads(model_path.read_text(encoding="utf-8")))
        edit(doc)
        model_path.write_text(json.dumps(encoded(doc)), encoding="utf-8")
        preds_path = tmp_path / "preds.csv"
        rc = cli.main(["predict", "--model", str(model_path),
                       "--data", str(csv_path), "--out", str(preds_path)])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not preds_path.exists()

    def test_model_without_schema_is_runtime_error(self, tmp_path, capsys):
        # a library fit without a schema cannot encode a CSV file
        csv_path = write_csv(tmp_path)
        dataset = data.load_csv(csv_path, "label")
        config = ensemble.SbpmtConfig(M=2, T=1, B=2, depth=1, seed=3)
        model = ensemble.fit_sbpmt(dataset.X, dataset.y, 2, config,
                                   workers=1)
        model_path = tmp_path / "bare.json"
        model_io.save_model(model, model_path)
        for argv in (["predict", "--model", str(model_path), "--data",
                      str(csv_path), "--out", str(tmp_path / "p.csv")],
                     ["bound"] + KERNEL + ["--from-model", str(model_path),
                                           "--data", str(csv_path)]):
            assert cli.main(argv) == 1
            assert ("error: model file carries no encoding schema"
                    in capsys.readouterr().err)
        assert not (tmp_path / "p.csv").exists()

    def test_bad_model_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format_version": 42}', encoding="utf-8")
        rc = cli.main(["predict", "--model", str(bad), "--data", str(bad),
                       "--out", str(tmp_path / "p.csv")])
        assert rc == 1
        assert "format version" in capsys.readouterr().err


class TestCv:
    def test_cv_reports_mean_and_sd(self, tmp_path, capsys):
        csv_path = write_csv(tmp_path, n=100)
        report = tmp_path / "cv.json"
        rc = cli.main(["cv", "--data", str(csv_path), "--label", "label",
                       "--k", "3", "--report", str(report),
                       "--seed", "0"] + FAST)
        assert rc == 0
        text = capsys.readouterr().out
        assert "fold 1/3" in text and "fold 3/3" in text
        assert "3-fold CV accuracy:" in text
        doc = json.loads(report.read_text())
        assert len(doc["fold_accuracies_pct"]) == 3
        assert doc["mean_accuracy_pct"] == pytest.approx(
            np.mean(doc["fold_accuracies_pct"]))

    def test_bad_config_rejected_before_reading_data(self, tmp_path, capsys,
                                                     monkeypatch):
        fits = []
        monkeypatch.setattr(ensemble, "fit_sbpmt",
                            lambda *a, **k: fits.append(a))
        rc = cli.main(["cv", "--data", str(tmp_path / "missing.csv"),
                       "--depth", "-1"])
        assert rc == 1
        assert "config: need depth >= 0" in capsys.readouterr().err
        assert fits == []

    def test_k_below_two_rejected_before_reading_data(self, tmp_path, capsys,
                                                      monkeypatch):
        reads = []
        monkeypatch.setattr(data, "load_csv", lambda *a, **k: reads.append(a))
        rc = cli.main(["cv", "--data", str(tmp_path / "missing.csv"),
                       "--k", "1"])
        assert rc == 1
        assert "--k must be >= 2, got 1" in capsys.readouterr().err
        assert reads == []


class TestSimulate:
    def test_single_point(self, tmp_path, capsys):
        report = tmp_path / "sim.json"
        rc = cli.main(["simulate", "--d", "4", "--E", "2", "--q", "0.1",
                       "--n-train", "200", "--n-test", "300",
                       "--repeats", "1", "--report", str(report),
                       "--seed", "0"] + FAST)
        assert rc == 0
        assert "mean_test_error" in capsys.readouterr().out
        doc = json.loads(report.read_text())
        assert len(doc["results"]) == 1
        assert 0.0 <= doc["results"][0]["mean_test_error"] <= 1.0

    def test_sweep_over_M(self, tmp_path, capsys):
        report = tmp_path / "sweep.json"
        rc = cli.main(["simulate", "--d", "4", "--E", "2", "--q", "0.1",
                       "--n-train", "150", "--n-test", "200",
                       "--sweep", "M=1,3", "--report", str(report),
                       "--seed", "1"] + FAST)
        assert rc == 0
        doc = json.loads(report.read_text())
        assert [r["value"] for r in doc["results"]] == [1, 3]

    def test_flag_defaults_are_the_sim_config(self):
        args = cli.build_parser().parse_args(["simulate"])
        for f in fields(data.SimConfig):
            assert getattr(args, f.name) == f.default, f.name
        args = cli.build_parser().parse_args(
            ["simulate", "--d", "4", "--E", "2", "--q", "0.2",
             "--n-train", "50", "--n-test", "60"])
        assert (args.d, args.E, args.q, args.n_train, args.n_test) == \
            (4, 2, 0.2, 50, 60)

    def test_zero_repeats_rejected(self, tmp_path, capsys):
        report = tmp_path / "sim.json"
        rc = cli.main(["simulate", "--repeats", "0", "--report", str(report)]
                      + FAST)
        assert rc == 1
        assert "--repeats must be >= 1" in capsys.readouterr().err
        assert not report.exists()

    def test_report_refuses_non_finite_numbers(self, tmp_path):
        report = tmp_path / "r.json"
        args = cli.build_parser().parse_args(
            ["simulate", "--report", str(report)])
        with pytest.raises(ValueError, match="JSON compliant"):
            cli._write_report(args, {"mean_test_error": float("nan")})
        assert not report.exists()

    def test_bad_sim_config_rejected_before_any_fit(self, tmp_path, capsys,
                                                    monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a member was fitted")
        monkeypatch.setattr(ensemble, "fit_sbpmt", fail)
        report = tmp_path / "sim.json"
        rc = cli.main(["simulate", "--n-test", "0", "--report", str(report)]
                      + FAST)
        assert rc == 1
        assert "config: need n_test >= 1" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("sweep, message", [
        ("M=2,0", "config: need M >= 1, got M = 0"),
        ("alpha=0.5,1.5", "config: need 0 < alpha <= 1, got alpha = 1.5"),
        ("M=2,2.5", "--sweep M expects int values, got '2.5'"),
    ])
    def test_bad_sweep_value_rejected_before_any_fit(self, tmp_path, capsys,
                                                     monkeypatch, sweep,
                                                     message):
        fits = []
        monkeypatch.setattr(ensemble, "fit_sbpmt",
                            lambda *a, **k: fits.append(a))
        report = tmp_path / "sim.json"
        rc = cli.main(["simulate", "--n-train", "100", "--n-test", "50",
                       "--M", "2", "--T", "1", "--B", "1", "--depth", "1",
                       "--sweep", sweep, "--repeats", "2",
                       "--report", str(report)])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert fits == [] and not report.exists()

    def test_bad_sweep_spec(self, capsys):
        rc = cli.main(["simulate", "--sweep", "bogus=1,2"] + FAST)
        assert rc == 1
        assert "--sweep expects" in capsys.readouterr().err


class TestBound:
    def test_theorem3_requires_kernel_moments(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bound", "--theorem", "3", "--n", "100", "--m", "70",
                      "--M", "21", "--p-sub", "0.2"])
        assert exc.value.code == 2
        assert ("theorem 3 needs --sigma1-sq, --beta, --gamma"
                in capsys.readouterr().err)
        # the reason they have no default is in the help
        with pytest.raises(SystemExit):
            cli.main(["bound", "--help"])
        assert "not estimable from one dataset" in capsys.readouterr().out

    @pytest.mark.parametrize("theorem, flag, kind", FOREIGN,
                             ids=[f"{t}{f}" for t, f, _ in FOREIGN])
    def test_flag_the_calculator_lacks_is_usage_error(self, capsys, theorem,
                                                      flag, kind):
        value = {int: "1", float: "0.1", list: "0.1,0.2"}[kind]
        with pytest.raises(SystemExit) as exc:
            cli.main(["bound", "--theorem", str(theorem), flag, value])
        assert exc.value.code == 2
        assert (f"theorem {theorem} does not take {flag}\n"
                in capsys.readouterr().err)

    def test_flag_table_matches_the_calculators(self):
        # every calculator parameter has a flag, every flag a parameter
        params = {name for calc in cli._THEOREMS.values()
                  for name in inspect.signature(calc).parameters}
        assert params == set(cli._BOUND_FLAGS)
        # no flag has a default of its own: unset flags parse to None
        args = cli.build_parser().parse_args(["bound", "--theorem", "5"])
        assert all(getattr(args, name) is None for name in params)

    def test_theorem3_explicit_inputs(self, tmp_path, capsys):
        report = tmp_path / "b3.json"
        rc = cli.main(["bound", "--theorem", "3", "--n", "20000", "--m",
                      "14000", "--M", "99", "--p-sub", "0.2",
                       "--delta", "0.05", "--sigma1-sq", "0.25",
                       "--beta", "1.0", "--gamma", "1.0",
                       "--report", str(report)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "M > ln^2(n) = 98.08 -> ok" in text
        doc = json.loads(report.read_text())
        assert doc["hypothesis_ok"] is True
        assert 0.0 < doc["rhs"] <= 1.0
        assert set(doc) == {"Q_A", "Q_B", "Q_C", "rhs", "hypothesis_ok",
                            "degenerate", "inputs", "hypothesis_threshold",
                            "command", "theorem"}

    def test_theorem3_from_model(self, tmp_path, capsys):
        csv_path = write_csv(tmp_path)
        model_path = tmp_path / "model.json"
        assert cli.main(["train", "--data", str(csv_path), "--label", "label",
                         "--out", str(model_path)] + FAST) == 0
        capsys.readouterr()
        report = tmp_path / "b3.json"
        rc = cli.main(["bound", "--theorem", "3",
                       "--from-model", str(model_path),
                       "--data", str(csv_path),
                       "--sigma1-sq", "0.25", "--beta", "1", "--gamma", "1",
                       "--report", str(report)])
        assert rc == 0
        assert "p_sub = " in capsys.readouterr().out
        # n, m and M are the training rows, floor(alpha * n) and config.M
        inputs = json.loads(report.read_text())["inputs"]
        assert (inputs["n"], inputs["m"], inputs["M"]) == (120, 84, 3)

    def test_theorem3_from_model_rejects_one_row_more(self, tmp_path,
                                                      capsys):
        # floor(0.7 * 121) = floor(0.7 * 120) = 84 rows per subset, yet
        # 121 rows are not the 120 the design was drawn over
        csv_path = write_csv(tmp_path)
        model_path = tmp_path / "model.json"
        assert cli.main(["train", "--data", str(csv_path), "--label", "label",
                         "--out", str(model_path)] + FAST) == 0
        longer = tmp_path / "longer.csv"
        text = csv_path.read_text()
        longer.write_text(text + text.splitlines()[1] + "\n")
        capsys.readouterr()
        rc = cli.main(["bound", "--from-model", str(model_path), "--data",
                       str(longer)] + KERNEL)
        assert rc == 1
        assert ("121 rows cannot be this model's training set: its design "
                "was drawn over 120" in capsys.readouterr().err)

    def test_theorem3_from_model_uses_the_model_classes(self, tmp_path,
                                                        capsys):
        # separable rows, so every member is right on its held-out rows;
        # the reversed file starts with the other class
        rng = np.random.default_rng(5)
        f1 = np.concatenate([rng.uniform(0.3, 1, 60),
                             rng.uniform(-1, -0.3, 60)])
        f2 = rng.uniform(-1, 1, 120)
        lines = [f"{a:.6f},{b:.6f},{'pos' if a > 0 else 'neg'}"
                 for a, b in zip(f1, f2)]
        pos_first = tmp_path / "pos_first.csv"
        neg_first = tmp_path / "neg_first.csv"
        pos_first.write_text("f1,f2,label\n" + "\n".join(lines) + "\n")
        neg_first.write_text("f1,f2,label\n" + "\n".join(lines[::-1]) + "\n")
        model_path = tmp_path / "model.json"
        assert cli.main(["train", "--data", str(pos_first), "--out",
                         str(model_path)] + FAST) == 0
        flags = ["bound", "--theorem", "3", "--from-model", str(model_path),
                 "--sigma1-sq", "0.25", "--beta", "1", "--gamma", "1"]
        p_sub = []
        for path in (pos_first, neg_first):
            report = tmp_path / "b3.json"
            assert cli.main(flags + ["--data", str(path), "--report",
                                     str(report)]) == 0
            p_sub.append(json.loads(report.read_text())["inputs"]["p_sub"])
        assert p_sub == [0.0, 0.0]
        capsys.readouterr()

        unseen = tmp_path / "unseen.csv"
        unseen.write_text("f1,f2,label\n" + "\n".join(
            lines[:-1] + ["-0.5,0.5,maybe"]) + "\n")
        short = tmp_path / "short.csv"
        short.write_text("f1,f2,label\n" + "\n".join(lines[10:]) + "\n")
        unlabelled = tmp_path / "unlabelled.csv"
        unlabelled.write_text("f1,f2\n" + "\n".join(
            line.rpartition(",")[0] for line in lines) + "\n")
        for path, message in [(unseen, "label 'maybe' is not one of"),
                              (short, "110 rows cannot be"),
                              (unlabelled, "has no label column")]:
            assert cli.main(flags + ["--data", str(path)]) == 1
            assert message in capsys.readouterr().err

    def test_theorem4(self, capsys):
        rc = cli.main(["bound", "--theorem", "4", "--n", "1000", "--T", "5",
                       "--d-vc", "20", "--empirical-error", "0.1"])
        assert rc == 0
        assert "theorem 4 bound:" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,message", [
        (["--theorem", "4", "--empirical-error", "0.1", "--T", "0",
          "--d-vc", "3"], "T must be >= 1"),
        (["--theorem", "4", "--empirical-error", "0.1", "--T", "5",
          "--d-vc", "0"], "d_vc must be >= 1"),
        (["--theorem", "6", "--probit-risks", "0.1", "--d-vc", "0"],
         "d_vc must be >= 1"),
        (["--theorem", "3", "--m", "70", "--M", "0", "--p-sub", "0.1",
          "--sigma1-sq", "1", "--beta", "1", "--gamma", "1"],
         "M must be >= 1, got 0"),
    ])
    def test_zero_rounds_or_dimension_is_runtime_error(self, capsys, argv,
                                                       message):
        assert cli.main(["bound", "--n", "100"] + argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    T3 = ["--theorem", "3", "--n", "20000", "--m", "14000", "--M", "99",
          "--beta", "1", "--gamma", "1"]

    @pytest.mark.parametrize("argv, message", [
        (T3 + ["--p-sub", "nan", "--sigma1-sq", "0.25"],
         "p_sub must be in [0, 1]"),
        (T3 + ["--p-sub", "0.2", "--sigma1-sq", "nan"],
         "finite and nonnegative"),
        (T3 + ["--p-sub", "-3", "--sigma1-sq", "0.25"],
         "p_sub must be in [0, 1]"),
        (["--theorem", "4", "--n", "20000", "--T", "5", "--d-vc", "20",
          "--empirical-error", "nan"], "empirical error"),
        (["--theorem", "5", "--errors", "nan,0.2"], "[0, 1]"),
        (["--theorem", "6", "--n", "20000", "--probit-risks", "nan",
          "--d-vc", "20"], "finite"),
        # a normalized margin lies in [-1, 1]; theta 2 gave inf, -3 a number
        (["--theorem", "5", "--errors", "0,0.1", "--theta", "2"],
         "theta must lie in [-1, 1]"),
        (["--theorem", "5", "--errors", "0,0.1", "--theta", "-3"],
         "theta must lie in [-1, 1]"),
    ])
    def test_non_finite_input_is_runtime_error(self, capsys, argv, message):
        # no bound is printed for input outside its range
        rc = cli.main(["bound"] + argv)
        assert rc == 1
        out = capsys.readouterr()
        assert message in out.err and "bound" not in out.out

    @pytest.mark.parametrize("argv, message", [
        (["--theorem", "5", "--errors", "0.1,x"],
         "error: --errors expects float values, got 'x'"),
        (["--theorem", "6", "--probit-risks", ",", "--n", "1000",
          "--d-vc", "20"], "error: --probit-risks expects float values, "
                           "got ''"),
    ])
    def test_bad_list_value_names_its_flag(self, capsys, argv, message):
        assert cli.main(["bound"] + argv) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--theorem", "5", "--errors", "0.2", "--from-model", "m.json"],
         "theorem 5 does not take --from-model"),
        (["--theorem", "4", "--n", "1000", "--T", "5", "--d-vc", "20",
          "--empirical-error", "0.1", "--data", "d.csv"],
         "theorem 4 does not take --data"),
        (KERNEL + ["--n", "100", "--m", "70", "--M", "21", "--p-sub", "0.2",
                   "--data", "d.csv"], "--data needs --from-model"),
        (KERNEL + ["--from-model", "m.json"],
         "--from-model requires --data for p_sub"),
        (KERNEL + ["--from-model", "m.json", "--data", "d.csv", "--n",
                   "99999", "--m", "5", "--M", "7", "--p-sub", "0.4"],
         "drop --n, --m, --M, --p-sub"),
        (KERNEL + ["--from-model", "m.json", "--data", "d.csv", "--M", "7"],
         "drop --M"),
        (["--theorem", "5"], "theorem 5 needs --errors"),
        (["--theorem", "6", "--probit-risks", "0.1", "--n", "1000", "--T",
          "1", "--d-vc", "20"], "theorem 6 does not take --T"),
        (["--theorem", "6", "--probit-risks", "0.1"],
         "theorem 6 needs --n, --d-vc"),
        # these three exited 0 and ignored the flags named
        (["--theorem", "4", "--n", "1000", "--T", "5", "--d-vc", "20",
          "--empirical-error", "0.1", "--errors", "0.3", "--probit-risks",
          "0.1"], "theorem 4 does not take --errors, --probit-risks"),
        (["--theorem", "5", "--errors", "0.2", "--delta", "0.1"],
         "theorem 5 does not take --delta"),
        (["--theorem", "6", "--probit-risks", "0.1", "--n", "1000",
          "--d-vc", "20", "--T", "1", "--theta", "0.5"],
         "theorem 6 does not take --T, --theta"),
    ])
    def test_bad_flag_combination_is_usage_error(self, tmp_path, monkeypatch,
                                                 capsys, argv, message):
        monkeypatch.chdir(tmp_path)  # none of the named files exists
        with pytest.raises(SystemExit) as exc:
            cli.main(["bound"] + argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_theorem5_pipe_through(self, capsys):
        from sbpmt import bounds
        rc = cli.main(["bound", "--theorem", "5",
                       "--errors", "0.2,0.3,0.4"])
        assert rc == 0
        text = capsys.readouterr().out
        expected = bounds.theorem5_bound([0.2, 0.3, 0.4], 0.0)
        assert f"{expected:.6f}" in text

    def test_theorem6(self, tmp_path, capsys):
        report = tmp_path / "b6.json"
        rc = cli.main(["bound", "--theorem", "6",
                       "--probit-risks", "0.1,0.1,0.1", "--n", "1000",
                       "--d-vc", "20", "--report", str(report)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "training term:" in text and "theorem 6 bound:" in text
        # the round count is len(probit_risks), so the report has no T
        doc = json.loads(report.read_text())
        assert set(doc) == {"command", "theorem", "probit_risks", "n",
                            "d_vc", "delta", "training_term",
                            "complexity_term", "bound", "hypothesis_ok"}
        assert doc["complexity_term"] == bounds.theorem4_bound(
            1000, 3, 20, 0.0, delta=0.05)

    def test_theorem6_hypothesis_violation(self, capsys):
        rc = cli.main(["bound", "--theorem", "6",
                       "--probit-risks", "0.9", "--n", "1000",
                       "--d-vc", "20"])
        assert rc == 0
        assert "VIOLATED" in capsys.readouterr().out


class TestEntryPoint:
    def test_console_script_installed(self):
        import shutil
        import subprocess
        exe = shutil.which("sbpmt")
        assert exe is not None
        out = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert out.returncode == 0
        assert "train" in out.stdout and "bound" in out.stdout

    def test_module_entry_point(self):
        # python -m sbpmt.cli from a checkout, exit codes included
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "sbpmt.cli", *argv],
                                  capture_output=True, text=True, env=env)

        out = run("--help")
        assert out.returncode == 0
        assert "train" in out.stdout and "bound" in out.stdout
        out = run("bound", "--theorem", "5", "--errors", "0.2,0.3")
        assert out.returncode == 0
        want = bounds.theorem5_bound([0.2, 0.3])
        assert out.stdout == f"theorem 5 bound (theta=0): {want:.6f}\n"
        out = run("bound", "--theorem", "5", "--errors", "1.5")
        assert out.returncode == 1
        assert out.stderr == "error: stage errors must lie in [0, 1]\n"

    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2
