"""The README's code runs as written, so the documented API cannot drift."""

import re
import shlex
from pathlib import Path

import numpy as np

from sbpmt import cli, ensemble, model_io

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library quick start\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)  # the block writes model.json
    scope: dict = {}
    exec(compile(block, str(README), "exec"), scope)
    assert scope["preds"].shape == scope["y"].shape
    assert (tmp_path / "model.json").exists()


def test_cli_bound_examples_run(capsys):
    # every `sbpmt bound` line of the CLI block that reads no file
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [shlex.split(line, comments=True)
             for line in block.replace("\\\n", " ").splitlines()]
    examples = [argv[1:] for argv in lines if argv[:2] == ["sbpmt", "bound"]
                and "--from-model" not in argv]
    assert len(examples) >= 3
    for argv in examples:
        assert cli.main(argv) == 0, argv
        assert "bound" in capsys.readouterr().out


def test_model_file_snippet_reads_the_arrays(tmp_path, monkeypatch):
    # the "Model files" snippet, run on a freshly saved model, reads the
    # arrays load_model reads
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Model files\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, size=(120, 3))
    y = np.digitize(X[:, 0], [-0.3, 0.3])
    config = ensemble.SbpmtConfig(M=2, T=1, B=3, depth=2, seed=1)
    monkeypatch.chdir(tmp_path)  # the block reads model.json
    model_io.save_model(ensemble.fit_sbpmt(X, y, 3, config, workers=1),
                        "model.json")
    scope: dict = {}
    exec(compile(block, str(README), "exec"), scope)
    loaded = model_io.load_model("model.json")
    trees = loaded.committee.trees
    for key in ("feature", "threshold", "intercept", "coef"):
        np.testing.assert_array_equal(scope[key], getattr(trees, key))
        assert scope[key].shape == getattr(trees, key).shape
    np.testing.assert_array_equal(np.cumsum(scope["nodes"]) - scope["nodes"],
                                  trees.roots)
    np.testing.assert_array_equal(scope["incidence"], loaded.design)
    assert scope["coef"].shape[1:] == (3, 3)
    assert scope["incidence"].dtype == bool
