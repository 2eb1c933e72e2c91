"""The README's code runs as written, so the documented API cannot drift."""

import re
import shlex
from pathlib import Path

from sbpmt import cli

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
