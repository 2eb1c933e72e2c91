"""The README's code runs as written, so the documented API cannot drift."""

import re
from pathlib import Path

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
