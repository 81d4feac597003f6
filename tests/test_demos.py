"""The runnable demos and the README's Python quickstart still run against
the current API."""

from __future__ import annotations

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert {path.name for path in DEMOS} >= {"walkthrough.py", "approximation_quality.py"}


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_python_blocks_run(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    assert blocks
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out
