"""The runnable demos still run against the current API."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert {path.name for path in DEMOS} >= {"walkthrough.py", "approximation_quality.py"}


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
