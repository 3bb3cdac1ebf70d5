"""Every script under ``scripts/`` still loads against the package.

A script imports names from ``fedtoken`` at load time, so dropping or
renaming one of them fails here instead of in a user's later run.  Loading
under a run name other than ``__main__`` runs the imports and definitions
but not ``main()``.  A script that writes scratch files is also run once,
on a small input, to check that it removes them.
"""

import runpy
import sys
import tempfile
from pathlib import Path

import pytest

SCRIPTS_DIR = Path(__file__).resolve().parents[1] / "scripts"
SCRIPTS = sorted(SCRIPTS_DIR.glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_loads(monkeypatch, path):
    # a script puts ./src on sys.path; the copy keeps that from outliving the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    namespace = runpy.run_path(str(path), run_name="smoke")
    assert callable(namespace["main"])


def test_compare_policies_removes_its_task_directory(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "argv", ["compare_policies.py", "--seeds", "100"])
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    namespace = runpy.run_path(str(SCRIPTS_DIR / "compare_policies.py"), run_name="smoke")
    assert namespace["main"]() == 0
    assert "rounds to 70% accuracy" in capsys.readouterr().out
    assert list(tmp_path.glob("fedtoken-compare-*")) == []
