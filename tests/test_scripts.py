"""Every script under ``scripts/`` still loads against the package.

A script imports names from ``fedtoken`` at load time, so dropping or
renaming one of them fails here instead of in a user's later run.  Loading
under a run name other than ``__main__`` runs the imports and definitions
but not ``main()``.
"""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_loads(monkeypatch, path):
    # a script puts ./src on sys.path; the copy keeps that from outliving the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    namespace = runpy.run_path(str(path), run_name="smoke")
    assert callable(namespace["main"])
