"""Every script under ``scripts/`` and every config under ``docs/examples/``
still loads against the package.

A script imports names from ``fedtoken`` at load time, so dropping or
renaming one of them fails here instead of in a user's later run.  Loading
under a run name other than ``__main__`` runs the imports and definitions
but not ``main()``.  A script that writes scratch files is also run once,
on a small input, to check that it removes them.  An example config must
pass ``load_config``, and the README's example sweep must fill every
sweep column.  Every shell block of the CI workflow must parse.
"""

import re
import runpy
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest

from fedtoken.config import load_config
from fedtoken.harness import SWEEP_COLUMNS, sweep

REPO = Path(__file__).resolve().parents[1]
SCRIPTS_DIR = REPO / "scripts"
SCRIPTS = sorted(SCRIPTS_DIR.glob("*.py"))
EXAMPLES_DIR = REPO / "docs" / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.ini"))
WORKFLOW = REPO / ".github" / "workflows" / "tests.yml"


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


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.name for p in EXAMPLES])
def test_example_config_loads(path):
    load_config(path)


def test_quota_sweep_example_fills_every_sweep_column():
    cfg = load_config(EXAMPLES_DIR / "quota-sweep.ini")
    rows = sweep(cfg, "quota_ratio", [0.2, 1.0])
    assert [row["value"] for row in rows] == [0.2, 1.0]
    for row in rows:
        assert set(row) == {"axis", *SWEEP_COLUMNS}


def run_blocks(text: str) -> list[str]:
    """The dedented body of each ``run: |`` block scalar of a workflow file.

    A block holds the lines after its key that are blank or indented past
    the key, which is all this file's blocks need of YAML.
    """
    lines = text.splitlines()
    blocks = []
    for i, line in enumerate(lines):
        key = re.fullmatch(r"(\s*(?:- )?)run: \|\s*", line)
        if key is None:
            continue
        body = []
        for following in lines[i + 1:]:
            if following.strip() and len(following) - len(following.lstrip()) <= len(key[1]):
                break
            body.append(following)
        blocks.append(textwrap.dedent("\n".join(body)) + "\n")
    return blocks


def test_every_workflow_shell_block_parses():
    blocks = run_blocks(WORKFLOW.read_text(encoding="utf-8"))
    assert len(blocks) >= 2
    for block in blocks:
        assert block.strip()
        checked = subprocess.run(["bash", "-n"], input=block, text=True, capture_output=True)
        assert checked.returncode == 0, checked.stderr + block
