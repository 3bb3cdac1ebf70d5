"""The benchmark's tracer wraps program names by owner and attribute.

A refactor that renames or drops one of them would only surface in a traced
benchmark run; this check makes it fail the test suite instead.
"""

import inspect
import sys
from pathlib import Path

# imported read-only: no bytecode is written next to the benchmark's files
PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, PERFBENCH)
sys.dont_write_bytecode, write_bytecode = True, sys.dont_write_bytecode
try:
    import tracer
finally:
    sys.path.remove(PERFBENCH)
    sys.dont_write_bytecode = write_bytecode


def test_every_traced_name_resolves():
    missing = []
    for owner, attr, _ in tracer.TARGETS:
        try:
            inspect.getattr_static(owner, attr)
        except AttributeError:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    assert missing == []
