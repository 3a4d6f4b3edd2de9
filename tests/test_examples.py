"""Every shipped example runs to completion and passes its own asserts.

The examples check what they print (a read survives a brick crash,
nothing is stale after a rebuild, Table 1's sequential rows match the
cost model), so running them here keeps those checks in the test suite.
"""

import os
import pathlib
import subprocess
import sys

import pytest

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_EXAMPLES = sorted(p.name for p in (_ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("example", _EXAMPLES)
def test_example_passes_its_own_checks(example):
    done = subprocess.run(
        [sys.executable, str(_ROOT / "examples" / example)],
        env={**os.environ, "PYTHONPATH": str(_ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout
