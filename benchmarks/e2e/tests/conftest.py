"""Make ``repro`` importable when the self-tests are run on their own.

``python -m pytest benchmarks/e2e/tests -q`` needs no ``PYTHONPATH``.
"""

import pathlib
import sys

SRC = str(pathlib.Path(__file__).resolve().parents[3] / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
