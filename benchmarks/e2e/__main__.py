"""``python -m benchmarks.e2e`` — same as ``benchmarks/e2e/run.py``."""

import sys

from .cli import main

sys.exit(main())
