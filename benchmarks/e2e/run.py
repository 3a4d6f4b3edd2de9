"""Script entry point: ``python3 benchmarks/e2e/run.py ...``.

Puts the checkout's root on ``sys.path`` so the package imports when
started by file name from any checkout, then hands over to the CLI.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
