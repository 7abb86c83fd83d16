"""Entry point named by ``BENCHMARK.json``: ``python3 benchmarks/e2e/run.py``.

Run from any directory; finds the checkout from its own location and puts
the checkout and its ``src/`` on the import path (the program is pure
Python, so that is the whole build).  See :mod:`benchmarks.e2e.onerun`.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from benchmarks.e2e.onerun import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
