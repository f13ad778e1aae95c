"""Launcher named by ``BENCHMARK.json``: ``python3 benchmarks/e2e/run.py``.

Puts the checkout's ``src`` (the program) and root (this package) on the
import path, so the command needs no ``PYTHONPATH``.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    root = Path(__file__).resolve().parents[2]
    # The script's own directory would shadow the stdlib ``trace`` module.
    sys.path[0:1] = [str(root / "src"), str(root)]
    from benchmarks.e2e.cli import main

    sys.exit(main())
