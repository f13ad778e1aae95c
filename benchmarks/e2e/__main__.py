"""``PYTHONPATH=src python -m benchmarks.e2e`` — same entry as ``run.py``."""

import sys

from benchmarks.e2e.cli import main

sys.exit(main())
