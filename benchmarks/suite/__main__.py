"""``PYTHONPATH=src python -m benchmarks.suite`` — the same entry point as ``run.py``."""

import sys

from benchmarks.suite.run import main

sys.exit(main())
