"""``PYTHONPATH=src python -m benchmarks.liquidbench ...`` (see cli.py)."""

import sys

from .cli import main

sys.exit(main())
