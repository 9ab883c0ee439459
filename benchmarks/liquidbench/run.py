"""Entry point named by BENCHMARK.json: ``python3 benchmarks/liquidbench/run.py``.

Runs from any working directory inside a checkout: puts ``src/`` (the
program under test) and the package's parent on ``sys.path`` itself.
"""

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPO = os.path.dirname(os.path.dirname(_HERE))
_SRC = os.path.join(_REPO, "src")

if __name__ == "__main__":
    if not os.path.isdir(os.path.join(_SRC, "repro")):
        sys.exit(f"liquidbench: the program under test is missing ({_SRC}/repro)")
    # The script's own directory would expose the package's modules as
    # top-level names; import them through the package instead.
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != _HERE]
    sys.path[:0] = [_SRC, os.path.dirname(_HERE)]
    from liquidbench.cli import main

    sys.exit(main())
