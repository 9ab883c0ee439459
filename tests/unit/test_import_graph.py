"""Every ``repro`` module imports on the standard library alone.

``pyproject.toml`` declares no runtime dependency, so a third-party import
anywhere in the package is a packaging bug that shows only on a machine
without that package.  A fresh interpreter, with ``networkx`` blocked (the
graph library the package once imported), imports every module
``pkgutil.walk_packages`` finds; every module that loaded outside ``repro``
must be in ``sys.stdlib_module_names``.  What the interpreter loaded before
the walk (``site`` and its ``.pth`` hooks) is not the package's and is left
out.
"""

import json
import os
import pathlib
import subprocess
import sys

import repro

WALK = """
import importlib, json, pkgutil, sys
sys.modules["networkx"] = None
startup = set(sys.modules)
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
print(json.dumps(sorted(set(sys.modules) - startup)))
"""


def test_every_module_imports_on_the_standard_library_alone():
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    completed = subprocess.run(
        [sys.executable, "-c", WALK],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0, completed.stderr
    loaded = json.loads(completed.stdout)
    assert "repro.api" in loaded and "repro.tools.lint_metrics" in loaded
    outside = [
        name
        for name in loaded
        if name.partition(".")[0] not in sys.stdlib_module_names
        and name.partition(".")[0] != "repro"
    ]
    assert outside == []
