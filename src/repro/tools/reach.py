"""Reachability: the ``repro`` functions no example, experiment or benchmark enters.

Tier-1 tests reach almost everything, so they cannot tell a mechanism the
paper's experiments use from one only its tests call.  This tool runs what
the reproduction shows instead — every example, ``pytest benchmarks
--benchmark-disable`` and ``liquidbench selftest`` — each in a fresh
interpreter under a ``sys.settrace`` hook on call events (a profiler hook
would be displaced by liquidbench's and pytest-benchmark's own), and prints
the package's functions no run entered, per module, and a total.  It does not
count itself.  Run it from the root of a checkout; the count is reported, not
gated::

    PYTHONPATH=src python -m repro.tools.reach
"""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = PACKAGE_DIR.parents[1]

#: Run by each traced interpreter as ``python -c``, argv ``out target...``.
#: The hook goes on before the package is imported, so what its modules call
#: while they load counts too; it writes ``(file, first line, name)`` of every
#: code object entered under a ``repro`` directory to ``out`` as JSON.
_TRACED_RUN = """
import json, os, runpy, sys
out, argv = sys.argv[1], sys.argv[2:]
marker, reached = os.sep + "repro" + os.sep, set()
def on_call(frame, event, arg):
    code = frame.f_code
    if marker in code.co_filename:
        reached.add((code.co_filename, code.co_firstlineno, code.co_name))
sys.settrace(on_call)
try:
    if argv[0] == "-m":
        sys.argv = argv[1:]
        runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
    else:
        sys.argv = argv
        runpy.run_path(argv[0], run_name="__main__")
finally:
    sys.settrace(None)
    with open(out, "w") as handle:
        json.dump(sorted(reached), handle)
"""


def default_targets() -> list[list[str]]:
    """Each target is a script and its arguments, or ``-m`` and a module."""
    examples = sorted((REPO_ROOT / "examples").glob("*.py"))
    return [
        *([str(path.relative_to(REPO_ROOT))] for path in examples),
        ["-m", "pytest", "benchmarks", "-q", "--benchmark-disable",
         "-p", "no:cacheprovider"],
        ["benchmarks/liquidbench/run.py", "selftest"],
    ]


def package_functions() -> dict[tuple[str, int, str], str]:
    """``module:qualname`` of every function and method of the package, by
    the key a frame running it reports (module and class bodies, lambdas and
    comprehensions are not functions)."""
    functions = {}
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        if path == Path(__file__).resolve():
            continue
        module = ".".join(path.relative_to(PACKAGE_DIR.parent).with_suffix("").parts)
        pending = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while pending:
            for const in pending.pop().co_consts:
                if not isinstance(const, types.CodeType):
                    continue
                pending.append(const)
                if const.co_flags & inspect.CO_OPTIMIZED and const.co_name[0] != "<":
                    name = getattr(const, "co_qualname", const.co_name)
                    key = (str(path), const.co_firstlineno, const.co_name)
                    functions[key] = f"{module.removesuffix('.__init__')}:{name}"
    return functions


def unreached(targets: list[list[str]]) -> tuple[dict[str, list[str]], int]:
    """Run each target from the checkout root; the functions none entered,
    per module, and how many functions the package has.  A failing target
    is reported on stderr, and what it entered still counts."""
    functions = package_functions()
    reached = set()
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "reached.json")
        for target in targets:
            completed = subprocess.run(
                [sys.executable, "-c", _TRACED_RUN, out, *target],
                cwd=REPO_ROOT, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True,
            )
            if completed.returncode != 0:
                print(f"reach: {' '.join(target)} exited "
                      f"{completed.returncode}\n{completed.stderr[-2000:]}",
                      file=sys.stderr)
            with open(out, encoding="utf-8") as handle:
                reached.update((os.path.realpath(file), line, name)
                               for file, line, name in json.load(handle))
    by_module: dict[str, list[str]] = {}
    for key, where in sorted(functions.items(), key=lambda item: item[1]):
        if key not in reached:
            module, _, name = where.partition(":")
            by_module.setdefault(module, []).append(name)
    return by_module, len(functions)


def main() -> int:
    by_module, total = unreached(default_targets())
    for module, names in by_module.items():
        print(f"{module} ({len(names)})", *(f"  {name}" for name in names), sep="\n")
    count = sum(map(len, by_module.values()))
    print(f"unreached: {count} of {total} repro functions")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
