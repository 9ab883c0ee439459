"""One module knows how a run is held.

A log read's run is a list of records or a ``FramedRun`` whose stretches
are record lists and frame slices.  ``repro.storage.segment`` builds,
cuts, joins and copies runs; every other module handles a run through
those functions and the read's offset column.  A second module that
branched on the run's type would grow back a second copy of whichever rule
it branched for (the read_committed cut was written twice that way), so the
walk below keeps the branches and the representation's names where they
belong.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent

#: The module that knows how a run is held.
SEGMENT = "storage/segment.py"
#: The representation's names, and the modules that may import them: the
#: log builds a kept frame's run (``FramedRun.of_frame``) and reads segments
#: into pieces.
HELD = {"FramedRun", "join_runs", "Piece"}
MAY_IMPORT = {SEGMENT, "storage/log.py"}
#: The modules that pass runs along: none of them may ask a value whether it
#: is a list, a tuple or a FramedRun.
RUN_MODULES = (
    "storage/log.py",
    "storage/tiered/tier.py",
    "storage/tiered/coldreader.py",
    "messaging/partition.py",
    "messaging/fetchbuffer.py",
    "messaging/broker.py",
    "messaging/cluster.py",
    "messaging/replication.py",
)
RUN_TYPES = {"list", "tuple", "FramedRun"}


def _modules():
    for path in sorted(ROOT.rglob("*.py")):
        yield path.relative_to(ROOT).as_posix(), ast.parse(path.read_text())


def _names(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _type_tests(tree, types: set[str]) -> list[int]:
    """Lines that ask a value whether it is one of ``types``: ``type(x) is
    T`` / ``is not T`` and ``isinstance(x, T)``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops
        ):
            operands = [node.left, *node.comparators]
            calls_type = any(
                isinstance(o, ast.Call) and _names(o.func) == {"type"} for o in operands
            )
            if calls_type and any(
                isinstance(o, ast.Name) and o.id in types for o in operands
            ):
                lines.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and _names(node.args[1]) & types
        ):
            lines.append(node.lineno)
    return lines


def test_only_the_segment_and_the_log_import_the_representation():
    importers = sorted(
        f"{name}: {alias.name}"
        for name, tree in _modules()
        if name not in MAY_IMPORT
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in HELD
    )
    assert importers == []


def test_no_module_but_the_segment_branches_on_a_framed_run():
    branches = [
        f"{name}:{line}"
        for name, tree in _modules()
        if name != SEGMENT
        for line in _type_tests(tree, {"FramedRun"})
    ]
    assert branches == []


def test_no_module_that_passes_runs_asks_how_one_is_held():
    trees = dict(_modules())
    branches = [
        f"{name}:{line}"
        for name in RUN_MODULES
        for line in _type_tests(trees[name], RUN_TYPES)
    ]
    assert branches == []


def test_the_walk_sees_the_branches_it_forbids():
    """The checks are not vacuous: each spelling of the branch is caught."""
    source = (
        "if type(run) is FramedRun: pass\n"
        "if type(run) is not list: pass\n"
        "if isinstance(run, (list, FramedRun)): pass\n"
        "if type(run) is dict: pass\n"
    )
    tree = ast.parse(source)
    assert _type_tests(tree, RUN_TYPES) == [1, 2, 3]
    assert _type_tests(tree, {"FramedRun"}) == [1, 3]
