"""Exact call counts for the tests that pin what an operation costs."""

import cProfile
import gc


def python_calls(fn) -> int:
    """Calls ``fn()`` makes, Python and builtin, as cProfile counts them.

    Garbage is collected first and the collector held off while ``fn`` runs:
    a collection inside the window would count the finalizers of whatever
    earlier tests left behind as calls of ``fn``.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    profiler = cProfile.Profile()
    try:
        profiler.enable()
        fn()
        profiler.disable()
    finally:
        if was_enabled:
            gc.enable()
    return sum(entry.callcount for entry in profiler.getstats())
