"""The reachability tool counts what a traced run enters, and nothing else."""

from repro.tools import reach


def test_a_traced_script_reaches_what_it_calls(tmp_path):
    script = tmp_path / "advance.py"
    script.write_text(
        "from repro.common.clock import SimClock\n"
        "clock = SimClock()\n"
        "clock.schedule(1.0, print)\n"
        "clock.advance(2.0)\n"
    )
    by_module, total = reach.unreached([[str(script)]])

    assert total == len(reach.package_functions())
    clock = by_module["repro.common.clock"]
    assert "SimClock.run_pending" in clock and "TimerHandle.cancel" in clock
    assert not {"SimClock.__init__", "SimClock.schedule", "SimClock.advance"} & set(
        clock
    )
    # Functions a module calls while it loads count as reached.
    assert "metric_name" not in by_module.get("repro.common.metrics", [])
    # The tool does not count itself.
    assert "repro.tools.reach" not in by_module
