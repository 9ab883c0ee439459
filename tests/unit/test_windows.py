"""Unit tests for windowed aggregation helpers."""

import pytest

from repro.common.errors import ConfigError
from repro.processing.windows import SessionWindow, TumblingWindow


def counting_tumbling(size=10.0) -> TumblingWindow:
    return TumblingWindow(size=size, init=lambda: 0, fold=lambda acc, e: acc + e)


class TestTumbling:
    def test_events_accumulate_within_window(self):
        window = counting_tumbling()
        assert window.add("k", 1.0, 5) == []
        assert window.add("k", 9.0, 3) == []
        results = window.flush()
        assert len(results) == 1
        assert results[0].value == 8
        assert results[0].count == 2
        assert (results[0].window_start, results[0].window_end) == (0.0, 10.0)

    def test_crossing_boundary_closes_window(self):
        window = counting_tumbling()
        window.add("k", 1.0, 5)
        closed = window.add("k", 11.0, 7)
        assert len(closed) == 1
        assert closed[0].value == 5
        assert window.flush()[0].value == 7

    def test_keys_independent(self):
        window = counting_tumbling()
        window.add("a", 1.0, 1)
        closed = window.add("b", 11.0, 2)  # b's first event closes nothing
        assert closed == []
        assert window.open_windows() == 2

    def test_bucket_alignment(self):
        window = counting_tumbling(size=10.0)
        window.add("k", 25.0, 1)
        results = window.flush()
        assert (results[0].window_start, results[0].window_end) == (20.0, 30.0)

    def test_flush_empties(self):
        window = counting_tumbling()
        window.add("k", 1.0, 1)
        window.flush()
        assert window.flush() == []
        assert window.open_windows() == 0

    def test_invalid_size_rejected(self):
        with pytest.raises(ConfigError):
            counting_tumbling(size=0)


class TestSession:
    def make(self, gap=5.0) -> SessionWindow:
        return SessionWindow(
            gap=gap, init=lambda: 0, fold=lambda acc, e: acc + 1
        )

    def test_events_within_gap_extend_session(self):
        window = self.make()
        window.add("u", 0.0, None)
        window.add("u", 4.0, None)
        window.add("u", 8.0, None)
        assert window.open_sessions() == 1
        closed = window.expire_idle(100.0)
        assert closed[0].count == 3
        assert (closed[0].window_start, closed[0].window_end) == (0.0, 8.0)

    def test_gap_closes_session(self):
        window = self.make(gap=5.0)
        window.add("u", 0.0, None)
        closed = window.add("u", 10.0, None)  # 10 > 0 + 5
        assert len(closed) == 1
        assert closed[0].count == 1
        assert window.open_sessions() == 1  # the new session

    def test_expire_idle_only_closes_stale(self):
        window = self.make(gap=5.0)
        window.add("old", 0.0, None)
        window.add("fresh", 9.0, None)
        closed = window.expire_idle(10.0)
        assert [c.key for c in closed] == ["old"]
        assert window.open_sessions() == 1

    def test_users_independent(self):
        window = self.make(gap=5.0)
        window.add("a", 0.0, None)
        window.add("b", 100.0, None)  # different key: no close for a
        assert window.open_sessions() == 2

    def test_invalid_gap_rejected(self):
        with pytest.raises(ConfigError):
            self.make(gap=0)
