"""Unit tests for changelogged task state (§3.2)."""

import pytest

from repro.common.errors import StateStoreError
from repro.processing.state import KeyValueState, changelog_topic_name
from repro.processing.store import InMemoryStore


def logged_state() -> tuple[KeyValueState, list]:
    log: list = []
    state = KeyValueState(
        "counts", InMemoryStore(), changelog_append=lambda k, v: log.append((k, v))
    )
    return state, log


class TestWriteThrough:
    def test_put_publishes_to_changelog(self):
        state, log = logged_state()
        state.put("k", 1)
        assert log == [("k", 1)]

    def test_delete_publishes_tombstone(self):
        state, log = logged_state()
        state.put("k", 1)
        state.delete("k")
        assert log == [("k", 1), ("k", None)]
        assert state.get("k") is None

    def test_none_put_rejected(self):
        state, _log = logged_state()
        with pytest.raises(StateStoreError):
            state.put("k", None)

    def test_transient_state_skips_changelog(self):
        state = KeyValueState("s", InMemoryStore(), changelog_append=None)
        state.put("k", 1)  # no error, nothing published
        assert state.get("k") == 1

    def test_counters(self):
        state, _log = logged_state()
        state.put("a", 1)
        state.get("a")
        state.get("b")
        state.delete("a")
        assert (state.puts, state.gets, state.deletes) == (1, 2, 1)


class TestHelpers:
    def test_get_or_default(self):
        state, _log = logged_state()
        assert state.get_or_default("missing", 7) == 7
        state.put("k", 3)
        assert state.get_or_default("k", 7) == 3

    def test_contains_items_len(self):
        state, _log = logged_state()
        state.put("a", 1)
        state.put("b", 2)
        assert "a" in state
        assert dict(state.items()) == {"a": 1, "b": 2}
        assert len(state) == 2


class TestNaming:
    def test_changelog_topic_name(self):
        assert changelog_topic_name("job", "store") == "__changelog-job-store"
