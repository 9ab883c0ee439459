"""Unit tests for changelogged task state (§3.2)."""

import pytest

from repro.common.costmodel import DEFAULT_COST_MODEL
from repro.common.errors import StateStoreError
from repro.common.records import TopicPartition
from repro.processing.state import KeyValueState, changelog_topic_name
from repro.processing.store import LsmStore

CHANGELOG = TopicPartition(changelog_topic_name("job", "counts"), 0)


def logged_state() -> KeyValueState:
    return KeyValueState("counts", LsmStore(DEFAULT_COST_MODEL), changelog=CHANGELOG)


def staged(state: KeyValueState) -> list:
    """The state's staged changelog run, as ``(key, value)`` pairs (value
    ``None`` for a tombstone)."""
    run = state.staged.get(CHANGELOG, [])
    return [(key, value) for key, value, _timestamp, _headers in run]


class TestWriteThrough:
    """Writes go through to the store and the changelog at the pass's
    hand-over, not at the call."""

    def test_put_publishes_to_changelog(self):
        state = logged_state()
        state.put("k", 1)
        assert staged(state) == []  # behind until the hand-over
        assert state.get("k") == 1 and "k" in state
        state.hand_over()
        assert staged(state) == [("k", 1)]
        assert state.store.get("k") == 1

    def test_delete_publishes_tombstone(self):
        state = logged_state()
        state.put("k", 1)
        state.hand_over()
        state.delete("k")
        assert state.get("k") is None and "k" not in state
        state.hand_over()
        assert staged(state) == [("k", 1), ("k", None)]
        assert state.store.get("k") is None

    def test_a_pass_ships_the_last_write_per_key_in_first_write_order(self):
        state = logged_state()
        state.put("b", 1)
        state.put("a", 1)
        state.delete("b")
        state.put("c", 3)
        state.put("b", 2)
        state.put("a", 9)
        state.hand_over()
        assert staged(state) == [("b", 2), ("a", 9), ("c", 3)]
        assert dict(state.store.items()) == {"a": 9, "b": 2, "c": 3}

    def test_a_scan_applies_the_pass_and_the_hand_over_ships_all_of_it(self):
        state = logged_state()
        state.put("a", 1)
        state.put("b", 2)
        assert list(state.range("a", "b")) == [("a", 1)]  # applied to the store
        assert state.store.get("b") == 2
        state.put("a", 3)
        state.delete("c")
        assert len(state) == 2
        state.put("d", 4)
        state.hand_over()
        assert staged(state) == [("a", 3), ("b", 2), ("c", None), ("d", 4)]
        assert dict(state.items()) == {"a": 3, "b": 2, "d": 4}

    def test_clear_drops_the_pending_writes(self):
        state = logged_state()
        state.put("a", 1)
        state.clear()
        state.hand_over()
        assert staged(state) == [] and state.get("a") is None

    def test_none_put_rejected(self):
        state = logged_state()
        with pytest.raises(StateStoreError):
            state.put("k", None)

    def test_transient_state_skips_changelog(self):
        state = KeyValueState("s", LsmStore(DEFAULT_COST_MODEL), changelog=None)
        state.put("k", 1)  # no error, nothing staged
        assert state.get("k") == 1
        assert state.staged == {}

    def test_counters(self):
        state = logged_state()
        state.put("a", 1)
        state.get("a")
        state.get("b")
        state.delete("a")
        assert (state.puts, state.gets, state.deletes) == (1, 2, 1)


class TestHelpers:
    def test_get_or_default(self):
        state = logged_state()
        assert state.get_or_default("missing", 7) == 7
        state.put("k", 3)
        assert state.get_or_default("k", 7) == 3

    def test_contains_items_len(self):
        state = logged_state()
        state.put("a", 1)
        state.put("b", 2)
        assert "a" in state
        assert dict(state.items()) == {"a": 1, "b": 2}
        assert len(state) == 2


class TestNaming:
    def test_changelog_topic_name(self):
        assert changelog_topic_name("job", "store") == "__changelog-job-store"
