"""Unit tests for the feed registry and lineage (§3)."""

import pytest

from repro.common.errors import (
    FeedAlreadyExistsError,
    FeedNotFoundError,
    LineageError,
)
from repro.core.feeds import DERIVED, SOURCE_OF_TRUTH, FeedRegistry


def registry_with_chain() -> FeedRegistry:
    registry = FeedRegistry()
    registry.register_source("raw")
    registry.register_derived("clean", "cleaner", ["raw"], "v1")
    registry.register_derived("stats", "aggregator", ["clean"], "v1")
    return registry


class TestRegistration:
    def test_source_has_no_lineage(self):
        registry = FeedRegistry()
        feed = registry.register_source("raw")
        assert feed.kind == SOURCE_OF_TRUTH
        assert feed.lineage is None
        assert feed.is_source_of_truth

    def test_derived_records_lineage(self):
        registry = registry_with_chain()
        feed = registry.get("clean")
        assert feed.kind == DERIVED
        assert feed.lineage.produced_by == "cleaner"
        assert feed.lineage.inputs == ("raw",)

    def test_duplicate_rejected(self):
        registry = FeedRegistry()
        registry.register_source("raw")
        with pytest.raises(FeedAlreadyExistsError):
            registry.register_source("raw")
        with pytest.raises(FeedAlreadyExistsError):
            registry.register_derived("raw", "j", ["raw"])

    def test_unknown_parent_rejected(self):
        registry = FeedRegistry()
        with pytest.raises(LineageError):
            registry.register_derived("d", "j", ["ghost"])

    def test_self_derivation_rejected(self):
        registry = FeedRegistry()
        registry.register_source("raw")
        with pytest.raises(LineageError):
            registry.register_derived("d", "j", ["d"])

    def test_empty_inputs_rejected(self):
        registry = FeedRegistry()
        with pytest.raises(LineageError):
            registry.register_derived("d", "j", [])

    def test_empty_name_rejected(self):
        with pytest.raises(LineageError):
            FeedRegistry().register_source("")

    def test_unknown_feed_rejected(self):
        with pytest.raises(FeedNotFoundError):
            FeedRegistry().get("nope")


class TestQueries:
    def test_contains_and_len(self):
        registry = registry_with_chain()
        assert "raw" in registry
        assert "ghost" not in registry
        assert len(registry) == 3

    def test_sources_and_derived_split(self):
        registry = registry_with_chain()
        assert [f.name for f in registry.sources()] == ["raw"]
        assert sorted(f.name for f in registry.derived()) == ["clean", "stats"]

    def test_ancestors_ordered_sources_first(self):
        registry = registry_with_chain()
        assert registry.ancestors("stats") == ["raw", "clean"]
        assert registry.ancestors("raw") == []

    def test_provenance_chain(self):
        registry = registry_with_chain()
        chain = registry.provenance("stats")
        assert [l.produced_by for l in chain] == ["cleaner", "aggregator"]

    def test_consumers_of(self):
        registry = registry_with_chain()
        assert registry.consumers_of("raw") == ["clean"]
        assert registry.consumers_of("stats") == []

    def test_diamond_lineage(self):
        registry = FeedRegistry()
        registry.register_source("raw")
        registry.register_derived("left", "l", ["raw"])
        registry.register_derived("right", "r", ["raw"])
        registry.register_derived("joined", "j", ["left", "right"])
        ancestors = registry.ancestors("joined")
        assert ancestors[0] == "raw"
        assert set(ancestors) == {"raw", "left", "right"}

    def test_graph_structure(self):
        registry = registry_with_chain()
        edges = {
            (parent, feed.name): feed.lineage.produced_by
            for feed in registry.derived()
            for parent in feed.lineage.inputs
        }
        assert edges == {("raw", "clean"): "cleaner", ("clean", "stats"): "aggregator"}
