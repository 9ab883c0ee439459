"""Feeds: the data-integration abstraction over topics (§3).

"The two layers communicate by writing and reading data to and from two
types of feeds, stored in the messaging layer: source-of-truth feeds
represent primary data, i.e. data that is not generated within the system;
and derived data feeds contain results from processed source-of-truth feeds
or other derived feeds.  Derived feeds contain lineage information, i.e.
annotations about how the data was computed."

The registry enforces exactly that split: source-of-truth feeds have no
lineage; derived feeds must name their producing job, their input feeds
(which must already exist — no cycles), and the software version that
computed them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.common.errors import (
    FeedAlreadyExistsError,
    FeedNotFoundError,
    LineageError,
)

#: Feed kinds.
SOURCE_OF_TRUTH = "source_of_truth"
DERIVED = "derived"


@dataclass(frozen=True)
class Lineage:
    """How a derived feed's data was computed."""

    produced_by: str                  # job name
    inputs: tuple[str, ...]           # parent feed names
    software_version: str = "v1"
    description: str = ""
    created_at: float = 0.0


@dataclass(frozen=True)
class Feed:
    """A registered feed: a topic plus integration metadata."""

    name: str
    kind: str
    lineage: Lineage | None = None

    @property
    def is_source_of_truth(self) -> bool:
        return self.kind == SOURCE_OF_TRUTH


class FeedRegistry:
    """Tracks every feed in the stack and its provenance."""

    def __init__(self) -> None:
        self._feeds: dict[str, Feed] = {}

    # -- registration --------------------------------------------------------------

    def register_source(self, name: str) -> Feed:
        """Register primary data entering the system from outside."""
        self._check_new(name)
        feed = Feed(name=name, kind=SOURCE_OF_TRUTH)
        self._feeds[name] = feed
        return feed

    def register_derived(
        self,
        name: str,
        produced_by: str,
        inputs: list[str] | tuple[str, ...],
        software_version: str = "v1",
        description: str = "",
        created_at: float = 0.0,
    ) -> Feed:
        """Register a feed computed by a job from existing feeds."""
        self._check_new(name)
        if not inputs:
            raise LineageError(f"derived feed {name!r} must declare inputs")
        missing = [parent for parent in inputs if parent not in self._feeds]
        if missing:
            raise LineageError(
                f"derived feed {name!r} references unknown inputs {missing}"
            )
        if name in inputs:
            raise LineageError(f"feed {name!r} cannot derive from itself")
        feed = Feed(
            name=name,
            kind=DERIVED,
            lineage=Lineage(
                produced_by=produced_by,
                inputs=tuple(inputs),
                software_version=software_version,
                description=description,
                created_at=created_at,
            ),
        )
        self._feeds[name] = feed
        return feed

    def _check_new(self, name: str) -> None:
        if not name:
            raise LineageError("feed name must be non-empty")
        if name in self._feeds:
            raise FeedAlreadyExistsError(name)

    # -- queries -----------------------------------------------------------------------

    def get(self, name: str) -> Feed:
        feed = self._feeds.get(name)
        if feed is None:
            raise FeedNotFoundError(name)
        return feed

    def __contains__(self, name: str) -> bool:
        return name in self._feeds

    def __iter__(self) -> Iterator[Feed]:
        return iter(self._feeds.values())

    def __len__(self) -> int:
        return len(self._feeds)

    def names(self) -> list[str]:
        return sorted(self._feeds)

    def sources(self) -> list[Feed]:
        return [f for f in self._feeds.values() if f.is_source_of_truth]

    def derived(self) -> list[Feed]:
        return [f for f in self._feeds.values() if not f.is_source_of_truth]

    # -- lineage traversal -----------------------------------------------------------------

    def ancestors(self, name: str) -> list[str]:
        """All feeds this feed (transitively) derives from, sources first."""
        feed = self.get(name)
        seen: list[str] = []
        self._walk_up(feed, seen)
        return seen

    def _walk_up(self, feed: Feed, seen: list[str]) -> None:
        if feed.lineage is None:
            return
        for parent_name in feed.lineage.inputs:
            parent = self.get(parent_name)
            self._walk_up(parent, seen)
            if parent_name not in seen:
                seen.append(parent_name)

    def provenance(self, name: str) -> list[Lineage]:
        """The chain of computations from sources to this feed."""
        chain = []
        for ancestor in self.ancestors(name) + [name]:
            lineage = self.get(ancestor).lineage
            if lineage is not None:
                chain.append(lineage)
        return chain

    def consumers_of(self, name: str) -> list[str]:
        """Derived feeds computed (directly) from this feed."""
        self.get(name)
        return sorted(
            f.name
            for f in self._feeds.values()
            if f.lineage is not None and name in f.lineage.inputs
        )
