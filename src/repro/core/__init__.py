"""Liquid core: the paper's data integration stack behind one facade."""

from repro.common.errors import AuthorizationError
from repro.core.access import (
    OP_CREATE,
    OP_READ,
    OP_WRITE,
    AccessController,
    AclEntry,
    SecureConsumer,
    SecureProducer,
)
from repro.core.annotations import (
    annotate_positions,
    offsets_at_time,
    offsets_committed_before,
    offsets_for_version,
)
from repro.core.etl import (
    AnomalyDetectorTask,
    CleaningTask,
    DeduplicateTask,
    EnrichTask,
    FilterTask,
    GroupCountTask,
    MapTask,
    RouterTask,
    StreamTableJoinTask,
    WindowedStreamJoinTask,
)
from repro.core.feeds import DERIVED, SOURCE_OF_TRUTH, Feed, FeedRegistry, Lineage
from repro.core.incremental import IncrementalFold, UpdateReport
from repro.core.liquid import Liquid

__all__ = [
    "Liquid",
    "Feed",
    "FeedRegistry",
    "Lineage",
    "SOURCE_OF_TRUTH",
    "DERIVED",
    "IncrementalFold",
    "UpdateReport",
    "offsets_at_time",
    "offsets_for_version",
    "offsets_committed_before",
    "annotate_positions",
    "MapTask",
    "FilterTask",
    "CleaningTask",
    "EnrichTask",
    "GroupCountTask",
    "RouterTask",
    "AnomalyDetectorTask",
    "DeduplicateTask",
    "StreamTableJoinTask",
    "WindowedStreamJoinTask",
    "AccessController",
    "AclEntry",
    "AuthorizationError",
    "SecureProducer",
    "SecureConsumer",
    "OP_READ",
    "OP_WRITE",
    "OP_CREATE",
]
