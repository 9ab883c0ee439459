"""Exception hierarchy for the Liquid reproduction.

Every error raised by the library derives from :class:`LiquidError`, so
callers can catch one base type at the public-API boundary.  The hierarchy
mirrors the paper's subsystems: messaging-layer errors correspond to the
failure modes a Kafka client would see, processing-layer errors to Samza job
failures, and coordination errors to ZooKeeper session problems.
"""

from __future__ import annotations


class LiquidError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(LiquidError):
    """A configuration value is missing, malformed, or inconsistent."""


class ReservedHeaderError(ConfigError):
    """A client record set a header in the system's ``__`` namespace."""


class ReservedTopicError(ConfigError):
    """A client tried to create a topic in the system's ``__`` namespace."""


class SerdeError(LiquidError):
    """A value could not be serialized or deserialized."""


# ---------------------------------------------------------------------------
# Messaging layer
# ---------------------------------------------------------------------------

class MessagingError(LiquidError):
    """Base class for messaging-layer (Kafka-like) errors."""


class TopicNotFoundError(MessagingError):
    """The requested topic does not exist on the cluster."""


class TopicAlreadyExistsError(MessagingError):
    """Attempted to create a topic that already exists."""


class PartitionNotFoundError(MessagingError):
    """The requested partition id is outside the topic's partition range."""


class OffsetOutOfRangeError(MessagingError):
    """A fetch requested an offset below the log start or above the end.

    Carries the valid range so clients can implement auto-reset policies.
    """

    def __init__(self, requested: int, log_start: int, log_end: int) -> None:
        super().__init__(
            f"offset {requested} out of range [{log_start}, {log_end})"
        )
        self.requested = requested
        self.log_start = log_start
        self.log_end = log_end


class BrokerUnavailableError(MessagingError):
    """The broker addressed by the request is offline."""


class NotLeaderForPartitionError(MessagingError):
    """A produce/fetch was sent to a replica that is not the leader.

    Clients respond by refreshing metadata and retrying, exactly as Kafka
    clients do.
    """


class NotEnoughReplicasError(MessagingError):
    """acks=all produce rejected: in-sync replica set below ``min.insync``."""


class ProducerFlushError(MessagingError):
    """``Producer.flush()`` could not deliver every buffered batch.

    Carries the partial result: ``acks`` for the batches that made it, and
    ``failures`` as ``(partition, error)`` pairs for those that did not.
    Failed batches stay buffered inside the producer (in order), so a later
    ``flush()`` retries them — nothing is silently dropped.  The one
    exception is a record too large to ever land: it is dropped, and its
    :class:`RecordTooLargeError` in ``failures`` names it.
    """

    def __init__(self, acks: list, failures: list) -> None:
        partitions = ", ".join(str(tp) for tp, _exc in failures)
        super().__init__(
            f"flush failed for {len(failures)} partition(s) [{partitions}]; "
            f"{len(acks)} batch(es) acked"
        )
        self.acks = acks
        self.failures = failures


class RecordTooLargeError(MessagingError):
    """A produce carried records over the topic's ``max_message_bytes``.

    The leader refuses the whole batch before appending anything;
    ``indices`` are the offending records' positions in the batch.  The
    producer drops exactly those and ships the rest, whose ack (if it
    landed) rides on the error as ``ack``.  If the rest exhausted its
    retries instead, it is parked like any failed batch and the failure
    that parked it rides as ``rest_error``.
    """

    def __init__(self, message: str, indices: tuple[int, ...]) -> None:
        super().__init__(message)
        self.indices = indices
        self.ack = None
        self.rest_error: MessagingError | None = None


class StaleEpochError(MessagingError):
    """A replication request carried an outdated leader epoch."""


class UnknownMemberError(MessagingError):
    """A consumer addressed the group coordinator with an expired member id."""


class ProducerFencedError(MessagingError):
    """A transactional producer was superseded by a newer instance."""


class TransactionError(MessagingError):
    """A transactional produce sequence was used incorrectly."""


# ---------------------------------------------------------------------------
# Coordination
# ---------------------------------------------------------------------------

class CoordinationError(LiquidError):
    """Base class for coordinator (ZooKeeper-like) errors."""


class SessionExpiredError(CoordinationError):
    """The client's ephemeral session is no longer valid."""


class NodeExistsError(CoordinationError):
    """Attempted to create a znode path that already exists."""


class NoNodeError(CoordinationError):
    """The referenced znode path does not exist."""


# ---------------------------------------------------------------------------
# Processing layer
# ---------------------------------------------------------------------------

class ProcessingError(LiquidError):
    """Base class for processing-layer (Samza-like) errors."""


class JobConfigError(ProcessingError):
    """A job definition is invalid (missing inputs, cyclic dataflow, ...)."""


class TaskFailedError(ProcessingError):
    """A stream task raised while processing a message."""


class StateStoreError(ProcessingError):
    """A state store operation failed."""


class QuotaExceededError(ProcessingError):
    """A container exceeded its CPU or memory quota.

    Raised only when hard enforcement is enabled; soft enforcement throttles
    instead (see :mod:`repro.processing.containers`).
    """


# ---------------------------------------------------------------------------
# Serving layer
# ---------------------------------------------------------------------------

class ServingError(LiquidError):
    """A state-serving query is invalid (unknown store, bad consistency
    mode, task out of range; see :mod:`repro.serving`)."""


# ---------------------------------------------------------------------------
# Liquid core
# ---------------------------------------------------------------------------

class AuthorizationError(LiquidError):
    """The principal lacks the required grant (see :mod:`repro.core.access`)."""


class FeedError(LiquidError):
    """Base class for feed-registry errors."""


class FeedNotFoundError(FeedError):
    """The referenced feed is not registered with the Liquid stack."""


class FeedAlreadyExistsError(FeedError):
    """Attempted to register a feed name twice."""


class LineageError(FeedError):
    """A derived feed's lineage is inconsistent (unknown parent, cycle)."""


# ---------------------------------------------------------------------------
# Tiered storage
# ---------------------------------------------------------------------------

class TieredStorageError(LiquidError):
    """Base class for cold-tier (archival) storage errors."""


class ObjectNotFoundError(TieredStorageError):
    """The requested object key does not exist in the cold store."""


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

class DfsError(LiquidError):
    """Base class for simulated-DFS errors."""


class FileNotFoundInDfsError(DfsError):
    """The DFS path does not exist."""


class FileExistsInDfsError(DfsError):
    """The DFS path already exists (DFS files are immutable once closed)."""


class MapReduceError(LiquidError):
    """A MapReduce job failed."""
