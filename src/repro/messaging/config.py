"""Typed, frozen client configuration objects (the stable public API).

These dataclasses are the only way to configure a
:class:`~repro.messaging.producer.Producer` or
:class:`~repro.messaging.consumer.Consumer`, in the mold of
:class:`~repro.processing.job.JobConfig`:

* construction validates every field once, in ``__post_init__``;
* an unknown option is a ``TypeError`` from the dataclass constructor, so
  typos fail at the call site;
* instances are frozen, so a config can be shared between clients and
  snapshotted by the public-API tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.common.compression import parse_compression
from repro.common.errors import ConfigError

#: Partitioner strategies (canonical home; re-exported by the producer).
PARTITIONER_HASH = "hash"
PARTITIONER_ROUND_ROBIN = "round_robin"

#: Consumer position-reset policies.
AUTO_OFFSET_RESETS = ("earliest", "latest")

#: Consumer isolation levels.
ISOLATION_LEVELS = ("read_uncommitted", "read_committed")


@dataclass(frozen=True)
class ProducerConfig:
    """Static configuration of one :class:`~repro.messaging.producer.Producer`."""

    acks: str = "leader"
    partitioner: str | Callable[[Any, int], int] = PARTITIONER_HASH
    linger_messages: int = 1
    max_retries: int = 3
    idempotent: bool = False
    client_id: str | None = None
    key_serde: Any = None
    value_serde: Any = None
    retry_backoff: float = 0.05
    retry_backoff_max: float = 2.0
    retry_jitter_seed: int | None = None
    #: Batch compression spec: ``"none"``, ``"zlib"``, or ``"zlib:N"``
    #: (N in 1..9).  Applies per linger batch; see repro.common.compression.
    compression: str = "none"

    def __post_init__(self) -> None:
        parse_compression(self.compression)  # validate spec early
        if self.linger_messages < 1:
            raise ConfigError("linger_messages must be >= 1")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.retry_backoff < 0 or self.retry_backoff_max < self.retry_backoff:
            raise ConfigError(
                "need 0 <= retry_backoff <= retry_backoff_max"
            )
        if isinstance(self.partitioner, str) and self.partitioner not in (
            PARTITIONER_HASH,
            PARTITIONER_ROUND_ROBIN,
        ):
            raise ConfigError(f"unknown partitioner {self.partitioner!r}")


@dataclass(frozen=True)
class ConsumerConfig:
    """Static configuration of one :class:`~repro.messaging.consumer.Consumer`.

    ``group`` is part of the config (it is identity, not wiring); the group
    *coordinator* stays a constructor argument because it is a live runtime
    dependency owned by the deployment.
    """

    group: str | None = None
    auto_offset_reset: str = "earliest"
    max_poll_messages: int = 100
    isolation_level: str = "read_uncommitted"
    client_id: str | None = None
    key_serde: Any = None
    value_serde: Any = None
    #: Prefetch sessions: after serving a poll, pre-issue the next fetch so
    #: its (simulated) latency overlaps the application's processing time.
    prefetch: bool = False

    def __post_init__(self) -> None:
        if self.auto_offset_reset not in AUTO_OFFSET_RESETS:
            raise ConfigError(
                f"auto_offset_reset must be one of {AUTO_OFFSET_RESETS}, "
                f"got {self.auto_offset_reset!r}"
            )
        if self.isolation_level not in ISOLATION_LEVELS:
            raise ConfigError(
                f"isolation_level must be one of {ISOLATION_LEVELS}, "
                f"got {self.isolation_level!r}"
            )
        if self.max_poll_messages < 1:
            raise ConfigError("max_poll_messages must be >= 1")
