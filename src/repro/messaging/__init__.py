"""Messaging layer: a Kafka-like distributed publish/subscribe system."""

from repro.messaging.broker import Broker
from repro.messaging.cluster import (
    ACKS_ALL,
    ACKS_LEADER,
    ACKS_NONE,
    MessagingCluster,
    ProduceAck,
)
from repro.messaging.config import ConsumerConfig, ProducerConfig
from repro.messaging.consumer import Consumer
from repro.messaging.consumer_group import GroupCoordinator
from repro.messaging.offset_manager import OFFSETS_TOPIC, OffsetCommit, OffsetManager
from repro.messaging.partition import PartitionReplica, ProduceResult
from repro.messaging.producer import (
    PARTITIONER_HASH,
    PARTITIONER_ROUND_ROBIN,
    Producer,
)
from repro.messaging.replication import ReplicationManager, ReplicationStats
from repro.messaging.topic import CLEANUP_COMPACT, CLEANUP_DELETE, TopicConfig
from repro.messaging.transactions import (
    TransactionalProducer,
    TransactionCoordinator,
    get_transaction_coordinator,
)

__all__ = [
    "Broker",
    "MessagingCluster",
    "ProduceAck",
    "ACKS_NONE",
    "ACKS_LEADER",
    "ACKS_ALL",
    "Consumer",
    "GroupCoordinator",
    "OffsetManager",
    "OffsetCommit",
    "OFFSETS_TOPIC",
    "PartitionReplica",
    "ProduceResult",
    "Producer",
    "ProducerConfig",
    "ConsumerConfig",
    "PARTITIONER_HASH",
    "PARTITIONER_ROUND_ROBIN",
    "ReplicationManager",
    "ReplicationStats",
    "TopicConfig",
    "CLEANUP_DELETE",
    "CLEANUP_COMPACT",
    "TransactionalProducer",
    "TransactionCoordinator",
    "get_transaction_coordinator",
]
