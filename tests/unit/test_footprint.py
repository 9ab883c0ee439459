"""The heap a replicated, consumed record keeps, pinned with ``tracemalloc``.

A record is produced, replicated to three brokers and consumed; the
consumer's records are then dropped.  What stays is the log's: each
replica's ``StoredMessage`` (the same object on every replica), its offset
and byte position, and for a compressed batch the frame.  A decoded copy
of a frame, or a fresh ``int`` per position, shows here as bytes per
record.

The figure is the heap retained by 3 000 records less that of 1 000, per
extra record, so a cluster's fixed cost cancels.  ``tracemalloc`` counts
allocations exactly, so the figure repeats on one Python version
(CPython 3.11 for the bounds below).
"""

import gc
import tracemalloc

import pytest

from repro.common.clock import SimClock
from repro.common.records import TopicPartition
from repro.messaging.cluster import MessagingCluster
from repro.messaging.config import ConsumerConfig, ProducerConfig
from repro.messaging.consumer import Consumer
from repro.messaging.producer import Producer

#: Retained bytes per record, as measured x 1.05.  Before frames stopped
#: keeping their decoded batch and segment positions became machine words
#: the figures were 575.9 (frameless) and 1034.7 (zlib); now 480.4 and 499.1.
BOUNDS = {"none": 504.4, "zlib:6": 524.1}


def retained_bytes(count: int, compression: str) -> int:
    """Heap still held once ``count`` records were produced, replicated to
    three brokers and consumed, and the consumer's records dropped."""
    gc.collect()
    tracemalloc.start()
    try:
        cluster = MessagingCluster(num_brokers=3, clock=SimClock())
        cluster.create_topic("t", num_partitions=1, replication_factor=3)
        producer = Producer(
            cluster, ProducerConfig(linger_messages=100, compression=compression)
        )
        for i in range(count):
            producer.send("t", {"n": i, "pad": "x" * 40}, key=f"k{i}")
        producer.flush()
        cluster.run_until_replicated()
        consumer = Consumer(cluster, ConsumerConfig(max_poll_messages=500))
        consumer.assign([TopicPartition("t", 0)])
        consumed = 0
        while records := consumer.poll():
            consumed += len(records)
        assert consumed == count
        del records
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("compression", sorted(BOUNDS))
def test_retained_heap_per_record(compression):
    per_record = (
        retained_bytes(3_000, compression) - retained_bytes(1_000, compression)
    ) / 2_000
    assert per_record <= BOUNDS[compression]
