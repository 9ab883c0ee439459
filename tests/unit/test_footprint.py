"""The heap a replicated, consumed record keeps, pinned with ``tracemalloc``,
and the objects it leaves the cyclic collector, counted with ``gc``; and
the heap a process pays to import the package at all.

A record is produced, replicated to three brokers and consumed; the
consumer's records are then dropped.  What stays is the log's: each
replica's offset and byte position of the record, and the record itself —
a ``StoredMessage`` (the same object on every replica), or for a
compressed batch the frame it arrived in, which every replica holds as
itself.  A decoded copy of a frame, a record object built for a framed
record, or a fresh ``int`` per position, shows here as bytes per record;
a record object also as one more object for the collector to visit.

The figure is the heap retained by 3 000 records less that of 1 000, per
extra record, so a cluster's fixed cost cancels.  ``tracemalloc`` counts
allocations exactly, so the figure repeats on one Python version
(CPython 3.11 for the bounds below).
"""

import gc
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest

import repro
from repro.common.clock import SimClock
from repro.common.records import TopicPartition
from repro.messaging.cluster import MessagingCluster
from repro.messaging.config import ConsumerConfig, ProducerConfig
from repro.messaging.consumer import Consumer
from repro.messaging.producer import Producer

#: Retained bytes per record, as measured x 1.05.  Before frames stopped
#: keeping their decoded batch and segment positions became machine words
#: the figures were 575.9 (frameless) and 1034.7 (zlib); then 480.4 and
#: 499.1.  Since a log holds a kept frame as itself, with no record object
#: per framed record, zlib is 80.1 (frameless 484.0).
BOUNDS = {"none": 504.4, "zlib:6": 84.1}

#: GC-tracked objects a frameless record leaves at rest, as measured x 1.05:
#: one ``StoredMessage``, the same object on all three replicas (0.995).
FRAMELESS_OBJECTS = 1.045

#: Heap a fresh interpreter traces while it runs ``import repro.api``, in
#: MiB, as measured x 1.05: 4.31 on CPython 3.11 (17.41 while the package
#: imported networkx).  0.40 MiB of it is one allocation, the interpreter's
#: interned-string table doubling; how many names startup interned decides
#: whether that falls inside the import, so some runs measure 3.92.
IMPORT_HEAP_MIB = 4.53

IMPORT_API = """
import tracemalloc
tracemalloc.start()
import repro.api
print(tracemalloc.get_traced_memory()[0])
"""


def produce_replicate_consume(count: int, compression: str) -> tuple:
    """A cluster that holds ``count`` records produced, replicated to three
    brokers and consumed, and its producer and consumer; the consumer's
    records dropped."""
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
    return cluster, producer, consumer


def retained_bytes(count: int, compression: str) -> int:
    """Heap still held once ``count`` records were produced, replicated to
    three brokers and consumed, and the consumer's records dropped."""
    gc.collect()
    tracemalloc.start()
    try:
        stack = produce_replicate_consume(count, compression)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        stack = None
        tracemalloc.stop()


def retained_objects(count: int, compression: str) -> int:
    """Objects the cyclic collector tracks that the same cluster still holds
    at rest: once the page cache's scheduled flushes have run too."""
    gc.collect()
    before = len(gc.get_objects())
    stack = produce_replicate_consume(count, compression)
    stack[0].clock.advance(60.0)
    gc.collect()
    held = len(gc.get_objects()) - before
    stack = None
    return held


@pytest.mark.parametrize("compression", sorted(BOUNDS))
def test_retained_heap_per_record(compression):
    per_record = (
        retained_bytes(3_000, compression) - retained_bytes(1_000, compression)
    ) / 2_000
    assert per_record <= BOUNDS[compression]


def test_a_framed_record_at_rest_is_no_object():
    """A kept frame is held as its frame on every replica: what the three
    logs retain per framed record is a share of a few objects per batch
    (the frame, its stored form, each replica's batch-index entry and
    framed-run note), no record object or decoded value."""
    per_record = (
        retained_objects(3_000, "zlib:6") - retained_objects(1_000, "zlib:6")
    ) / 2_000
    assert per_record <= 0.1


def test_a_frameless_record_at_rest_is_one_object():
    per_record = (
        retained_objects(3_000, "none") - retained_objects(1_000, "none")
    ) / 2_000
    assert per_record <= FRAMELESS_OBJECTS


def test_import_heap():
    """No dependency outside the standard library, and nothing imported that
    a process serving data does not use."""
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    completed = subprocess.run(
        [sys.executable, "-c", IMPORT_API],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert int(completed.stdout) / 2**20 <= IMPORT_HEAP_MIB
