"""Integration: exactly-once consume-transform-produce (§4.3 completed).

The end state of the paper's "ongoing effort": a processing loop that reads
an input feed, writes a derived feed, and commits its input offsets — all
atomically.  A crash between any two steps either replays nothing (the
transaction committed) or replays everything (it aborted), so the derived
feed sees each input's effect exactly once.
"""

from repro.common.clock import SimClock
from repro.common.records import TopicPartition
from repro.messaging.cluster import MessagingCluster
from repro.messaging.config import ConsumerConfig
from repro.messaging.consumer import Consumer
from repro.messaging.producer import Producer
from repro.messaging.transactions import TransactionalProducer

IN_TP = TopicPartition("in", 0)


def make_cluster() -> MessagingCluster:
    cluster = MessagingCluster(num_brokers=3, clock=SimClock())
    cluster.create_topic("in", num_partitions=1, replication_factor=3)
    cluster.create_topic("out", num_partitions=1, replication_factor=3)
    return cluster


class ExactlyOnceTransformer:
    """One consume-transform-produce worker with a stable transactional id.

    ``crash_after_send`` simulates dying after producing but before the
    transaction commits — the dangerous window that plain at-least-once
    processing turns into duplicates.
    """

    def __init__(self, cluster: MessagingCluster, worker_id: str = "etl") -> None:
        self.cluster = cluster
        self.producer = TransactionalProducer(cluster, worker_id)
        self.group = f"group-{worker_id}"

    def _position(self) -> int:
        commit = self.cluster.offset_manager.fetch(self.group, IN_TP)
        return commit.offset if commit is not None else 0

    def run_once(self, batch: int = 100, crash_after_send: bool = False) -> int:
        self.cluster.tick(0.0)
        position = self._position()
        result = self.cluster.fetch(
            "in", 0, position, batch, isolation="read_committed"
        )
        if not result.records:
            return 0
        self.producer.begin()
        for record in result.records:
            self.producer.send(
                "out", {"doubled": record.value * 2}, key=record.key
            )
        if crash_after_send:
            # The process dies here: outputs written but not committed,
            # offsets not advanced.  A restart fences + aborts the txn.
            return len(result.records)
        self.producer.send_offsets_to_transaction(
            self.group, {IN_TP: result.next_offset}
        )
        self.producer.commit()
        return len(result.records)


def committed_outputs(cluster) -> list:
    cluster.tick(0.0)
    result = cluster.fetch(
        "out", 0, 0, max_messages=10_000, isolation="read_committed"
    )
    return [r.value["doubled"] for r in result.records]


class TestExactlyOncePipeline:
    def test_happy_path_transforms_each_input_once(self):
        cluster = make_cluster()
        producer = Producer(cluster)
        for i in range(50):
            producer.send("in", i, key=str(i))
        worker = ExactlyOnceTransformer(cluster)
        while worker.run_once():
            pass
        assert committed_outputs(cluster) == [i * 2 for i in range(50)]

    def test_crash_before_commit_produces_no_duplicates(self):
        cluster = make_cluster()
        producer = Producer(cluster)
        for i in range(30):
            producer.send("in", i, key=str(i))

        worker = ExactlyOnceTransformer(cluster, "etl-7")
        worker.run_once(batch=10)                       # committed: 0-9
        worker.run_once(batch=10, crash_after_send=True)  # dies: 10-19 in limbo

        # Restart: the new incarnation fences the old one, aborting its
        # uncommitted outputs, and resumes from the committed offsets.
        restarted = ExactlyOnceTransformer(cluster, "etl-7")
        while restarted.run_once(batch=10):
            pass
        assert committed_outputs(cluster) == [i * 2 for i in range(30)]

    def test_repeated_crashes_still_exactly_once(self):
        cluster = make_cluster()
        producer = Producer(cluster)
        for i in range(40):
            producer.send("in", i, key=str(i))
        for _attempt in range(4):
            worker = ExactlyOnceTransformer(cluster, "flaky")
            worker.run_once(batch=7, crash_after_send=True)
        final = ExactlyOnceTransformer(cluster, "flaky")
        while final.run_once(batch=7):
            pass
        assert committed_outputs(cluster) == [i * 2 for i in range(40)]

    def test_read_uncommitted_shows_the_garbage_exactly_once_hides(self):
        cluster = make_cluster()
        producer = Producer(cluster)
        for i in range(10):
            producer.send("in", i, key=str(i))
        worker = ExactlyOnceTransformer(cluster, "etl-9")
        worker.run_once(batch=10, crash_after_send=True)
        ExactlyOnceTransformer(cluster, "etl-9")  # fences -> abort markers
        cluster.tick(0.0)
        dirty = cluster.fetch("out", 0, 0, max_messages=1000)
        clean = cluster.fetch(
            "out", 0, 0, max_messages=1000, isolation="read_committed"
        )
        assert len(dirty.records) == 10   # aborted garbage is in the log...
        assert len(clean.records) == 0    # ...but committed readers never see it

    def test_downstream_consumer_sees_consistent_stream(self):
        cluster = make_cluster()
        producer = Producer(cluster)
        consumer = Consumer(cluster, ConsumerConfig(isolation_level="read_committed"))
        consumer.assign([TopicPartition("out", 0)])
        worker = ExactlyOnceTransformer(cluster, "etl-10")
        seen = []
        for i in range(30):
            producer.send("in", i, key=str(i))
            if i % 7 == 3:
                worker.run_once(batch=100)
                seen.extend(r.value["doubled"] for r in consumer.poll(100))
        worker.run_once(batch=100)
        cluster.tick(0.0)
        seen.extend(r.value["doubled"] for r in consumer.poll(100))
        assert seen == [i * 2 for i in range(30)]
