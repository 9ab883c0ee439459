"""Integration: application-side dedup completes the §4.3 delivery story.

"the messaging layer provides at-least-once delivery semantics ... This is
sufficient for applications that only handle keyed data with idempotent
updates, because duplicates can be detected easily by the application."

A retrying producer duplicates records into a feed; a DeduplicateTask job
restores an exactly-once derived feed — including across a job crash, since
the seen-ids store is changelogged.
"""

from repro.common.clock import SimClock
from repro.core.etl import DeduplicateTask
from repro.messaging.cluster import ACKS_ALL, MessagingCluster
from repro.messaging.config import ProducerConfig
from repro.messaging.producer import Producer
from repro.processing.job import JobConfig, JobRunner, StoreConfig


def make_env():
    cluster = MessagingCluster(num_brokers=3, clock=SimClock())
    cluster.create_topic("raw", num_partitions=1, replication_factor=3)
    cluster.create_topic("clean", num_partitions=1, replication_factor=3)
    runner = JobRunner(
        JobConfig(
            name="dedup",
            inputs=["raw"],
            task_factory=lambda: DeduplicateTask(
                "clean", id_fn=lambda v: v["event_id"], ttl_seconds=1e9
            ),
            stores=[StoreConfig("seen")],
            changelog_replication=3,
        ),
        cluster,
    )
    return cluster, runner


def produce_with_duplicates(cluster, n, duplicate_every=5):
    """Emulates at-least-once retries: every Nth batch is re-sent."""
    producer = Producer(cluster, ProducerConfig(acks=ACKS_ALL))
    for i in range(n):
        event = {"event_id": f"evt-{i}", "n": i}
        producer.send("raw", event, key=event["event_id"])
        if i % duplicate_every == 0:
            producer.send("raw", event, key=event["event_id"])  # the retry
    return producer


def clean_values(cluster):
    cluster.tick(0.0)
    result = cluster.fetch("clean", 0, 0, max_messages=100_000)
    return [r.value["n"] for r in result.records]


class TestAppSideDedup:
    def test_duplicated_stream_becomes_exactly_once(self):
        cluster, runner = make_env()
        produce_with_duplicates(cluster, 50)
        runner.run_until_idle()
        assert clean_values(cluster) == list(range(50))

    def test_dedup_state_survives_job_crash(self):
        cluster, runner = make_env()
        produce_with_duplicates(cluster, 30)
        runner.run_until_idle()
        runner.checkpoint()
        runner.crash()
        runner.recover()
        # The SAME events arrive again (e.g. an upstream replay): the
        # restored seen-set still filters every one of them.
        produce_with_duplicates(cluster, 30)
        runner.run_until_idle()
        assert clean_values(cluster) == list(range(30))

    def test_broker_failover_does_not_break_dedup(self):
        cluster, runner = make_env()
        produce_with_duplicates(cluster, 20)
        runner.run_until_idle()
        cluster.kill_broker(cluster.leader_of("raw", 0))
        produce_with_duplicates(cluster, 20)  # replayed post-failover
        runner.run_until_idle()
        assert clean_values(cluster) == list(range(20))
