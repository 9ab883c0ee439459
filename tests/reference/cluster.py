"""One cluster driver: a cluster (three brokers by default) and every step
a replication-layer suite takes.  A step is a tuple, kind first; ``topic``
indexes the driver's topics and ``b`` is a broker:

* ``("send", topic, sender, count, framed, acks)``: one raw produce request
  from ``SENDERS[sender]`` (its producer id, next sequence, transactional
  flag); ``("retry", topic, sender, back)`` resends its request ``back``
  before the last; ``("end", topic, sender, verdict)`` writes its marker;
* ``("produce", topic, partition, count, acks, compressed, idempotent)``:
  ``count`` records through the :class:`Producer` of that kind;
* ``("tick",)``; ``("sync", b)``, a tick in which only follower ``b``
  copies; ``("stall", b)``: ``b`` copies nothing until ``("stall", None)``;
* ``("kill", b)``, ``("restart", b)``, ``("shrink", topic, partition)`` (the
  controller drops a follower from the ISR), ``("create",)`` (a topic
  mid-run), ``("maintain", dt)``: recover, replicate, advance ``dt``, run
  retention and compaction everywhere, the only maintenance there is.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import replace
from itertools import product
from unittest import mock

from repro.chaos.failpoints import SKIP, registry
from repro.common.clock import SimClock
from repro.common.compression import compress_entries
from repro.common.errors import ConfigError, MessagingError
from repro.common.records import TopicPartition
from repro.messaging import broker as broker_module
from repro.messaging.cluster import ACKS_ALL, ACKS_LEADER, MessagingCluster
from repro.messaging.config import ProducerConfig
from repro.messaging.producer import Producer

#: ``(producer id, transactional)``: two transactional senders, an
#: idempotent one and one with no producer id at all.
SENDERS = ((1000, True), (1001, True), (7, False), (None, False))
TXN, TXN2, IDEMPOTENT, NO_ID = range(len(SENDERS))
TICK = ("tick",)


def send(sender, count=3, *, topic=0, framed=False, acks=ACKS_LEADER):
    return ("send", topic, sender, count, framed, acks)


def produce(count, acks=ACKS_ALL, *, topic=0, partition=0, compressed=False,
            idempotent=False):
    return ("produce", topic, partition, count, acks, compressed, idempotent)


class Cluster:
    """The cluster of ``topics`` (``TopicConfig``\\ s), the producers and
    senders a schedule goes through, and the loop that runs one.  Hooks:
    ``replica_class`` / ``log_class`` are built for every replica / log (a
    shadow carrying a reference), ``poll(replication)`` runs in place of the
    replication pass, ``max_fetch`` cuts copies, and ``producer`` is every
    producer's config but for its kind."""

    def __init__(self, topics, *, brokers=3, unclean=False, max_fetch=None, poll=None,
                 replica_class=None, log_class=None, producer=ProducerConfig()):
        registry().disarm_all()
        with ExitStack() as stack:
            for name, cls in (("PartitionReplica", replica_class),
                              ("PartitionLog", log_class)):
                if cls is not None:
                    stack.enter_context(mock.patch.object(broker_module, name, cls))
            self.cluster = cluster = MessagingCluster(
                num_brokers=brokers, clock=SimClock(), replication_max_lag=2,
                allow_unclean_election=unclean, maintenance_interval=float("inf"),
            )
            for config in topics:
                cluster.create_topic(config)
        self.topics = [config.name for config in topics]
        self.brokers = range(brokers)
        if max_fetch is not None:
            cluster.replication.max_fetch = max_fetch
        if poll is not None:
            cluster.replication.poll = lambda: poll(cluster.replication)
        # One producer per (acks, compressed, idempotent).  Producer ids come
        # from a process-wide counter; same-seed clusters need the same ones.
        self.producers = {}
        for kind in product((ACKS_LEADER, ACKS_ALL), (False, True), (False, True)):
            acks, compressed, idempotent = kind
            self.producers[kind] = Producer(cluster, replace(
                producer, acks=acks, idempotent=idempotent,
                compression="zlib:6" if compressed else "none",
            ))
            self.producers[kind].producer_id = len(self.producers)
        self.next_seq: dict = {}  # (producer id, topic) -> next sequence
        self.requests: dict = {}  # (producer id, topic, sequence) -> request
        #: ``n`` of every record an ``acks=all`` producer acked as it sent it.
        self.acked: list[int] = []
        self.sent = self.created = 0
        self.stalled: set[int] = set()

    def run(self, schedule, check=None) -> Cluster:
        """Run ``schedule``; ``check(self, step, outcome)`` after each step."""
        for step in schedule:
            outcome = self.step(step)
            if check is not None:
                check(self, step, outcome)
        return self

    def step(self, step):
        """Run one step; returns what it visibly produced."""
        with registry().scoped("replication.sync", self._stall):
            return getattr(self, step[0])(*step[1:])

    def _stall(self, follower=None, **_ctx):
        return SKIP if follower in self.stalled else None

    def _records(self, count):
        """The next ``count`` records: ``(key, value, headers)``."""
        self.sent += count
        return [
            (f"k{n % 3}", {"n": n, "pad": "x" * 24}, {"h": n} if n % 2 else {})
            for n in range(self.sent - count, self.sent)
        ]

    def send(self, topic, sender, count, framed, acks):
        pid, transactional = SENDERS[sender]
        now = self.cluster.clock.now()
        entries = [(key, value, now, h) for key, value, h in self._records(count)]
        request = {}
        if pid is not None:
            seq = self.next_seq.get((pid, topic), 0)
            self.next_seq[pid, topic] = seq + 1  # consumed whether or not it lands
            request.update(producer_id=pid, producer_seq=seq, transactional=transactional)
            self.requests[pid, topic, seq] = (entries, acks, request)
        if framed:
            request["frame"] = compress_entries(entries, "zlib", 6)
        return self._request(topic, entries, acks, **request)

    def retry(self, topic, sender, back):
        pid = SENDERS[sender][0]
        seq = self.next_seq.get((pid, topic), 0) - 1 - back
        entries, acks, request = self.requests.get((pid, topic, seq), (None,) * 3)
        if entries is not None:
            return self._request(topic, entries, acks, **request)

    def end(self, topic, sender, verdict):
        marker = (None, None, None, {"__ctrl": verdict, "__pid": SENDERS[sender][0]})
        return self._request(topic, [marker], ACKS_ALL)

    def _request(self, topic, entries, acks, **request):
        try:
            ack = self.cluster.produce(self.topics[topic], 0, entries, acks=acks, **request)
        except (MessagingError, ConfigError) as exc:
            return type(exc).__name__
        return ack.base_offset, ack.last_offset, ack.duplicate

    def produce(self, topic, partition, count, acks, compressed, idempotent):
        """Sent one by one; a lingering producer then flushes them as one
        batch, and the step returns its acks (or its error)."""
        producer = self.producers[acks, compressed, idempotent]
        for key, value, headers in self._records(count):
            try:
                ack = producer.send(self.topics[topic], value, key=key,
                                    partition=partition, headers=headers)
            except MessagingError:
                continue  # re-buffered, not acked: no guarantee yet
            # ack is None: buffered, or held back behind a re-buffered batch.
            if ack is not None and acks == ACKS_ALL:
                self.acked.append(value["n"])
        if producer.linger_messages > 1:
            try:
                return producer.flush()  # ProduceAcks compare by value
            except MessagingError as exc:
                return type(exc).__name__

    def tick(self):
        return self.cluster.tick(0.1)

    def sync(self, follower):
        stalled, self.stalled = self.stalled, set(self.brokers) - {follower}
        stats, self.stalled = self.tick(), stalled
        return stats

    def stall(self, follower):
        self.stalled = set() if follower is None else {follower}

    def kill(self, b):
        live = self.cluster.controller.live_brokers()
        if b in live and len(live) > 1:
            self.cluster.kill_broker(b)

    def restart(self, b):
        self.cluster.restart_broker(b)

    def shrink(self, topic, partition):
        tp = TopicPartition(self.topics[topic], partition)
        state = self.cluster.controller.partition_state(tp)
        followers = [b for b in state.isr if b != state.leader]
        if followers:
            self.cluster.controller.shrink_isr(tp, followers[0])

    def create(self):
        self.created += 1
        live = self.cluster.controller.live_brokers()
        self.cluster.create_topic(
            f"w{self.created}", num_partitions=2, replication_factor=min(3, len(live))
        )

    def maintain(self, dt):
        for b in self.brokers:
            self.cluster.restart_broker(b)
        self.cluster.run_until_replicated()
        self.cluster.clock.advance(dt)
        for broker in self.cluster.brokers():
            broker.run_retention()
            broker.run_compaction()
