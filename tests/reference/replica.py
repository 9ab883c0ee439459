"""Replica references: :class:`ReferenceReplica` stamps producer state on
every record; :func:`reference_poll` visits every partition x every online
follower on every pass."""

from __future__ import annotations

from types import SimpleNamespace

from repro.chaos.failpoints import SKIP, failpoint
from repro.common.errors import BrokerUnavailableError, ConfigError
from repro.common.errors import NotLeaderForPartitionError, OffsetOutOfRangeError
from repro.messaging.partition import ROLE_FOLLOWER, ROLE_LEADER
from repro.messaging.replication import ReplicationStats

STAMPS = ("__pid", "__seq", "__txn")
WIRE_BYTES = "messaging.cluster.bytes_on_wire"


def user_headers(headers):
    return {k: v for k, v in headers.items() if k not in STAMPS}


class ReferenceReplica:
    """``PartitionReplica`` as it was: producer state stamped on, and read
    back from, every record."""

    def __init__(self, broker_id: int) -> None:
        self.broker_id = broker_id
        #: Every record absorbed and not truncated away, as
        #: ``SimpleNamespace(offset, key, value, timestamp, headers)``;
        #: ``records`` is the part of it retention and compaction left.
        self.journal: list = []
        self.records: list = []
        self.log_start = 0
        self.next_offset = 0
        self.role = ROLE_FOLLOWER
        self.high_watermark = 0
        self.follower_leo: dict[int, int] = {}
        self.isr: list[int] = []
        self.phantoms_dropped = 0
        self._reset_producer_state()

    def _reset_producer_state(self) -> None:
        self.producer_seqs: dict[int, int] = {}
        self.producer_results: dict[tuple[int, int], list[int]] = {}
        self.open_txns: dict[int, int] = {}
        self.aborted_offsets: set[int] = set()
        self.txn_record_offsets: dict[int, list[int]] = {}

    def producer_state(self):
        return (
            dict(self.producer_seqs),
            {k: list(v) for k, v in self.producer_results.items()},
            dict(self.open_txns),
            set(self.aborted_offsets),
            {k: list(v) for k, v in self.txn_record_offsets.items()},
        )

    # -- roles and the high watermark (unchanged rules, copied) -------------------

    def become_leader(self, epoch, isr) -> None:
        self.role = ROLE_LEADER
        self.isr = list(isr)
        self.follower_leo = {b: 0 for b in isr if b != self.broker_id}
        self._advance_high_watermark()

    def become_follower(self, epoch) -> None:
        self.role = ROLE_FOLLOWER
        self.follower_leo.clear()
        self.isr = []

    def record_follower_position(self, follower_id, leo) -> None:
        self.follower_leo[follower_id] = leo
        self._advance_high_watermark()

    def set_isr(self, isr) -> None:
        if self.role == ROLE_LEADER:
            self.isr = list(isr)
            self._advance_high_watermark()

    def update_high_watermark(self, hw) -> None:
        if hw > self.high_watermark:
            self.high_watermark = min(hw, self.next_offset)

    def _advance_high_watermark(self) -> None:
        if self.role != ROLE_LEADER:
            return
        leos = [self.next_offset] + [
            self.follower_leo.get(b, 0) for b in self.isr if b != self.broker_id
        ]
        self.high_watermark = max(self.high_watermark, min(leos))

    # -- the per-record rule ----------------------------------------------------------

    def append_batch(self, entries, producer_id, producer_seq, transactional):
        """Returns ``(base, last, duplicate)``; raises like the leader did."""
        if transactional:  # the client's stamp, one dict copy per record
            stamp = {"__pid": producer_id, "__txn": True}
            entries = [(k, v, ts, {**h, **stamp}) for k, v, ts, h in entries]
        if producer_id is not None and producer_seq is not None:
            if producer_seq <= self.producer_seqs.get(producer_id, -1):
                cached = self.producer_results.get((producer_id, producer_seq))
                if cached is not None:
                    return cached[0], cached[1], True
                raise ConfigError("replayed seq with no cached result")
            stamp = {"__pid": producer_id, "__seq": producer_seq}  # the leader's
            entries = [(k, v, ts, {**h, **stamp}) for k, v, ts, h in entries]
        base = self.next_offset
        for key, value, timestamp, headers in entries:
            record = SimpleNamespace(
                offset=self.next_offset, key=key, value=value,
                timestamp=timestamp, headers=headers,
            )
            self._land(record)
            if headers:
                self._track_transaction(headers, record.offset)
        last = self.next_offset - 1
        if producer_id is not None and producer_seq is not None:
            self.producer_seqs[producer_id] = producer_seq
            self.producer_results[(producer_id, producer_seq)] = [base, last]
        if self.role == ROLE_LEADER and set(self.isr) <= {self.broker_id}:
            self._advance_high_watermark()
        return base, last, False

    def replicate(self, records) -> None:
        for record in records:
            self._land(record)
            if record.headers:
                self._absorb_producer_state(record)

    def _land(self, record) -> None:
        self.journal.append(record)
        self.records.append(record)
        self.next_offset = record.offset + 1

    def _track_transaction(self, headers, offset) -> None:
        producer_id = headers.get("__pid")
        if producer_id is None:
            return
        verdict = headers.get("__ctrl")
        if verdict is not None:
            self.open_txns.pop(producer_id, None)
            offsets = self.txn_record_offsets.pop(producer_id, [])
            if verdict == "abort":
                self.aborted_offsets.update(offsets)
            return
        if headers.get("__txn"):
            self.open_txns.setdefault(producer_id, offset)
            self.txn_record_offsets.setdefault(producer_id, []).append(offset)

    def _absorb_producer_state(self, record) -> None:
        self._track_transaction(record.headers, record.offset)
        producer_id = record.headers.get("__pid")
        producer_seq = record.headers.get("__seq")
        if producer_id is None or producer_seq is None:
            return
        if producer_seq > self.producer_seqs.get(producer_id, -1):
            self.producer_seqs[producer_id] = producer_seq
        cached = self.producer_results.get((producer_id, producer_seq))
        if cached is None:
            self.producer_results[(producer_id, producer_seq)] = [
                record.offset, record.offset
            ]
        else:
            cached[1] = max(cached[1], record.offset)

    def truncate_to(self, offset) -> None:
        """The log tail and the high watermark go; producer state stays."""
        self.journal = [r for r in self.journal if r.offset < offset]
        self.records = [r for r in self.records if r.offset < offset]
        self.next_offset = min(self.next_offset, offset)
        self.high_watermark = min(self.high_watermark, offset)

    @property
    def last_stable_offset(self) -> int:
        return min([self.high_watermark, *self.open_txns.values()])

    def fetch(self, offset, max_messages, isolation):
        """The per-record visibility loop; returns ``(delivered, next_offset)``
        with ``delivered`` as (offset, key, value, timestamp, user headers)."""
        scanned = [r for r in self.records if r.offset >= offset][:max_messages]
        bound = self.high_watermark
        if isolation == "read_committed":
            bound = min(bound, self.last_stable_offset)
        visible = []
        for record in scanned:
            if record.offset >= bound:
                break
            if "__ctrl" in record.headers:
                continue
            if isolation == "read_committed" and record.offset in self.aborted_offsets:
                continue
            visible.append(record)
        next_offset = scanned[-1].offset + 1 if scanned else offset
        return (
            [
                (r.offset, r.key, r.value, r.timestamp, user_headers(r.headers))
                for r in visible
            ],
            max(min(next_offset, bound), offset),
        )

    # -- not the rule: what the harness does to keep the comparison going ------------

    def rederive_after_truncation(self) -> None:
        """Intended divergence 1: forget what the truncated tail taught."""
        kept = self.producer_state()
        self._reset_producer_state()
        for record in self.journal:
            if record.headers:
                self._absorb_producer_state(record)
        if self.producer_state() != kept:
            self.phantoms_dropped += 1

    def follow_storage(self, log) -> None:
        """Retention and compaction are the log's: list what it lists."""
        present = {m.offset for m in log.all_messages()}
        assert present <= {r.offset for r in self.records}
        self.records = [r for r in self.records if r.offset in present]
        self.log_start = log.log_start_offset


def caught_up(cluster, partition, leader_id, follower_id) -> bool:
    """The five conditions under which a follower has nothing to do."""
    leader = cluster.broker(leader_id).replica(partition)
    follower = cluster.broker(follower_id).replica(partition)
    return (
        follower.leader_epoch == leader.leader_epoch
        and follower.log_end_offset == leader.log_end_offset
        and leader._follower_leo.get(follower_id) == follower.log_end_offset
        and follower.high_watermark >= leader.high_watermark
        and follower_id in cluster.controller.isr_for(partition)
    )


def reference_poll(self, always_fetch):
    """``ReplicationManager.poll`` as it was before the pending set: every
    partition of the controller x every online follower, on every pass.
    Cuts made since the last pass (elections, pushes) are this pass's too."""
    stats = ReplicationStats(truncations=self._truncations)
    self._truncations = []
    controller = self.cluster.controller
    for partition in controller.partitions():
        state = controller.partition_state(partition)
        if state.leader is None:
            continue
        if not self.cluster.broker(state.leader).online:
            continue
        for follower_id in state.replicas:
            if follower_id == state.leader:
                continue
            if not self.cluster.broker(follower_id).online:
                continue
            reference_sync_follower(
                self, partition, state.leader, follower_id, stats, always_fetch
            )
    return stats


def reference_sync_follower(
    self, partition, leader_id, follower_id, stats, always_fetch
):
    """``ReplicationManager._sync_follower`` as the full scan ran it: a
    follower with nothing to fetch has nothing to stall, and (unless
    ``always_fetch``, the loop from before the short cut) is counted without
    a fetch.  Returns nothing: the scan settles no one."""
    idle = caught_up(self.cluster, partition, leader_id, follower_id)
    if idle and not always_fetch:
        stats.partitions_synced += 1
        return
    if not idle and (
        failpoint("replication.sync", partition=partition, follower=follower_id)
        is SKIP
    ):
        return
    controller = self.cluster.controller
    leader_broker = self.cluster.broker(leader_id)
    leader_replica = leader_broker.replica(partition)
    follower_replica = self.cluster.broker(follower_id).replica(partition)

    if follower_replica.leader_epoch < leader_replica.leader_epoch:
        safe_point = min(
            follower_replica.high_watermark, leader_replica.log_end_offset
        )
        removed = follower_replica.truncate_to(safe_point)
        if removed:
            stats.truncations.append((partition, follower_id, removed))
        follower_replica.become_follower(leader_replica.leader_epoch)
    elif follower_replica.log_end_offset > leader_replica.log_end_offset:
        removed = follower_replica.truncate_to(leader_replica.log_end_offset)
        if removed:
            stats.truncations.append((partition, follower_id, removed))

    fetch_offset = follower_replica.log_end_offset
    try:
        read, leader_leo, leader_hw, entries = leader_broker.replica_fetch(
            partition, fetch_offset, follower_id, self.max_fetch
        )
    except (
        BrokerUnavailableError,
        NotLeaderForPartitionError,
        OffsetOutOfRangeError,
    ):
        return
    if read.messages:
        follower_replica.replicate_batch(read, entries)
        stats.messages_copied += len(read.messages)
        self.cluster.metrics.counter(WIRE_BYTES).increment(read.stored_bytes)
        leader_hw = leader_replica.record_follower_position(
            follower_id, follower_replica.log_end_offset
        )
    follower_replica.update_high_watermark(leader_hw)
    stats.partitions_synced += 1

    lag = leader_replica.log_end_offset - follower_replica.log_end_offset
    isr = controller.isr_for(partition)
    if lag > self.max_lag_messages and follower_id in isr:
        new_isr = controller.shrink_isr(partition, follower_id)
        leader_replica.set_isr(new_isr)
        stats.isr_shrinks.append((partition, follower_id))
    elif (
        lag == 0
        and follower_id not in isr
        and follower_id in controller.live_brokers()
    ):
        new_isr = controller.expand_isr(partition, follower_id)
        leader_replica.set_isr(new_isr)
        stats.isr_expansions.append((partition, follower_id))
