"""No per-record pass where a column already answers.

``PartitionReplica.fetch`` hands the log's run straight through when nothing
in it can be hidden (no marker or aborted run intersects it, last offset
under the HW/LSO bound), and every ``ReadResult`` carries the stored-byte total the
segments' cumulative positions already give.  Nothing downstream re-walks the
records, so these properties do: over random partition histories — plain,
idempotent, compressed, committed and aborted transactional batches, control
markers with and without a producer id, a high watermark that stops
mid-run, compaction gaps and a hot/cold tier boundary — the fetch must return
exactly what the per-record visibility filter it replaced returns (kept below
as the reference, over a model of the transactions the history ran: which
offsets each wrote, which it aborted — the replica's own bookkeeping is not
consulted), and every byte total must equal the per-record sum, for hot,
cold and stitched cold→hot reads, with and without ``max_bytes``.
"""

from hypothesis import given, settings, strategies as st

from repro.common.clock import SimClock
from repro.common.compression import compress_entries
from repro.common.errors import OffsetOutOfRangeError
from repro.common.records import TopicPartition
from repro.messaging.partition import PartitionReplica
from repro.storage.compaction import LogCompactor
from repro.storage.log import LogConfig, PartitionLog
from repro.storage.retention import RetentionConfig, RetentionEnforcer
from repro.storage.tiered import ColdTier, InMemoryObjectStore, TieredConfig

TP = TopicPartition("t", 0)
ISOLATIONS = ("read_uncommitted", "read_committed")

pids = st.integers(0, 1)
appends = st.tuples(st.sampled_from(["plain", "idempotent", "zlib"]), st.integers(1, 6))
transactions = st.one_of(
    st.tuples(st.just("txn"), pids, st.integers(1, 4)),
    # Ends the oldest open transaction (a stray marker when none is open).
    st.tuples(st.just("end"), st.sampled_from(["commit", "abort"])),
    st.tuples(st.just("bare_marker")),
)
# ``ack``: the follower acknowledges up to a fraction of the leader's log, so
# the high watermark lands anywhere, usually mid-batch.
upkeep = st.one_of(
    st.tuples(st.just("ack"), st.floats(0.0, 1.0)),
    st.tuples(st.just("compact")),
    st.tuples(st.just("archive")),
)
plain_histories = st.lists(st.one_of(appends, appends, upkeep), min_size=1, max_size=24)
histories = st.one_of(
    plain_histories,
    st.lists(st.one_of(appends, transactions, upkeep), min_size=1, max_size=24),
)
final_acks = st.one_of(st.just(1.0), st.floats(0.0, 1.0))


def build(history, final_ack=1.0):
    """Replay ``history`` onto a leader replica whose one follower only
    acknowledges on ``ack`` steps and once at the end.  Returns the replica,
    the records the cold tier holds, in offset order, and the transaction
    model: ``(aborted offsets, first offset of each open transaction)``."""
    clock = SimClock()
    log = PartitionLog("t-0", LogConfig(segment_max_messages=4), clock=clock)
    replica = PartitionReplica(TP, 0, log)
    replica.cold_tier = ColdTier(
        log, InMemoryObjectStore(), namespace="t/0", config=TieredConfig()
    )
    replica.become_leader(1, [0, 1])
    archived = []
    open_offsets = {}  # pid -> offsets its open transaction wrote, oldest first
    aborted = set()
    sequence = 0
    for step in [*history, ("ack", final_ack)]:
        now = clock.now()
        kind = step[0]
        if kind in ("plain", "idempotent", "zlib", "txn"):
            # Every third key is never written again, so compaction leaves
            # gaps between survivors instead of one dense tail.
            entries = [
                (f"k{n if n % 3 == 0 else n % 4}", f"v{n}" * (1 + n % 5), now, {})
                for n in range(sequence, sequence + step[-1])
            ]
            sequence += len(entries)
            if kind == "idempotent":
                replica.append_batch(entries, producer_id=7, producer_seq=sequence)
            elif kind == "txn":
                written = replica.append_batch(
                    entries, producer_id=100 + step[1], producer_seq=sequence,
                    transactional=True,
                )
                open_offsets.setdefault(100 + step[1], []).extend(
                    range(written.base_offset, written.last_offset + 1)
                )
            elif kind == "zlib":
                frame = compress_entries(entries, "zlib", 6)
                replica.append_batch(entries, frame=frame, sizes=frame.sizes)
            else:
                replica.append_batch(entries)
        elif kind == "end":
            pid = next(iter(open_offsets), 100)
            replica.append_batch([(None, None, now, {"__ctrl": step[1], "__pid": pid})])
            written = open_offsets.pop(pid, [])
            if step[1] == "abort":
                aborted.update(written)
        elif kind == "bare_marker":
            replica.append_batch([(None, None, now, {"__ctrl": "commit"})])
        elif kind == "ack":
            replica.record_follower_position(1, int(step[1] * log.log_end_offset))
        elif kind == "compact":
            LogCompactor(clock=clock).compact(log)
        else:
            before = log.all_messages()
            RetentionEnforcer(
                RetentionConfig(retention_seconds=0.0),
                clock,
                archiver=replica.cold_tier.archiver,
            ).enforce(log)
            archived += [m for m in before if m.offset < log.log_start_offset]
        clock.advance(1.0)
    still_open = [written[0] for written in open_offsets.values()]
    return replica, archived, (aborted, still_open)


def reference_fetch(replica, model, offset, max_messages, max_bytes, isolation):
    """``PartitionReplica.fetch`` as it was: one visibility check per record."""
    aborted, still_open = model
    if offset < replica.log.log_start_offset:
        result = replica.cold_tier.read_through(offset, max_messages, max_bytes)
    else:
        result = replica.log.read(offset, max_messages, max_bytes)
    bound = replica.high_watermark
    if isolation == "read_committed":
        bound = min([bound, *still_open])
    visible = []
    for message in result.messages:
        if message.offset >= bound:
            break
        if "__ctrl" in message.headers:
            continue
        if isolation == "read_committed" and message.offset in aborted:
            continue
        visible.append(message)
    return visible, max(min(result.next_offset, bound), offset)


def reference_prefix(records, max_messages, max_bytes):
    """The budget rule, one record at a time: records are delivered in order
    while they fit, and the first one always is (Kafka semantics)."""
    out = []
    budget = max_bytes if max_bytes is not None else float("inf")
    for record in records:
        if len(out) >= max_messages or (record.stored_size > budget and out):
            break
        out.append(record)
        budget -= record.stored_size
    return out


def outcome(read, *args):
    try:
        return read(*args)
    except OffsetOutOfRangeError as exc:
        return type(exc)


def stored(messages):
    return sum(m.stored_size for m in messages)


class TestFetchEqualsThePerRecordFilter:
    @given(histories, final_acks, st.integers(1, 9), st.integers(0, 400))
    @settings(max_examples=150, deadline=None)
    def test_same_objects_same_next_offset_same_bytes(
        self, history, final_ack, few, budget
    ):
        replica, _archived, model = build(history, final_ack)
        for offset in range(replica.earliest_offset, replica.log_end_offset + 1):
            for max_messages, max_bytes in ((1000, None), (few, budget)):
                for isolation in ISOLATIONS:
                    want = outcome(
                        reference_fetch, replica, model, offset, max_messages,
                        max_bytes, isolation,
                    )
                    got = outcome(
                        replica.fetch, offset, max_messages, max_bytes, True, isolation
                    )
                    if want is OffsetOutOfRangeError:
                        assert got is want
                        continue
                    visible, next_offset = want
                    assert len(got.messages) == len(visible)
                    assert all(a is b for a, b in zip(got.messages, visible))
                    assert got.next_offset == next_offset
                    assert got.stored_bytes == stored(visible)

    @given(plain_histories)
    @settings(max_examples=60, deadline=None)
    def test_untouched_run_is_passed_through_not_copied(self, history):
        """With no marker in the run and the run under the bound, the fetch
        result *is* the log's list: no per-record pass ran."""
        replica, _archived, _model = build(history)
        seen = []
        read = replica.log.read

        def recording_read(*args):
            seen.append(read(*args))
            return seen[-1]

        replica.log.read = recording_read
        for isolation in ISOLATIONS:
            result = replica.fetch(
                replica.log.log_start_offset, 1000, isolation=isolation
            )
            assert result.messages is seen[-1].messages


    def test_a_marker_elsewhere_does_not_cost_a_run_its_pass_through(self):
        """Hidden runs are intervals, so only a read that intersects one is
        sliced — not every read after the partition's first marker."""
        history = [("txn", 0, 2), ("end", "abort"), ("txn", 1, 2), ("end", "commit"),
                   ("plain", 6)]
        replica, _archived, _model = build(history)
        runs = []  # the list each log read returned
        read = replica.log.read

        def recording_read(*args):
            result = read(*args)
            runs.append(result.messages)
            return result

        replica.log.read = recording_read
        for isolation in ISOLATIONS:
            after = replica.fetch(6, 1000, isolation=isolation)
            assert after.messages is runs[-1] and len(after.messages) == 6
            across = replica.fetch(0, 1000, isolation=isolation)
            assert across.messages is not runs[-1]
            hidden = {2, 5} | ({0, 1} if isolation == "read_committed" else set())
            assert [m.offset for m in across.messages] == [
                o for o in range(12) if o not in hidden
            ]


class TestStoredBytesIsAColumn:
    @given(histories, st.integers(1, 9), st.integers(0, 400))
    @settings(max_examples=150, deadline=None)
    def test_hot_cold_and_stitched_reads(self, history, few, budget):
        replica, archived, _model = build(history)
        log, tier = replica.log, replica.cold_tier
        hot = log.all_messages()
        for max_messages, max_bytes in ((1000, None), (few, budget), (few, None)):
            for offset in range(log.log_start_offset, log.log_end_offset + 1):
                result = log.read(offset, max_messages, max_bytes)
                want = reference_prefix(
                    [m for m in hot if m.offset >= offset], max_messages, max_bytes
                )
                assert result.messages == want
                assert result.stored_bytes == stored(want)
                follower = replica.fetch(offset, max_messages, max_bytes, False)
                assert follower.stored_bytes == stored(follower.messages)
            if not archived:
                continue
            for offset in range(archived[0].offset, tier.manifest.end_offset):
                tail = [m for m in archived if m.offset >= offset]
                cold = tier.reader.read(offset, max_messages, max_bytes)
                want = reference_prefix(tail, max_messages, max_bytes)
                assert cold.messages == want
                assert cold.stored_bytes == stored(want)

                stitched = tier.read_through(offset, max_messages, max_bytes)
                left = None if max_bytes is None else max_bytes - stored(want)
                if (
                    len(want) == len(tail)
                    and len(want) < max_messages
                    and (left is None or left > 0)
                    and tier.manifest.end_offset >= log.log_start_offset
                ):
                    want = want + reference_prefix(hot, max_messages - len(want), left)
                assert stitched.messages == want
                assert stitched.stored_bytes == stored(want)
