"""One walk, one object: the size a record carries is the size it has.

The produce path sizes each record once (``MessagingCluster._produce_to``,
or the producer when it builds a ``BatchFrame``) and that column becomes the
wire charge, the quota charge and ``StoredMessage.size``; followers then
hold the leader's record objects.  ``size`` means one thing on every record,
stored or delivered: the payload, log framing excluded (the log charges
``RECORD_FRAMING_BYTES`` on top, in ``stored_size`` unless a frame share
replaces it).  Nothing downstream recomputes, so these properties do: every
stored size on every replica, every delivered record's ``size`` and the
cluster's ``bytes_on_wire`` must equal what an independent re-walk of the
stored fields gives — for plain, idempotent, transactional and compressed
producers alike.  Producer state is the trap:
it is batch metadata, so it shows in no record's size or headers — a stored
record holds the very dict the producer was handed, a consumer sees what was
sent (a record held as an object holds the very dict the producer was
handed; one held as its frame is built with those headers) — and on the
wire as one batch header per stamped uncompressed batch (a frame's wire
bytes already contain theirs).
"""

import sys
from collections.abc import Mapping

from hypothesis import given, settings, strategies as st

from repro.common import compression, records
from repro.common.clock import SimClock
from repro.common.compression import (
    BATCH_FRAME_HEADER_BYTES,
    compress_entries,
    payload_sizes,
)
from repro.common.records import (
    EMPTY_HEADERS,
    RECORD_FRAMING_BYTES,
    TRACE_HEADER,
    TopicPartition,
    _estimate_size_slow,
    estimate_size,
    payload_size,
)
from repro.messaging.cluster import ACKS_ALL, MessagingCluster
from repro.messaging.config import ProducerConfig
from repro.messaging.producer import Producer
from repro.messaging.transactions import TransactionalProducer
from repro.observability.trace import TraceContext
from tests.reference import examples

TP = TopicPartition("t", 0)
WIRE_BYTES = "messaging.cluster.bytes_on_wire"


def reference_size(value) -> int:
    """The sizing rule written out as one isinstance chain (no fast paths)."""
    if value is None:
        return 0
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, memoryview):
        return value.nbytes
    if isinstance(value, str):
        return len(value.encode("utf-8", "surrogatepass"))
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, Mapping):
        return sum(
            reference_size(k) + reference_size(v) + 2
            for k, v in value.items()
            if k != TRACE_HEADER
        )
    assert isinstance(value, (list, tuple))
    return sum(reference_size(item) + 1 for item in value)


def payload_size(key, value, headers) -> int:
    return reference_size(key) + reference_size(value) + reference_size(headers)


text = st.text(alphabet="abZ09 -_é☃𝄞\udcff", max_size=8)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10**12), st.floats(allow_nan=False),
    text, st.binary(max_size=6),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(text, inner, max_size=3),
    ),
    max_leaves=8,
)
keys = st.one_of(
    st.none(), text, st.integers(0, 2**40), st.binary(max_size=6),
    st.tuples(text, st.integers(0, 9)),
)
user_headers = st.dictionaries(
    text.filter(lambda name: not name.startswith("__")), scalars, max_size=2
)
trace_contexts = st.one_of(
    st.none(), st.builds(TraceContext, text, st.integers(0, 99))
)
entries = st.lists(
    st.tuples(keys, values, user_headers, trace_contexts), min_size=1, max_size=12
)
MODES = ("plain", "idempotent", "transactional", "zlib", "zlib-idempotent")


def produce(cluster: MessagingCluster, mode: str, linger: int, batch) -> list:
    """Send ``batch`` through the producer ``mode`` names and flush it;
    returns the header dict each send was handed (``None`` for none)."""
    if mode == "transactional":
        producer = TransactionalProducer(cluster, "sizes", linger_messages=linger)
        producer.begin()
    else:
        producer = Producer(
            cluster,
            ProducerConfig(
                linger_messages=linger,
                idempotent=mode.endswith("idempotent"),
                compression="zlib:6" if mode.startswith("zlib") else "none",
            ),
        )
    handed = []
    for key, value, headers, ctx in batch:
        if ctx is not None:
            headers = {**headers, TRACE_HEADER: ctx}
        handed.append(headers or None)
        producer.send(
            "t", value, key=key, partition=0, timestamp=1.0, headers=handed[-1]
        )
    if mode == "transactional":
        producer.commit()  # flushes, then writes the control marker
    else:
        producer.flush()
    return handed


class TestCarriedSizeEqualsRecomputedSize:
    @given(entries, st.sampled_from(MODES), st.sampled_from([1, 3, 50]))
    @settings(max_examples=120, deadline=None)
    def test_every_replica_consumer_and_the_wire_agree(self, batch, mode, linger):
        cluster = MessagingCluster(num_brokers=3, clock=SimClock())
        cluster.create_topic("t", num_partitions=1, replication_factor=3)
        wire = cluster.metrics.counter(WIRE_BYTES)

        # What the wire charge was before sizes travelled: each produce call
        # pays its frame's wire bytes, or the payload of the entries as sent
        # plus one batch header when the request carries a producer id, once
        # — and once more per follower when acks=all replicates
        # synchronously.
        expected_wire = 0
        real_produce = cluster.produce

        def recording_produce(topic, partition, sent, acks="leader", **kwargs):
            nonlocal expected_wire
            frame = kwargs.get("frame")
            if frame is not None:
                ingress = frame.wire_bytes
            else:
                ingress = sum(payload_size(k, v, h) for k, v, _ts, h in sent)
                if kwargs.get("producer_id") is not None:
                    ingress += BATCH_FRAME_HEADER_BYTES
            expected_wire += ingress * (3 if acks == ACKS_ALL else 1)
            return real_produce(topic, partition, sent, acks=acks, **kwargs)

        cluster.produce = recording_produce
        handed = produce(cluster, mode, linger, batch)
        del cluster.produce
        synchronous = wire.value
        cluster.run_until_replicated()
        background = wire.value - synchronous

        leader_id = cluster.leader_of("t", 0)
        leader_log = cluster.broker(leader_id).replica(TP).log
        stored = leader_log.all_messages()
        assert len(stored) == len(batch) + (mode == "transactional")
        shares = {
            base + i: share
            for base, *_entry, frame in leader_log.batches_between(0, len(stored))
            if frame is not None
            for i, share in enumerate(frame.stored_sizes())
        }
        for broker in cluster.brokers():
            replica_log = broker.replica(TP).log
            assert [m.offset for m in replica_log.all_messages()] == [
                m.offset for m in stored
            ]
            for message in replica_log.all_messages():
                payload = payload_size(message.key, message.value, message.headers)
                assert message.size == payload
                assert message.stored_size == shares.get(
                    message.offset, payload + RECORD_FRAMING_BYTES
                )
        if mode.startswith("zlib"):
            assert len(shares) == len(stored)
        # One copy, at the send boundary, and none after it: a record holds
        # what was sent but never the sender's own dict, and a record sent
        # without headers holds the shared empty ones, framed or not.
        for message, headers in zip(stored, handed):
            if headers:
                assert message.headers == headers
                assert message.headers is not headers
            else:
                assert message.headers is EMPTY_HEADERS

        fetched = cluster.fetch(
            "t", 0, 0, max_messages=1000, isolation="read_committed"
        ).records
        assert len(fetched) == len(batch)
        for record, headers in zip(fetched, handed):
            assert record.headers == (headers or {})  # what was sent, no more
            assert record.size == stored[record.offset].size
            assert record.size == payload_size(
                record.key, record.value, dict(record.headers)
            )

        stored_bytes = sum(m.stored_size for m in stored)
        if mode == "transactional":  # acks=all: both followers paid above
            assert background == 0
        else:  # acks=leader: both followers caught up in the background
            expected_wire += 2 * stored_bytes
        expected_wire += sum(stored[r.offset].stored_size for r in fetched)
        assert wire.value == expected_wire


class Name(str):
    """A ``str`` subclass: the column must walk it, not take its ``len``."""


class Blob(bytes):
    """A ``bytes`` subclass, likewise."""


class TestInlinedColumn:
    """``compression.payload_sizes`` is the one column: the cluster's for a
    frameless batch and a frame's ``sizes``.  Per entry it sizes an ASCII
    ``str`` key, a ``bytes`` value and empty headers in place and walks the
    rest; a batch of same-shaped dicts it sizes by columns
    (``TestShapeColumn``).  Either way the column is ``payload_size`` per
    entry, for both callers."""

    def batch(self):
        keys = [None, "", "ascii-key", "né☃", Name("sub"), Name("sübé"),
                b"\xff\x00", 7, ("t", 3)]
        values = [{"k": "v", "n": 1}, b"", b"\x00raw", Blob(b"sub"),
                  bytearray(b"ba"), "é-text", None]
        headers = [{}, {"user": "é", "n": 1}, {TRACE_HEADER: TraceContext("t", 1)},
                   {"user": "x", TRACE_HEADER: TraceContext("t", 1)}]
        return [
            (key, value, 1.0, held)
            for key in keys for value in values for held in headers
        ]

    def test_column_is_the_sum_of_three_walks(self):
        batch = self.batch()
        column = [records.payload_size(k, v, h) for k, v, _ts, h in batch]
        assert column == [
            estimate_size(k) + estimate_size(v) + estimate_size(h)
            for k, v, _ts, h in batch
        ]
        assert [payload_size(k, v, h) for k, v, _ts, h in batch] == column
        assert payload_sizes(batch) == column
        cluster = MessagingCluster(num_brokers=1, clock=SimClock())
        cluster.create_topic("t", num_partitions=1, replication_factor=1)
        cluster.produce("t", 0, batch)
        stored = cluster.broker(0).replica(TP).log.all_messages()
        assert [m.size for m in stored] == column
        assert [m.stored_size for m in stored] == [
            size + RECORD_FRAMING_BYTES for size in column
        ]
        assert cluster.metrics.counter(WIRE_BYTES).value == sum(column)

    def test_a_frame_carries_the_column(self):
        batch = self.batch()
        column = [records.payload_size(k, v, h) for k, v, _ts, h in batch]
        frame = compress_entries(batch, "zlib", 6)
        assert frame.sizes == tuple(column)
        assert frame.payload_bytes == sum(column)


dict_keys = st.one_of(
    text,
    st.builds(Name, text),
    st.sampled_from([TRACE_HEADER, Name(TRACE_HEADER), "__trace2", "_trace"]),
    st.integers(-2, 2), st.booleans(), st.floats(-2, 2), st.none(),
)
walked = st.recursive(
    st.one_of(
        scalars, st.binary(max_size=4).map(bytearray),
        st.binary(max_size=4).map(memoryview),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(dict_keys, inner, max_size=4),
    ),
    max_leaves=12,
)


class TestEstimateSizeFastPaths:
    @given(st.one_of(values, keys, user_headers))
    @settings(max_examples=300, deadline=None)
    def test_fast_path_equals_isinstance_chain(self, value):
        assert estimate_size(value) == reference_size(value)

    @given(walked)
    @settings(max_examples=300, deadline=None)
    def test_any_key_type_and_bytes_like_equal_isinstance_chain(self, value):
        """``str``/int/bool/float/None keys (``True``, ``1`` and ``1.0`` are
        charged 1, 8 and 8), ``str``-subclass keys, ``__trace`` at any depth,
        ``bytearray`` and ``memoryview`` leaves."""
        assert estimate_size(value) == reference_size(value)

    def test_subclasses_take_the_slow_path_to_the_same_answer(self):
        class Text(str):
            pass

        class Count(int):
            pass

        class Table(dict):
            pass

        plain = {"né☃": "𝄞x", "n": 7, "f": 0.5, "b": True, "l": ["é", 1, None]}
        exotic = Table(
            {Text("né☃"): Text("𝄞x"), "n": Count(7), "f": 0.5, "b": True,
             "l": ["é", Count(1), None]}
        )
        assert estimate_size(exotic) == estimate_size(plain) == reference_size(plain)
        assert _estimate_size_slow(plain) == estimate_size(plain)
        for leaf in ("é☃", Text("é☃"), 3, Count(3), True, 2.5, b"\xff\x00", None):
            assert estimate_size(leaf) == reference_size(leaf)
            if leaf is not None:
                assert _estimate_size_slow(leaf) == reference_size(leaf)

    def test_trace_header_is_skipped_at_every_level(self):
        ctx = TraceContext("trace", 1)
        bare = {"h": "é", "n": 1}
        traced = {**bare, TRACE_HEADER: ctx}
        assert estimate_size(traced) == estimate_size(bare) == reference_size(bare)
        assert _estimate_size_slow(traced) == estimate_size(bare)
        assert estimate_size({"outer": traced}) == estimate_size({"outer": bare})


class Table(dict):
    """A ``dict`` subclass: the shape path leaves it to the walk."""


class Alias:
    """Not a ``str``, yet it hashes and compares equal to one."""

    def __init__(self, text):
        self.text = text

    def __eq__(self, other):
        return self.text == other

    def __hash__(self):
        return hash(self.text)


#: What a slot of a drawn shape holds: a leaf kind or a nested shape.
LEAVES = {
    "str": text,
    "int": st.integers(-(2**70), 2**70),
    "float": st.floats(allow_nan=False),
    "bool": st.booleans(),
    "none": st.none(),
    "bytes": st.binary(max_size=6),
    "list": st.lists(scalars, max_size=3),
}
leaf_kinds = st.sampled_from(sorted(LEAVES))
field_names = text.filter(lambda name: name != TRACE_HEADER)
shapes = st.recursive(
    st.dictionaries(field_names, leaf_kinds, max_size=5),
    lambda inner: st.dictionaries(
        field_names, st.one_of(leaf_kinds, inner), max_size=5
    ),
    max_leaves=10,
)
headers_column = st.one_of(
    st.none(), st.just(EMPTY_HEADERS), user_headers,
    st.builds(
        lambda held, ctx: {**held, TRACE_HEADER: ctx},
        user_headers, st.builds(TraceContext, text, st.integers(0, 99)),
    ),
)
PERTURBATIONS = (
    "swap", "non_ascii", "missing", "extra", "trace", "rename", "subclass", "nested"
)


def instances(shape):
    return st.fixed_dictionaries({
        name: instances(kind) if isinstance(kind, dict) else LEAVES[kind]
        for name, kind in shape.items()
    })


def swapped(value):
    """A value of a type the slot holding ``value`` may not take."""
    if type(value) is str:
        return st.one_of(
            st.integers(-9, 9), st.binary(max_size=4), st.none(), st.builds(Name, text)
        )
    if type(value) in (int, float):
        return st.one_of(st.booleans(), st.floats(-2, 2), st.integers(-9, 9), text)
    if type(value) is dict:
        return st.lists(scalars, max_size=2)
    return text


def perturb(draw, record):
    """``record`` with one change that may break its batch's shape."""
    how = draw(st.sampled_from(PERTURBATIONS))
    if how == "subclass":
        return Table(record)
    if how == "trace":
        return {**record, TRACE_HEADER: draw(st.one_of(trace_contexts, scalars))}
    if how == "extra" or not record:
        extra = draw(dict_keys.filter(lambda key: key not in record))
        return {**record, extra: draw(scalars)}
    name = draw(st.sampled_from(list(record)))
    if how == "missing":
        return {k: v for k, v in record.items() if k != name}
    if how == "rename":
        return {Name(k) if k == name else k: v for k, v in record.items()}
    if how == "nested" and type(record[name]) is dict:
        return {**record, name: perturb(draw, record[name])}
    if how == "non_ascii":
        return {**record, name: draw(st.text("é☃𝄞\udcff", min_size=1, max_size=4))}
    return {**record, name: draw(swapped(record[name]))}


@st.composite
def shaped_batches(draw):
    """Values of one drawn shape, at most one of them perturbed, beside key
    and header columns of every type."""
    shape = draw(shapes)
    values = draw(st.lists(instances(shape), min_size=1, max_size=12))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(values) - 1))
        values[at] = perturb(draw, values[at])
    return [(draw(keys), value, 1.0, draw(headers_column)) for value in values]


class TestShapeColumn:
    """A batch of same-shaped dicts is sized by columns
    (``compression._shape_sizes``).  Whatever one record does to the shape
    (a swapped type, a missing, extra, renamed or ``__trace`` key, non-ASCII
    text, a changed nested shape, a ``dict`` subclass) the column is the
    reference rule per entry, and the cluster stores and charges it."""

    @given(shaped_batches())
    @settings(max_examples=examples(200), deadline=None)
    def test_column_is_the_reference_per_entry(self, batch):
        column = [payload_size(k, v, h) for k, v, _ts, h in batch]
        assert payload_sizes(batch) == column
        assert compress_entries(batch, "zlib", 6).sizes == tuple(column)
        cluster = MessagingCluster(num_brokers=1, clock=SimClock())
        cluster.create_topic("t", num_partitions=1, replication_factor=1)
        cluster.produce("t", 0, batch)
        stored = cluster.broker(0).replica(TP).log.all_messages()
        assert [m.size for m in stored] == column
        assert cluster.metrics.counter(WIRE_BYTES).value == sum(column)

    def test_a_same_shaped_batch_walks_nothing(self, monkeypatch):
        walked = []

        def counting(value):
            walked.append(value)
            return estimate_size(value)

        monkeypatch.setattr(compression, "estimate_size", counting)
        batch = [
            (f"k{i}", {"seq": i, "page": f"/p/{i}", "at": i / 2,
                       "props": {"pos": i % 3, "ch": "wéb\udcff"}}, 1.0, EMPTY_HEADERS)
            for i in range(20)
        ]
        column = [payload_size(k, v, h) for k, v, _ts, h in batch]
        assert payload_sizes(batch) == column
        assert walked == []
        batch[7][1]["props"]["pos"] = True  # a bool is not a number
        column = [payload_size(k, v, h) for k, v, _ts, h in batch]
        assert payload_sizes(batch) == column
        assert len(walked) == 20  # only the nested column is walked

    def test_an_equal_key_object_is_charged_as_the_key_it_matches(self):
        """The one input a shape cannot see (``_shape_sizes`` names it): a
        key that is not a ``str`` but hashes and compares equal to one of
        the first record's keys is charged as that key; the walk charges
        the object itself."""
        alias = Alias("seq")
        batch = [(None, {"seq": 1}, 1.0, None), (None, {alias: 1}, 1.0, None)]
        assert payload_sizes(batch) == [3 + 2 + 8, 3 + 2 + 8]
        assert records.payload_size(None, {alias: 1}, None) == (
            sys.getsizeof(alias) + 2 + 8
        )
