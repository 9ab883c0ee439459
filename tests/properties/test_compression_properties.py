"""Properties of the compressed batch wire format.

Two invariants:

* **Round-trip**: ``decompress(compress(batch)) == batch`` for every codec
  and level, for arbitrary picklable keys/values/headers — compression is
  lossless by construction, not by luck.
* **Pipeline transparency**: a compressed produce -> replicate -> consume
  pass delivers exactly the records (values, keys, offsets, timestamps,
  logical sizes) of the identical uncompressed pass.  Compression changes
  byte accounting, never data.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.clock import SimClock
from repro.common.compression import (
    compress_entries,
    decompress_entries,
    parse_compression,
)
from repro.common.records import RESERVED_HEADER_PREFIX, TopicPartition
from repro.messaging.cluster import MessagingCluster
from repro.messaging.config import ConsumerConfig, ProducerConfig
from repro.messaging.consumer import Consumer
from repro.messaging.producer import Producer

keys = st.one_of(
    st.none(),
    st.text(max_size=12),
    st.binary(max_size=12),
    st.integers(),
)
values = st.one_of(
    st.text(max_size=64),
    st.integers(),
    st.floats(allow_nan=False),
    st.dictionaries(st.text(max_size=6), st.integers(), max_size=4),
    st.lists(st.text(max_size=8), max_size=6),
)
# Client header keys: the ``__`` namespace is the system's (the frame lifts
# ``__trace`` out of band) and is rejected at ``Producer.send``.
header_keys = st.text(min_size=1, max_size=8).filter(
    lambda name: not name.startswith(RESERVED_HEADER_PREFIX)
)
headers = st.dictionaries(header_keys, st.text(max_size=10), max_size=3)
batches = st.lists(
    st.tuples(
        keys, values, st.floats(min_value=0, max_value=1e6), headers
    ),
    min_size=1,
    max_size=20,
)
codec_specs = st.sampled_from(
    ["zlib", "zlib:1", "zlib:3", "zlib:6", "zlib:9"]
)


class TestRoundTrip:
    @given(batch=batches, spec=codec_specs)
    @settings(max_examples=60, deadline=None)
    def test_decompress_inverts_compress(self, batch, spec):
        codec, level = parse_compression(spec)
        frame = compress_entries(batch, codec, level)
        assert frame is not None
        assert frame.count == len(batch)
        assert decompress_entries(frame) == batch

    @given(batch=batches)
    @settings(max_examples=30, deadline=None)
    def test_levels_agree_on_content(self, batch):
        """Every level stores the same records; only the byte count moves."""
        frames = [
            compress_entries(batch, "zlib", level) for level in (1, 6, 9)
        ]
        contents = [decompress_entries(f) for f in frames]
        assert contents[0] == contents[1] == contents[2] == batch
        assert all(f.payload_bytes == frames[0].payload_bytes for f in frames)


def _run_pipeline(records, linger, compression):
    cluster = MessagingCluster(num_brokers=3, clock=SimClock())
    cluster.create_topic("t", num_partitions=2, replication_factor=3)
    producer = Producer(
        cluster,
        config=ProducerConfig(
            compression=compression,
            linger_messages=linger,
            retry_jitter_seed=0,
        ),
    )
    for key, value in records:
        producer.send("t", value, key=key)
    producer.flush()
    cluster.run_until_replicated()
    consumer = Consumer(
        cluster, config=ConsumerConfig(auto_offset_reset="earliest")
    )
    consumer.assign([TopicPartition("t", 0), TopicPartition("t", 1)])
    out = []
    while True:
        batch = consumer.poll()
        if not batch:
            break
        out.extend(batch)
    return [
        (r.topic, r.partition, r.offset, r.key, r.value, r.timestamp, r.size)
        for r in out
    ]


pipeline_records = st.lists(
    st.tuples(
        st.sampled_from(["a", "bb", "ccc", None]),
        st.one_of(st.text(max_size=40), st.integers()),
    ),
    min_size=1,
    max_size=30,
)


class TestPipelineTransparency:
    @given(
        records=pipeline_records,
        linger=st.sampled_from([1, 4, 8]),
        spec=st.sampled_from(["zlib:1", "zlib:6", "zlib:9"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_compressed_pipeline_matches_uncompressed(
        self, records, linger, spec
    ):
        baseline = _run_pipeline(records, linger, "none")
        compressed = _run_pipeline(records, linger, spec)
        assert compressed == baseline
