"""Property: tracing observes, it never steers.

A traced run must be indistinguishable from an untraced run in everything
except the retained spans: same delivered records (modulo the reserved
``__trace`` header), same simulated clock, same metrics.  The mechanism
under test is the ``TRACE_HEADER`` exclusion in ``estimate_size`` — the
header adds zero accounted bytes, so latencies, quotas, and page-cache
charges cannot shift.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.records import TRACE_HEADER, TopicPartition
from repro.core.liquid import Liquid
from repro.messaging.config import ProducerConfig
from repro.observability.trace import Tracer, tracing
from repro.processing.job import JobConfig


class _EnrichTask:
    def process(self, record, collector):
        collector.send(
            "derived", {"v": record.value, "k": record.key}, key=record.key
        )


def _run(records, linger, traced, sample_rate, compression="none", headers="none"):
    """One produce -> job -> consume pass; returns the observable outcome.

    ``headers`` is what each send carries: ``"none"``, a ``"fresh"`` dict
    per record, or one dict ``"reused"`` by every send.
    """
    liquid = Liquid(num_brokers=3)
    liquid.create_feed("source", partitions=2)
    liquid.submit_job(
        JobConfig(name="enrich", inputs=["source"], task_factory=_EnrichTask),
        outputs=["derived"],
    )
    producer = liquid.producer(
        config=ProducerConfig(
            linger_messages=linger,
            retry_jitter_seed=0,
            compression=compression,
        )
    )

    def workload():
        shared = {"origin": "edge"}
        for key, value in records:
            sent = {"none": None, "fresh": dict(shared), "reused": shared}[headers]
            producer.send("source", value, key=key, headers=sent)
        producer.flush()
        liquid.cluster.run_until_replicated()
        liquid.process_available()
        liquid.cluster.run_until_replicated()
        consumer = liquid.consumer()
        consumer.assign(
            [TopicPartition("derived", 0), TopicPartition("derived", 1)]
        )
        out = []
        while True:
            batch = consumer.poll()
            if not batch:
                break
            out.extend(batch)
        return out

    if traced:
        with tracing(Tracer(sample_rate=sample_rate)):
            consumed = workload()
    else:
        consumed = workload()
    return {
        "records": [
            (
                r.topic,
                r.partition,
                r.offset,
                r.key,
                r.value,
                r.timestamp,
                r.size,
                {k: v for k, v in r.headers.items() if k != TRACE_HEADER},
            )
            for r in consumed
        ],
        "clock": liquid.cluster.clock.now(),
        "metrics": liquid.cluster.metrics.snapshot(),
    }


record_lists = st.lists(
    st.tuples(
        st.sampled_from(["a", "bb", "ccc", "dddd"]),
        st.integers(min_value=0, max_value=999),
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=20, deadline=None)
@given(
    records=record_lists,
    linger=st.sampled_from([1, 3]),
    sample_rate=st.sampled_from([1, 2, 5]),
)
def test_traced_run_is_byte_identical_to_untraced(records, linger, sample_rate):
    baseline = _run(records, linger, traced=False, sample_rate=1)
    traced = _run(records, linger, traced=True, sample_rate=sample_rate)
    assert traced == baseline


@settings(max_examples=10, deadline=None)
@given(
    records=record_lists,
    linger=st.sampled_from([1, 3]),
    sample_rate=st.sampled_from([1, 2, 5]),
    headers=st.sampled_from(["none", "fresh", "reused"]),
)
def test_traced_run_is_byte_identical_with_compression(
    records, linger, sample_rate, headers
):
    """Tracing transparency survives the compressed wire format.

    Trace contexts ride *outside* the compressed frame payload, so arming
    both tracing and compression must still leave clock, metrics, and
    delivered records identical to the untraced compressed run — whatever
    headers the sends carry, one dict reused by every send included (a
    frame's bytes must not depend on which records share a headers object).
    """
    baseline = _run(
        records, linger, traced=False, sample_rate=1, compression="zlib:6",
        headers=headers,
    )
    traced = _run(
        records, linger, traced=True, sample_rate=sample_rate,
        compression="zlib:6", headers=headers,
    )
    assert traced == baseline


@settings(max_examples=10, deadline=None)
@given(records=record_lists, sample_rate=st.sampled_from([1, 3]))
def test_tracing_is_idempotent_across_runs(records, sample_rate):
    """Two traced runs of the same workload agree with each other too."""
    first = _run(records, 1, traced=True, sample_rate=sample_rate)
    second = _run(records, 1, traced=True, sample_rate=sample_rate)
    assert first == second
