"""Property: histogram windows cut by marks equal the sample lists they replaced.

A :class:`Histogram` is one list of observations in arrival order.  The
telemetry exporter cuts its windows by marking a histogram's ``count`` at
each export and summarising ``snapshot(since=mark)`` next time, exactly as
it marks a counter by its ``value``.  Before that, every histogram sorted
its list in place for percentiles and kept a second list of the
observations made since the last export, which the exporter took as the
window and dropped again after its own sends.  That code lives on as
:class:`~tests.reference.metrics.ReferenceHistogram`.

One random schedule — observe, observe_many, export cycles, percentile and
snapshot reads, counter increments and ``registry.reset()`` — runs through a
real :class:`TelemetryExporter` and through the reference.  Every exported
``core.demo.*`` record and every read must be the reference's, bit for bit
(compared by ``repr``); a counter's delta after a reset counts from zero.
No histogram other than the schedule's may ever be exported: the exporter's
own sends move the cluster's latency histograms, and it absorbs them.
"""

from hypothesis import given, settings, strategies as st

from repro.messaging.cluster import MessagingCluster
from repro.observability.telemetry import TELEMETRY_METRICS_FEED, TelemetryExporter
from tests.reference import examples
from tests.reference.metrics import ReferenceHistogram, summarize

HISTOGRAMS = ("core.demo.a", "core.demo.b")
COUNTER = "core.demo.events"

# Signed zeros are folded to +0.0: which of two equal zeros a sort puts
# first is not part of either contract.
values = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
).map(lambda v: v + 0.0)
which = st.sampled_from(range(len(HISTOGRAMS)))
steps = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), which, values),
        st.tuples(st.just("observe_many"), which, st.lists(values, max_size=6)),
        st.tuples(st.just("publish")),
        st.tuples(st.just("percentile"), which, st.sampled_from([0, 25, 50, 99, 100])),
        st.tuples(st.just("snapshot"), which, st.integers(0, 12)),
        st.tuples(st.just("increment"), st.integers(1, 5)),
        st.tuples(st.just("reset")),
    ),
    max_size=40,
)


class Schedule:
    """One cluster with an exporter, and the reference beside it."""

    def __init__(self):
        self.cluster = MessagingCluster(num_brokers=1)
        self.exporter = TelemetryExporter(self.cluster)
        metrics = self.cluster.metrics
        self.histograms = [metrics.histogram(name) for name in HISTOGRAMS]
        self.counter = metrics.counter(COUNTER)
        self.references = [ReferenceHistogram() for _ in HISTOGRAMS]
        self.arrivals = [[] for _ in HISTOGRAMS]  # for snapshot(since=k)
        self.counter_mark = 0.0
        self.exported = 0  # metric records read back so far

    def observe(self, i, value):
        self.histograms[i].observe(value)
        self.references[i].observe(value)
        self.arrivals[i].append(value)

    def observe_many(self, i, batch):
        self.histograms[i].observe_many(batch)
        for value in batch:
            self.references[i].observe(value)
        self.arrivals[i].extend(batch)

    def percentile(self, i, pct):
        assert repr(self.histograms[i].percentile(pct)) == repr(
            self.references[i].percentile(pct)
        )

    def snapshot(self, i, since):
        assert repr(self.histograms[i].snapshot()) == repr(
            self.references[i].snapshot()
        )
        tail = self.arrivals[i][since:]
        expected = summarize(tail)
        assert repr(self.histograms[i].snapshot(since=since)) == repr(expected)

    def increment(self, amount):
        self.counter.increment(amount)

    def reset(self):
        self.cluster.metrics.reset()
        for reference, arrivals in zip(self.references, self.arrivals):
            reference.reset()
            arrivals.clear()
        self.counter_mark = 0.0

    def publish(self):
        now = self.cluster.clock.now()
        expected = []
        value = self.counter.value
        if value != self.counter_mark:
            expected.append({
                "metric": COUNTER, "kind": "counter",
                "delta": value - self.counter_mark, "value": value,
                "timestamp": now,
            })
            self.counter_mark = value
        for name, reference in zip(HISTOGRAMS, self.references):
            window = reference.take_window()
            if window["count"]:
                expected.append({
                    "metric": name, "kind": "histogram", "timestamp": now,
                    **window,
                })
        expected.sort(key=lambda record: record["metric"])  # the exporter's walk
        self.exporter.publish_once()
        for reference in self.references:
            reference.drop_window()  # the old absorb step
        records = self.read_new_records()
        for record in records:
            if record["kind"] == "histogram":
                assert record["metric"] in HISTOGRAMS, record
        demo = [r for r in records if r["metric"].startswith("core.demo.")]
        assert repr(demo) == repr(expected)

    def read_new_records(self):
        # Straight from the leader's log: a fetch would move the cluster's
        # fetch-latency histogram, which the next cycle would rightly export.
        leader = self.cluster.leader_of(TELEMETRY_METRICS_FEED, 0)
        log = self.cluster.broker(leader).replica((TELEMETRY_METRICS_FEED, 0)).log
        stored = log.all_messages()[self.exported:]
        self.exported += len(stored)
        return [record.value for record in stored]


class TestMarkedWindowsMatchSampleLists:
    @settings(max_examples=examples(60), deadline=None)
    @given(schedule=steps)
    def test_exports_and_reads_match_the_reference(self, schedule):
        model = Schedule()
        for op, *args in schedule:
            getattr(model, op)(*args)
        model.publish()
