"""E10 — §5: deployment-shape statistics at 1:1000 scale.

"[The messaging layer] ingests over 50 TB of input data and produces over
250 TB of output data daily (including replication) ... runs in 5
co-location centers ... 300 machines in total that host over 25,000 topics
and 200,000 partitions.  The processing layer ... spans across 8 clusters
with over 60 machines."

We build a scaled-down Liquid deployment (6 brokers, mixed workloads from
all four §5.1 use cases, replication factor 3, a tier of derived feeds,
plus a second co-location center fed by a WAN mirror) and check that the
*shape* holds: the bytes-out-to-bytes-in amplification is ~5x (3x
replication + ~2x derived/consumed data), and the cross-colo mirror keeps
lag at zero.

Machines are the one thing a simulation cannot scale down honestly, but
*density* is: the same deployment is built a second time beside an idle feed
tier that brings each of the 6 brokers to the paper's ~2 000 replicas, and
the table reports what a tick of the settled cluster costs at both densities
— as a count of Python calls, so the committed table regenerates byte for
byte.
"""

import cProfile

import pytest

from repro.core.etl import GroupCountTask, MapTask, RouterTask
from repro.core.liquid import Liquid
from repro.messaging.mirror import MirrorMaker
from repro.processing.job import JobConfig, StoreConfig
from repro.workloads.callgraph import CallGraphEventGenerator
from repro.workloads.oplogs import OperationalEventGenerator
from repro.workloads.profiles import ProfileUpdateGenerator
from repro.workloads.rum import RumEventGenerator

from reporting import attach, format_table, publish

BROKERS = 6
EVENTS_PER_SOURCE = 800

#: The idle feed tier: the paper's 25k topics / 200k partitions on 300
#: machines is 500 topics of 8 partitions on 6.
IDLE_FEEDS = 500
IDLE_FEED_PARTITIONS = 8

#: Paper's deployment numbers (the 1:1 reference).
PAPER = {
    "ingest_tb_daily": 50,
    "output_tb_daily": 250,
    "machines_messaging": 300,
    "machines_processing": 60,
    "topics": 25_000,
    "partitions": 200_000,
}
PAPER_REPLICAS_PER_BROKER = PAPER["partitions"] * 3 // PAPER["machines_messaging"]


def build_deployment(idle_feeds: int = 0) -> tuple[Liquid, dict]:
    liquid = Liquid(num_brokers=BROKERS, host_cores=16)
    for i in range(idle_feeds):
        liquid.create_feed(
            f"idle-{i:03d}", partitions=IDLE_FEED_PARTITIONS, replication_factor=3
        )
    source_feeds = {
        "rum-events": 4,
        "rest-spans": 4,
        "profile-updates": 2,
        "ops-events": 2,
    }
    for feed, partitions in source_feeds.items():
        liquid.create_feed(feed, partitions=partitions, replication_factor=3)

    liquid.submit_job(
        JobConfig(name="rum-by-cdn", inputs=["rum-events"],
                  task_factory=lambda: GroupCountTask(
                      "cdn-counts", lambda v: v["cdn"]),
                  stores=[StoreConfig("counts")]),
        outputs=["cdn-counts"],
    )
    liquid.submit_job(
        JobConfig(name="span-stats", inputs=["rest-spans"],
                  task_factory=lambda: GroupCountTask(
                      "service-counts", lambda v: v["service"]),
                  stores=[StoreConfig("counts")]),
        outputs=["service-counts"],
    )
    liquid.submit_job(
        JobConfig(name="profile-clean", inputs=["profile-updates"],
                  task_factory=lambda: MapTask("profiles-clean")),
        outputs=["profiles-clean"],
    )
    liquid.submit_job(
        JobConfig(name="ops-route", inputs=["ops-events"],
                  task_factory=lambda: RouterTask(
                      lambda v: {"metric": "ops-metrics", "log": "ops-logs"}.get(
                          v["type"]))),
        outputs=["ops-metrics", "ops-logs"],
    )

    producer = liquid.producer()
    ingest_bytes = 0
    from repro.common.records import estimate_size

    for event in RumEventGenerator(seed=1).events(EVENTS_PER_SOURCE):
        producer.send("rum-events", event, key=event["user"])
        ingest_bytes += estimate_size(event)
    spans = CallGraphEventGenerator(seed=2)
    count = 0
    for span in spans.events(EVENTS_PER_SOURCE):
        if count >= EVENTS_PER_SOURCE:
            break
        producer.send("rest-spans", span, key=span["request_id"])
        ingest_bytes += estimate_size(span)
        count += 1
    profiles = ProfileUpdateGenerator(users=EVENTS_PER_SOURCE, seed=3)
    for profile in profiles.snapshot():
        producer.send("profile-updates", profile, key=profile["user"])
        ingest_bytes += estimate_size(profile)
    for event in OperationalEventGenerator(seed=4).events(EVENTS_PER_SOURCE):
        producer.send("ops-events", event, key=event["host"])
        ingest_bytes += estimate_size(event)

    liquid.process_available()
    liquid.tick(1.0)

    # Second co-location center: derived feeds mirrored over the WAN for
    # geo-local consumption (§5's multi-colo layout, at 2-colo scale).
    colo2 = Liquid(num_brokers=3, clock=liquid.clock)
    mirror = MirrorMaker(
        liquid.cluster, colo2.cluster,
        topics=["cdn-counts", "service-counts", "profiles-clean"],
        name="colo1-to-colo2",
    )
    mirrored = mirror.run_until_synced()
    return liquid, {
        "ingest_bytes": ingest_bytes,
        "mirrored_records": mirrored,
        "mirror_lag": mirror.lag(),
        "colo2": colo2,
    }


def idle_tick_calls(liquid: Liquid) -> int:
    """Calls (Python and builtin, cProfile's count) one tick of the settled
    deployment makes: nothing to replicate, no maintenance sweep due."""
    cluster = liquid.cluster
    cluster.tick(cluster.maintenance_interval)  # the sweep is behind us
    for _ in range(10):
        if not cluster.replication.pending():
            break
        cluster.tick()
    profiler = cProfile.Profile()
    profiler.enable()
    cluster.tick()
    profiler.disable()
    return sum(entry.callcount for entry in profiler.getstats())


def run_experiment() -> dict:
    liquid, io = build_deployment()
    stats = liquid.stats()
    dense, dense_io = build_deployment(IDLE_FEEDS)
    dense_stats = dense.stats()
    dense_per_broker = dense_stats["replicas"] // dense_stats["brokers"]
    tick_calls = idle_tick_calls(liquid)
    dense_tick_calls = idle_tick_calls(dense)
    still_pending = dense.cluster.replication.pending()
    stored = stats["stored_bytes"]  # all replicas, all feeds
    amplification = stored / io["ingest_bytes"]
    partitions_per_broker = stats["replicas"] / stats["brokers"]
    rows = [
        ["brokers (machines)", stats["brokers"], PAPER["machines_messaging"]],
        ["topics (feeds + internal)", stats["topics"], PAPER["topics"]],
        ["partition replicas", stats["replicas"], PAPER["partitions"] * 3],
        ["source feeds", stats["source_feeds"], "-"],
        ["derived feeds", stats["derived_feeds"], "-"],
        ["processing jobs", stats["jobs"], "-"],
        ["processing tasks", stats["processing_tasks"], "-"],
        ["bytes ingested", io["ingest_bytes"], "50 TB/day"],
        ["bytes stored incl. replication", stored, "250 TB/day out"],
        ["output/input amplification", f"{amplification:.1f}x", "~5x"],
        ["replicas per broker", f"{partitions_per_broker:.0f}",
         PAPER_REPLICAS_PER_BROKER],
        ["replicas per broker, with the idle feed tier", dense_per_broker,
         PAPER_REPLICAS_PER_BROKER],
        [f"calls per idle tick at {partitions_per_broker:.0f} replicas/broker",
         tick_calls, "-"],
        [f"calls per idle tick at {dense_per_broker} replicas/broker",
         dense_tick_calls, "-"],
        ["partitions replication still watches", still_pending, "-"],
        ["co-location centers", 2, 5],
        ["records mirrored cross-colo", io["mirrored_records"], "-"],
        ["mirror lag after sync", io["mirror_lag"], "0"],
    ]
    table = format_table(
        "E10  Scaled-down deployment shape vs. the paper's 5 numbers",
        ["statistic", "this run (1:1000 scale)", "paper (LinkedIn)"],
        rows,
        notes=[
            "paper: 50 TB in / 250 TB out daily including replication = "
            "5x amplification; 25k topics / 200k partitions on 300 machines",
            f"idle feed tier: {IDLE_FEEDS} feeds x {IDLE_FEED_PARTITIONS} "
            "partitions, rf=3, beside the same four workloads; calls are "
            "cProfile's count (Python + builtin) for one tick of the settled "
            "cluster, no maintenance sweep due",
        ],
    )
    publish("e10_deployment", table)
    return {
        "amplification": amplification,
        "stats": stats,
        "mirrored_records": io["mirrored_records"],
        "mirror_lag": io["mirror_lag"],
        "tick_calls": tick_calls,
        "dense": {
            "stats": dense_stats,
            "amplification": dense_stats["stored_bytes"] / dense_io["ingest_bytes"],
            "tick_calls": dense_tick_calls,
            "offline_partitions": dense.cluster.controller.offline_partitions(),
            "still_pending": still_pending,
        },
    }


@pytest.fixture(scope="module")
def metrics() -> dict:
    return run_experiment()


class TestE10Shape:
    def test_amplification_matches_paper_ratio(self, metrics):
        # Paper: 250/50 = 5x out/in (incl. replication). With rf=3 plus one
        # derived tier we expect amplification in the 3.5-8x band.
        assert 3.5 < metrics["amplification"] < 8.0

    def test_every_use_case_produced_derived_data(self, metrics):
        assert metrics["stats"]["derived_feeds"] >= 5
        assert metrics["stats"]["jobs"] == 4
        assert metrics["stats"]["source_feeds"] == 4

    def test_all_partitions_have_leaders(self):
        liquid, _io = build_deployment()
        assert liquid.cluster.controller.offline_partitions() == []

    def test_cross_colo_mirror_caught_up(self, metrics):
        assert metrics["mirrored_records"] > 0
        assert metrics["mirror_lag"] == 0

    def test_same_deployment_at_the_papers_density(self, metrics):
        dense = metrics["dense"]
        per_broker = dense["stats"]["replicas"] // dense["stats"]["brokers"]
        assert per_broker >= PAPER_REPLICAS_PER_BROKER
        # The idle tier stores nothing and gets in nobody's way.
        assert dense["amplification"] == metrics["amplification"]
        assert dense["offline_partitions"] == []
        assert dense["still_pending"] == 0

    def test_an_idle_tick_costs_the_same_at_both_densities(self, metrics):
        assert metrics["dense"]["tick_calls"] == metrics["tick_calls"]


@pytest.mark.benchmark(group="e10")
def test_e10_deployment_kernel(benchmark):
    def build():
        _liquid, io = build_deployment()
        return io["ingest_bytes"]

    benchmark.pedantic(build, rounds=1, iterations=1)
    attach(benchmark, scale="1:1000")
