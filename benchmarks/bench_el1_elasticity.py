"""EL1 — §3.2, §4.4: lag-driven scale-out drains a spike, then scales back.

The same standing spike is drained three ways: by an
:class:`ElasticJobController` bounded to 1..4 containers, and pinned at one
(the submission-time sizing) and at four containers.  In simulated time the
elastic arm must drain at least 2x faster than one container, scale out
under the backlog and back below four once it drains, and emit the same
records (offset, key, value, timestamp) as four containers: elasticity
changes *when* records are processed, never *what*.

4 000 records over 4 partitions, rf=3; 50 messages of CPU budget per 0.25 s
quantum per container.
"""

import functools

from repro.common.clock import SimClock
from repro.elasticity import SCALE_IN, SCALE_OUT, ElasticJobController, ScalingPolicy
from repro.messaging.cluster import MessagingCluster
from repro.messaging.producer import Producer
from repro.processing.job import JobConfig, JobRunner

from reporting import format_table, publish

MESSAGES = 4000
PARTITIONS = 4
CPU_COST = 0.005   # 50 messages per 0.25 s quantum per container
QUANTUM = 0.25


class PassThrough:
    def process(self, record, collector):
        collector.send("out", record.value, key=record.key,
                       partition=record.partition, timestamp=record.timestamp)


def run_arm(lo: int, hi: int) -> dict:
    """Drain the spike with containers bounded to [lo, hi]."""
    cluster = MessagingCluster(num_brokers=3, clock=SimClock())
    for topic in ("events", "out"):
        cluster.create_topic(topic, num_partitions=PARTITIONS,
                             replication_factor=3)
    producer = Producer(cluster)
    for i in range(MESSAGES):
        producer.send("events", f"v{i}", key=f"k{i}", partition=i % PARTITIONS)
    producer.flush()
    cluster.run_until_replicated()
    runner = JobRunner(
        JobConfig(name="drain", inputs=["events"], task_factory=PassThrough,
                  cpu_cost_per_message=CPU_COST),
        cluster,
    )
    policy = ScalingPolicy(min_containers=lo, max_containers=hi,
                           scale_out_lag=100.0, scale_in_lag=10.0,
                           cooldown=1.0)
    controller = ElasticJobController(runner, policy, quantum=QUANTUM)
    start = cluster.clock.now()
    controller.run_until_drained()
    drain_s = cluster.clock.now() - start
    cluster.run_until_replicated()
    actions = [event.action for event in controller.events]
    return {
        "containers": f"{lo}..{hi}",
        "drain_s": drain_s,
        "scale_outs": actions.count(SCALE_OUT),
        "scale_ins": actions.count(SCALE_IN),
        "final_containers": controller.containers,
        "timeline": controller.timeline(),
        "output": [
            [(r.offset, r.key, r.value, r.timestamp)
             for r in cluster.fetch("out", p, 0, 1_000_000).records]
            for p in range(PARTITIONS)
        ],
    }


@functools.cache  # every shape test reads the same run
def run_experiment() -> dict:
    arms = {"elastic": run_arm(1, PARTITIONS), "fixed min": run_arm(1, 1),
            "fixed max": run_arm(PARTITIONS, PARTITIONS)}
    speedup = arms["fixed min"]["drain_s"] / arms["elastic"]["drain_s"]
    table = format_table(
        "EL1  Elastic scale-out: drain a standing spike (simulated)",
        ["arm", "containers", "drain (s)", "records/s", "scale-outs",
         "scale-ins", "final containers"],
        [[name, arm["containers"], f"{arm['drain_s']:.10g}",
          f"{MESSAGES / arm['drain_s']:.0f}", arm["scale_outs"],
          arm["scale_ins"], arm["final_containers"]]
         for name, arm in arms.items()],
        notes=[
            f"{MESSAGES} msgs over {PARTITIONS} partitions, "
            f"{QUANTUM / CPU_COST:.0f} msgs/quantum/container",
            f"elastic vs fixed min: {speedup:.2f}x faster",
            *(f"elastic timeline: {line}" for line in arms["elastic"]["timeline"]),
            "paper: a job's containers are sized at submission (3.2, 4.4); "
            "the lag-driven controller is an extension",
        ],
    )
    publish("el1_elasticity", table)
    return {**arms, "speedup": speedup}


class TestEL1Shape:
    def test_elastic_drains_2x_faster(self):
        assert run_experiment()["speedup"] >= 2.0

    def test_scales_out_under_load_and_back_after(self):
        elastic = run_experiment()["elastic"]
        assert elastic["scale_outs"] >= 1
        assert elastic["scale_ins"] >= 1
        assert elastic["final_containers"] < PARTITIONS

    def test_output_identical_to_fixed_max(self):
        results = run_experiment()
        assert results["elastic"]["output"] == results["fixed max"]["output"]
