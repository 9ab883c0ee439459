"""Elasticity layer: lag-driven autoscaling.

The feedback loop *Reactive Liquid* (arXiv:1902.05968) proposes on top of
Liquid's static resource isolation: sense consumer lag
(:class:`LagMonitor`), decide with hysteresis (:class:`ScalingPolicy`),
and act by growing/shrinking a job's task containers at checkpoint
boundaries (:class:`ElasticJobController`).  There is no backpressure
mechanism: as §3.2 says, jobs are decoupled by writing to and reading from
the messaging layer, so a slow consumer leaves a backlog in its input
topic and never stalls its producer.
"""

from repro.elasticity.controller import (
    ElasticJobController,
    ScaleEvent,
    StepReport,
)
from repro.elasticity.lagmonitor import Ewma, LagMonitor, LagSample
from repro.elasticity.policy import (
    SCALE_IN,
    SCALE_NONE,
    SCALE_OUT,
    ScalingDecision,
    ScalingPolicy,
)

__all__ = [
    "ElasticJobController",
    "Ewma",
    "LagMonitor",
    "LagSample",
    "SCALE_IN",
    "SCALE_NONE",
    "SCALE_OUT",
    "ScaleEvent",
    "ScalingDecision",
    "ScalingPolicy",
    "StepReport",
]
