"""Cluster-wide health rollup: one status, machine-readable reasons.

This module is the stack's one health verdict.  It aggregates everything an
operator pages on — broker liveness, ISR state, consumer lag, open
transactions, standby staleness — into a single ``healthy`` /
``degraded`` / ``unhealthy`` status with typed reasons, so dashboards and
the telemetry dogfood job can act on codes instead of parsing prose
(``dataclasses.asdict`` gives the plain-dict shape).  Lag comes from
:meth:`AdminClient.consumer_lag_report`, the one lag computation.

Severity model: conditions that lose data or block progress (offline
partitions, no live broker) are *unhealthy*; conditions that merely erode
headroom (under-replication, lag, stuck transactions, stale standbys) are
*degraded*.  The worst reason wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

#: Overall statuses, ordered best to worst.
HEALTHY = "healthy"
DEGRADED = "degraded"
UNHEALTHY = "unhealthy"

_SEVERITY_RANK = {HEALTHY: 0, DEGRADED: 1, UNHEALTHY: 2}


@dataclass(frozen=True)
class HealthReason:
    """One contributing condition, machine-readable first."""

    code: str          # stable identifier, e.g. "offline_partitions"
    severity: str      # DEGRADED | UNHEALTHY
    value: float       # the measurement that tripped the rule
    detail: str        # human-readable elaboration


@dataclass(frozen=True)
class ClusterHealthReport:
    """The rollup: status, reasons, and the raw numbers behind them."""

    status: str
    reasons: tuple[HealthReason, ...]
    checked_at: float
    live_brokers: int
    total_brokers: int
    offline_partitions: int
    under_replicated: int
    max_group_lag: int
    open_transactions: int
    lso_lag: int
    max_standby_staleness: int

    @property
    def healthy(self) -> bool:
        return self.status == HEALTHY

    def reason_codes(self) -> list[str]:
        return [reason.code for reason in self.reasons]


def user_group_lags(cluster) -> dict[str, int]:
    """Total lag per consumer group, system (``__``) groups left out.

    The one lag filter behind the ``consumer_lag`` health rule and the
    consumer-lag SLO; system groups (mirrors) have their own alerts.
    """
    # Runtime imports: tools.admin pulls in messaging; this module stays
    # import-light so ``repro.observability`` never drags messaging eagerly.
    from repro.messaging.topic import is_system_topic
    from repro.tools.admin import AdminClient

    return {
        entry.group: entry.total_lag
        for entry in AdminClient(cluster).consumer_lag_report().groups
        if not is_system_topic(entry.group)
    }


def evaluate_cluster_health(
    cluster,
    *,
    runners: Iterable = (),
    servers: Iterable = (),
    max_group_lag: int = 1000,
    max_standby_staleness: int = 1000,
    max_lso_lag: int = 1000,
    now: float | None = None,
) -> ClusterHealthReport:
    """Evaluate every health rule against live cluster state."""
    from repro.processing.recovery import worst_standby_lag
    from repro.tools.admin import AdminClient

    if now is None:
        now = cluster.clock.now()
    reasons: list[HealthReason] = []

    controller = cluster.controller
    live = len(controller.live_brokers())
    total = len(cluster.brokers())
    offline = len(controller.offline_partitions())
    under_replicated = len(controller.under_replicated_partitions())

    if live == 0:
        reasons.append(HealthReason(
            code="no_live_brokers",
            severity=UNHEALTHY,
            value=float(total),
            detail=f"all {total} brokers are down",
        ))
    elif live < total:
        reasons.append(HealthReason(
            code="dead_brokers",
            severity=DEGRADED,
            value=float(total - live),
            detail=f"{total - live} of {total} brokers down",
        ))
    if offline:
        reasons.append(HealthReason(
            code="offline_partitions",
            severity=UNHEALTHY,
            value=float(offline),
            detail=f"{offline} partitions have no electable leader",
        ))
    if under_replicated:
        reasons.append(HealthReason(
            code="under_replicated_partitions",
            severity=DEGRADED,
            value=float(under_replicated),
            detail=f"{under_replicated} partitions below replication factor",
        ))

    worst_lag = 0
    for group, lag in user_group_lags(cluster).items():
        worst_lag = max(worst_lag, lag)
        if lag > max_group_lag:
            reasons.append(HealthReason(
                code="consumer_lag",
                severity=DEGRADED,
                value=float(lag),
                detail=f"group {group!r} lag {lag} > {max_group_lag}",
            ))

    transactions = AdminClient(cluster).transaction_report()
    open_count = len(transactions.open_transactions)
    lso_total = sum(transactions.lso_lag.values())
    if lso_total > max_lso_lag:
        reasons.append(HealthReason(
            code="transaction_lso_lag",
            severity=DEGRADED,
            value=float(lso_total),
            detail=(
                f"{open_count} open transactions hold back {lso_total} "
                f"records (> {max_lso_lag})"
            ),
        ))

    staleness = worst_standby_lag(runners, servers)
    if staleness > max_standby_staleness:
        reasons.append(HealthReason(
            code="standby_staleness",
            severity=DEGRADED,
            value=float(staleness),
            detail=(
                f"worst standby replica is {staleness} changelog records "
                f"behind (> {max_standby_staleness})"
            ),
        ))

    status = HEALTHY
    for reason in reasons:
        if _SEVERITY_RANK[reason.severity] > _SEVERITY_RANK[status]:
            status = reason.severity

    return ClusterHealthReport(
        status=status,
        reasons=tuple(reasons),
        checked_at=now,
        live_brokers=live,
        total_brokers=total,
        offline_partitions=offline,
        under_replicated=under_replicated,
        max_group_lag=worst_lag,
        open_transactions=open_count,
        lso_lag=lso_total,
        max_standby_staleness=staleness,
    )


def format_health(report: ClusterHealthReport) -> str:
    """The engineer terminal's five-line summary of a health report."""
    lines = [
        f"Brokers: {report.live_brokers}/{report.total_brokers} live",
        f"Offline partitions: {report.offline_partitions}",
        f"Under-replicated partitions: {report.under_replicated}",
        f"Lagging consumer groups: {report.reason_codes().count('consumer_lag')}",
        f"Status: {report.status.upper()}",
    ]
    return "\n".join(lines)
