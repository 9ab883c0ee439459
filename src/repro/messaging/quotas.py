"""Client quotas: messaging-layer multi-tenancy (§4.5).

"Multiple independent teams may be executing different applications on the
same cluster, leading to resource contention.  To retain a given
quality-of-service per application, while maintaining a high cluster
utilization, Liquid uses a resource management layer that isolates resources
on a per-application basis."

The processing layer's containers (§4.4 / `processing.containers`) isolate
CPU and memory; this module isolates the messaging layer's *bandwidth* the
way Kafka's client quotas do: each client id has a byte-rate allowance over
a sliding window, and requests that push it over are *throttled* — the
broker delays the response by exactly the time needed to bring the observed
rate back under the quota, so a misbehaving client slows itself down instead
of its neighbours.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.common.clock import Clock
from repro.common.errors import ConfigError


@dataclass(frozen=True)
class ClientQuota:
    """Byte-rate allowances for one client id."""

    produce_bytes_per_sec: float = float("inf")
    fetch_bytes_per_sec: float = float("inf")

    def __post_init__(self) -> None:
        if self.produce_bytes_per_sec <= 0 or self.fetch_bytes_per_sec <= 0:
            raise ConfigError("quota rates must be > 0")


class _RateTracker:
    """Sliding-window byte counter."""

    __slots__ = ("window", "_samples", "_total")

    def __init__(self, window: float) -> None:
        self.window = window
        self._samples: deque[tuple[float, int]] = deque()
        self._total = 0

    def record(self, now: float, nbytes: int) -> None:
        self._samples.append((now, nbytes))
        self._total += nbytes
        self._expire(now)

    def observed_rate(self, now: float) -> float:
        self._expire(now)
        return self._total / self.window

    def total_in_window(self, now: float) -> int:
        self._expire(now)
        return self._total

    def _expire(self, now: float) -> None:
        horizon = now - self.window
        while self._samples and self._samples[0][0] < horizon:
            _ts, nbytes = self._samples.popleft()
            self._total -= nbytes


class QuotaManager:
    """Tracks per-client byte rates and computes throttle delays.

    The throttle formula is Kafka's: when a client's windowed rate exceeds
    its quota, delay the response long enough that
    ``bytes_in_window / (window + delay) == quota``.
    """

    def __init__(self, clock: Clock, window_seconds: float = 1.0) -> None:
        if window_seconds <= 0:
            raise ConfigError("window_seconds must be > 0")
        self.clock = clock
        self.window = window_seconds
        self._quotas: dict[str, ClientQuota] = {}
        self._produce: dict[str, _RateTracker] = {}
        self._fetch: dict[str, _RateTracker] = {}
        self.throttle_events = 0

    def set_quota(self, client_id: str, quota: ClientQuota) -> None:
        if not client_id:
            raise ConfigError("client_id must be non-empty")
        self._quotas[client_id] = quota

    def remove_quota(self, client_id: str) -> None:
        self._quotas.pop(client_id, None)

    # -- accounting ------------------------------------------------------------------

    def record_produce(self, client_id: str | None, nbytes: int) -> float:
        """Account produced bytes; returns the throttle delay in seconds."""
        return self._record(client_id, nbytes, self._produce, "produce")

    def record_fetch(self, client_id: str | None, nbytes: int) -> float:
        """Account fetched bytes; returns the throttle delay in seconds."""
        return self._record(client_id, nbytes, self._fetch, "fetch")

    def _record(
        self,
        client_id: str | None,
        nbytes: int,
        trackers: dict[str, _RateTracker],
        kind: str,
    ) -> float:
        if client_id is None or client_id not in self._quotas:
            return 0.0
        quota = self._quotas[client_id]
        limit = (
            quota.produce_bytes_per_sec
            if kind == "produce"
            else quota.fetch_bytes_per_sec
        )
        if limit == float("inf"):
            return 0.0
        tracker = trackers.setdefault(client_id, _RateTracker(self.window))
        now = self.clock.now()
        tracker.record(now, nbytes)
        total = tracker.total_in_window(now)
        if total <= limit * self.window:
            return 0.0
        self.throttle_events += 1
        # Delay so that total / (window + delay) == limit.
        return total / limit - self.window

    def observed_produce_rate(self, client_id: str) -> float:
        tracker = self._produce.get(client_id)
        return tracker.observed_rate(self.clock.now()) if tracker else 0.0

    def observed_fetch_rate(self, client_id: str) -> float:
        tracker = self._fetch.get(client_id)
        return tracker.observed_rate(self.clock.now()) if tracker else 0.0
