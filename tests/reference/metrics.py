"""Metrics reference: :class:`ReferenceHistogram` sorts in place and keeps a
list of the observations since the last exported window."""

import math


class ReferenceHistogram:
    """The histogram as it was: sorted in place for percentiles, with a
    separate list of the observations since the last exported window."""

    def __init__(self):
        self.values = []
        self.sorted = True
        self.delta = None  # armed by the first take_window / drop_window

    def observe(self, value):
        if self.delta is not None:
            self.delta.append(value)
        if self.values and value < self.values[-1]:
            self.sorted = False
        self.values.append(value)

    def percentile(self, pct):
        if not self.values:
            return 0.0
        if not self.sorted:
            self.values.sort()
            self.sorted = True
        values = self.values
        if len(values) == 1:
            return values[0]
        rank = (pct / 100) * (len(values) - 1)
        low, high = int(math.floor(rank)), int(math.ceil(rank))
        if low == high:
            return values[low]
        frac = rank - low
        blend = values[low] * (1 - frac) + values[high] * frac
        return min(max(blend, values[low]), values[high])

    def snapshot(self):
        count = len(self.values)
        return {
            "count": float(count),
            "mean": math.fsum(self.values) / count if count else 0.0,
            "min": min(self.values) if self.values else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": max(self.values) if self.values else 0.0,
        }

    def take_window(self):
        pending, self.delta = self.delta, []
        if pending is None:
            return self.snapshot()
        return summarize(pending)

    def drop_window(self):
        self.delta = []

    def reset(self):
        self.values.clear()
        self.sorted = True
        if self.delta is not None:
            self.delta = []


def summarize(values):
    """Snapshot of a plain list, through a scratch reference histogram."""
    scratch = ReferenceHistogram()
    for value in values:
        scratch.observe(value)
    return scratch.snapshot()
