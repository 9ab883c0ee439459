"""Deterministic building blocks for synthetic workloads.

The paper's traffic is LinkedIn production data we cannot have; these
generators reproduce the *distributional* properties the mechanisms depend
on — Zipf-skewed keys (a few hot users/pages dominate), Poisson arrivals,
and bounded cardinality dimensions — with explicit seeds so every test and
benchmark is reproducible.
"""

from __future__ import annotations

import random

from repro.common.errors import ConfigError


def zipf_weights(n: int, skew: float = 1.0) -> list[float]:
    """Unnormalized Zipf weights: weight(rank) = 1 / rank**skew."""
    if n <= 0:
        raise ConfigError("n must be > 0")
    if skew < 0:
        raise ConfigError("skew must be >= 0")
    return [1.0 / (rank**skew) for rank in range(1, n + 1)]


class KeyPool:
    """A fixed population of keys drawn with Zipf skew.

    ``skew=0`` is uniform; ``skew≈1`` matches web-traffic popularity.
    """

    def __init__(
        self,
        size: int,
        prefix: str = "key",
        skew: float = 1.0,
        seed: int = 7,
    ) -> None:
        if size <= 0:
            raise ConfigError("size must be > 0")
        self.keys = [f"{prefix}-{i:06d}" for i in range(size)]
        self._weights = zipf_weights(size, skew)
        self._rng = random.Random(seed)

    def pick(self) -> str:
        return self._rng.choices(self.keys, weights=self._weights, k=1)[0]

    def pick_many(self, k: int) -> list[str]:
        return self._rng.choices(self.keys, weights=self._weights, k=k)

    def uniform(self) -> str:
        return self._rng.choice(self.keys)

    def __len__(self) -> int:
        return len(self.keys)


class EventClock:
    """Event-time source with Poisson (exponential inter-arrival) spacing."""

    def __init__(self, rate_per_second: float, start: float = 0.0, seed: int = 11) -> None:
        if rate_per_second <= 0:
            raise ConfigError("rate_per_second must be > 0")
        self.rate = rate_per_second
        self.now = start
        self._rng = random.Random(seed)

    def next_timestamp(self) -> float:
        self.now += self._rng.expovariate(self.rate)
        return self.now
