"""Hardware cost model for the simulated substrate.

The paper's performance claims (§4.1: constant throughput independent of log
size, RAM-speed head-of-log reads, seek-then-prefetch rewind reads; §1: MR
pipeline latency) all reduce to the relative costs of RAM access, sequential
disk I/O, random disk I/O, and network hops.  This module centralizes those
costs so every layer — page cache, replication, DFS baseline, MR engine —
charges time consistently, and so EXPERIMENTS.md can document the exact
parameters behind each number.

Defaults approximate the commodity hardware of the paper's era (2014):
7200rpm disks behind an OS page cache, 10GbE-class intra-datacenter links,
and multi-second MR job startup on YARN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable

from repro.common.errors import ConfigError


@dataclass(frozen=True)
class CostModel:
    """Latency/bandwidth parameters charged to the simulated clock.

    All times are seconds, all bandwidths bytes/second.  Instances are
    immutable; derive variants with ``dataclasses.replace``.  A simulated
    world has one: its :class:`~repro.common.clock.SimClock` carries it.
    """

    # Memory hierarchy.
    ram_bandwidth: float = 10e9           # sequential RAM copy
    disk_seq_read_bandwidth: float = 150e6
    disk_seq_write_bandwidth: float = 120e6
    disk_seek_time: float = 8e-3          # one random seek (7200rpm class)
    page_size: int = 64 * 1024            # granularity of the page cache

    # Network (intra-datacenter).
    network_rtt: float = 0.5e-3
    network_bandwidth: float = 1.0e9      # ~10GbE with protocol overhead

    # Per-request software overheads.
    request_overhead: float = 50e-6       # RPC dispatch, bookkeeping
    cpu_per_message: float = 2e-6         # serialization + routing per message

    # Batch compression (zlib-class deflate on one core).  The producer pays
    # the compress cost once per linger batch; consumers pay the (much
    # cheaper) inflate cost lazily, per batch actually read.
    compress_bandwidth: float = 60e6      # deflate throughput, logical bytes/s
    decompress_bandwidth: float = 300e6   # inflate throughput, logical bytes/s

    # Batch-stack costs (MR/DFS baseline).
    mr_job_startup: float = 10.0          # YARN container negotiation + JVM spin-up
    mr_task_startup: float = 1.0          # per map/reduce task launch
    dfs_open_overhead: float = 20e-3      # namenode round trip + block lookup
    dfs_block_size: int = 64 * 1024 * 1024

    # Cold tier (offline object store reached across the serving/offline
    # boundary).  Cold fetches pay a request round trip much larger than a
    # broker RPC, then stream at a bandwidth below local disk — the price of
    # moving history off the serving path (tiered storage, §2.2/§4.1).
    cold_fetch_overhead: float = 50e-3    # object-store request round trip
    cold_read_bandwidth: float = 80e6     # hydration stream (cross-tier)
    cold_write_bandwidth: float = 60e6    # archival upload stream

    # State-store costs (RocksDB-like).
    store_memtable_get: float = 0.5e-6
    store_run_get: float = 30e-6          # one sorted-run probe (bloom miss path)
    store_put: float = 1.0e-6

    def __post_init__(self) -> None:
        for name in (
            "ram_bandwidth",
            "disk_seq_read_bandwidth",
            "disk_seq_write_bandwidth",
            "network_bandwidth",
            "cold_read_bandwidth",
            "cold_write_bandwidth",
            "compress_bandwidth",
            "decompress_bandwidth",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        if self.page_size <= 0 or self.dfs_block_size <= 0:
            raise ConfigError("page_size and dfs_block_size must be > 0")

    # -- memory / disk ------------------------------------------------------

    def ram_read(self, nbytes: int) -> float:
        """Cost of copying ``nbytes`` out of the page cache."""
        return nbytes / self.ram_bandwidth

    def ram_write(self, nbytes: int) -> float:
        """Cost of writing ``nbytes`` into the page cache."""
        return nbytes / self.ram_bandwidth

    def disk_sequential_read(self, nbytes: int) -> float:
        """Cost of streaming ``nbytes`` from disk with no seek."""
        return nbytes / self.disk_seq_read_bandwidth

    def disk_sequential_write(self, nbytes: int) -> float:
        """Cost of streaming ``nbytes`` to disk with no seek."""
        return nbytes / self.disk_seq_write_bandwidth

    def disk_random_read(self, nbytes: int) -> float:
        """One seek followed by a sequential read of ``nbytes``."""
        return self.disk_seek_time + self.disk_sequential_read(nbytes)

    # -- network ------------------------------------------------------------

    def network_transfer(self, nbytes: int) -> float:
        """One round trip plus the wire time for ``nbytes``."""
        return self.network_rtt + nbytes / self.network_bandwidth

    def network_oneway(self, nbytes: int) -> float:
        """Half a round trip plus wire time (fire-and-forget sends)."""
        return self.network_rtt / 2 + nbytes / self.network_bandwidth

    # -- software -----------------------------------------------------------

    def request(self, nmessages: int = 1) -> float:
        """Fixed request overhead plus per-message CPU cost."""
        return self.request_overhead + nmessages * self.cpu_per_message

    def request_fixed(self, oneway: bool = False) -> float:
        """The part of one request's latency that does not grow with it: the
        broker's dispatch and the network round trip (half of it for a
        fire-and-forget send).  What one client sends one broker in one
        round is one request and pays it once (:func:`round_latency`)."""
        return self.request_overhead + (
            self.network_rtt / 2 if oneway else self.network_rtt
        )

    def compress(self, nbytes: int) -> float:
        """CPU cost of deflating ``nbytes`` of logical payload."""
        return nbytes / self.compress_bandwidth

    def decompress(self, nbytes: int) -> float:
        """CPU cost of inflating a frame back to ``nbytes`` of payload."""
        return nbytes / self.decompress_bandwidth

    # -- cold tier ------------------------------------------------------------

    def cold_fetch(self, nbytes: int) -> float:
        """One object-store round trip plus the cross-tier hydration stream."""
        return self.cold_fetch_overhead + nbytes / self.cold_read_bandwidth

    def cold_put(self, nbytes: int) -> float:
        """One object-store round trip plus the archival upload stream."""
        return self.cold_fetch_overhead + nbytes / self.cold_write_bandwidth

    def describe(self) -> dict[str, Any]:
        """Dict of parameters for inclusion in experiment reports."""
        return {
            "ram_bandwidth_gbps": self.ram_bandwidth / 1e9,
            "disk_seq_read_mbps": self.disk_seq_read_bandwidth / 1e6,
            "disk_seq_write_mbps": self.disk_seq_write_bandwidth / 1e6,
            "disk_seek_ms": self.disk_seek_time * 1e3,
            "network_rtt_us": self.network_rtt * 1e6,
            "network_bandwidth_gbps": self.network_bandwidth / 1e9,
            "request_overhead_us": self.request_overhead * 1e6,
            "compress_mbps": self.compress_bandwidth / 1e6,
            "decompress_mbps": self.decompress_bandwidth / 1e6,
            "mr_job_startup_s": self.mr_job_startup,
            "dfs_block_size_mb": self.dfs_block_size / (1024 * 1024),
            "cold_fetch_overhead_ms": self.cold_fetch_overhead * 1e3,
            "cold_read_mbps": self.cold_read_bandwidth / 1e6,
            "cold_write_mbps": self.cold_write_bandwidth / 1e6,
        }


#: The model of a :class:`~repro.common.clock.SimClock` built without one.
DEFAULT_COST_MODEL = CostModel()


def round_latency(
    requests: Iterable[tuple[Hashable, Hashable, float, float]],
) -> float:
    """Latency of one client round: requests sent at one simulated instant,
    as ``(client, broker, fixed, latency)``.

    A client keeps one request in flight per broker, so what one client
    sends one broker in a round is one request: its fixed part (``fixed``,
    :meth:`CostModel.request_fixed`, included in ``latency``) is paid once,
    by the first, and every further request of the pair adds only the rest.
    Client ``None`` marks a request that stays alone (a prefetch sent at an
    earlier instant, a push the model does not merge).  Requests to one
    broker queue, those of different clients too; requests to different
    brokers overlap.  The round costs the largest per-broker sum (latencies
    are never negative), ``0.0`` when there are none.
    """
    totals: dict[Hashable, float] = {}
    sent: dict[tuple[Hashable, Hashable], None] = {}
    slowest = 0.0
    # No call per request: a poll is one fetch most of the time, and this
    # runs once per poll.
    for client, broker, fixed, latency in requests:
        if client is not None:
            pair = client, broker
            if pair in sent:
                latency -= fixed
            else:
                sent[pair] = None
        if broker in totals:
            latency += totals[broker]
        totals[broker] = latency
        if latency > slowest:
            slowest = latency
    return slowest
