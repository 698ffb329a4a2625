"""Serving telemetry: per-request latency, batch shapes, throughput.

The serving claim worth regressing against is a *distribution* claim —
dynamic batching trades a little p95 latency (requests queue while
every slot is busy) for a large throughput win — so the tracker keeps
raw per-request latencies (over a bounded sliding window, so
long-running replicas hold O(window) memory) and reports percentiles,
not just means.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass
class RequestRecord:
    """One served request, as observed at the service boundary."""

    latency_s: float
    cached: bool
    batch_graphs: int  # graphs in the micro-batch that served it (1 for a cache hit)


@dataclass
class BatchRecord:
    """One executed micro-batch (model forward + scatter)."""

    num_graphs: int
    num_atoms: int
    duration_s: float


def percentile(values: list[float], q: float) -> float:
    """Percentile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


@dataclass
class StatsSummary:
    """Aggregate view over a serving session (all floats JSON-ready)."""

    requests: int
    cache_hits: int
    cache_hit_rate: float
    batches: int
    mean_batch_graphs: float
    mean_batch_atoms: float
    p50_latency_s: float
    p95_latency_s: float
    mean_latency_s: float
    wall_time_s: float
    requests_per_s: float
    atoms_per_s: float

    def as_dict(self) -> dict[str, float]:
        return {
            "requests": self.requests,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "batches": self.batches,
            "mean_batch_graphs": self.mean_batch_graphs,
            "mean_batch_atoms": self.mean_batch_atoms,
            "p50_latency_s": self.p50_latency_s,
            "p95_latency_s": self.p95_latency_s,
            "mean_latency_s": self.mean_latency_s,
            "wall_time_s": self.wall_time_s,
            "requests_per_s": self.requests_per_s,
            "atoms_per_s": self.atoms_per_s,
        }

    def to_text(self) -> str:
        return (
            f"requests        : {self.requests} ({self.cache_hits} cache hits, "
            f"{self.cache_hit_rate:.1%} hit rate)\n"
            f"micro-batches   : {self.batches} "
            f"(mean {self.mean_batch_graphs:.1f} graphs / {self.mean_batch_atoms:.1f} atoms)\n"
            f"latency         : p50 {self.p50_latency_s * 1e3:.2f} ms, "
            f"p95 {self.p95_latency_s * 1e3:.2f} ms, "
            f"mean {self.mean_latency_s * 1e3:.2f} ms\n"
            f"throughput      : {self.requests_per_s:.1f} structures/s, "
            f"{self.atoms_per_s:.0f} atoms/s over {self.wall_time_s:.3f} s"
        )


#: Per-request records retained for percentile estimation.  Totals are
#: exact counters regardless of the window; only the latency
#: distribution and mean-batch-shape figures are computed over the most
#: recent window, which is what bounds a long-running replica's memory.
DEFAULT_WINDOW = 8192


class ServingStats:
    """Thread-safe accumulator every serving thread writes into.

    Counts (requests, hits, batches, atoms) are lifetime totals;
    ``request_records``/``batch_records`` are bounded sliding windows of
    the most recent activity, so a replica serving traffic indefinitely
    holds O(window) memory, not O(requests).
    """

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        self.request_records: deque[RequestRecord] = deque(maxlen=max(1, window))
        self.batch_records: deque[BatchRecord] = deque(maxlen=max(1, window // 8))
        self._lock = threading.Lock()
        self._first_seen: float | None = None
        self._last_seen: float | None = None
        self._total_requests = 0
        self._total_hits = 0
        self._total_batches = 0
        self._total_atoms = 0

    def record_request(self, latency_s: float, cached: bool, batch_graphs: int) -> None:
        now = time.perf_counter()
        with self._lock:
            self.request_records.append(RequestRecord(latency_s, cached, batch_graphs))
            self._total_requests += 1
            if cached:
                self._total_hits += 1
            if self._first_seen is None:
                self._first_seen = now - latency_s
            self._last_seen = now

    def record_batch(self, num_graphs: int, num_atoms: int, duration_s: float) -> None:
        with self._lock:
            self.batch_records.append(BatchRecord(num_graphs, num_atoms, duration_s))
            self._total_batches += 1
            self._total_atoms += num_atoms

    def summary(self) -> StatsSummary:
        with self._lock:
            recent = list(self.request_records)
            batches = list(self.batch_records)
            first, last = self._first_seen, self._last_seen
            total_requests = self._total_requests
            total_hits = self._total_hits
            total_batches = self._total_batches
            total_atoms = self._total_atoms
        latencies = [r.latency_s for r in recent]
        wall = (last - first) if (first is not None and last is not None) else 0.0
        return StatsSummary(
            requests=total_requests,
            cache_hits=total_hits,
            cache_hit_rate=total_hits / total_requests if total_requests else 0.0,
            batches=total_batches,
            mean_batch_graphs=(
                sum(b.num_graphs for b in batches) / len(batches) if batches else 0.0
            ),
            mean_batch_atoms=(
                sum(b.num_atoms for b in batches) / len(batches) if batches else 0.0
            ),
            p50_latency_s=percentile(latencies, 50.0),
            p95_latency_s=percentile(latencies, 95.0),
            mean_latency_s=sum(latencies) / len(latencies) if latencies else 0.0,
            wall_time_s=wall,
            requests_per_s=total_requests / wall if wall > 0 else 0.0,
            atoms_per_s=total_atoms / wall if wall > 0 else 0.0,
        )
