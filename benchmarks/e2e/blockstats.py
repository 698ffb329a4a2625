"""Block-median arithmetic: the only statistics the gated metrics use.

A run is a sequence of fixed-work blocks.  Each block is reduced to one
number per metric (its median latency, its p90, its ops per wall second,
its server CPU per structure) and the run reports the *median over
blocks* of that number (the interquartile mean for CPU, see below).  A neighbour's burst then costs one block, not
the run, which is what lets a 2-core box repeat to a few percent.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (numpy's default rule) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


@dataclass
class Block:
    """One measured block: per-op latencies plus the block's totals."""

    latencies_ms: list[float]  # one entry per gated op
    structures: int  # model evaluations completed (gated or not)
    wall_s: float
    server_cpu_ms: float | None  # server-tree CPU spent during the block

    def summary(self) -> dict:
        cpu = None if self.server_cpu_ms is None else self.server_cpu_ms / self.structures
        return {
            "op_p50_ms": statistics.median(self.latencies_ms),
            "op_p90_ms": quantile(self.latencies_ms, 0.9),
            "structures_per_s": self.structures / self.wall_s,
            "server_cpu_ms_per_structure": cpu,
        }


def midmean(values) -> float:
    """Mean of the values between the quartiles (the interquartile mean)."""
    ordered = sorted(values)
    trim = len(ordered) // 4
    kept = ordered[trim : len(ordered) - trim]
    return sum(kept) / len(kept)


def block_aggregates(blocks: list[Block]) -> dict:
    """One number per metric for the run: the median over blocks.

    Server CPU is the exception: a block's CPU is a whole number of 10 ms
    clock ticks, so the median over blocks would be one too and would
    read exactly the same run after run.  Its interquartile mean sheds
    the same outlying blocks and keeps the resolution of several blocks.
    """
    summaries = [block.summary() for block in blocks]
    aggregates = {}
    for name in summaries[0]:
        values = [summary[name] for summary in summaries]
        reduce = midmean if name == "server_cpu_ms_per_structure" else statistics.median
        aggregates[name] = None if None in values else reduce(values)
    return aggregates


def pooled_p99(blocks: list[Block]) -> tuple[float, int]:
    """Pooled p99 over every op and its sample count (printed, never gated)."""
    pooled = [latency for block in blocks for latency in block.latencies_ms]
    return quantile(pooled, 0.99), len(pooled)


def worsening(first: float, second: float, better: str) -> float:
    """By what share of ``first`` the ``second`` reading is worse (<0: better)."""
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def relative_range(values) -> float:
    """(max - min) / median — the A/A spread the bounds are derived from."""
    return (max(values) - min(values)) / abs(statistics.median(values))
