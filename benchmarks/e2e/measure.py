"""The untraced run: cold starts, warm-up, closed-loop blocks, verification.

One connection, one request in flight: the generator sends an op only
after the previous one returned, so on a 2-core box at most one of
{generator, router, replica} is runnable at a time and nothing in a gated
number queues behind anything else.  Every gated metric is the median
over fixed-work blocks of a per-block statistic (``blockstats``).
"""

from __future__ import annotations

import gc
import itertools
import statistics
import time
from contextlib import contextmanager

import numpy as np

from repro.api import ApiError, Client
from repro.models import HydraModel, get_preset
from repro.serving import ModelRegistry, ServiceConfig

from . import blockstats, host, servers, workloads
from .blockstats import Block
from .workloads import Op, Workload

#: A run spans this many server lifetimes.  Each is cold-started (which
#: is what ``setup_s`` times), warmed, and serves its share of the blocks:
#: a process draws its own hash seed, address-space layout and scheduler
#: placement, which here moved whole runs by 5-20%, and the median over
#: blocks from three processes sits on the middle one.
INSTANCES = 3
BLOCKS_PER_INSTANCE = 4
#: Cap per lifetime, so the busiest workload inserts fewer entries than the
#: result cache holds (4096) and no eviction starts mid-run.
MAX_BLOCKS_PER_INSTANCE = 8
VERIFY_EVERY = 10
MODEL_NAME = "default"  # the CLI's --model-name default
MODEL_SEED = 0  # the CLI's --seed default


@contextmanager
def frozen_gc():
    """No collector pauses inside a timed pass: collect, freeze, disable."""
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


class OpFailed(Exception):
    """An op came back as a typed error, a non-200, or a broken stream."""


def http_client(url: str) -> Client:
    # No transport retries: a glitch must count as a failed op, not vanish.
    return Client.http(url, retries=0)


def local_client(preset: str, config: ServiceConfig) -> Client:
    """The in-process reference: same preset, seed and backend as the server."""
    registry = ModelRegistry()
    registry.register_model(MODEL_NAME, HydraModel(get_preset(preset), seed=MODEL_SEED))
    return Client.local(registry, config=config, workers=2)


def execute(client: Client, workload: Workload, op: Op, first_response: bool = False):
    """Run one op; returns ``(payload, latencies_ms, structures)``.

    A predict op is one call and one latency.  An MD op is one streamed
    run: its latencies are the gaps between streamed frames divided by
    the frame interval (one per MD step), its payload the frames.
    ``first_response`` hangs up an MD stream after its first frame — all
    a cold start waits for — and returns nothing.
    """
    try:
        if workload.kind == "md":
            run = client.md(
                op.structures[0],
                seed=op.md_seed,
                client_id=workload.client_id,
                priority=op.priority,
                **workloads.MD_SETTINGS,
            )
            if first_response:
                stream = iter(run)
                next(stream)
                stream.close()
                return None
            frames, stamps = [], []
            for frame in run:
                stamps.append(time.perf_counter())
                frames.append(frame)
            gaps = np.diff(stamps) * 1000.0 / workloads.MD_FRAME_INTERVAL
            return (frames, run.result), gaps.tolist(), run.result.steps
        start = time.perf_counter()
        results = client.predict(
            list(op.structures), client_id=workload.client_id, priority=op.priority
        )
        return results, [(time.perf_counter() - start) * 1000.0], len(results)
    except ApiError as error:
        raise OpFailed(f"{type(error).__name__}: {error}") from error


def op_units(workload: Workload) -> int:
    """How many ops (calls, or MD steps) one ``execute`` attempts."""
    return workloads.MD_STEPS if workload.kind == "md" else 1


class Tally:
    """Ops attempted and failed so far, with the reasons."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def book(self, outcomes) -> list[tuple[Op, object]]:
        """Count ``(op, payload, error)`` outcomes; returns the sound ``(op, payload)``s."""
        units, sound = op_units(self.workload), []
        for op, payload, error in outcomes:
            self.attempted += units
            errors = [error] if error else shape_errors(self.workload, op, payload)
            if errors:
                self.failed += units
                self.messages.append(errors[0])
            else:
                sound.append((op, payload))
        return sound


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def shape_errors(workload: Workload, op: Op, payload) -> list[str]:
    """Cheap checks applied to every op: counts, atom numbers, finite values."""
    if workload.kind == "md":
        frames, result = payload
        expected = workloads.MD_STEPS // workloads.MD_FRAME_INTERVAL + 1
        errors = []
        if result.steps != workloads.MD_STEPS or len(frames) != expected:
            errors.append(f"md run returned {result.steps} steps, {len(frames)} frames")
        if not all(np.isfinite(f.positions).all() and np.isfinite(f.energy) for f in frames):
            errors.append("md run returned non-finite values")
        return errors
    if len(payload) != len(op.structures):
        return [f"{len(payload)} results for {len(op.structures)} structures"]
    errors = []
    for structure, result in zip(op.structures, payload):
        if result.n_atoms != len(structure.atomic_numbers):
            errors.append(f"n_atoms {result.n_atoms} != {len(structure.atomic_numbers)}")
        elif not (np.isfinite(result.energy) and np.isfinite(result.forces).all()):
            errors.append("non-finite energy or forces")
    return errors


def reference_errors(workload: Workload, op: Op, payload, reference) -> list[str]:
    """Compare a served payload with the ``Client.local`` one for the same op."""
    if workload.kind == "md":
        (frames, _), (ref_frames, _) = payload, reference
        if [f.step for f in frames] != [f.step for f in ref_frames]:
            return ["md frame steps differ from the local run"]
        last, ref_last = frames[-1], ref_frames[-1]
        same = (
            last.energy == ref_last.energy
            and np.array_equal(last.positions, ref_last.positions)
            and np.array_equal(last.velocities, ref_last.velocities)
        )
        return [] if same else ["final md frame is not bit-identical to the local run"]
    errors = []
    exact = len(op.structures) == 1  # one structure: same batch, same arithmetic
    for result, ref in zip(payload, reference):
        if exact:
            same = result.energy == ref.energy and np.array_equal(result.forces, ref.forces)
        else:
            same = np.isclose(result.energy, ref.energy, rtol=1e-5, atol=1e-6) and np.allclose(
                result.forces, ref.forces, rtol=1e-5, atol=1e-6
            )
        if not same:
            errors.append("bit mismatch vs local" if exact else "allclose mismatch vs local")
    return errors


def verify(workload: Workload, kept: list[tuple[Op, object]]) -> tuple[int, list[str]]:
    """Recompute ``kept`` ops through ``Client.local``; returns (failed ops, messages)."""
    # A short tick only makes the reference faster: a one-structure batch
    # computes the same bits whenever it is flushed.
    config = ServiceConfig(backend="numpy", flush_interval_s=0.0005)
    failed, messages = 0, []
    with local_client(workload.preset, config) as local:
        for op, payload in kept:
            reference, _, _ = execute(local, workload, op)
            errors = reference_errors(workload, op, payload, reference)
            if errors:
                failed += op_units(workload)
                messages.extend(errors[:1])
    return failed, messages


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def cold_start(workload: Workload, cover: list[Op]) -> tuple[servers.Server, Client, float]:
    """Spawn a server and time ``Popen`` → first response of every plan bucket."""
    server = servers.Server(workload.preset, workload.server_args).start()
    try:
        client = http_client(server.url)
        for op in cover:
            execute(client, workload, op, first_response=True)
        return server, client, time.perf_counter() - server.spawned_at
    except BaseException:
        server.stop()
        raise


def prime_hot_set(client: Client, workload: Workload, ops: list[Op]) -> None:
    hot = workloads.hot_structures(ops)
    for start in range(0, len(hot), workloads.BULK_CALL):
        client.predict(hot[start : start + workloads.BULK_CALL], client_id=workload.client_id)


def stats_counters(client: Client) -> dict:
    """The lifetime counters of ``/v1/stats`` the harness differences."""
    model = client.stats().models[MODEL_NAME]
    reasons = model["batching"]["flush_reasons"]
    return {
        "cache_hits": model["result_cache"]["hits"],
        "cache_misses": model["result_cache"]["misses"],
        "plan_hits": model["plans"]["plan_hits"],
        "plan_misses": model["plans"]["plan_misses"],
        "plans_cached": model["plans"]["cached_plans"],
        "batches": model["serving"]["batches"],
        "batch_graphs": model["serving"]["mean_batch_graphs"] * model["serving"]["batches"],
        "flushes": sum(reasons.values()),
        "flush_timeouts": reasons.get("timeout", 0),
        "md_rebuilds": model["md"]["neighbor_rebuilds"],
        "md_reuses": model["md"]["neighbor_reuses"],
    }


def counters_delta(before: dict, after: dict) -> dict:
    """What one server counted between two ``stats_counters`` snapshots."""
    delta = {name: after[name] - before[name] for name in after}
    delta["plans_cached"] = after["plans_cached"]  # a gauge, not a counter
    return delta


def counter_shares(deltas: list[dict]) -> dict:
    """The per-layer ratios and counts over one or more ``counters_delta``s."""
    d = {name: sum(delta[name] for delta in deltas) for name in deltas[0]}

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    return {
        "serving.cache.hit_share": share(d["cache_hits"], d["cache_hits"] + d["cache_misses"]),
        "tensor.plan.hit_share": share(d["plan_hits"], d["plan_hits"] + d["plan_misses"]),
        "tensor.plan.buckets": max(delta["plans_cached"] for delta in deltas),
        "serving.batcher.batch_graphs_mean": share(d["batch_graphs"], d["batches"]),
        "serving.batcher.flush_timeout_share": share(d["flush_timeouts"], d["flushes"]),
        "graph.radius.skin_reuse_share": share(d["md_reuses"], d["md_reuses"] + d["md_rebuilds"]),
    }


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def measure_block(client, workload: Workload, ops: list[Op], pids: list[int]):
    """One closed-loop pass over ``ops``; returns the block and per-op outcomes."""
    latencies, structures, outcomes = [], 0, []
    ticks_before = host.cpu_ticks(pids)
    start = time.perf_counter()
    for op in ops:
        try:
            payload, op_latencies, count = execute(client, workload, op)
        except OpFailed as error:
            outcomes.append((op, None, str(error)))
            continue
        outcomes.append((op, payload, None))
        structures += count
        if op.gated:
            latencies.extend(op_latencies)
    wall_s = time.perf_counter() - start
    ticks_after = host.cpu_ticks(pids)
    cpu_ms = None if ticks_before is None else host.ticks_to_ms(ticks_after - ticks_before)
    return Block(latencies, structures, wall_s, cpu_ms), outcomes


def run_workload(
    workload: Workload, seed: int, seconds: float | None = None, load_wait_s: float = 30.0
) -> dict:
    """Measure one workload end to end; returns the JSON-ready result.

    ``seconds`` is shared out over the server lifetimes: each measures
    blocks until its share has elapsed, never fewer than
    ``BLOCKS_PER_INSTANCE`` nor more than ``MAX_BLOCKS_PER_INSTANCE``;
    ``None`` measures exactly ``BLOCKS_PER_INSTANCE``.
    """
    quiet = host.wait_for_quiet_host(load_wait_s)
    spin_before = host.spin_ms()
    base = workloads.base_ops(workload, seed)
    warmup = workloads.replay(workload, base, seed, 0)
    cover = workloads.plan_cover(warmup)
    # The cover compiled every bucket during the cold start; what is left to
    # warm is caches and pools, a third of a block per lifetime (one block a run).
    warmup = warmup[: -(-len(warmup) // INSTANCES)]
    replays = itertools.count(1)
    share_s = None if seconds is None else seconds / INSTANCES

    # A throw-away start first: after an idle gap the page cache is cold and
    # a lazily backed VM has handed its free pages back to the host, so the
    # first start of a run read 0.5 s slower than the rest (1.6-2.0 s against
    # 1.0-1.1 s on predict_bulk) and made the median of three the larger of
    # the other two.
    server, _, discarded_start_s = cold_start(workload, cover)
    server.stop()

    tally = Tally(workload)
    blocks: list[Block] = []
    kept: list[tuple[Op, object]] = []
    setups, boots, peaks, deltas = [], [], [], []
    later_ops = 0
    measured_s = 0.0
    for _ in range(INSTANCES):
        server, client, setup_s = cold_start(workload, cover)
        with server:
            setups.append(setup_s)
            boots.append(server.boot_s)
            prime_hot_set(client, workload, base)
            measure_block(client, workload, warmup, [])  # discarded: compiles, fills caches
            pids = server.pids()
            counters = stats_counters(client)
            with frozen_gc():
                started = time.perf_counter()
                for index in range(MAX_BLOCKS_PER_INSTANCE):
                    out_of_time = share_s is None or time.perf_counter() - started >= share_s
                    if index >= BLOCKS_PER_INSTANCE and out_of_time:
                        break
                    ops = workloads.replay(workload, base, seed, next(replays))
                    block, outcomes = measure_block(client, workload, ops, pids)
                    sound = tally.book(outcomes)
                    if not blocks:  # block 0 is recomputed locally whole,
                        kept.extend(sound)
                    else:  # later blocks every tenth op
                        for outcome in sound:
                            later_ops += 1
                            if later_ops % VERIFY_EVERY == 0:
                                kept.append(outcome)
                    blocks.append(block)
                measured_s += time.perf_counter() - started
            deltas.append(counters_delta(counters, stats_counters(client)))
            peaks.append(host.peak_rss_mb(pids))

    mismatched, mismatch_messages = verify(workload, kept)
    tally.failed += mismatched
    tally.messages.extend(mismatch_messages)
    spin_after = host.spin_ms()

    metrics = {"setup_s": statistics.median(setups)}
    metrics.update(blockstats.block_aggregates(blocks))
    metrics["server_peak_rss_mb"] = None if None in peaks else statistics.median(peaks)
    metrics["success_share"] = (tally.attempted - tally.failed) / tally.attempted
    p99, p99_samples = blockstats.pooled_p99(blocks)
    return {
        "workload": workload.name,
        "seed": seed,
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.messages[:10],
        "verified_ops": len(kept) * op_units(workload),
        "blocks": [block.summary() for block in blocks],
        "measured_s": measured_s,
        "op_p99_ms": {"value": p99, "samples": p99_samples, "gated": False},
        "cold_starts_s": setups,
        "discarded_start_s": discarded_start_s,
        "cli_boot_s": boots,
        "server_peak_rss_mb": peaks,
        "server_counters": counter_shares(deltas),
        "host": dict(quiet, spin_ms_before=spin_before, spin_ms_after=spin_after),
    }
