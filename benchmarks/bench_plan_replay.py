"""Execution-plan replay vs the unplanned no-grad fast path.

The plan subsystem's claim has two halves, and this bench pins both:

- **Throughput.**  On small, dispatch-bound structures (single
  molecules, where Python op dispatch — Tensor wrappers, registry
  lookups, pool requests — rivals the numpy math itself) the planned
  replay must beat the PR-4 unplanned fast path by at least
  ``PLAN_SPEEDUP_FLOOR`` (default 1.3x).  This is *not* a parallelism
  claim: removing per-call dispatch is deterministic work-avoidance, so
  the floor holds on a single core and is asserted unconditionally.
- **Bit-exactness.**  Replays must return the *same bits* as the
  unplanned path — a fast wrong answer is a regression, not a win —
  checked here across molecular and periodic structures.

Numbers merge into ``benchmarks/results/BENCH_plan.json`` (uploaded as
a CI artifact next to the serving trajectory).
"""

import json
import os
import time

import numpy as np

from _shared import RESULTS_DIR, write_result
from repro.graph.batch import collate
from repro.models import HydraModel, ModelConfig
from repro.tensor.allocator import BufferPool, use_pool

_FLOOR = float(os.environ.get("PLAN_SPEEDUP_FLOOR", "1.3"))
_JSON_PATH = RESULTS_DIR / "BENCH_plan.json"

#: Small structures are the dispatch-bound regime the plans target: a
#: screening request is one molecule, not a collated training batch.
_STRUCTURES = 8
_WIDTH = 32
_LAYERS = 3


def _merge_json(update: dict) -> None:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    payload = {}
    if _JSON_PATH.exists():
        payload = json.loads(_JSON_PATH.read_text())
    payload.update(update)
    payload["floor"] = _FLOOR
    _JSON_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _molecules(count: int, seed: int) -> list:
    from repro.data.sources import ANI1xSource

    return ANI1xSource().sample(count, seed)


def _workload() -> tuple[HydraModel, list]:
    model = HydraModel(ModelConfig(hidden_dim=_WIDTH, num_layers=_LAYERS), seed=0)
    batches = [collate([graph]) for graph in _molecules(_STRUCTURES, seed=0)]
    return model, batches


def bench_plan_replay_speedup(benchmark):
    """Planned replay vs unplanned fast path on dispatch-bound structures."""
    model, batches = _workload()
    pool = BufferPool()

    def sweep(plan: bool) -> None:
        for batch in batches:
            model.serve(batch, plan=plan)

    def best_of(plan: bool, rounds: int = 5, iters: int = 15) -> float:
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            for _ in range(iters):
                sweep(plan)
            best = min(best, time.perf_counter() - start)
        return best / (iters * len(batches))

    with use_pool(pool):
        sweep(True)  # compile every bucket up front
        sweep(False)  # warm the unplanned path's pools and caches
        unplanned_s = best_of(False)
        planned_s = best_of(True)
    speedup = unplanned_s / planned_s
    stats = model.plans.stats

    mean_atoms = float(np.mean([batch.num_nodes for batch in batches]))
    text = (
        "plan_replay_speedup "
        f"(structures={len(batches)}, mean {mean_atoms:.1f} atoms, "
        f"width={_WIDTH}, layers={_LAYERS})\n"
        f"unplanned : {unplanned_s * 1e6:8.1f} us/forward\n"
        f"planned   : {planned_s * 1e6:8.1f} us/forward\n"
        f"speedup   : {speedup:8.2f}x (floor {_FLOOR}x)\n"
        f"plan cache: {stats.compiled} compiled, "
        f"{stats.hits} hits / {stats.misses} misses"
    )
    write_result("plan_replay", text)
    _merge_json(
        {
            "unplanned_us_per_forward": round(unplanned_s * 1e6, 2),
            "planned_us_per_forward": round(planned_s * 1e6, 2),
            "speedup": round(speedup, 3),
            "structures": len(batches),
            "mean_atoms": round(mean_atoms, 1),
            "plans_compiled": stats.compiled,
            "plan_hits": stats.hits,
            "plan_misses": stats.misses,
        }
    )
    # Deterministic dispatch removal: asserted unconditionally, unlike
    # the core-count-gated parallelism floors.
    assert speedup >= _FLOOR, (
        f"planned replay only {speedup:.2f}x over the unplanned fast path "
        f"(required >= {_FLOOR}x)"
    )
    benchmark(lambda: sweep(True))


def bench_plan_bit_exactness(benchmark):
    """Replayed outputs must match the unplanned path bit for bit."""
    from repro.data.sources import MPTrjSource

    model = HydraModel(ModelConfig(hidden_dim=_WIDTH, num_layers=_LAYERS), seed=1)
    cases = [collate([graph]) for graph in _molecules(4, seed=2)]
    cases.append(collate(_molecules(3, seed=5)))
    cases.append(collate(MPTrjSource().sample(2, 1)))

    checked = 0
    for batch in cases:
        unplanned = model.serve(batch, plan=False)
        model.serve(batch, plan=True)  # compile
        replayed = model.serve(batch, plan=True)  # replay
        assert np.array_equal(unplanned["energy"], replayed["energy"])
        assert np.array_equal(unplanned["forces"], replayed["forces"])
        checked += 1
    write_result(
        "plan_bit_exactness",
        f"plan_bit_exactness: {checked} batches replayed bit-identically "
        "(molecular + collated + periodic)",
    )
    _merge_json({"bit_exact_batches": checked})
    benchmark(lambda: model.serve(cases[0], plan=True))
