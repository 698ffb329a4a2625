"""Serving benchmarks: dynamic batching vs one-structure-at-a-time.

The serving subsystem's reason to exist is throughput: collating K
requests into one disjoint-union batch amortizes per-call dispatch
overhead across K structures.  Two comparisons guard it:

- ``bench_dynamic_batching_speedup`` serves the same 64-structure
  molecular workload through the service twice — batch budget 64 vs
  budget 1 — and asserts the batched path clears
  ``SERVING_SPEEDUP_FLOOR`` (default 3x; CI relaxes it for noisy
  shared runners).
- ``bench_cached_serving_session`` replays a repeat-heavy request
  stream and records the cache hit-rate and p50/p95 request latency.

Both write their numbers into ``benchmarks/results/BENCH_serving.json``
so CI can upload one artifact and future PRs have a serving trajectory
to regress against.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from _shared import RESULTS_DIR, write_result
from repro.data import generate_corpus
from repro.models import HydraModel, ModelConfig
from repro.serving import PredictionService, ServiceConfig

#: Required batched-over-single speedup.  The 3x acceptance bar assumes a
#: quiet machine; CI overrides via the env var.
_SPEEDUP_FLOOR = float(os.environ.get("SERVING_SPEEDUP_FLOOR", "3.0"))

#: The tentpole batch budget the speedup is measured at.
_BATCH_BUDGET = 64

_JSON_PATH = RESULTS_DIR / "BENCH_serving.json"

_workload_cache = None


def _workload() -> tuple[HydraModel, list]:
    """A width-32 model and 64 small molecular structures.

    Small molecules are the latency-sensitive serving case (screening
    traffic); they are also where dynamic batching pays most, because
    per-call dispatch overhead rivals per-structure compute.
    """
    global _workload_cache
    if _workload_cache is None:
        corpus = generate_corpus(400, seed=11)
        graphs = [g for g in corpus.graphs if g.source in ("ani1x", "qm7x")][:_BATCH_BUDGET]
        assert len(graphs) == _BATCH_BUDGET
        model = HydraModel(ModelConfig(hidden_dim=32, num_layers=3), seed=0)
        _workload_cache = (model, graphs)
    return _workload_cache


def _merge_json(update: dict) -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    payload = {}
    if _JSON_PATH.exists():
        payload = json.loads(_JSON_PATH.read_text())
    payload.update(update)
    _JSON_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return _JSON_PATH


def _best_of_interleaved(fn_a, fn_b, rounds: int = 3) -> tuple[float, float]:
    """Best-of timings with a/b alternating each round (load-spike fair)."""
    best_a = best_b = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b


def bench_dynamic_batching_speedup(benchmark):
    """Batched serving must be ≥3x single-structure predict throughput."""
    model, graphs = _workload()

    def service(max_graphs: int) -> PredictionService:
        # Caching off: this measures batching, not memoization.
        return PredictionService(
            model,
            ServiceConfig(max_graphs=max_graphs, max_atoms=10**9, cache_capacity=0),
        )

    single, batched = service(1), service(_BATCH_BUDGET)

    def run_single():
        single.predict_many(graphs)

    def run_batched():
        batched.predict_many(graphs)

    run_single()  # warm-up: pools, kernel caches
    run_batched()
    t_single, t_batched = _best_of_interleaved(run_single, run_batched)
    speedup = t_single / t_batched
    sps_single = len(graphs) / t_single
    sps_batched = len(graphs) / t_batched
    text = (
        "serving_dynamic_batching_speedup\n"
        f"single-structure : {t_single * 1e3:8.1f} ms ({sps_single:8.1f} structures/s)\n"
        f"batched (≤{_BATCH_BUDGET})     : {t_batched * 1e3:8.1f} ms ({sps_batched:8.1f} structures/s)\n"
        f"speedup          : {speedup:8.2f}x (required >= {_SPEEDUP_FLOOR}x)"
    )
    write_result("serving_throughput", text)
    _merge_json(
        {
            "batch_budget": _BATCH_BUDGET,
            "speedup": round(speedup, 3),
            "speedup_floor": _SPEEDUP_FLOOR,
            "single_structures_per_s": round(sps_single, 1),
            "batched_structures_per_s": round(sps_batched, 1),
        }
    )
    assert speedup >= _SPEEDUP_FLOOR, f"dynamic batching only {speedup:.2f}x faster"
    benchmark(run_batched)


def bench_cached_serving_session(benchmark):
    """Repeat-heavy traffic: record hit-rate and p50/p95 latency."""
    model, graphs = _workload()
    service = PredictionService(
        model, ServiceConfig(max_graphs=_BATCH_BUDGET, max_atoms=10**9)
    )
    # Three passes over the same structures: pass one misses, passes two
    # and three hit — a 2/3 steady-state hit rate, like screening loops
    # that re-score a candidate set.
    for _ in range(3):
        service.predict_many(graphs)
    summary = service.summary()
    hit_rate = summary.cache_hit_rate
    text = (
        "serving_cached_session\n"
        f"requests        : {summary.requests}\n"
        f"cache hit rate  : {hit_rate:8.1%}\n"
        f"p50 latency     : {summary.p50_latency_s * 1e3:8.2f} ms\n"
        f"p95 latency     : {summary.p95_latency_s * 1e3:8.2f} ms\n"
        f"throughput      : {summary.requests_per_s:8.1f} structures/s"
    )
    write_result("serving_cached_session", text)
    _merge_json(
        {
            "session_requests": summary.requests,
            "cache_hit_rate": round(hit_rate, 4),
            "p50_latency_ms": round(summary.p50_latency_s * 1e3, 3),
            "p95_latency_ms": round(summary.p95_latency_s * 1e3, 3),
            "requests_per_s": round(summary.requests_per_s, 1),
        }
    )
    expected = 2 / 3
    assert abs(hit_rate - expected) < 1e-6, f"hit rate {hit_rate} != {expected}"
    assert summary.p95_latency_s >= summary.p50_latency_s

    def replay():
        service.predict_many(graphs)

    benchmark(replay)


def bench_threaded_dispatch_smoke(benchmark):
    """Two-slot served mode: a call split between slots matches inline."""
    model, graphs = _workload()
    inline = PredictionService(
        model, ServiceConfig(cache_capacity=0, max_atoms=10**9)
    ).predict_many(graphs)
    expected = np.array([r.energy for r in inline])

    def session() -> float:
        service = PredictionService(
            model, ServiceConfig(flush_interval_s=0.002, max_atoms=10**9)
        )
        with service.start(workers=2):
            results = service.predict_many(graphs)
        return float(np.abs(np.array([r.energy for r in results]) - expected).max())

    error = session()
    assert error < 1e-6, f"threaded serving diverged from inline by {error}"
    value = benchmark(session)
    assert np.isfinite(value)
