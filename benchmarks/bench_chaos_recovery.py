"""Chaos-recovery bench: injected faults vs a closed-loop retrying client.

The fault-tolerance counterpart of the replica-scaling bench: instead of
asking how fast the fleet goes, it asks how fast the fleet *heals*.  A
3-replica fleet runs with an injected fault plan — replica 0 wedges
(alive, accepting, never finishing) after its 8th request, replica 1
hard-crashes after its 8th — while a closed-loop client with the real
retrying ``HttpTransport`` drives a sequential request stream.

Recorded to ``benchmarks/results/BENCH_chaos.json`` (the CI artifact):

- client-observed latency percentiles (the max is the wedge window: how
  long one request waited for watchdog kill + reroute),
- per-replica outage windows sampled from the supervisor's view,
- watchdog escalation counters and router breaker/reroute counters,
- time from the last request until the fleet is fully healed.

Hard asserts (resilience is a correctness bar, not a speedup floor):
zero failed client requests, the wedge detected and escalated, the
crashed replica respawned, and the fleet fully healthy again afterwards.

Run:  PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_chaos_recovery.py \
          -o python_files="bench_*.py" -o python_functions="bench_*" \
          --benchmark-disable -q
"""

import json
import os
import threading
import time

import numpy as np

from _shared import RESULTS_DIR, write_result
from repro.api import Client, StructurePayload
from repro.serving import ReplicaSpec, ReplicaSupervisor
from repro.serving.router import BREAKER_CLOSED

_JSON_PATH = RESULTS_DIR / "BENCH_chaos.json"

_REPLICAS = 3
_REQUESTS = 48
_ATOMS = 24
_FAULT_SPEC = "wedge:after=8:replica=0,crash:after=8:replica=1"
_HEAL_TIMEOUT_S = float(os.environ.get("CHAOS_HEAL_TIMEOUT_S", "60"))


def _structures(count: int, seed: int) -> list[StructurePayload]:
    """Unique structures: every request pays a real forward on some replica."""
    rng = np.random.default_rng(seed)
    return [
        StructurePayload(
            atomic_numbers=rng.integers(1, 9, _ATOMS),
            positions=(rng.random((_ATOMS, 3)) * 6.0).round(4),
        )
        for _ in range(count)
    ]


class _HealthSampler(threading.Thread):
    """Samples the supervisor's per-replica view to size outage windows."""

    def __init__(self, supervisor: ReplicaSupervisor, period_s: float = 0.05):
        super().__init__(name="chaos-health-sampler", daemon=True)
        self.supervisor = supervisor
        self.period_s = period_s
        self.samples: list[tuple[float, dict[int, bool]]] = []
        # Not "_stop": threading.Thread owns that name internally.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.period_s):
            view = self.supervisor.describe()["replicas"]
            flags = {
                int(replica_id): bool(
                    entry["alive"]
                    and entry["routing"] is not None
                    and entry["routing"]["healthy"]
                    and entry["routing"]["breaker"] == BREAKER_CLOSED
                )
                for replica_id, entry in view.items()
            }
            self.samples.append((time.monotonic(), flags))

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)

    def outage_windows(self) -> dict[int, float]:
        """Longest contiguous not-fully-routable window per replica (s)."""
        worst: dict[int, float] = {rid: 0.0 for rid in range(_REPLICAS)}
        down_since: dict[int, float | None] = {rid: None for rid in range(_REPLICAS)}
        for stamp, flags in self.samples:
            for rid in range(_REPLICAS):
                if not flags.get(rid, False):
                    if down_since[rid] is None:
                        down_since[rid] = stamp
                    worst[rid] = max(worst[rid], stamp - down_since[rid])
                else:
                    down_since[rid] = None
        return worst


def bench_chaos_recovery(benchmark):
    """Wedge + crash under load: zero failures, bounded recovery."""
    spec = ReplicaSpec(
        args=(
            "--preset",
            "tiny",
            "--workers",
            "1",
            "--flush-interval",
            "0.002",
            "--fault-spec",
            _FAULT_SPEC,
        )
    )
    supervisor = ReplicaSupervisor(
        count=_REPLICAS,
        spec=spec,
        probe_interval_s=0.2,
        probe_timeout_s=1.0,
        max_request_age_s=1.0,
        term_grace_s=0.5,
        breaker_failure_threshold=1,
        breaker_reset_s=0.5,
    )
    supervisor.start()
    sampler = _HealthSampler(supervisor)
    sampler.start()
    latencies: list[float] = []
    failures = 0
    try:
        with Client.http(
            supervisor.url,
            retries=5,
            backoff_s=0.1,
            backoff_max_s=1.0,
            read_timeout_s=60.0,
        ) as client:
            for payload in _structures(_REQUESTS, seed=31):
                start = time.perf_counter()
                try:
                    client.predict([payload])
                except Exception as error:  # noqa: BLE001 - counted, then asserted zero
                    failures += 1
                    print(f"[chaos] request failed: {error!r}")
                latencies.append(time.perf_counter() - start)

        # Wait for the fleet to finish healing: every replica alive,
        # routable, breaker closed.
        heal_start = time.monotonic()
        healed_at = None
        while time.monotonic() - heal_start < _HEAL_TIMEOUT_S:
            view = supervisor.describe()["replicas"]
            if all(
                entry["alive"]
                and entry["routing"] is not None
                and entry["routing"]["healthy"]
                and entry["routing"]["breaker"] == BREAKER_CLOSED
                for entry in view.values()
            ):
                healed_at = time.monotonic()
                break
            time.sleep(0.1)
    finally:
        sampler.stop()
        watchdog = dict(supervisor.watchdog)
        router_counters = dict(supervisor.router._counters)
        restarts = {
            rid: entry["restarts"]
            for rid, entry in supervisor.describe()["replicas"].items()
        }
        supervisor.close()

    lat_ms = np.asarray(latencies) * 1000.0
    outages = sampler.outage_windows()
    heal_s = None if healed_at is None else round(healed_at - heal_start, 3)

    text = (
        "chaos_recovery\n"
        f"fault spec      : {_FAULT_SPEC}\n"
        f"requests        : {_REQUESTS} ({failures} failed)\n"
        f"latency ms      : p50 {np.percentile(lat_ms, 50):7.1f}   "
        f"p95 {np.percentile(lat_ms, 95):7.1f}   max {lat_ms.max():7.1f}\n"
        f"outage windows  : "
        + "  ".join(f"r{rid}={outages[rid]:.2f}s" for rid in sorted(outages))
        + "\n"
        f"watchdog        : {watchdog}\n"
        f"router          : breaker_opens={router_counters['breaker_opens']} "
        f"rerouted={router_counters['rerouted']}\n"
        f"healed in       : {heal_s}s after the stream ended"
    )
    write_result("chaos_recovery", text)

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    payload = {}
    if _JSON_PATH.exists():
        payload = json.loads(_JSON_PATH.read_text())
    payload.update(
        {
            "fault_spec": _FAULT_SPEC,
            "replicas": _REPLICAS,
            "requests": _REQUESTS,
            "failures": failures,
            "latency_ms_p50": round(float(np.percentile(lat_ms, 50)), 1),
            "latency_ms_p95": round(float(np.percentile(lat_ms, 95)), 1),
            "latency_ms_max": round(float(lat_ms.max()), 1),
            "outage_window_s": {str(rid): round(outages[rid], 2) for rid in outages},
            "watchdog": watchdog,
            "breaker_opens": router_counters["breaker_opens"],
            "rerouted": router_counters["rerouted"],
            "healed_after_s": heal_s,
        }
    )
    _JSON_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    assert failures == 0, f"{failures} client requests failed under chaos"
    assert watchdog["hung_detected"] >= 1, "the wedged replica was never detected"
    assert watchdog["respawns"] >= 1, "the wedged replica was never respawned"
    assert restarts[1] >= 1, "the crashed replica was never respawned"
    assert healed_at is not None, f"fleet not healed within {_HEAL_TIMEOUT_S}s"
    benchmark(lambda: None)
