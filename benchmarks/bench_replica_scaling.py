"""Replica-serving scaling bench: N worker processes vs one, same stream.

One Python process tops out at roughly one core of model forwards no
matter how many serving threads it runs — the GIL serialises the
interpreter work around every kernel call.  ``ReplicaSupervisor`` is the
horizontal axis past that wall: N fork+exec'd replicas, each a full
engine in its own process, behind the async ``Router``.

This bench drives the *same* closed-loop request stream (8 client
threads, unique structures so no replica's result cache can answer from
memory) through a 1-replica fleet and an N-replica fleet and records the
end-to-end ``/v1/predict`` throughput ratio.

Floor policy (``REPLICA_SPEEDUP_FLOOR``, default 1.8x at 4 replicas):

- ``>= 4`` usable cores: N=4, the floor is enforced.
- 2-3 usable cores: N=2 and a weaker 2-replica floor
  (``REPLICA_SPEEDUP_FLOOR_2CORE``, default 1.15x) is enforced.
- 1 usable core: process parallelism cannot beat one core; the numbers
  are recorded to the JSON with the skip reason, nothing is asserted.

Results merge into ``benchmarks/results/BENCH_replicas.json`` (the CI
artifact).

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_replica_scaling.py \
          -o python_files="bench_*.py" -o python_functions="bench_*" \
          --benchmark-disable -q
"""

import itertools
import json
import os
import threading
import time
import urllib.request

import numpy as np

from _shared import RESULTS_DIR, write_result
from repro.serving import ReplicaSpec, ReplicaSupervisor

_FLOOR_4 = float(os.environ.get("REPLICA_SPEEDUP_FLOOR", "1.8"))
_FLOOR_2 = float(os.environ.get("REPLICA_SPEEDUP_FLOOR_2CORE", "1.15"))

_JSON_PATH = RESULTS_DIR / "BENCH_replicas.json"

_CLIENTS = 8
_REQUESTS = 192  # per timed session, split across the client threads
_WARMUP = 16  # per session: buffer pools, plan compiles, socket reuse
_ATOMS = 48  # ~5 ms/forward on the tiny preset: dominates proxy overhead


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _fleet_sizes() -> tuple[int, float, bool]:
    """``(n_replicas, floor, enforced)`` for this host's core budget."""
    cores = _usable_cores()
    if cores >= 4:
        return 4, _FLOOR_4, True
    if cores >= 2:
        return 2, _FLOOR_2, True
    return 2, _FLOOR_2, False


def _bodies(count: int, seed: int) -> list[bytes]:
    """``count`` pre-encoded single-structure requests, all unique.

    Unique positions per request defeat every replica's structure-hash
    result cache — each request must pay a real forward, which is the
    work the fleet is supposed to spread across cores.  Encoding happens
    up front so client threads spend the timed window on I/O, not json.
    """
    rng = np.random.default_rng(seed)
    bodies = []
    for _ in range(count):
        numbers = rng.integers(1, 9, _ATOMS).tolist()
        positions = (rng.random((_ATOMS, 3)) * 6.0).round(4).tolist()
        payload = {
            "schema_version": "v1",
            "structures": [{"atomic_numbers": numbers, "positions": positions}],
        }
        bodies.append(json.dumps(payload).encode())
    return bodies


def _drive(url: str, bodies: list[bytes]) -> float:
    """Closed-loop: 8 threads drain a shared queue of pre-encoded bodies."""
    indices = itertools.count()
    errors: list[BaseException] = []

    def worker() -> None:
        while True:
            index = next(indices)
            if index >= len(bodies):
                return
            request = urllib.request.Request(
                url + "/v1/predict",
                data=bodies[index],
                headers={"Content-Type": "application/json"},
            )
            try:
                with urllib.request.urlopen(request, timeout=120) as response:
                    response.read()
            except BaseException as error:  # surfaced below, fails the bench
                errors.append(error)
                return

    threads = [threading.Thread(target=worker) for _ in range(_CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise AssertionError(f"client errors during bench: {errors[:3]}")
    return elapsed


def _session(replicas: int, seed: int) -> float:
    """Requests/s for a ``replicas``-wide fleet over the standard stream."""
    spec = ReplicaSpec(
        args=(
            "--preset",
            "tiny",
            "--workers",
            "2",
            "--flush-interval",
            "0.002",
            "--max-pending",
            "0",
        )
    )
    supervisor = ReplicaSupervisor(count=replicas, spec=spec)
    supervisor.start()
    try:
        _drive(supervisor.url, _bodies(_WARMUP, seed=seed + 1))
        bodies = _bodies(_REQUESTS, seed=seed)
        elapsed = _drive(supervisor.url, bodies)
        return len(bodies) / elapsed
    finally:
        supervisor.close()


def bench_replica_scaling(benchmark):
    """N replica processes vs 1 on the same closed-loop request stream."""
    replicas, floor, enforced = _fleet_sizes()
    cores = _usable_cores()

    rps_1 = _session(1, seed=101)
    rps_n = _session(replicas, seed=202)
    speedup = rps_n / rps_1

    text = (
        "replica_scaling\n"
        f"replicas=1 : {rps_1:8.1f} req/s\n"
        f"replicas={replicas} : {rps_n:8.1f} req/s\n"
        f"scaling    : {speedup:8.2f}x (floor {floor}x, "
        f"{'enforced' if enforced else 'recorded only'} on {cores} usable cores)"
    )
    write_result("replica_scaling", text)

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    payload = {}
    if _JSON_PATH.exists():
        payload = json.loads(_JSON_PATH.read_text())
    payload.update(
        {
            "replicas": replicas,
            "clients": _CLIENTS,
            "requests_per_session": _REQUESTS,
            "rps_1_replica": round(rps_1, 1),
            f"rps_{replicas}_replicas": round(rps_n, 1),
            "speedup": round(speedup, 3),
            "floor": floor,
            "floor_enforced": enforced,
            "usable_cores": cores,
        }
    )
    _JSON_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    if enforced:
        assert speedup >= floor, (
            f"{replicas} replicas only {speedup:.2f}x vs 1 "
            f"(required >= {floor}x on {cores} cores)"
        )
    else:
        print(f"[replicas] floor not enforced: {cores} usable core(s)")
    benchmark(lambda: None)
