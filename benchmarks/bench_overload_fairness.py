"""Noisy-neighbor overload bench: fairness and brownout under a flood.

The overload-protection contract this bench holds the fleet to:

- **Latency isolation** — with a bulk flood saturating every replica,
  an interactive trickle's p95 latency stays within a fixed multiple of
  its unloaded baseline (``OVERLOAD_P95_MULTIPLE``, default 25x).  The
  baseline denominator is floored at 20 ms so a lucky unloaded run
  cannot inflate the ratio; an unfair FIFO queue would park interactive
  behind the whole flood backlog (hundreds of ms, well past the
  ceiling).  Weighted-fair lanes are the mechanism: interactive holds
  its 8-of-12 share of every batch no matter how deep the bulk backlog
  grows.
- **Shed ordering** — zero interactive requests are rejected while the
  bulk/background lanes take real 429s.  Brownout degrades in priority
  order, never touching interactive.
- **Deterministic brownout** — the controller *enters* under the flood
  (proved by typed 429s with honest ``Retry-After`` hints; the only
  429 source here is brownout — quotas are off and ``--max-pending``
  is 0) and *exits* back to ``normal`` once the flood drains, within a
  bounded wait.

Results merge into ``benchmarks/results/BENCH_overload.json`` (the CI
artifact).

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_overload_fairness.py \
          -o python_files="bench_*.py" -o python_functions="bench_*" \
          --benchmark-disable -q
"""

import json
import os
import threading
import time
import urllib.error
import urllib.request

import numpy as np

from _shared import RESULTS_DIR, write_result
from repro.serving import ReplicaSpec, ReplicaSupervisor

_P95_MULTIPLE = float(os.environ.get("OVERLOAD_P95_MULTIPLE", "25.0"))
_BASELINE_FLOOR_S = 0.020  # denominator floor: don't let a fast baseline lie
_EXIT_TIMEOUT_S = float(os.environ.get("OVERLOAD_EXIT_TIMEOUT_S", "60.0"))

_JSON_PATH = RESULTS_DIR / "BENCH_overload.json"

_ATOMS = 64  # per structure: a real forward, not cache-trivial
_FLOOD_THREADS = 6
_FLOOD_STRUCTURES = 16  # per bulk request: each lands 16 graphs in the queue
_FLOOD_S = 6.0
_BASELINE_REQUESTS = 40
_TRICKLE_GAP_S = 0.03


def _structure(rng) -> dict:
    return {
        "atomic_numbers": rng.integers(1, 9, _ATOMS).tolist(),
        "positions": (rng.random((_ATOMS, 3)) * 6.0).round(4).tolist(),
    }


def _body(rng, structures: int, priority: str | None, client_id: str | None) -> bytes:
    payload = {
        "schema_version": "v1",
        "structures": [_structure(rng) for _ in range(structures)],
    }
    if priority is not None:
        payload["priority"] = priority
    if client_id is not None:
        payload["client_id"] = client_id
    return json.dumps(payload).encode()


def _post(url: str, body: bytes, timeout: float = 120.0) -> tuple[int, str | None]:
    """(status, Retry-After header) — typed HTTP errors return, not raise."""
    request = urllib.request.Request(
        url + "/v1/predict", data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            response.read()
            return response.status, None
    except urllib.error.HTTPError as error:
        error.read()
        return error.code, error.headers.get("Retry-After")


def _stats_admission(url: str) -> dict:
    with urllib.request.urlopen(url + "/v1/stats", timeout=30) as response:
        payload = json.loads(response.read())
    (entry,) = payload["models"].values()
    return entry["admission"]


def _p95(latencies: list[float]) -> float:
    return float(np.percentile(np.asarray(latencies), 95.0))


class _LaneCounters:
    """Thread-safe served/shed tally per lane, with Retry-After checks."""

    def __init__(self):
        self.lock = threading.Lock()
        self.served: dict[str, int] = {}
        self.shed: dict[str, int] = {}
        self.bad_hints = 0

    def record(self, lane: str, status: int, retry_after: str | None) -> None:
        with self.lock:
            if status == 200:
                self.served[lane] = self.served.get(lane, 0) + 1
            elif status == 429:
                self.shed[lane] = self.shed.get(lane, 0) + 1
                # Every 429 must carry an integral Retry-After >= 1.
                if retry_after is None or int(retry_after) < 1:
                    self.bad_hints += 1
            else:
                raise AssertionError(f"unexpected status {status} on {lane} lane")


def _interactive_trickle(url: str, stop: threading.Event, counters, latencies):
    rng = np.random.default_rng(7)
    while not stop.is_set():
        body = _body(rng, 1, "interactive", "dashboard")
        start = time.perf_counter()
        status, hint = _post(url, body)
        latencies.append(time.perf_counter() - start)
        counters.record("interactive", status, hint)
        stop.wait(_TRICKLE_GAP_S)


def _bulk_flood(url: str, stop: threading.Event, counters, seed: int):
    rng = np.random.default_rng(seed)
    while not stop.is_set():
        status, hint = _post(url, _body(rng, _FLOOD_STRUCTURES, "bulk", "batch-job"))
        counters.record("bulk", status, hint)
        if status == 429:
            stop.wait(min(float(hint or 1), 0.2))


def _background_ping(url: str, stop: threading.Event, counters):
    rng = np.random.default_rng(999)
    while not stop.is_set():
        status, hint = _post(url, _body(rng, 1, "background", "indexer"))
        counters.record("background", status, hint)
        stop.wait(0.1)


def bench_overload_fairness(benchmark):
    """Bulk flood + interactive trickle through a real brownout fleet."""
    spec = ReplicaSpec(
        args=(
            "--preset", "tiny",
            "--workers", "1",
            "--flush-interval", "0.002",
            "--max-pending", "0",  # brownout is the only 429 source
            "--max-graphs", "4",  # small batches keep interactive latency tight
            "--brownout-enter", "0.12",
            "--brownout-exit", "0.04",
            "--brownout-dwell", "0.1",
        )
    )
    supervisor = ReplicaSupervisor(count=2, spec=spec, probe_interval_s=0.2)
    supervisor.start()
    try:
        url = supervisor.url
        rng = np.random.default_rng(3)
        for _ in range(10):  # warmup: plan compiles, buffer pools
            _post(url, _body(rng, 1, "interactive", None))

        # Phase 1: unloaded interactive baseline.
        baseline: list[float] = []
        for _ in range(_BASELINE_REQUESTS):
            body = _body(rng, 1, "interactive", "dashboard")
            start = time.perf_counter()
            status, _hint = _post(url, body)
            assert status == 200
            baseline.append(time.perf_counter() - start)
        baseline_p95 = _p95(baseline)

        # Phase 2: the noisy neighbors move in.
        counters = _LaneCounters()
        loaded: list[float] = []
        stop = threading.Event()
        threads = [
            threading.Thread(
                target=_interactive_trickle, args=(url, stop, counters, loaded)
            ),
            threading.Thread(target=_background_ping, args=(url, stop, counters)),
        ] + [
            threading.Thread(target=_bulk_flood, args=(url, stop, counters, 100 + i))
            for i in range(_FLOOD_THREADS)
        ]
        for thread in threads:
            thread.start()
        time.sleep(_FLOOD_S)
        stop.set()
        for thread in threads:
            thread.join(timeout=120.0)
        loaded_p95 = _p95(loaded)
        multiple = loaded_p95 / max(baseline_p95, _BASELINE_FLOOR_S)

        interactive_shed = counters.shed.get("interactive", 0)
        noisy_shed = counters.shed.get("bulk", 0) + counters.shed.get("background", 0)

        # Phase 3: the flood is gone — brownout must walk back to normal.
        # Admissions drive the state machine, so keep a light pulse going.
        exit_deadline = time.monotonic() + _EXIT_TIMEOUT_S
        admission = _stats_admission(url)
        while (
            admission["brownout"]["state"] != "normal"
            and time.monotonic() < exit_deadline
        ):
            _post(url, _body(rng, 1, "interactive", None))
            time.sleep(0.1)
            admission = _stats_admission(url)
        exited = admission["brownout"]["state"] == "normal"

        text = (
            "overload_fairness\n"
            f"interactive p95 unloaded : {baseline_p95 * 1e3:8.1f} ms\n"
            f"interactive p95 flooded  : {loaded_p95 * 1e3:8.1f} ms "
            f"({multiple:.1f}x, ceiling {_P95_MULTIPLE:.0f}x)\n"
            f"served                   : {counters.served}\n"
            f"shed (429)               : {counters.shed}\n"
            f"brownout transitions     : {admission['brownout']['transitions']} "
            f"(final state {admission['brownout']['state']})"
        )
        write_result("overload_fairness", text)

        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        _JSON_PATH.write_text(
            json.dumps(
                {
                    "baseline_p95_ms": round(baseline_p95 * 1e3, 2),
                    "flooded_p95_ms": round(loaded_p95 * 1e3, 2),
                    "p95_multiple": round(multiple, 2),
                    "p95_multiple_ceiling": _P95_MULTIPLE,
                    "served": counters.served,
                    "shed": counters.shed,
                    "flood_threads": _FLOOD_THREADS,
                    "flood_structures_per_request": _FLOOD_STRUCTURES,
                    "brownout_transitions": admission["brownout"]["transitions"],
                    "brownout_exited": exited,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )

        # The gates, in contract order.
        assert interactive_shed == 0, (
            f"{interactive_shed} interactive requests shed — interactive "
            "must never be rejected before bulk/background"
        )
        assert noisy_shed > 0, (
            "flood produced no bulk/background 429s — brownout never "
            "engaged, the fleet was not saturated"
        )
        assert counters.bad_hints == 0, "a 429 arrived without an honest Retry-After"
        assert admission["lanes"]["interactive"]["shed"] == 0
        assert counters.served.get("interactive", 0) > 0
        assert multiple <= _P95_MULTIPLE, (
            f"interactive p95 degraded {multiple:.1f}x under the flood "
            f"(ceiling {_P95_MULTIPLE:.0f}x)"
        )
        assert exited, (
            f"brownout failed to return to normal within {_EXIT_TIMEOUT_S:.0f}s "
            "of the flood draining"
        )
        assert admission["brownout"]["transitions"] >= 2  # entered and exited
    finally:
        supervisor.close()
    benchmark(lambda: None)
