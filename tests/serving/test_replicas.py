"""The replica subsystem: router, telemetry aggregation, supervisor.

Three layers, cheapest first:

- pure-function tests of :func:`aggregate_model_telemetry`,
- :class:`Router` against fake stdlib HTTP replicas (load balancing,
  rerouting, draining, timeouts — no model, milliseconds each),
- a real 2-replica :class:`ReplicaSupervisor` fleet (tiny preset) for
  the things only processes can prove: kill -9 recovery, rolling
  restarts under sustained load with zero dropped requests, and the
  aggregated ``/v1/stats`` contract, plus the ``--replicas`` CLI as a
  subprocess with a graceful SIGTERM drain.
"""

import http.server
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro import wire
from repro.api import HttpTransport, SchemaError, schemas
from repro.api.schemas import StatsSnapshot
from repro.serving import ReplicaSpec, ReplicaStartupError, ReplicaSupervisor
from repro.serving.router import Router, aggregate_model_telemetry
from repro.serving import replicas
from tests.helpers import FRAMING_FAULTS, in_thread, parse_responses, raw_exchange, raw_post

pytestmark = pytest.mark.skipif(
    sys.platform == "win32", reason="POSIX signal semantics required"
)

WATER_BODY = json.dumps(
    {
        "schema_version": "v1",
        "structures": [
            {
                "atomic_numbers": [8, 1, 1],
                "positions": [
                    [0.0, 0.0, 0.117],
                    [0.0, 0.755, -0.471],
                    [0.0, -0.755, -0.471],
                ],
            }
        ],
    }
).encode()


def post(url: str, body: bytes, timeout: float = 60.0):
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def get(url: str, timeout: float = 30.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, json.loads(response.read())


# ----------------------------------------------------------------------
# Telemetry aggregation (pure functions)
# ----------------------------------------------------------------------
def replica_models(requests, cache_hits, plan_hits, plan_misses, p50):
    return {
        "default": {
            "serving": {
                "requests": requests,
                "cache_hits": cache_hits,
                "cache_hit_rate": cache_hits / requests if requests else 0.0,
                "batches": 2,
                "mean_batch_graphs": 2.0,
                "mean_batch_atoms": 30.0,
                "p50_latency_s": p50,
                "p95_latency_s": p50 * 2,
                "mean_latency_s": p50,
                "wall_time_s": 1.0,
                "requests_per_s": float(requests),
                "atoms_per_s": 100.0,
            },
            "result_cache": {"hits": cache_hits, "misses": requests - cache_hits,
                             "evictions": 0, "hit_rate": 0.5},
            "buffer_pool": {"hits": 4, "misses": 2, "evictions": 0, "hit_rate": 0.66,
                            "reserved_bytes": 1024, "idle_buffers": 2},
            "plans": {
                "enabled": True,
                "plans_compiled": plan_misses,
                "plan_hits": plan_hits,
                "plan_misses": plan_misses,
                "plan_fallbacks": 0,
                "plan_hit_rate": 0.0,
                "cached_plans": plan_misses,
            },
            "batching": {"max_atoms": 512, "max_graphs": 64, "flush_interval_s": 0.005,
                         "max_pending": 0, "rejected": 1, "flush_reasons": {"timeout": 2}},
            "engine": {"backend": "numpy", "physical_units": False},
        }
    }


class TestAggregation:
    def test_counters_sum_and_rates_recompute(self):
        merged = aggregate_model_telemetry(
            [
                replica_models(requests=6, cache_hits=3, plan_hits=4, plan_misses=1, p50=0.002),
                replica_models(requests=2, cache_hits=2, plan_hits=0, plan_misses=1, p50=0.010),
            ]
        )
        entry = merged["default"]
        assert entry["replica_count"] == 2
        assert entry["serving"]["requests"] == 8
        assert entry["serving"]["cache_hits"] == 5
        assert entry["serving"]["cache_hit_rate"] == pytest.approx(5 / 8)
        # Plan counters sum; the hit rate is recomputed from the sums,
        # not averaged from the per-replica rates.
        assert entry["plans"]["plan_hits"] == 4
        assert entry["plans"]["plan_misses"] == 2
        assert entry["plans"]["plans_compiled"] == 2
        assert entry["plans"]["plan_hit_rate"] == pytest.approx(4 / 6)
        assert entry["plans"]["cached_plans"] == 2
        assert entry["batching"]["rejected"] == 2
        assert entry["batching"]["flush_reasons"] == {"timeout": 4}

    def test_latency_is_request_weighted(self):
        merged = aggregate_model_telemetry(
            [
                replica_models(requests=6, cache_hits=0, plan_hits=0, plan_misses=1, p50=0.002),
                replica_models(requests=2, cache_hits=0, plan_hits=0, plan_misses=1, p50=0.010),
            ]
        )
        p50 = merged["default"]["serving"]["p50_latency_s"]
        assert p50 == pytest.approx((6 * 0.002 + 2 * 0.010) / 8)

    def test_missing_sections_are_tolerated(self):
        """A replica on older code contributes only what it reports."""
        sparse = {"default": {"serving": {"requests": 4, "cache_hits": 1}}}
        full = replica_models(requests=6, cache_hits=3, plan_hits=4, plan_misses=1, p50=0.002)
        merged = aggregate_model_telemetry([full, sparse])
        entry = merged["default"]
        assert entry["serving"]["requests"] == 10
        assert entry["plans"]["plan_hits"] == 4  # only the full replica's
        assert entry["result_cache"]["hits"] == 3

    def test_disjoint_model_names_keep_separate_entries(self):
        merged = aggregate_model_telemetry(
            [{"a": {"serving": {"requests": 1}}}, {"b": {"serving": {"requests": 2}}}]
        )
        assert merged["a"]["serving"]["requests"] == 1
        assert merged["b"]["serving"]["requests"] == 2
        assert merged["a"]["replica_count"] == 1

    def test_empty_fleet_aggregates_to_empty(self):
        assert aggregate_model_telemetry([]) == {}


# ----------------------------------------------------------------------
# Router against fake replicas (no model, no subprocess)
# ----------------------------------------------------------------------
class _FakeReplica:
    """A stdlib HTTP server impersonating one replica's ApiServer."""

    def __init__(self, predict_delay_s: float = 0.0):
        self.requests_served = 0
        self.predict_delay_s = predict_delay_s
        fake = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def log_message(self, *args):  # silence
                pass

            def _reply(self, status: int, payload: dict) -> None:
                body = json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                self.rfile.read(length)
                if fake.predict_delay_s:
                    time.sleep(fake.predict_delay_s)
                fake.requests_served += 1
                self._reply(200, {"schema_version": "v1", "model": "fake",
                                  "served_by": fake.port, "results": []})

            def do_GET(self):
                if self.path == "/v1/stats":
                    self._reply(
                        200,
                        {
                            "schema_version": "v1",
                            "models": replica_models(
                                requests=fake.requests_served,
                                cache_hits=0,
                                plan_hits=1,
                                plan_misses=1,
                                p50=0.001,
                            ),
                            "uptime_s": 1.0,
                            "pid": os.getpid(),
                        },
                    )
                else:
                    self._reply(200, {"schema_version": "v1", "status": "ok"})

        self.server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    def stop(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture()
def two_fakes():
    fakes = [_FakeReplica(), _FakeReplica()]
    router = Router().start()
    for replica_id, fake in enumerate(fakes):
        router.set_replica(replica_id, fake.port, pid=1000 + replica_id)
    yield router, fakes
    router.close()
    for fake in fakes:
        fake.stop()


class TestRouter:
    @pytest.mark.parametrize(
        "content_length, complaint",
        [
            ("99999999999", "request body too large (99999999999 > "),
            ("abc", "malformed Content-Length header"),
            ("-5", "malformed Content-Length header"),
            ("+5", "malformed Content-Length header: '+5' is not a decimal length"),
            ("1_0", "malformed Content-Length header: '1_0' is not a decimal length"),
        ],
    )
    def test_bad_content_length_is_a_typed_400_not_a_dropped_connection(
        self, two_fakes, content_length, complaint
    ):
        """An unusable Content-Length used to close the socket unanswered,
        which the client read as a retryable transport failure and
        re-sent; the router now says what a replica would."""
        router, fakes = two_fakes

        class BadlyFramed(HttpTransport):
            def _send(self, method, path, data, headers, deadline):
                # http.client keeps a caller-supplied Content-Length as it is.
                framed = {**headers, "Content-Length": content_length}
                return super()._send(method, path, data, framed, deadline)

        transport = BadlyFramed(router.url, retries=2, backoff_s=0.001)
        with pytest.raises(SchemaError, match=re.escape(complaint)) as caught:
            transport._request("POST", "/v1/predict", json.loads(WATER_BODY))
        assert caught.value.http_status == 400
        assert caught.value.code == "invalid_request"
        assert transport.retried == 0
        assert sum(fake.requests_served for fake in fakes) == 0
        # The router is unharmed for the next client.
        status, _ = post(router.url + "/v1/predict", WATER_BODY)
        assert status == 200

    def test_conflicting_content_lengths_are_one_typed_400_then_close(self, two_fakes):
        """Duplicate headers used to frame on the *last* value here and on
        the first at a replica; now both refuse them with the same words."""
        router, fakes = two_fakes
        status, payload = raw_post(
            router.url + "/v1/predict",
            [("Content-Length", "3"), ("Content-Length", "5")],
            b"{}{}{",
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"
        assert payload["error"]["message"] == (
            "malformed Content-Length header: conflicting values ['3', '5']"
        )
        assert sum(fake.requests_served for fake in fakes) == 0
        # Repeats that agree frame like one header.
        length = str(len(WATER_BODY))
        status, _ = raw_post(
            router.url + "/v1/predict",
            [("Content-Length", length), ("Content-Length", length), ("Connection", "close")],
            WATER_BODY,
        )
        assert status == 200

    def test_load_balances_across_replicas(self, two_fakes):
        router, fakes = two_fakes
        for _ in range(8):
            status, payload = post(router.url + "/v1/predict", WATER_BODY)
            assert status == 200
        assert fakes[0].requests_served >= 2
        assert fakes[1].requests_served >= 2

    def test_reroutes_around_a_dead_replica(self, two_fakes):
        router, fakes = two_fakes
        fakes[0].stop()
        for _ in range(4):
            status, _ = post(router.url + "/v1/predict", WATER_BODY)
            assert status == 200
        snapshot = router.snapshot()
        assert snapshot[0]["healthy"] is False  # marked down on first failure
        assert snapshot[1]["healthy"] is True

    def test_all_dead_is_a_typed_503(self, two_fakes):
        router, fakes = two_fakes
        router.set_health(0, False)
        router.set_health(1, False)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(router.url + "/v1/predict", WATER_BODY)
        assert excinfo.value.code == 503
        assert json.loads(excinfo.value.read())["error"]["code"] == "unavailable"
        # Retryable by contract: the 503 carries a Retry-After hint.
        assert int(excinfo.value.headers["Retry-After"]) >= 1

    def _saturated(self, level: int, wait_s: float = 0.5) -> dict:
        return {
            "queue_depth": 8,
            "estimated_wait_s": wait_s,
            "brownout_level": level,
            "brownout_state": ("normal", "shed_background", "shed_bulk")[level],
        }

    def post_lane(self, router, lane: str | None):
        headers = {} if lane is None else {schemas.PRIORITY_HEADER: lane}
        request = urllib.request.Request(
            router.url + "/v1/predict",
            data=WATER_BODY,
            headers={"Content-Type": "application/json", **headers},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status

    def test_front_door_sheds_only_when_fleet_is_unanimous(self, two_fakes):
        router, fakes = two_fakes
        # One replica in brownout: the healthy sibling still accepts, so
        # the router keeps forwarding every lane.
        router.set_saturation(0, self._saturated(1))
        for lane in (None, "interactive", "bulk", "background"):
            assert self.post_lane(router, lane) == 200
        # Whole fleet at level 1: background is shed at the front door
        # with an honest hint; bulk and interactive still cross the wire.
        router.set_saturation(1, self._saturated(1, wait_s=2.2))
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.post_lane(router, "background")
        assert excinfo.value.code == 429
        body = json.loads(excinfo.value.read())
        assert body["error"]["code"] == "overloaded"
        assert "fleet brownout" in body["error"]["message"]
        assert body["error"]["retry_after_s"] == pytest.approx(2.2)
        assert int(excinfo.value.headers["Retry-After"]) == 3
        assert self.post_lane(router, "bulk") == 200
        assert self.post_lane(router, "interactive") == 200
        # Level 2 sheds bulk too; interactive always crosses.
        router.set_saturation(0, self._saturated(2))
        router.set_saturation(1, self._saturated(2))
        with pytest.raises(urllib.error.HTTPError):
            self.post_lane(router, "bulk")
        assert self.post_lane(router, "interactive") == 200
        assert self.post_lane(router, None) == 200
        # Recovery on one replica reopens the front door for every lane.
        router.set_saturation(0, self._saturated(0))
        assert self.post_lane(router, "background") == 200
        assert get(router.url + "/v1/stats")[1]["router"]["brownout_shed"] == 2

    def test_identity_headers_forwarded_to_replicas(self):
        seen = {}

        class _Recorder(_FakeReplica):
            def __init__(self):
                super().__init__()

        fake = _Recorder()
        original_handler = fake.server.RequestHandlerClass
        do_post = original_handler.do_POST

        def recording_post(handler):
            seen["client"] = handler.headers.get(schemas.CLIENT_HEADER)
            seen["priority"] = handler.headers.get(schemas.PRIORITY_HEADER)
            do_post(handler)

        original_handler.do_POST = recording_post
        router = Router().start()
        router.set_replica(0, fake.port, pid=1)
        try:
            request = urllib.request.Request(
                router.url + "/v1/predict",
                data=WATER_BODY,
                headers={
                    "Content-Type": "application/json",
                    schemas.CLIENT_HEADER: "tenant-a",
                    schemas.PRIORITY_HEADER: "bulk",
                },
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                assert response.status == 200
            assert seen == {"client": "tenant-a", "priority": "bulk"}
        finally:
            router.close()
            fake.stop()

    def test_draining_rejects_new_while_in_flight_finishes(self):
        fake = _FakeReplica(predict_delay_s=0.6)
        router = Router().start()
        router.set_replica(0, fake.port, pid=1)
        try:
            results = {}

            def slow_predict():
                results["slow"] = post(router.url + "/v1/predict", WATER_BODY, timeout=30)

            thread = threading.Thread(target=slow_predict)
            thread.start()
            deadline = time.monotonic() + 5
            while router.total_in_flight() == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert router.total_in_flight() == 1

            router.stop_admitting()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(router.url + "/v1/predict", WATER_BODY)
            assert excinfo.value.code == 503
            assert json.loads(excinfo.value.read())["error"]["code"] == "unavailable"

            assert router.wait_idle(timeout_s=10.0)  # the admitted one finishes
            thread.join(timeout=10.0)
            assert results["slow"][0] == 200

            router.resume_admitting()
            status, _ = post(router.url + "/v1/predict", WATER_BODY)
            assert status == 200
        finally:
            router.close()
            fake.stop()

    def test_slow_replica_times_out_without_reroute(self):
        """Timeouts mean load, not death: 504, no retry on a sibling."""
        fake = _FakeReplica(predict_delay_s=5.0)
        router = Router(proxy_timeout_s=0.3).start()
        router.set_replica(0, fake.port, pid=1)
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(router.url + "/v1/predict", WATER_BODY, timeout=30)
            assert excinfo.value.code == 504
            assert json.loads(excinfo.value.read())["error"]["code"] == "timeout"
            assert router.snapshot()[0]["healthy"] is True  # not marked down
        finally:
            router.close()
            fake.stop()

    def test_unknown_endpoint_is_a_v1_404(self, two_fakes):
        router, _ = two_fakes
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(router.url + "/v1/nope")
        assert excinfo.value.code == 404
        assert json.loads(excinfo.value.read())["error"]["code"] == "not_found"

    def test_stats_aggregate_parses_as_v1_snapshot(self, two_fakes):
        router, _ = two_fakes
        for _ in range(4):
            post(router.url + "/v1/predict", WATER_BODY)
        status, payload = get(router.url + "/v1/stats")
        assert status == 200
        snapshot = StatsSnapshot.from_json_dict(payload)  # strict v1 parse
        assert snapshot.models["default"]["serving"]["requests"] == 4
        assert snapshot.models["default"]["replica_count"] == 2
        assert snapshot.models["default"]["plans"]["plan_hits"] == 2  # 1 per fake
        assert set(snapshot.replicas) == {"0", "1"}
        assert snapshot.router["requests"] == 4
        assert snapshot.router["admitting"] is True
        assert snapshot.pid == os.getpid()

    def test_health_degrades_with_the_fleet(self, two_fakes):
        router, _ = two_fakes
        assert get(router.url + "/v1/healthz")[1]["status"] == "ok"
        router.set_health(0, False)
        assert get(router.url + "/v1/healthz")[1]["status"] == "degraded"
        router.set_health(1, False)
        # Zero healthy replicas: load balancers keying on the status code
        # must see a failing probe, not a 200 that says "unavailable".
        with pytest.raises(urllib.error.HTTPError) as caught:
            get(router.url + "/v1/healthz")
        assert caught.value.code == 503
        body = json.loads(caught.value.read())
        assert body["error"]["code"] == "unavailable"
        with pytest.raises(urllib.error.HTTPError) as caught:
            get(router.url + "/v1/stats")
        assert caught.value.code == 503
        assert json.loads(caught.value.read())["error"]["code"] == "unavailable"
        router.set_health(0, True)
        router.stop_admitting()
        assert get(router.url + "/v1/healthz")[1]["status"] == "shutting_down"


class TestRouterStack:
    """The framing the router shares with the replicas, and the bounds and
    concurrency its HTTP stack must provide."""

    @pytest.mark.parametrize(
        "raw, status, code, message", FRAMING_FAULTS, ids=[str(f[1]) for f in FRAMING_FAULTS]
    )
    def test_parser_faults_get_a_typed_answer_then_close(
        self, two_fakes, raw, status, code, message
    ):
        """A garbled request line used to get a silent close, which clients
        read as a transport failure and retried."""
        router, fakes = two_fakes
        (response,) = parse_responses(raw_exchange(router.url, raw))
        envelope = {"code": code, "message": message, "status": status}
        assert response == (status, {"schema_version": "v1", "error": envelope})
        assert sum(fake.requests_served for fake in fakes) == 0

    def test_stalled_body_is_dropped_after_the_idle_bound(self, two_fakes, monkeypatch):
        router, fakes = two_fakes
        monkeypatch.setattr(wire, "IDLE_TIMEOUT_S", 0.3)
        start = time.monotonic()
        stalled = b"POST /v1/predict HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}"
        assert raw_exchange(router.url, stalled, timeout=5.0) == b""
        assert 0.25 < time.monotonic() - start < 2.0
        assert sum(fake.requests_served for fake in fakes) == 0
        assert post(router.url + "/v1/predict", WATER_BODY)[0] == 200

    def test_trickled_stream_is_bounded_as_a_whole(self):
        """A replica that answers 200 and then trickles NDJSON keeps every
        single read short; the proxy timeout still bounds the exchange."""

        class Trickle(http.server.BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                self.send_response(200)
                self.send_header("Content-Type", "application/x-ndjson")
                self.end_headers()
                try:
                    for _ in range(60):  # three seconds of frames
                        self.wfile.write(b'{"frame": {}}\n')
                        self.wfile.flush()
                        time.sleep(0.05)
                except OSError:
                    pass  # the router gave up

        replica = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Trickle)
        threading.Thread(target=replica.serve_forever, daemon=True).start()
        router = Router(proxy_timeout_s=0.5).start()
        router.set_replica(0, replica.server_address[1], pid=1)
        try:
            start = time.monotonic()
            with pytest.raises(urllib.error.HTTPError) as caught:
                post(router.url + "/v1/md", WATER_BODY)
            assert time.monotonic() - start < 1.5
            assert caught.value.code == 504
            assert json.loads(caught.value.read())["error"]["code"] == "timeout"
            assert router.snapshot()[0]["healthy"] is True
        finally:
            router.close()
            replica.shutdown()
            replica.server_close()

    def test_concurrent_clients_lose_no_counts(self, two_fakes):
        """Handler threads now dispatch side by side: the router's counters
        and in-flight charges must not lose an update."""
        router, _ = two_fakes
        clients, calls = 4 * (os.cpu_count() or 1), 10
        statuses = []

        def client():
            for _ in range(calls):
                statuses.append(post(router.url + "/v1/predict", WATER_BODY, timeout=30)[0])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client) for _ in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert statuses == [200] * (clients * calls)
        assert router._counters["requests"] == clients * calls
        assert router.total_in_flight() == 0

    def test_a_connect_burst_is_queued_not_dropped(self, two_fakes):
        """A listen backlog of stdlib's 5 dropped most of a burst, which
        then waited out a one-second SYN retry."""
        router, _ = two_fakes
        barrier = threading.Barrier(40)
        latencies = []

        def connect():
            barrier.wait(timeout=10)
            start = time.monotonic()
            raw_exchange(router.url, b"GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            latencies.append(time.monotonic() - start)

        threads = [threading.Thread(target=connect) for _ in range(40)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(latencies) == 40
        assert max(latencies) < 1.0

    def test_a_taken_port_fails_start_with_a_runtime_error(self, two_fakes):
        router, _ = two_fakes
        with pytest.raises(RuntimeError, match="router failed to bind: "):
            Router(port=router.bound_port).start()

    def test_stats_fan_out_is_concurrent(self, two_fakes):
        router, fakes = two_fakes
        for fake in fakes:
            handler = fake.server.RequestHandlerClass

            def slow_get(self, do_get=handler.do_GET):
                time.sleep(0.5)
                do_get(self)

            handler.do_GET = slow_get
        start = time.monotonic()
        status, payload = get(router.url + "/v1/stats")
        assert time.monotonic() - start < 0.9
        assert status == 200
        assert payload["models"]["default"]["replica_count"] == 2


# ----------------------------------------------------------------------
# The real thing: a 2-replica fleet of tiny-preset servers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fleet():
    spec = ReplicaSpec(
        args=(
            "--preset",
            "tiny",
            "--workers",
            "1",
            "--flush-interval",
            "0.002",
            "--max-pending",
            "0",
        )
    )
    supervisor = ReplicaSupervisor(count=2, spec=spec, probe_interval_s=0.2)
    supervisor.start()
    yield supervisor
    supervisor.close()


class TestSupervisor:
    def test_predict_and_aggregated_stats(self, fleet):
        for _ in range(4):
            status, payload = post(fleet.url + "/v1/predict", WATER_BODY)
            assert status == 200
            assert payload["results"][0]["n_atoms"] == 3

        status, payload = get(fleet.url + "/v1/stats")
        snapshot = StatsSnapshot.from_json_dict(payload)
        entry = snapshot.models["default"]
        assert entry["serving"]["requests"] >= 4
        assert "plan_hits" in entry["plans"] and "plans_compiled" in entry["plans"]
        # Per-replica breakdown carries each process's identity.
        reported_pids = {
            replica["replica_pid"] for replica in snapshot.replicas.values()
        }
        assert reported_pids == set(fleet.pids().values())
        for replica in snapshot.replicas.values():
            assert replica["healthy"] is True
            assert "models" in replica
        assert snapshot.router["requests"] >= 4
        # Fleet-merged overload-protection view: every admitted request
        # rode a lane, and a healthy fleet reports brownout "normal".
        admission = entry["admission"]
        assert admission["lanes"]["interactive"]["admitted"] >= 4
        assert admission["brownout"]["state"] == "normal"
        assert admission["shed"].get("brownout", 0) == 0

    def test_sigkill_reroutes_and_respawns(self, fleet):
        victim_id, victim_pid = 0, fleet.pids()[0]
        os.kill(victim_pid, signal.SIGKILL)
        # Every request during the outage must still succeed: the router
        # reroutes a refused connection to the surviving replica.
        for _ in range(6):
            status, _ = post(fleet.url + "/v1/predict", WATER_BODY)
            assert status == 200
        # ... and the supervisor brings up a replacement in the slot.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            new_pid = fleet.pids()[victim_id]
            if new_pid not in (victim_pid, 0) and fleet.router.snapshot()[victim_id]["healthy"]:
                break
            time.sleep(0.1)
        else:
            pytest.fail(f"replica {victim_id} was not respawned: {fleet.describe()}")
        assert fleet.router.snapshot()[victim_id]["restarts"] == 1
        status, _ = post(fleet.url + "/v1/predict", WATER_BODY)
        assert status == 200

    def test_rolling_restart_under_load_drops_nothing(self, fleet):
        before = dict(fleet.pids())
        stop = threading.Event()
        failures: list[BaseException] = []
        completed = [0]

        def hammer():
            while not stop.is_set():
                try:
                    status, _ = post(fleet.url + "/v1/predict", WATER_BODY, timeout=60)
                    assert status == 200
                    completed[0] += 1
                except BaseException as error:  # any failed request fails the test
                    failures.append(error)
                    return

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            new_pids = fleet.rolling_restart(drain_timeout_s=60.0)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60.0)
        assert not failures, f"requests failed during rolling restart: {failures[:3]}"
        assert completed[0] > 0
        for replica_id, old_pid in before.items():
            assert new_pids[replica_id] != old_pid
        # The restarted fleet serves.
        status, _ = post(fleet.url + "/v1/predict", WATER_BODY)
        assert status == 200


class TestStartup:
    """``startup_timeout_s`` bounds ``start()`` whatever the child prints."""

    def _start(self, monkeypatch, script: str, timeout_s: float):
        """``start()`` a one-replica fleet of ``python -c script`` on a thread.

        Returns the outcome, the seconds it took and the spawned processes;
        a ``start()`` that outlives the bound fails the test, not the suite.
        """
        spawned: list[subprocess.Popen] = []

        class Recorded(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                spawned.append(self)

        monkeypatch.setattr(replicas.subprocess, "Popen", Recorded)
        monkeypatch.setattr(
            ReplicaSupervisor, "_command", lambda self: [sys.executable, "-c", script]
        )
        supervisor = ReplicaSupervisor(count=1, spec=ReplicaSpec(startup_timeout_s=timeout_s))
        started = time.monotonic()
        thread, outcome = in_thread(supervisor.start)
        thread.join(timeout=timeout_s + 10.0)
        try:
            assert not thread.is_alive(), "start() ignored startup_timeout_s"
        finally:
            for process in spawned:
                if process.poll() is None:
                    process.kill()
                    process.wait()
            supervisor.router.close()
        return outcome, time.monotonic() - started, spawned

    def test_a_silent_replica_times_out_and_is_killed(self, monkeypatch):
        outcome, elapsed, spawned = self._start(
            monkeypatch, "import time; time.sleep(60)", timeout_s=0.5
        )
        assert isinstance(outcome.get("error"), ReplicaStartupError)
        assert "timeout 0.5s" in str(outcome["error"])
        assert elapsed < 2.0
        assert len(spawned) == 1 and spawned[0].returncode is not None
        with pytest.raises(ProcessLookupError):
            os.kill(spawned[0].pid, 0)  # killed and reaped: no child is left

    def test_a_replica_that_exits_first_is_reported_with_its_tail(self, monkeypatch):
        script = "import sys; print('loading model'); print('error: no such preset'); sys.exit(3)"
        outcome, elapsed, spawned = self._start(monkeypatch, script, timeout_s=30.0)
        error = outcome.get("error")
        assert isinstance(error, ReplicaStartupError)
        assert "exit=3" in str(error)
        assert "loading model\nerror: no such preset" in str(error)
        assert elapsed < 10.0  # the exit ends the wait, not the timeout
        assert [process.returncode for process in spawned] == [3]


# ----------------------------------------------------------------------
# The CLI front door: repro serve --http 0 --replicas N
# ----------------------------------------------------------------------
class TestCliReplicas:
    def _launch(self, *extra):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--http",
                "0",
                "--replicas",
                "2",
                "--preset",
                "tiny",
                "--workers",
                "1",
                "--flush-interval",
                "0.002",
                *extra,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )

    def test_sigterm_drains_in_flight_and_exits_zero(self):
        process = self._launch()
        try:
            deadline = time.monotonic() + 120
            url = None
            while time.monotonic() < deadline:
                line = process.stdout.readline()
                match = re.search(r"bound_port=(\d+)", line)
                if match:
                    url = f"http://127.0.0.1:{match.group(1)}"
                    break
                assert line and process.poll() is None, "supervisor died during startup"
            assert url is not None

            # Warm both replicas, then put genuinely slow requests in
            # flight: 12 unique 48-atom structures per request keep each
            # replica busy long enough for SIGTERM to land mid-request.
            assert post(url + "/v1/predict", WATER_BODY, timeout=120)[0] == 200
            rng = np.random.default_rng(7)
            heavy_body = json.dumps(
                {
                    "schema_version": "v1",
                    "structures": [
                        {
                            "atomic_numbers": rng.integers(1, 9, 48).tolist(),
                            "positions": (rng.random((48, 3)) * 6.0).tolist(),
                        }
                        for _ in range(12)
                    ],
                }
            ).encode()

            outcomes: list[object] = []

            def predict():
                # An in-flight request must complete (200); one that
                # arrives after the drain gate closes gets the typed 503.
                # Anything else — dropped connection, reset, timeout —
                # means the drain lost a request.
                try:
                    outcomes.append(post(url + "/v1/predict", heavy_body, timeout=60)[0])
                except urllib.error.HTTPError as error:
                    outcomes.append(error.code)
                except BaseException as error:  # noqa: BLE001 - asserted below
                    outcomes.append(error)

            threads = [threading.Thread(target=predict) for _ in range(6)]
            for thread in threads:
                thread.start()
            time.sleep(0.05)  # let the requests reach the replicas
            process.send_signal(signal.SIGTERM)
            for thread in threads:
                thread.join(timeout=60.0)
            out, _ = process.communicate(timeout=120)
            assert process.returncode == 0, (process.returncode, out)
            assert "supervisor stopped cleanly" in out, out
            assert len(outcomes) == len(threads)
            assert all(outcome in (200, 503) for outcome in outcomes), outcomes
            assert 200 in outcomes  # at least some were admitted and completed
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()

    def test_replicas_requires_http(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--replicas", "2", "--preset", "tiny"],
            env={
                **os.environ,
                "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src"),
            },
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode != 0
        assert "--replicas" in result.stderr + result.stdout
