"""Fault tolerance end to end: deadlines, breaker, watchdog, chaos fleet.

Four layers, cheapest first:

- :class:`~repro.serving.faults.FaultPlan` grammar and trigger counting
  (pure functions, microseconds),
- deadline drops inside the :class:`~repro.serving.batcher.MicroBatcher`
  and the in-process :class:`~repro.api.server.ApiGateway` (no sockets),
- :class:`~repro.serving.router.Router` circuit breaker and router-side
  deadline 504s against fake stdlib replicas (sockets, no model
  processes),
- the chaos smoke: a real 3-replica fleet with a wedging replica and a
  crashing replica, a closed-loop retrying client that must see zero
  failures, and the watchdog/breaker counters proving both faults were
  detected and healed.
"""

import http.server
import json
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import (
    ApiGateway,
    Client,
    DEADLINE_HEADER,
    DeadlineExceededError,
    PredictRequest,
    RelaxRequest,
    StructurePayload,
)
from repro.api import schemas
from repro.models import HydraModel, ModelConfig
from repro.serving import (
    DeadlineExceeded,
    FaultPlan,
    FaultSpecError,
    MicroBatcher,
    ModelRegistry,
    ReplicaSpec,
    ReplicaSupervisor,
    ServeRequest,
)
from repro.serving.faults import CRASH_EXIT_CODE, FAULT_SPEC_ENV, REPLICA_ID_ENV
from repro.serving.router import BREAKER_CLOSED, BREAKER_OPEN, Router
from tests.helpers import make_molecule_graphs

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


def post(url: str, body: bytes, headers: dict | None = None, timeout: float = 60.0):
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json", **(headers or {})}
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def get(url: str, timeout: float = 30.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, json.loads(response.read())


# ----------------------------------------------------------------------
# FaultPlan grammar
# ----------------------------------------------------------------------
class TestFaultSpecGrammar:
    def test_parses_the_chaos_smoke_spec(self):
        spec = "wedge:after=3:replica=0,crash:after=5:replica=1"
        plan = FaultPlan.parse(spec, replica_id=0)
        assert [clause.kind for clause in plan.clauses] == ["wedge"]
        assert plan.clauses[0].after == 3
        assert plan.clauses[0].replica == 0
        # A process with no fleet identity is not replica K: targeted
        # clauses are inert there by construction.
        assert FaultPlan.parse(spec).clauses == ()

    def test_replica_targeting_drops_foreign_clauses(self):
        spec = "wedge:after=3:replica=0,crash:after=5:replica=1,delay:ms=10"
        plan = FaultPlan.parse(spec, replica_id=1)
        assert [clause.kind for clause in plan.clauses] == ["crash", "delay"]
        # Replica 2 keeps only the untargeted clause.
        assert [c.kind for c in FaultPlan.parse(spec, replica_id=2).clauses] == ["delay"]

    def test_from_env_reads_spec_and_replica_id(self):
        assert FaultPlan.from_env({}) is None
        plan = FaultPlan.from_env(
            {FAULT_SPEC_ENV: "wedge:after=9:replica=1", REPLICA_ID_ENV: "1"}
        )
        assert plan.replica_id == 1
        assert len(plan.clauses) == 1

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "explode:after=1",  # unknown kind
            "delay",  # delay without ms
            "delay:ms=abc",  # non-numeric
            "delay:ms=10:color=red",  # unknown key
            "delay:10",  # not key=value
            "wedge",  # wedge without after
            "crash:prob=0.5",  # crash without after
            "wedge:after=0",  # after must be >= 1
            "wedge:after=1.5",  # after must be integral
            "delay:ms=1:prob=0",  # prob out of range
            "delay:ms=1:prob=1.5",
            "wedge:after=1:ms=5",  # ms only applies to delay
        ],
    )
    def test_junk_specs_raise_typed_errors(self, spec):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse(spec)

    def test_after_counts_requests_and_stays_triggered(self):
        plan = FaultPlan.parse("delay:ms=1:after=3")
        for _ in range(2):
            plan.on_request()  # requests 1, 2: below the threshold
        assert plan.triggered.get("delay", 0) == 0
        plan.on_request()  # request 3 fires
        plan.on_request()  # ... and it stays triggered
        assert plan.triggered["delay"] == 2
        assert plan.describe()["requests_seen"] == 4

    def test_corrupt_rides_the_same_counter(self):
        plan = FaultPlan.parse("corrupt:after=2")
        body = b'{"schema_version": "v1", "results": []}'
        plan.on_request()
        assert plan.corrupt(body) == body  # request 1: clean
        plan.on_request()
        mangled = plan.corrupt(body)
        assert mangled.startswith(b"\x00CORRUPT")
        with pytest.raises(json.JSONDecodeError):
            json.loads(mangled.decode("utf-8", errors="replace"))

    def test_crash_exit_code_is_distinguishable(self):
        assert CRASH_EXIT_CODE not in (0, 1)


# ----------------------------------------------------------------------
# Deadlines in the micro-batcher
# ----------------------------------------------------------------------
def _batcher_requests(count: int) -> list[ServeRequest]:
    graphs = make_molecule_graphs(count, seed=0)
    return [ServeRequest(graph=g, key=str(i)) for i, g in enumerate(graphs)]


class TestBatcherDeadlines:
    def test_expired_on_arrival_is_rejected_at_submit(self):
        batcher = MicroBatcher(max_atoms=10**9, max_graphs=100, flush_interval_s=60.0)
        (request,) = _batcher_requests(1)
        request.deadline = time.monotonic() - 0.001
        with pytest.raises(DeadlineExceeded, match="arrived past its deadline"):
            batcher.submit(request)
        assert batcher.expired == 1
        assert batcher.pending_graphs == 0

    def test_queued_entry_expires_at_dequeue_not_in_a_forward(self):
        """An entry whose deadline passes while every slot is busy is
        failed and removed at the next take, before the batch forms —
        it never reaches a forward, and the live request still ships."""
        batcher = MicroBatcher(max_atoms=10**9, max_graphs=100, flush_interval_s=60.0)
        doomed, live = _batcher_requests(2)
        doomed.deadline = time.monotonic() + 0.02
        batcher.submit(doomed)
        batcher.submit(live)
        # Nobody takes (every slot busy) while the deadline passes.
        assert batcher.pending_graphs == 2 and not doomed.done()
        while not doomed.expired():
            time.sleep(0.002)
        batch = batcher.take([doomed, live])  # the caller whose slot comes free
        assert [r.key for r in batch] == [live.key]
        assert batcher.expired == 1
        assert batcher.pending_atoms == 0
        assert doomed.done()
        with pytest.raises(DeadlineExceeded, match="expired after waiting"):
            doomed.wait(timeout=0.0)

    def test_no_deadline_means_no_drops(self):
        batcher = MicroBatcher(max_atoms=10**9, max_graphs=2, flush_interval_s=60.0)
        requests = _batcher_requests(2)
        for request in requests:
            batcher.submit(request)
        assert len(batcher.take(requests)) == 2
        assert batcher.expired == 0


# ----------------------------------------------------------------------
# Deadlines and faults at the gateway (in-process, no sockets)
# ----------------------------------------------------------------------
def _gateway(**kwargs) -> ApiGateway:
    registry = ModelRegistry()
    registry.register_model(
        "tiny", HydraModel(ModelConfig(hidden_dim=8, num_layers=2), seed=0)
    )
    return ApiGateway(registry, workers=1, default_model="tiny", **kwargs)


def _predict_request(seed: int = 0, deadline_ms: float | None = None):
    graphs = make_molecule_graphs(1, seed=seed)
    return PredictRequest(
        structures=[StructurePayload.from_graph(graphs[0])], deadline_ms=deadline_ms
    )

def test_gateway_expired_deadline_is_typed_and_burns_no_forward():
    gateway = _gateway(faults=FaultPlan.parse("delay:ms=40"))
    try:
        gateway.warm()
        # The injected 40 ms delay eats the 5 ms budget before the
        # structure ever reaches the batcher: typed 504, zero forwards.
        with pytest.raises(DeadlineExceededError):
            gateway.predict(_predict_request(deadline_ms=5.0))
        snapshot = gateway.stats()
        telemetry = snapshot.models["tiny"]
        assert telemetry["serving"]["requests"] == 0  # nothing was served
        assert telemetry["batching"]["expired"] >= 1
        # A sane budget on the same gateway still predicts fine.
        response = gateway.predict(_predict_request(seed=1, deadline_ms=60_000.0))
        assert len(response.results) == 1
    finally:
        gateway.close()


def test_gateway_relax_honors_deadline_between_force_calls():
    gateway = _gateway()
    try:
        gateway.warm()
        graph = make_molecule_graphs(1, seed=2)[0]
        request = RelaxRequest(
            structure=StructurePayload.from_graph(graph),
            max_steps=200,
            fmax=1e-9,
            deadline_ms=1.0,
        )
        with pytest.raises(DeadlineExceededError):
            gateway.relax(request)
    finally:
        gateway.close()


def test_gateway_healthz_reports_inflight_ages():
    gateway = _gateway()
    try:
        gateway.warm()
        health = gateway.healthz()
        assert health["inflight"] == 0
        assert health["oldest_inflight_s"] == 0.0
        token = gateway._begin_request()
        time.sleep(0.02)
        health = gateway.healthz()
        assert health["inflight"] == 1
        assert health["oldest_inflight_s"] >= 0.02
        gateway._end_request(token)
        assert gateway.healthz()["inflight"] == 0
    finally:
        gateway.close()


# ----------------------------------------------------------------------
# Router circuit breaker + router-side deadlines (fake replicas)
# ----------------------------------------------------------------------
class _Fake:
    """A minimal stdlib HTTP replica; can rebind a specific port."""

    def __init__(self, port: int = 0):
        self.requests_served = 0
        self.last_headers: dict = {}
        fake = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                self.rfile.read(length)
                fake.requests_served += 1
                fake.last_headers = dict(self.headers)
                body = json.dumps(
                    {"schema_version": "v1", "model": "fake", "results": []}
                ).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                body = json.dumps({"schema_version": "v1", "status": "ok"}).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        self.server = http.server.ThreadingHTTPServer(("127.0.0.1", port), Handler)
        self.port = self.server.server_address[1]
        threading.Thread(target=self.server.serve_forever, daemon=True).start()

    def stop(self):
        self.server.shutdown()
        self.server.server_close()


class TestCircuitBreaker:
    def test_breaker_opens_isolates_probes_and_recloses(self):
        router = Router(breaker_failure_threshold=1, breaker_reset_s=1.0).start()
        down_port = None
        try:
            dead = _Fake()
            live = _Fake()
            router.set_replica(0, dead.port, pid=1)
            router.set_replica(1, live.port, pid=2)
            down_port = dead.port
            dead.stop()

            # 1. Connection failure: request reroutes, breaker 0 opens.
            # (Round-robin may favor the live replica first; a couple of
            # requests guarantee the dead one gets tried.)
            for _ in range(2):
                status, _ = post(router.url + "/v1/predict", WATER_BODY)
                assert status == 200
            snapshot = router.snapshot()
            assert snapshot[0]["breaker"] == BREAKER_OPEN
            assert snapshot[0]["healthy"] is False
            assert router._counters["breaker_opens"] == 1

            # 2. A wedged replica looks probe-healthy; restoring health
            # must NOT reset the breaker — inside the reset window every
            # request still routes around replica 0.
            router.set_health(0, True)
            assert router.snapshot()[0]["breaker"] == BREAKER_OPEN
            for _ in range(3):
                assert post(router.url + "/v1/predict", WATER_BODY)[0] == 200
            assert live.requests_served >= 4
            assert router._counters["breaker_opens"] == 1

            # 3. Past the reset window the single half-open probe fails
            # (replica 0 is still dead) and the breaker re-opens.
            time.sleep(1.1)
            router.set_health(1, False)  # force the probe onto replica 0
            with pytest.raises(urllib.error.HTTPError) as caught:
                post(router.url + "/v1/predict", WATER_BODY)
            assert caught.value.code == 503
            assert router.snapshot()[0]["breaker"] == BREAKER_OPEN
            assert router._counters["breaker_opens"] == 2

            # 4. The replica comes back on the same port; past the next
            # reset window the half-open probe succeeds and the breaker
            # re-closes for good.
            revived = _Fake(port=down_port)
            try:
                router.set_health(0, True)
                time.sleep(1.1)
                status, _ = post(router.url + "/v1/predict", WATER_BODY)
                assert status == 200
                assert revived.requests_served == 1
                assert router.snapshot()[0]["breaker"] == BREAKER_CLOSED
            finally:
                revived.stop()
            live.stop()
        finally:
            router.close()

    def test_respawn_resets_the_breaker(self):
        router = Router(breaker_failure_threshold=1, breaker_reset_s=60.0).start()
        try:
            dead = _Fake()
            live = _Fake()
            router.set_replica(0, dead.port, pid=1)
            router.set_replica(1, live.port, pid=2)
            dead.stop()
            for _ in range(2):
                assert post(router.url + "/v1/predict", WATER_BODY)[0] == 200
            assert router.snapshot()[0]["breaker"] == BREAKER_OPEN
            # The supervisor replacing the process registers the slot
            # anew — a fresh replica must not inherit the open breaker
            # (reset_s=60 would otherwise park it for a minute).
            replacement = _Fake()
            router.set_replica(0, replacement.port, pid=3, restarts=1)
            assert router.snapshot()[0]["breaker"] == BREAKER_CLOSED
            replacement.stop()
            live.stop()
        finally:
            router.close()


class TestRouterDeadlines:
    def test_expired_header_is_a_504_without_any_forward(self):
        router = Router().start()
        try:
            fake = _Fake()
            router.set_replica(0, fake.port, pid=1)
            with pytest.raises(urllib.error.HTTPError) as caught:
                post(
                    router.url + "/v1/predict",
                    WATER_BODY,
                    headers={DEADLINE_HEADER: "0.001"},
                )
            assert caught.value.code == 504
            body = json.loads(caught.value.read())
            assert body["error"]["code"] == "deadline_exceeded"
            assert fake.requests_served == 0  # no forward was executed
            assert router._counters["deadline_expired"] == 1
            fake.stop()
        finally:
            router.close()

    def test_forwarded_header_carries_remaining_budget(self):
        router = Router().start()
        try:
            fake = _Fake()
            router.set_replica(0, fake.port, pid=1)
            status, _ = post(
                router.url + "/v1/predict",
                WATER_BODY,
                headers={DEADLINE_HEADER: "5000"},
            )
            assert status == 200
            advertised = float(fake.last_headers[DEADLINE_HEADER])
            assert 0.0 < advertised <= 5000.0
            fake.stop()
        finally:
            router.close()

    def test_malformed_header_is_forwarded_for_the_replica_to_judge(self):
        """The router never authors 400s; the replica owns validation."""
        router = Router().start()
        try:
            fake = _Fake()
            router.set_replica(0, fake.port, pid=1)
            status, _ = post(
                router.url + "/v1/predict",
                WATER_BODY,
                headers={DEADLINE_HEADER: "not-a-number"},
            )
            assert status == 200  # the fake doesn't validate; a real one 400s
            assert fake.last_headers[DEADLINE_HEADER] == "not-a-number"
            fake.stop()
        finally:
            router.close()


# ----------------------------------------------------------------------
# The chaos smoke: a real fleet with injected faults
# ----------------------------------------------------------------------
CHAOS_SPEC = "wedge:after=5:replica=0,crash:after=5:replica=1"


@pytest.fixture(scope="module")
def chaos_fleet():
    spec = ReplicaSpec(
        args=(
            "--preset",
            "tiny",
            "--workers",
            "1",
            "--flush-interval",
            "0.002",
            "--fault-spec",
            CHAOS_SPEC,
        )
    )
    supervisor = ReplicaSupervisor(
        count=3,
        spec=spec,
        probe_interval_s=0.2,
        probe_timeout_s=1.0,
        max_request_age_s=1.0,
        term_grace_s=0.5,
        breaker_failure_threshold=1,
        breaker_reset_s=0.5,
    )
    supervisor.start()
    yield supervisor
    supervisor.close()


def _wait_for(predicate, timeout_s: float, what: str):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.1)
    raise AssertionError(f"timed out after {timeout_s}s waiting for {what}")


class TestChaosFleet:
    def test_closed_loop_survives_wedge_and_crash_with_zero_failures(self, chaos_fleet):
        """The acceptance bar: one replica wedges, one crashes, and a
        retrying client still sees every request succeed while the
        watchdog respawns both."""
        payloads = [
            StructurePayload.from_graph(graph)
            for graph in make_molecule_graphs(4, seed=7)
        ]
        with Client.http(
            chaos_fleet.url,
            retries=5,
            backoff_s=0.1,
            backoff_max_s=1.0,
            read_timeout_s=60.0,
        ) as client:
            for index in range(30):
                base = payloads[index % len(payloads)]
                # Jitter defeats the result cache, so every request costs
                # a real forward and advances the replicas' fault counters.
                jittered = StructurePayload(
                    atomic_numbers=base.atomic_numbers,
                    positions=base.positions + 0.001 * (index + 1),
                    cell=base.cell,
                    pbc=base.pbc,
                )
                results = client.predict([jittered])
                assert len(results) == 1
                assert np.isfinite(results[0].energy)

        # The wedge was detected by in-flight age and escalated...
        _wait_for(
            lambda: chaos_fleet.watchdog["hung_detected"] >= 1
            and chaos_fleet.watchdog["respawns"] >= 1,
            timeout_s=30.0,
            what="the watchdog to detect and respawn the wedged replica",
        )
        assert chaos_fleet.watchdog["sigterm"] >= 1
        # ... and the crashed replica was respawned by the monitor.
        _wait_for(
            lambda: chaos_fleet.describe()["replicas"][1]["restarts"] >= 1,
            timeout_s=30.0,
            what="the crashed replica to be respawned",
        )

        # Both fault kinds forced mid-request connection failures, so
        # the breaker opened at least once — and the fleet healed, so
        # every breaker is closed again and every replica routable.
        assert chaos_fleet.router._counters["breaker_opens"] >= 1
        _wait_for(
            lambda: all(
                entry["routing"]["breaker"] == BREAKER_CLOSED
                and entry["routing"]["healthy"]
                for entry in chaos_fleet.describe()["replicas"].values()
            ),
            timeout_s=30.0,
            what="all breakers to re-close on the healed fleet",
        )

        # The healed fleet still answers.
        status, payload = post(chaos_fleet.url + "/v1/predict", WATER_BODY)
        assert status == 200
        assert len(payload["results"]) == 1

    def test_expired_deadline_is_a_typed_504_on_the_real_fleet(self, chaos_fleet):
        with pytest.raises(urllib.error.HTTPError) as caught:
            post(
                chaos_fleet.url + "/v1/predict",
                WATER_BODY,
                headers={DEADLINE_HEADER: "0.001"},
            )
        assert caught.value.code == 504
        assert json.loads(caught.value.read())["error"]["code"] == "deadline_exceeded"

    def test_stats_aggregate_fault_and_deadline_telemetry(self, chaos_fleet):
        status, payload = get(chaos_fleet.url + "/v1/stats")
        assert status == 200
        router = payload["router"]
        assert router["breaker_opens"] >= 1
        assert "deadline_expired" in router
        # The supervisor's escalation counters ride the router's stats
        # payload (additive v1 field) — and they still parse strictly.
        assert payload["watchdog"]["hung_detected"] >= 1
        assert payload["watchdog"]["respawns"] >= 1
        parsed = schemas.StatsSnapshot.from_json_dict(payload)
        assert parsed.watchdog == payload["watchdog"]
        for model in payload["models"].values():
            assert "expired" in model["batching"]


# ----------------------------------------------------------------------
# Rolling restart during an in-flight chunked relax
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def clean_fleet():
    spec = ReplicaSpec(
        args=(
            "--preset",
            "tiny",
            "--workers",
            "1",
            "--flush-interval",
            "0.002",
        )
    )
    supervisor = ReplicaSupervisor(count=2, spec=spec, probe_interval_s=0.2)
    supervisor.start()
    yield supervisor
    supervisor.close()


class TestRollingRestartDuringRelax:
    def test_chunked_relax_survives_a_rolling_restart(self, clean_fleet):
        """A chunked descent keeps its progress client-side, so a
        rolling restart mid-descent costs at most one retried segment —
        never a duplicated step and never a failed relax."""
        graph = make_molecule_graphs(1, seed=11)[0]
        max_steps = 40
        outcome: dict = {}

        def descend():
            with Client.http(
                clean_fleet.url, retries=5, backoff_s=0.1, read_timeout_s=60.0
            ) as client:
                outcome["result"] = client.relax(
                    graph,
                    max_steps=max_steps,
                    fmax=1e-9,  # unreachably tight: the descent runs long
                    chunk_steps=4,
                )

        relaxer = threading.Thread(target=descend)
        relaxer.start()
        time.sleep(0.3)  # let the first segments land
        clean_fleet.rolling_restart()
        relaxer.join(timeout=120.0)
        assert not relaxer.is_alive(), "relax did not finish after the rolling restart"
        result = outcome["result"]
        # Segments resumed from accepted positions: the combined step
        # count can never exceed the budget (a duplicated segment would
        # overshoot it), and the descent made real progress.
        assert 0 < result.steps <= max_steps
        assert result.energy <= result.energy_initial
        assert np.all(np.isfinite(result.positions))
