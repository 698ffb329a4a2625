"""Transport equivalence: one client, local or HTTP, identical numbers.

The acceptance bar for the API redesign: a structure POSTed to
``/v1/predict`` on a live server must come back **numerically
identical** — energies and every force component bit-equal — to the
same structure predicted through the in-process path.  The suite runs
the same assertions against both transports (parametrized fixture), and
pins both against a plain ``PredictionService`` reference.
"""

import http.server
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.api import (
    ApiServer,
    Client,
    DEADLINE_HEADER,
    DEFAULT_CUTOFF,
    DeadlineExceededError,
    HttpTransport,
    OverloadedError,
    SchemaError,
    StructurePayload,
    TransportError,
    UnknownModelError,
)
from repro.models import HydraModel, ModelConfig
from repro.serving import ModelRegistry, PredictionService, ServiceConfig
from tests.helpers import make_molecule_graphs, make_periodic_graphs


def make_model() -> HydraModel:
    return HydraModel(ModelConfig(hidden_dim=8, num_layers=2), seed=0)


def make_registry() -> ModelRegistry:
    registry = ModelRegistry()
    registry.register_model("tiny", make_model())
    return registry


@pytest.fixture(params=["local", "http"])
def client(request):
    """The same Client over each transport; tests must not tell them apart."""
    if request.param == "local":
        with Client.local(make_registry(), workers=1) as local_client:
            yield local_client
    else:
        with ApiServer(make_registry(), workers=1) as server:
            with Client.http(server.url) as http_client:
                yield http_client


@pytest.fixture
def structures():
    graphs = make_molecule_graphs(3, seed=0) + make_periodic_graphs(1, seed=1)
    return [StructurePayload.from_graph(graph) for graph in graphs]


@pytest.fixture
def reference(structures):
    """In-process PredictionService over the same derived graphs."""
    graphs = [structure.to_graph(DEFAULT_CUTOFF) for structure in structures]
    return PredictionService(make_model(), ServiceConfig()).predict_many(graphs)


class TestEquivalence:
    def test_results_numerically_identical_to_in_process(
        self, client, structures, reference
    ):
        results = client.predict(structures)
        assert len(results) == len(reference)
        for expected, result in zip(reference, results):
            assert result.energy == expected.energy  # bit-equal, not allclose
            assert np.array_equal(
                result.forces, np.asarray(expected.forces, dtype=np.float64)
            )
            assert result.n_atoms == expected.n_atoms
            assert result.key == expected.key
            assert result.physical_units == expected.physical_units

    def test_accepts_graphs_directly(self, client):
        graph = make_molecule_graphs(1, seed=2)[0]
        result = client.predict_one(graph)
        assert result.n_atoms == graph.n_atoms
        assert np.isfinite(result.energy)

    def test_repeat_is_a_cache_hit_with_identical_numbers(self, client, structures):
        first = client.predict(structures[:1])[0]
        second = client.predict(structures[:1])[0]
        assert first.cached is False
        assert second.cached is True
        assert second.energy == first.energy
        assert np.array_equal(second.forces, first.forces)

    def test_results_keep_request_order(self, client, structures):
        results = client.predict(structures)
        assert [r.n_atoms for r in results] == [
            s.positions.shape[0] for s in structures
        ]


class TestTypedErrorsAcrossTransports:
    def test_unknown_model_raises_same_type(self, client, structures):
        with pytest.raises(UnknownModelError, match="nope"):
            client.predict(structures[:1], model="nope")

    def test_empty_request_raises_same_type(self, client):
        """Local and HTTP must agree that zero structures is an error."""
        with pytest.raises(SchemaError, match="non-empty"):
            client.predict([])

    def test_introspection_shapes_match(self, client):
        info = client.server_info()
        assert [model["name"] for model in info.models] == ["tiny"]
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["models"] == ["tiny"]

    def test_stats_visible_after_traffic(self, client, structures):
        client.predict(structures[:2])
        snapshot = client.stats()
        assert snapshot.models["tiny"]["serving"]["requests"] == 2


@pytest.mark.parametrize("mode", ["local", "http"])
def test_overload_raises_overloaded_error(mode):
    """Admission control surfaces as the same typed error on both transports."""
    config = ServiceConfig(max_pending=1)  # one call is one group: its second structure is refused
    graphs = make_molecule_graphs(6, seed=3)
    if mode == "local":
        with Client.local(make_registry(), config=config, workers=1) as client:
            with pytest.raises(OverloadedError, match="queue full"):
                client.predict(graphs)
    else:
        with ApiServer(make_registry(), config=config, workers=1) as server:
            with Client.http(server.url) as client:
                with pytest.raises(OverloadedError, match="queue full"):
                    client.predict(graphs)


# ----------------------------------------------------------------------
# HTTP transport resilience: timeouts, retries, deadlines
# ----------------------------------------------------------------------
class _ScriptedServer:
    """A real HTTP listener whose per-request behavior is a scripted list.

    Each entry is ``(status, body_dict)`` or ``(status, body_dict,
    extra_headers)``; the last entry repeats forever.  Records every
    request's path and headers so tests can assert what the transport
    actually sent.
    """

    def __init__(self, script):
        self.script = list(script)
        self.requests: list[tuple[str, dict]] = []
        outer = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def _serve(self):
                index = min(len(outer.requests), len(outer.script) - 1)
                outer.requests.append((self.path, dict(self.headers)))
                entry = outer.script[index]
                status, body = entry[0], entry[1]
                extra = entry[2] if len(entry) > 2 else {}
                data = json.dumps(body).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                for name, value in extra.items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(data)

            do_GET = do_POST = _serve

            def log_message(self, *_args):
                pass

        self.httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.httpd.server_address[1]}"
        threading.Thread(target=self.httpd.serve_forever, daemon=True).start()

    def stop(self):
        self.httpd.shutdown()
        self.httpd.server_close()


def _error_503():
    return 503, {
        "schema_version": "v1",
        "error": {"code": "unavailable", "message": "fleet draining", "status": 503},
    }


class TestHttpResilience:
    def test_silent_socket_hits_read_timeout_not_forever(self):
        """A server that accepts the connection and never answers must
        fail the request within read_timeout_s, not hang the client."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        transport = HttpTransport(
            f"http://127.0.0.1:{port}",
            connect_timeout_s=2.0,
            read_timeout_s=0.2,
            retries=0,
        )
        start = time.monotonic()
        try:
            with pytest.raises(TransportError, match="timed out"):
                transport.healthz()
        finally:
            listener.close()
        assert time.monotonic() - start < 5.0

    def test_retries_typed_503_then_succeeds(self):
        server = _ScriptedServer([_error_503(), _error_503(), (200, {"status": "ok"})])
        try:
            transport = HttpTransport(server.url, retries=2, backoff_s=0.005)
            assert transport.healthz() == {"status": "ok"}
        finally:
            server.stop()
        assert len(server.requests) == 3
        assert transport.retried == 2

    def test_retries_connection_refused_then_succeeds(self):
        # Reserve a port, point the transport at it while nothing
        # listens (attempt 1: connection refused), then bring the server
        # up before the retry lands.
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        transport = HttpTransport(
            f"http://127.0.0.1:{port}", retries=4, backoff_s=0.1, backoff_max_s=0.1
        )
        result: dict = {}

        def call():
            result["payload"] = transport.healthz()

        caller = threading.Thread(target=call)
        caller.start()
        time.sleep(0.05)  # let at least one attempt fail
        httpd = http.server.ThreadingHTTPServer(("127.0.0.1", port), _OkHandler)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        try:
            caller.join(timeout=10.0)
            assert not caller.is_alive()
        finally:
            httpd.shutdown()
            httpd.server_close()
        assert result["payload"] == {"status": "ok"}
        assert transport.retried >= 1

    def test_4xx_is_a_verdict_not_a_glitch(self):
        """Client errors must surface immediately — exactly one request."""
        server = _ScriptedServer(
            [
                (
                    400,
                    {
                        "schema_version": "v1",
                        "error": {"code": "invalid_request", "message": "bad field", "status": 400},
                    },
                )
            ]
        )
        try:
            transport = HttpTransport(server.url, retries=3, backoff_s=0.005)
            with pytest.raises(SchemaError, match="bad field"):
                transport.healthz()
        finally:
            server.stop()
        assert len(server.requests) == 1
        assert transport.retried == 0

    def test_corrupted_body_is_retried(self):
        """Garbage bytes where JSON should be reads as a transport
        glitch: predict is idempotent, so re-asking is safe."""

        class _CorruptOnce:
            served = 0

        outer = _CorruptOnce()

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):
                outer.served += 1
                if outer.served == 1:
                    data = b"\x00CORRUPT{this is not json"
                else:
                    data = json.dumps({"status": "ok"}).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *_args):
                pass

        httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        try:
            transport = HttpTransport(
                f"http://127.0.0.1:{httpd.server_address[1]}", retries=2, backoff_s=0.005
            )
            assert transport.healthz() == {"status": "ok"}
            assert transport.retried == 1
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_deadline_header_advertises_remaining_budget(self):
        server = _ScriptedServer([(200, {"schema_version": "v1", "results": []})])
        try:
            transport = HttpTransport(server.url, retries=0)
            transport._request("POST", "/v1/predict", {"deadline_ms": 5000.0})
        finally:
            server.stop()
        (_, headers), = server.requests
        advertised = float(headers[DEADLINE_HEADER])
        assert 0.0 < advertised <= 5000.0

    def test_deadline_expires_client_side_during_backoff(self):
        """When the budget cannot survive the backoff sleep, the client
        raises the typed deadline error instead of burning a doomed
        attempt against a dead endpoint."""
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        transport = HttpTransport(
            f"http://127.0.0.1:{port}", retries=5, backoff_s=10.0, backoff_max_s=10.0
        )
        start = time.monotonic()
        with pytest.raises(DeadlineExceededError):
            transport._request("POST", "/v1/predict", {"deadline_ms": 200.0})
        assert time.monotonic() - start < 5.0  # it did not sleep the full backoff

    def test_server_retry_hint_overrides_blind_backoff(self):
        """A 503 carrying retry_after_s paces the retry at the server's
        honest hint, not the (much larger) exponential backoff."""
        hinted = dict(_error_503()[1])
        hinted["error"] = dict(hinted["error"], retry_after_s=0.05)
        server = _ScriptedServer([(503, hinted), (200, {"status": "ok"})])
        try:
            transport = HttpTransport(
                server.url, retries=1, backoff_s=5.0, backoff_max_s=10.0
            )
            start = time.monotonic()
            assert transport.healthz() == {"status": "ok"}
            # Blind backoff would sleep >= 2.5 s; the hint says 50 ms.
            assert time.monotonic() - start < 2.0
        finally:
            server.stop()
        assert len(server.requests) == 2

    def test_retry_after_header_backfills_missing_body_hint(self):
        """Transports must honor the header even when the error body
        predates the retry_after_s field (additive contract both ways)."""
        server = _ScriptedServer(
            [(*_error_503(), {"Retry-After": "1"}), (200, {"status": "ok"})]
        )
        try:
            transport = HttpTransport(
                server.url, retries=1, backoff_s=30.0, backoff_max_s=30.0
            )
            start = time.monotonic()
            assert transport.healthz() == {"status": "ok"}
            elapsed = time.monotonic() - start
            assert 0.9 < elapsed < 5.0  # slept the header's second, not 15-45 s
        finally:
            server.stop()

    def test_quota_429_surfaces_hint_without_retrying(self):
        """429 is a verdict on this client's traffic, not a glitch: it
        is not retried, and the hint rides the typed error for callers
        that want to pace themselves."""
        body = {
            "schema_version": "v1",
            "error": {
                "code": "overloaded",
                "message": "rate quota",
                "status": 429,
                "retry_after_s": 2.5,
            },
        }
        server = _ScriptedServer([(429, body, {"Retry-After": "3"})])
        try:
            transport = HttpTransport(server.url, retries=3, backoff_s=0.005)
            with pytest.raises(OverloadedError) as excinfo:
                transport._request("POST", "/v1/predict", {})
            assert excinfo.value.retry_after_s == 2.5  # body hint wins
        finally:
            server.stop()
        assert len(server.requests) == 1  # exactly one attempt


class _OkHandler(http.server.BaseHTTPRequestHandler):
    def do_GET(self):
        data = json.dumps({"status": "ok"}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *_args):
        pass
