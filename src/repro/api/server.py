"""HTTP front end over :class:`~repro.serving.service.PredictionService`.

Two layers, deliberately separated:

- :class:`ApiGateway` — the transport-free core.  It owns a
  :class:`~repro.serving.registry.ModelRegistry`, lazily builds one
  *started* ``PredictionService`` per requested model, turns wire
  schemas into graphs and back, and raises only typed
  :class:`~repro.api.schemas.ApiError`\\ s.  The HTTP handler *and* the
  in-process :class:`~repro.api.client.LocalTransport` both sit on this
  class, which is what makes "same request, same bytes, same numbers"
  true across deployment modes.
- :class:`ApiServer` — a stdlib ``ThreadingHTTPServer`` mapping routes
  onto the gateway and :class:`ApiError` onto status codes:

  ==========================  ======================================
  ``POST /v1/predict``        400 invalid body · 404 unknown model ·
                              429 overloaded · 504 timeout
  ``POST /v1/relax``          same error mapping; body is a
                              :class:`~repro.api.schemas.RelaxRequest`
  ``POST /v1/md``             same error mapping *before* streaming
                              starts; then a chunked NDJSON stream of
                              ``frame`` lines ending with one
                              ``summary`` (or typed ``error``) line
  ``GET /v1/models``          :class:`~repro.api.schemas.ServerInfo`
  ``GET /v1/healthz``         liveness probe
  ``GET /v1/stats``           :class:`~repro.api.schemas.StatsSnapshot`
  ==========================  ======================================

  Every response body — success or failure — is JSON.  Shutdown is
  graceful: :meth:`ApiServer.close` stops accepting connections, then
  stops each model's service, which drains queued requests.

The server is threaded (one handler thread per connection) because the
engine underneath is: grad mode, pool stacks, and kernel dispatch are
thread-local (PR 3), and the batcher admits requests from any thread —
so HTTP concurrency maps directly onto the service's worker
concurrency with no extra locking here.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from repro.api.schemas import (
    DEFAULT_CUTOFF,
    DEFAULT_PRIORITY,
    MAX_STRUCTURES_PER_REQUEST,
    ApiError,
    DeadlineExceededError,
    ErrorPayload,
    MDDivergedError,
    MDFramePayload,
    MDRequest,
    MDResponse,
    OverloadedError,
    PredictRequest,
    PredictResponse,
    NotFound,
    RelaxRequest,
    RelaxResponse,
    RequestTimeout,
    SchemaError,
    ServerInfo,
    StatsSnapshot,
    UnknownModelError,
    validate_client_id,
    validate_deadline_ms,
    validate_priority,
)
from repro.graph.atoms import AtomGraph
from repro.serving.admission import retry_after_header
from repro.serving.batcher import DeadlineExceeded, ServiceOverloaded
from repro.serving.faults import FaultPlan
from repro.serving.md import MDDiverged
from repro.serving.registry import ModelRegistry
from repro.serving.service import PredictionService, ServiceConfig
from repro.serving.telemetry import SATURATION, merge
from repro.wire import (
    CLIENT_HEADER,
    DEADLINE_HEADER,
    PRIORITY_HEADER,
    SCHEMA_VERSION,
    content_length,
)


def _as_api_error(error: Exception) -> ApiError:
    """The HTTP boundary's catch-all: untyped failures are 500s, never HTML tracebacks."""
    return error if isinstance(error, ApiError) else ApiError(f"internal error: {error}")


def _as_overloaded(error: ServiceOverloaded) -> OverloadedError:
    """Map the service's 429 onto the wire type, hint included.

    Quota and brownout rejections carry an honest ``retry_after_s``; it
    must survive the translation so the HTTP layer can emit a truthful
    ``Retry-After`` header (and the error body its JSON twin).
    """
    mapped = OverloadedError(str(error))
    mapped.retry_after_s = getattr(error, "retry_after_s", None)
    return mapped


class ApiGateway:
    """Transport-free request execution over a model registry.

    One started :class:`PredictionService` per served model, created on
    first use (mirroring the registry's lazy checkpoint loading) and
    stopped — queue drained — by :meth:`close`.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        config: ServiceConfig | None = None,
        workers: int = 2,
        default_model: str | None = None,
        cutoff: float = DEFAULT_CUTOFF,
        max_neighbors: int | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        self.registry = registry
        self.config = config or ServiceConfig()
        self.workers = int(workers)
        self.default_model = default_model
        self.cutoff = float(cutoff)
        self.max_neighbors = max_neighbors
        # Fault injection: explicit plan, or whatever REPRO_FAULT_SPEC
        # prescribes (how replica subprocesses inherit the chaos plan).
        self.faults = faults if faults is not None else FaultPlan.from_env()
        self._services: dict[str, PredictionService] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._started_at = time.monotonic()
        # In-flight request ages, for the hung-replica watchdog: healthz
        # reports the oldest in-flight request so the supervisor can
        # tell "busy" (ages churn) from "wedged" (one age grows without
        # bound while the probe itself still answers).
        self._inflight: dict[int, float] = {}
        self._inflight_seq = 0
        self._inflight_lock = threading.Lock()

    # ------------------------------------------------------------------
    # request bookkeeping
    # ------------------------------------------------------------------
    def _begin_request(self) -> int:
        with self._inflight_lock:
            self._inflight_seq += 1
            token = self._inflight_seq
            self._inflight[token] = time.monotonic()
        return token

    def _end_request(self, token: int) -> None:
        with self._inflight_lock:
            self._inflight.pop(token, None)

    def _inflight_snapshot(self) -> tuple[int, float]:
        """(count, age of the oldest in-flight request in seconds)."""
        now = time.monotonic()
        with self._inflight_lock:
            if not self._inflight:
                return 0, 0.0
            return len(self._inflight), round(now - min(self._inflight.values()), 3)

    @staticmethod
    def _stamp(request, deadline_ms, client_id, priority) -> dict:
        """Resolve one request's deadline, client and lane at admission.

        The hop-level overrides — the HTTP handler passes the
        ``X-Repro-*`` headers here — win over the body's fields; either
        may be absent (no deadline, anonymous, default lane).  The
        relative ms budget is stamped against the monotonic clock *now*.
        Returns the keywords every ``PredictionService`` entry point takes.
        """
        budget = deadline_ms if deadline_ms is not None else request.deadline_ms
        lane = priority if priority is not None else request.priority
        return {
            "deadline": None if budget is None else time.monotonic() + budget / 1000.0,
            "client_id": client_id if client_id is not None else request.client_id,
            "lane": lane if lane is not None else DEFAULT_PRIORITY,
        }

    @contextmanager
    def _in_flight(self):
        """Count one request in flight and type whatever the service raises."""
        token = self._begin_request()
        try:
            yield
        except MDDiverged as error:
            raise MDDivergedError(str(error)) from error
        except DeadlineExceeded as error:
            raise DeadlineExceededError(str(error)) from error
        except ServiceOverloaded as error:
            raise _as_overloaded(error) from error
        except TimeoutError as error:
            raise RequestTimeout(str(error)) from error
        finally:
            self._end_request(token)

    def _trajectory_inputs(self, request):
        """Settings and graph for a relax / MD request.

        The session's skin neighbor list owns connectivity for the whole
        run, so the request structure's edges (if any) are not searched
        here — the graph hands over only the physical inputs.
        """
        try:
            settings = request.to_settings(self.cutoff, self.max_neighbors)
        except ValueError as error:
            # LocalTransport callers skip wire validation; map the
            # dataclass's ValueError onto the same 400 HTTP callers get.
            raise SchemaError(str(error)) from error
        structure = request.structure
        graph = AtomGraph(
            atomic_numbers=structure.atomic_numbers,
            positions=structure.positions,
            edge_index=np.zeros((2, 0), dtype=np.int64),
            edge_shift=np.zeros((0, 3)),
            cell=structure.cell,
            pbc=structure.pbc,
            source="api",
        )
        return settings, graph

    # ------------------------------------------------------------------
    # model resolution
    # ------------------------------------------------------------------
    def resolve_model(self, requested: str | None) -> str:
        """Requested name, configured default, or the only model served."""
        if requested is not None:
            return requested
        if self.default_model is not None:
            return self.default_model
        names = self.registry.names()
        if len(names) == 1:
            return names[0]
        raise SchemaError(
            "request.model is required when the server serves "
            f"{len(names)} models (registered: {names})"
        )

    def _service(self, name: str) -> PredictionService:
        with self._lock:
            if self._closed:
                raise ApiError("server is shutting down")
            service = self._services.get(name)
        if service is not None:
            return service
        if name not in self.registry:
            raise UnknownModelError(
                f"no model named {name!r}; registered: {self.registry.names()}"
            )
        # Build outside the lock: a lazy checkpoint load is slow, and
        # holding the gateway lock through it would stall healthz/stats
        # probes (and sibling models) for the whole warmup.  A racing
        # duplicate build is wasteful but harmless — only the winner is
        # started; the loser is never started, so it owns no threads.
        candidate = PredictionService.from_registry(self.registry, name, config=self.config)
        with self._lock:
            if self._closed:
                raise ApiError("server is shutting down")
            service = self._services.get(name)
            if service is None:
                candidate.start(workers=self.workers)
                service = self._services[name] = candidate
        return service

    def warm(self, name: str | None = None) -> PredictionService:
        """Eagerly build and start a model's service (startup validation).

        ``repro serve --http`` calls this before reporting the server
        up, so a bad backend name or checkpoint fails the process at
        startup instead of 500-ing every later request.
        Raises whatever the lazy path would have raised on first use
        (:class:`ValueError` from service construction, registry errors).
        """
        return self._service(self.resolve_model(name))

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def predict(
        self,
        request: PredictRequest,
        deadline_ms: float | None = None,
        client_id: str | None = None,
        priority: str | None = None,
    ) -> PredictResponse:
        """Execute one wire request; raises typed :class:`ApiError`\\ s.

        Admission is all-or-nothing at the request level: if any
        structure is rejected by the batcher's queue bound the whole
        request maps to 429 and the client retries it wholesale —
        structures admitted before the rejection still complete and
        populate the result cache, so the retry is cheaper.

        ``deadline_ms`` is the hop-level override (the HTTP handler
        passes the ``X-Repro-Deadline-Ms`` header here); it wins over
        the body's ``deadline_ms``.  Either way the budget is stamped
        against the monotonic clock *now*, at admission.
        """
        # Size limits are enforced here, not only in from_json_dict, so
        # LocalTransport callers get the same contract (and the same
        # exceptions) as HTTP callers.
        if not request.structures:
            raise SchemaError("request.structures: expected a non-empty list")
        if len(request.structures) > MAX_STRUCTURES_PER_REQUEST:
            raise SchemaError(
                f"request.structures: at most {MAX_STRUCTURES_PER_REQUEST} structures "
                f"per request, got {len(request.structures)}"
            )
        call = self._stamp(request, deadline_ms, client_id, priority)
        with self._in_flight():
            if self.faults is not None:
                self.faults.on_request()
            name = self.resolve_model(request.model)
            service = self._service(name)
            graphs = [
                payload.to_graph(self.cutoff, self.max_neighbors)
                for payload in request.structures
            ]
            return PredictResponse.from_results(name, service.predict_many(graphs, **call))

    def relax(
        self,
        request: RelaxRequest,
        deadline_ms: float | None = None,
        client_id: str | None = None,
        priority: str | None = None,
    ) -> RelaxResponse:
        """Relax one structure on served forces; raises typed errors.

        Every force evaluation inside rides the same micro-batcher and
        plan cache as ``/v1/predict`` traffic, and the deadline (header
        override or body field) is re-checked before each one.
        """
        call = self._stamp(request, deadline_ms, client_id, priority)
        with self._in_flight():
            if self.faults is not None:
                self.faults.on_request()
            name = self.resolve_model(request.model)
            settings, graph = self._trajectory_inputs(request)
            result = self._service(name).relax(graph, settings, **call)
            return RelaxResponse.from_result(name, result)

    def md(
        self,
        request: MDRequest,
        deadline_ms: float | None = None,
        client_id: str | None = None,
        priority: str | None = None,
    ):
        """Run one MD segment; returns ``(model_name, events)``.

        Validation is split around the streaming boundary.  Everything
        checkable *before* the first integration step — schema-level
        settings, model resolution, velocity shape — raises here, so the
        HTTP layer can still answer with a typed 4xx/5xx status.  The
        returned ``events`` generator yields ``("frame", MDFrame)`` then
        ``("result", MDResult)``; failures *during* integration (deadline
        expiry, overload, divergence) raise typed errors out of the
        generator, which the HTTP layer turns into a terminal ``error``
        line on the already-open stream.
        """
        call = self._stamp(request, deadline_ms, client_id, priority)
        if self.faults is not None:
            self.faults.on_request()
        name = self.resolve_model(request.model)
        settings, graph = self._trajectory_inputs(request)
        positions_shape = np.asarray(request.structure.positions).shape
        if settings.velocities is not None and settings.velocities.shape != positions_shape:
            raise SchemaError(
                f"md request.velocities: shape {settings.velocities.shape} does not "
                f"match positions shape {positions_shape}"
            )
        service = self._service(name)

        def events():
            # The in-flight token lives as long as the stream does.
            with self._in_flight():
                try:
                    yield from service.md(graph, settings, **call)
                except ValueError as error:
                    raise SchemaError(str(error)) from error

        return name, events()

    def server_info(self) -> ServerInfo:
        return ServerInfo(
            models=self.registry.describe(),
            default_model=self.default_model,
        )

    def stats(self) -> StatsSnapshot:
        with self._lock:
            services = dict(self._services)
        # uptime_s/pid identify the process behind the numbers — the
        # replica supervisor's stats aggregation and its restart tests
        # both key on them.
        return StatsSnapshot(
            models={name: service.telemetry() for name, service in services.items()},
            uptime_s=round(time.monotonic() - self._started_at, 3),
            pid=os.getpid(),
        )

    def _saturation_snapshot(self) -> dict:
        """Process-wide load gauges: the worst service wins.

        Queue depths sum (total backlog behind this replica); brownout
        reports the highest level of any served model, because the
        router's front-door shed must react to the most degraded lane
        set, not the average.
        """
        with self._lock:
            services = list(self._services.values())
        return merge([service.saturation() for service in services], SATURATION)

    def healthz(self) -> dict:
        with self._lock:
            active = sorted(self._services)
            closed = self._closed
        inflight, oldest_s = self._inflight_snapshot()
        return {
            "schema_version": SCHEMA_VERSION,
            "status": "shutting_down" if closed else "ok",
            "models": self.registry.names(),
            "active_services": active,
            # Watchdog inputs: the probe thread runs in its own handler
            # thread, so a wedged predict cannot block these numbers
            # from being reported — that is the whole trick.
            "inflight": inflight,
            "oldest_inflight_s": oldest_s,
            # Saturation inputs: the supervisor relays these to the
            # router, which sheds low-priority lanes at the front door
            # for replicas already in brownout.
            "saturation": self._saturation_snapshot(),
        }

    def close(self) -> None:
        """Stop every service: drain their queues."""
        with self._lock:
            self._closed = True
            services = list(self._services.values())
            self._services.clear()
        for service in services:
            service.stop()


#: POST route → (request schema, gateway method).
_POST_ROUTES = {
    "/v1/predict": (PredictRequest, ApiGateway.predict),
    "/v1/relax": (RelaxRequest, ApiGateway.relax),
    "/v1/md": (MDRequest, ApiGateway.md),
}

#: GET route → what the gateway answers it with.
_GET_ROUTES = {
    "/v1/healthz": ApiGateway.healthz,
    "/v1/models": lambda gateway: gateway.server_info().to_json_dict(),
    "/v1/stats": lambda gateway: gateway.stats().to_json_dict(),
}

#: Hop-level overrides: gateway keyword → (header, check on its raw text).
_HOP_HEADERS = {
    "deadline_ms": (DEADLINE_HEADER, lambda raw, where: validate_deadline_ms(float(raw), where)),
    "client_id": (CLIENT_HEADER, validate_client_id),
    "priority": (PRIORITY_HEADER, validate_priority),
}


class _ApiRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP onto the gateway; all bodies are JSON."""

    server: "_GatewayHTTPServer"
    protocol_version = "HTTP/1.1"  # keep-alive; every response sets Content-Length

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        if self.server.verbose:
            super().log_message(format, *args)

    def _send_json(
        self,
        status: int,
        payload: dict,
        extra_headers: dict | None = None,
        corruptible: bool = False,
    ) -> None:
        """Send one JSON body.

        ``corruptible`` bodies (predict/relax successes) run through the
        fault plan's corruption if armed — at the byte layer, after
        serialization, so the client sees garbage on an otherwise-healthy
        connection, exactly what a flaky proxy or truncated read
        produces.  Error bodies and the probe endpoints stay clean so
        the watchdog's view stays honest.
        """
        body = json.dumps(payload).encode("utf-8")
        faults = self.server.gateway.faults
        if corruptible and faults is not None:
            body = faults.corrupt(body)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            # Advertise the drop (set when a rejected request left unread
            # body bytes on the socket) so clients don't try to reuse a
            # connection the server is about to close.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_error_payload(self, error: Exception) -> None:
        """Answer with the typed JSON error; anything untyped is a 500."""
        error = _as_api_error(error)
        # Every retryable rejection (429 overloaded, 503 unavailable)
        # carries a Retry-After header — the server's honest hint when it
        # has one, the protocol-minimum "1" when it does not.
        headers: dict | None = None
        if error.http_status in (429, 503):
            headers = {"Retry-After": retry_after_header(getattr(error, "retry_after_s", None))}
        self._send_json(
            error.http_status, ErrorPayload.from_error(error).to_json_dict(), headers
        )

    def _hop_overrides(self) -> dict:
        """Parse the ``X-Repro-*`` headers; each wins over its body field."""
        overrides = {}
        for keyword, (header, check) in _HOP_HEADERS.items():
            raw = self.headers.get(header)
            try:
                overrides[keyword] = None if raw is None else check(raw, header)
            except (ValueError, SchemaError) as err:
                # Rejecting before the body is read leaves bytes on the
                # socket; drop the connection like _read_json_body does.
                self.close_connection = True
                if isinstance(err, SchemaError):
                    raise
                raise SchemaError(f"{header}: expected a number, got {raw!r}") from None
        return overrides

    def _read_json_body(self) -> dict:
        # Rejections below leave the body unread on the socket, which
        # would desync a keep-alive connection (the leftover bytes get
        # parsed as the next request line) — so every early exit must
        # drop the connection instead of keeping it alive.
        try:
            length = content_length(self.headers.get_all("Content-Length"))
            if length == 0:
                raise ValueError("request body required (Content-Length missing or 0)")
        except ValueError as err:
            self.close_connection = True
            raise SchemaError(str(err)) from None
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise SchemaError(f"request body is not valid JSON: {err}") from err

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        try:
            route = _GET_ROUTES.get(self.path)
            if route is None:
                raise NotFound(f"no such endpoint: GET {self.path}")
            self._send_json(200, route(self.server.gateway))
        except Exception as error:  # noqa: BLE001 - typed by _send_error_payload
            self._send_error_payload(error)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        try:
            if self.path not in _POST_ROUTES:
                raise NotFound(f"no such endpoint: POST {self.path}")
            schema, endpoint = _POST_ROUTES[self.path]
            overrides = self._hop_overrides()
            request = schema.from_json_dict(self._read_json_body())
            # For md, pre-stream failures (bad knobs, unknown model)
            # raise here and become ordinary typed statuses; once
            # _stream_md starts, failures ride the stream instead.
            outcome = endpoint(self.server.gateway, request, **overrides)
            if schema is MDRequest:
                self._stream_md(*outcome)
            else:
                self._send_json(200, outcome.to_json_dict(), corruptible=True)
        except Exception as error:  # noqa: BLE001 - typed by _send_error_payload
            self._send_error_payload(error)

    def _stream_md(self, model: str, events) -> None:
        """Stream MD frames as NDJSON; the last line is the verdict.

        No ``Content-Length`` — the stream's length is unknown up front,
        so framing is read-to-EOF under ``Connection: close`` (which the
        stdlib transport and the replica router's buffering proxy both
        already handle).  Each line flushes as it is produced, so a
        client watches frames arrive while the run integrates.  A typed
        error mid-run becomes a terminal ``error`` line: the 200 status
        is on the wire by then, and a missing summary/error line is how
        clients detect truncation.
        """
        self.close_connection = True
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()

        def write_line(payload) -> None:
            self.wfile.write(json.dumps(payload.to_json_dict()).encode("utf-8") + b"\n")

        try:
            try:
                for kind, payload in events:
                    if kind == "frame":
                        write_line(MDFramePayload.from_frame(payload))
                    else:
                        write_line(MDResponse.from_result(model, payload))
                    self.wfile.flush()
            except Exception as error:  # noqa: BLE001 - typed by _as_api_error
                write_line(ErrorPayload.from_error(_as_api_error(error)))
        except OSError:
            # The client hung up mid-stream; there is no one left to
            # tell, and the events generator's finally already released
            # the in-flight token.
            pass


class _GatewayHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that hands its handler threads the gateway."""

    daemon_threads = True

    def __init__(self, address, gateway: ApiGateway, verbose: bool) -> None:
        super().__init__(address, _ApiRequestHandler)
        self.gateway = gateway
        self.verbose = verbose


class ApiServer:
    """The deployable unit: gateway + threaded HTTP listener.

    ``port=0`` binds an ephemeral port (tests, CI smoke); read the
    actual one from :attr:`port` / :attr:`url`.  Use :meth:`start` for a
    background listener (in-process tests, examples) or
    :meth:`serve_forever` to block (the CLI), and :meth:`close` for
    graceful shutdown either way.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        config: ServiceConfig | None = None,
        workers: int = 2,
        default_model: str | None = None,
        cutoff: float = DEFAULT_CUTOFF,
        max_neighbors: int | None = None,
        verbose: bool = False,
        faults: FaultPlan | None = None,
    ) -> None:
        self.gateway = ApiGateway(
            registry,
            config=config,
            workers=workers,
            default_model=default_model,
            cutoff=cutoff,
            max_neighbors=max_neighbors,
            faults=faults,
        )
        self._httpd = _GatewayHTTPServer((host, port), self.gateway, verbose)
        self._thread: threading.Thread | None = None
        self._serving = threading.Event()
        self._closed = False

    # ------------------------------------------------------------------
    # address
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    @property
    def bound_port(self) -> int:
        """The OS-assigned listening port.

        The socket is bound at construction, so this is always the real
        port — with ``port=0`` it is the ephemeral one the kernel chose,
        which is what the CLI's ``bound_port=`` stdout line, the CI
        smoke, and the replica supervisor's startup handshake all read.
        """
        return self.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _serve(self) -> None:
        self._serving.set()
        try:
            self._httpd.serve_forever(poll_interval=0.05)
        finally:
            self._serving.clear()

    def start(self) -> "ApiServer":
        """Serve from a daemon thread; returns once the listener is up."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(target=self._serve, name="api-http", daemon=True)
        self._thread.start()
        self._serving.wait(timeout=5.0)
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (another thread)."""
        self._serve()

    def close(self) -> None:
        """Graceful shutdown: stop listening, drain services, save caches.

        Idempotent, and safe whether the server was started, served on
        the calling thread, or never run at all.
        """
        if self._closed:
            return
        self._closed = True
        if self._serving.is_set():
            self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._httpd.server_close()
        self.gateway.close()

    def __enter__(self) -> "ApiServer":
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
