"""One prediction client, two transports.

The deployment question "is the model in my process or behind a URL?"
should not leak into calling code.  :class:`Client` exposes the same
surface either way and returns the same type —
:class:`~repro.serving.service.PredictionResult`, exactly what the
in-process ``PredictionService`` returns — over either transport:

- :class:`LocalTransport` executes against an in-process
  :class:`~repro.api.server.ApiGateway` (no sockets, no serialization);
- :class:`HttpTransport` speaks the v1 JSON wire format over ``http.client`` to
  an :class:`~repro.api.server.ApiServer`, rebuilding typed
  :class:`~repro.api.schemas.ApiError`\\ s from error bodies so callers
  catch the same exceptions in both modes.

Because both transports route through the same gateway code and the
wire format round-trips float64 bit-exactly, a prediction fetched over
HTTP is **numerically identical** to one computed in-process — the
transport-equivalence suite in ``tests/api`` runs the same assertions
against both to pin that down.

Usage::

    client = Client.local(registry)                  # batch job, tests
    client = Client.http("http://127.0.0.1:8080")    # remote replica
    results = client.predict(graphs, model="prod")   # list[PredictionResult]
"""

from __future__ import annotations

import dataclasses
import json
import random
import time
import urllib.parse
from contextlib import contextmanager
from http.client import HTTPConnection, HTTPException

import numpy as np

from repro.api.schemas import (
    DEFAULT_CUTOFF,
    DeadlineExceededError,
    ErrorPayload,
    MDFramePayload,
    MDRequest,
    MDResponse,
    PredictRequest,
    PredictResponse,
    RelaxRequest,
    RelaxResponse,
    ServerInfo,
    StatsSnapshot,
    StructurePayload,
    TransportError,
    UnavailableError,
)
from repro.api.server import ApiGateway
from repro.graph.atoms import AtomGraph
from repro.serving.md import MDFrame, MDResult, MDSettings
from repro.serving.registry import ModelRegistry
from repro.serving.relax import RelaxResult, RelaxSettings, TrajectorySession
from repro.serving.service import PredictionResult, ServiceConfig
from repro.wire import CLIENT_HEADER, DEADLINE_HEADER, PRIORITY_HEADER


def _moved_to(structure: StructurePayload, positions: np.ndarray) -> StructurePayload:
    """The same atoms at new positions: a resume point for a chunked run.

    Any edges the old payload carried are stale for the new geometry,
    so they are dropped and the server's skin list rebuilds from scratch.
    """
    return dataclasses.replace(structure, positions=positions, edge_index=None, edge_shift=None)


class _RunTally:
    """A chunked relax or MD run's step budget and counters, summed over its segments."""

    def __init__(self, total: int, chunk_steps: int | None) -> None:
        self.total = total
        self.chunk_steps = chunk_steps
        self.steps = self.rebuilds = self.reuses = 0

    def next_steps(self) -> int:
        """The next segment's step budget."""
        return min(self.chunk_steps or self.total, self.total - self.steps)

    def add(self, segment) -> None:
        self.steps += segment.steps
        self.rebuilds += segment.neighbor_rebuilds
        self.reuses += segment.neighbor_reuses

    def whole_run(self, last, **fields):
        """The last segment's state, with the counters of the whole run."""
        return dataclasses.replace(
            last,
            steps=self.steps,
            neighbor_rebuilds=self.rebuilds,
            neighbor_reuses=self.reuses,
            **fields,
        )


class LocalTransport:
    """In-process transport: request objects straight into the gateway."""

    def __init__(
        self,
        registry: ModelRegistry | None = None,
        gateway: ApiGateway | None = None,
        config: ServiceConfig | None = None,
        workers: int = 1,
        default_model: str | None = None,
        cutoff: float = DEFAULT_CUTOFF,
        max_neighbors: int | None = None,
    ) -> None:
        if (registry is None) == (gateway is None):
            raise ValueError("pass exactly one of registry or gateway")
        self._owns_gateway = gateway is None
        self.gateway = gateway or ApiGateway(
            registry,
            config=config,
            workers=workers,
            default_model=default_model,
            cutoff=cutoff,
            max_neighbors=max_neighbors,
        )

    def predict(self, request: PredictRequest) -> PredictResponse:
        return self.gateway.predict(request)

    def relax(self, request: RelaxRequest) -> RelaxResponse:
        return self.gateway.relax(request)

    def md(self, request: MDRequest):
        """Stream one MD segment: ``("frame", MDFramePayload)`` events
        ending with ``("summary", MDResponse)`` — the in-process twin of
        the HTTP transport's NDJSON line stream.  Typed errors raise out
        of the iterator exactly where the HTTP client would meet the
        terminal ``error`` line.
        """
        model, events = self.gateway.md(request)

        def stream():
            for kind, payload in events:
                if kind == "frame":
                    yield ("frame", MDFramePayload.from_frame(payload))
                else:
                    yield ("summary", MDResponse.from_result(model, payload))

        return stream()

    def server_info(self) -> ServerInfo:
        return self.gateway.server_info()

    def stats(self) -> StatsSnapshot:
        return self.gateway.stats()

    def healthz(self) -> dict:
        return self.gateway.healthz()

    def close(self) -> None:
        """Stop the gateway's services iff this transport created them."""
        if self._owns_gateway:
            self.gateway.close()


class HttpTransport:
    """v1 JSON over stdlib ``http.client`` — timeouts, retries, deadlines.

    Resilience contract:

    - **Socket timeouts.** ``connect_timeout_s`` bounds the TCP connect;
      ``read_timeout_s`` (default: the legacy ``timeout_s``) bounds each
      read.  A server that accepts the connection and then goes silent
      can no longer hang the client forever.
    - **Bounded retries.** Connection failures, read timeouts, corrupted
      response bodies, and typed 503s (:class:`UnavailableError` — the
      fleet is draining or momentarily has no healthy replica) are
      retried up to ``retries`` times with exponential backoff plus
      jitter.  4xx errors, plain 500s, and 504s are **never** retried:
      they are verdicts, not glitches.  Retrying ambiguous read failures
      is safe because predict is idempotent — results are keyed by
      structure hash, so a duplicate execution returns identical bytes.
    - **Honest backoff.** When a retryable rejection carries the
      server's ``retry_after_s`` hint (error body, or the ``Retry-After``
      response header when the body lacks one), the retry sleeps exactly
      that long — capped at ``backoff_max_s`` — instead of guessing with
      jittered exponential backoff.  The server knows when the bucket
      refills or the queue drains; the client does not.
    - **Deadline propagation.** A ``deadline_ms`` in the request body is
      also stamped onto the :data:`~repro.wire.DEADLINE_HEADER`
      with the *remaining* budget, recomputed per attempt — a retry
      after 80 ms of a 200 ms budget advertises ~120 ms.  When the
      budget runs out between attempts, the client raises
      :class:`DeadlineExceededError` itself instead of burning a doomed
      attempt.
    """

    def __init__(
        self,
        base_url: str,
        timeout_s: float = 60.0,
        connect_timeout_s: float = 5.0,
        read_timeout_s: float | None = None,
        retries: int = 2,
        backoff_s: float = 0.05,
        backoff_max_s: float = 2.0,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        split = urllib.parse.urlsplit(self.base_url)
        if split.scheme != "http" or not split.hostname:
            raise ValueError(f"HttpTransport expects an http://host[:port] URL, got {base_url!r}")
        self._host = split.hostname
        self._port = split.port or 80
        self._path_prefix = split.path.rstrip("/")
        self.timeout_s = float(timeout_s)
        self.connect_timeout_s = float(connect_timeout_s)
        self.read_timeout_s = self.timeout_s if read_timeout_s is None else float(read_timeout_s)
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)
        self.backoff_max_s = float(backoff_max_s)
        self.retried = 0  # attempts beyond the first, across all requests

    # ------------------------------------------------------------------
    # one attempt
    # ------------------------------------------------------------------
    @contextmanager
    def _transport_errors(self, what: str):
        """Socket-level failures while talking to the server, typed."""
        try:
            yield
        except TimeoutError as err:  # socket.timeout is an alias since 3.10
            raise TransportError(
                f"timed out talking to {self.base_url} ({what}): {err or 'timeout'}"
            ) from err
        except (OSError, HTTPException) as err:
            raise TransportError(f"cannot reach {self.base_url}: {err!r}") from err

    def _send(
        self, method: str, path: str, data: bytes | None, headers: dict, deadline: float | None
    ):
        """One attempt's send step; returns ``(connection, response)`` on a 200.

        Connects, stamps the *remaining* deadline on the request, and
        leaves a 200's body unread for the caller (one JSON document, or
        an NDJSON stream).  Any other status is read here and re-raised
        as the *typed* error the server sent, so HTTP and local callers
        catch identical exception classes.
        """
        what = f"{method} {path}"
        if deadline is not None:
            remaining_ms = (deadline - time.monotonic()) * 1000.0
            # The header carries 0.1 ms resolution: a budget that would
            # print as 0.0 is spent, and the server would call it malformed.
            if remaining_ms < 0.05:
                raise DeadlineExceededError(f"deadline expired client-side before sending {what}")
            headers = dict(headers, **{DEADLINE_HEADER: f"{remaining_ms:.1f}"})
        connection = HTTPConnection(self._host, self._port, timeout=self.connect_timeout_s)
        try:
            with self._transport_errors(what):
                connection.connect()
                # Connect succeeded under its own (short) bound; reads
                # get the separate, longer budget.
                connection.sock.settimeout(self.read_timeout_s)
                connection.request(method, self._path_prefix + path, body=data, headers=headers)
                response = connection.getresponse()
                if response.status == 200:
                    return connection, response
                body = response.read()
            try:
                error = ErrorPayload.from_json_dict(json.loads(body.decode("utf-8"))).to_error()
            except Exception:  # noqa: BLE001 - non-conforming error body
                raise TransportError(
                    f"HTTP {response.status} from {what}: {body[:200]!r}"
                ) from None
            # Backfill ``retry_after_s`` from the header if the body
            # lacked it: the JSON hint is more precise (fractional
            # seconds); the header is the fallback for proxies that strip
            # unknown body fields but relay standard headers.
            retry_after_raw = response.getheader("Retry-After")
            if getattr(error, "retry_after_s", None) is None and retry_after_raw is not None:
                try:
                    error.retry_after_s = float(retry_after_raw)
                except ValueError:
                    pass  # an HTTP-date Retry-After; nothing this client emits
            raise error
        except BaseException:
            connection.close()
            raise

    def _fetch(self, method: str, path: str, data, headers: dict, deadline) -> dict:
        """One whole attempt at a JSON endpoint: send, read, parse."""
        connection, response = self._send(method, path, data, headers, deadline)
        try:
            with self._transport_errors(f"{method} {path}"):
                body = response.read()
        finally:
            connection.close()
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise TransportError(f"non-JSON response from {method} {path}: {err}") from err

    # ------------------------------------------------------------------
    # retry loop
    # ------------------------------------------------------------------
    def _retry_delay(self, attempt: int, err) -> float:
        """The server's hint when it gave one, jittered backoff otherwise."""
        hint = getattr(err, "retry_after_s", None)
        if hint is not None and hint > 0:
            return min(self.backoff_max_s, float(hint))
        # Exponential backoff with full jitter: concurrent clients
        # retrying a recovering fleet must not stampede it in lockstep.
        delay = min(self.backoff_max_s, self.backoff_s * (2.0 ** (attempt - 1)))
        return delay * random.uniform(0.5, 1.5)

    def _with_retries(self, attempt_once, method: str, path: str, payload: dict | None, accept):
        """Run ``attempt_once`` (:meth:`_fetch` or :meth:`_send`) under the retry policy.

        The body's ``client_id``/``priority`` are stamped onto the
        headers first: the router sheds by lane and accounts by client
        *without parsing bodies*, the server treats headers as the
        hop-level override, and they mirror the body here, so the two
        layers always agree.
        """
        data = None
        headers = {"Accept": accept}
        deadline = None
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
            if payload.get("client_id") is not None:
                headers[CLIENT_HEADER] = payload["client_id"]
            if payload.get("priority") is not None:
                headers[PRIORITY_HEADER] = payload["priority"]
            if payload.get("deadline_ms") is not None:
                deadline = time.monotonic() + payload["deadline_ms"] / 1000.0
        attempt = 0
        while True:
            try:
                return attempt_once(method, path, data, headers, deadline)
            except (TransportError, UnavailableError) as err:
                if attempt >= self.retries:
                    raise
                attempt += 1
                self.retried += 1
                delay = self._retry_delay(attempt, err)
                if deadline is not None and time.monotonic() + delay >= deadline:
                    raise DeadlineExceededError(
                        f"deadline expired during retry backoff for {method} {path}"
                    ) from err
                time.sleep(delay)

    def _request(self, method: str, path: str, payload: dict | None = None) -> dict:
        return self._with_retries(self._fetch, method, path, payload, "application/json")

    def predict(self, request: PredictRequest) -> PredictResponse:
        return PredictResponse.from_json_dict(
            self._request("POST", "/v1/predict", request.to_json_dict())
        )

    def relax(self, request: RelaxRequest) -> RelaxResponse:
        return RelaxResponse.from_json_dict(
            self._request("POST", "/v1/relax", request.to_json_dict())
        )

    # ------------------------------------------------------------------
    # MD streaming
    # ------------------------------------------------------------------
    def md(self, request: MDRequest):
        """Stream ``POST /v1/md``: ``("frame", ...)``/``("summary", ...)``.

        Opening the stream gets the same bounded retries as
        :meth:`_request` — nothing has executed yet, so a reconnection
        is free.  Once bytes are flowing there is exactly one attempt:
        a dead connection mid-run surfaces as :class:`TransportError`
        (as does a stream that ends without a terminal ``summary`` or
        ``error`` line), and the *caller* decides whether to resume from
        the last frame — that is :meth:`Client.md`'s ``chunk_steps``
        job, because only the caller holds the frames.
        """
        connection, response = self._with_retries(
            self._send, "POST", "/v1/md", request.to_json_dict(), "application/x-ndjson"
        )
        try:
            terminal = False
            while True:
                try:
                    line = response.readline()
                except TimeoutError as err:
                    raise TransportError(
                        f"timed out reading md stream from {self.base_url}"
                    ) from err
                except (OSError, HTTPException) as err:
                    raise TransportError(f"md stream from {self.base_url} died: {err!r}") from err
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as err:
                    raise TransportError(f"non-JSON md stream line: {err}") from err
                if "frame" in obj:
                    yield ("frame", MDFramePayload.from_json_dict(obj))
                elif "summary" in obj:
                    terminal = True
                    yield ("summary", MDResponse.from_json_dict(obj))
                elif "error" in obj:
                    raise ErrorPayload.from_json_dict(obj).to_error()
                else:
                    raise TransportError(f"unrecognized md stream line: {line[:200]!r}")
            if not terminal:
                # The socket closed cleanly but the protocol did not
                # finish — a mid-run replica death looks exactly like
                # this, so it must be retryable, not a verdict.
                raise TransportError("md stream ended without a terminal summary line")
        finally:
            connection.close()

    def server_info(self) -> ServerInfo:
        return ServerInfo.from_json_dict(self._request("GET", "/v1/models"))

    def stats(self) -> StatsSnapshot:
        return StatsSnapshot.from_json_dict(self._request("GET", "/v1/stats"))

    def healthz(self) -> dict:
        return self._request("GET", "/v1/healthz")

    def close(self) -> None:
        """Nothing to release: each request opens its own ``http.client`` connection."""


class MDRun:
    """A (possibly chunked, resumable) MD run: iterate it for frames.

    Yields :class:`~repro.serving.md.MDFrame` objects in step order;
    after exhaustion, :attr:`result` holds the aggregated
    :class:`~repro.serving.md.MDResult`.  With ``chunk_steps``, the run
    is driven as bounded ``/v1/md`` segments, each resumed from the
    previous segment's final frame (positions + velocities +
    ``step_offset``) — and because the server's thermostat noise is
    keyed by absolute step index, the chunked trajectory is
    **bit-identical** to an uninterrupted one.  A segment that dies
    mid-stream (:class:`TransportError` — replica killed, socket cut) is
    resumed from the last received frame; completed steps are never
    repeated.  Typed server verdicts (schema errors, divergence,
    deadline expiry) are never resumed.  ``deadline_ms`` applies per
    segment.  :attr:`resumes` counts mid-stream recoveries.
    """

    #: Consecutive zero-progress transport failures tolerated before the
    #: run gives up — distinguishes "replica restarting" from "down".
    MAX_STALLED_RESUMES = 3

    def __init__(
        self,
        transport,
        structure: StructurePayload,
        model: str | None,
        knobs: dict,
        velocities: np.ndarray | None,
        deadline_ms: float | None,
        chunk_steps: int | None,
        client_id: str | None = None,
        priority: str | None = None,
    ) -> None:
        self._transport = transport
        self._structure = structure
        self._model = model
        self._knobs = knobs
        self._velocities = velocities
        self._deadline_ms = deadline_ms
        self._chunk_steps = chunk_steps
        self._client_id = client_id
        self._priority = priority
        self.result: MDResult | None = None
        self.resumes = 0

    def __iter__(self):
        knobs = self._knobs
        total = knobs.get("n_steps") or MDSettings().n_steps
        interval = knobs.get("frame_interval") or 1
        offset0 = knobs.get("step_offset") or 0
        final_step = offset0 + total
        structure = self._structure
        velocities = self._velocities
        run = _RunTally(total, self._chunk_steps)
        stalled = 0
        frames = 0
        last: MDFramePayload | None = None
        summary: MDResponse | None = None
        while run.steps < total:
            request = MDRequest(
                structure=structure,
                model=self._model,
                velocities=velocities,
                deadline_ms=self._deadline_ms,
                client_id=self._client_id,
                priority=self._priority,
                **dict(knobs, n_steps=run.next_steps(), step_offset=offset0 + run.steps),
            )
            progressed = False
            try:
                for kind, payload in self._transport.md(request):
                    if kind == "frame":
                        last = payload
                        progressed = True
                        # A chunk's always-emitted final frame is a
                        # resume point, not necessarily a trajectory
                        # sample: suppress it unless the uninterrupted
                        # run would have emitted it too.
                        if payload.step % interval == 0 or payload.step == final_step:
                            frames += 1
                            yield payload.to_frame()
                    else:
                        summary = payload
            except TransportError:
                if self._chunk_steps is None:
                    raise  # no chunking, no resume protocol — a verdict
                if progressed:
                    stalled = 0
                else:
                    stalled += 1
                    if stalled > self.MAX_STALLED_RESUMES:
                        raise
                self.resumes += 1
                if last is not None:
                    run.steps = last.step - offset0
                    structure = _moved_to(structure, last.positions)
                    velocities = last.velocities
                continue
            stalled = 0
            run.add(summary.to_result())
            if run.steps < total:
                structure = _moved_to(structure, last.positions)
                velocities = last.velocities
        self.result = run.whole_run(summary.to_result(), first_step=offset0, frames=frames)

    def frames(self) -> list[MDFrame]:
        """Drain the run and return every frame (small runs, tests)."""
        return list(self)


class Client:
    """The one prediction entry point examples, jobs, and tests share."""

    def __init__(self, transport) -> None:
        self.transport = transport

    @classmethod
    def local(cls, registry: ModelRegistry, **kwargs) -> "Client":
        """In-process client over ``registry`` (kwargs → :class:`LocalTransport`)."""
        return cls(LocalTransport(registry, **kwargs))

    @classmethod
    def http(cls, base_url: str, timeout_s: float = 60.0, **kwargs) -> "Client":
        """Remote client for an :class:`~repro.api.server.ApiServer` URL.

        Extra kwargs go to :class:`HttpTransport` (``connect_timeout_s``,
        ``read_timeout_s``, ``retries``, ``backoff_s``, ...).
        """
        return cls(HttpTransport(base_url, timeout_s=timeout_s, **kwargs))

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    @staticmethod
    def _as_payloads(structures) -> list[StructurePayload]:
        if isinstance(structures, (AtomGraph, StructurePayload)):
            structures = [structures]
        return [
            item
            if isinstance(item, StructurePayload)
            else StructurePayload.from_graph(item)
            for item in structures
        ]

    def predict(
        self,
        structures,
        model: str | None = None,
        deadline_ms: float | None = None,
        client_id: str | None = None,
        priority: str | None = None,
    ) -> list[PredictionResult]:
        """Predict for graphs or payloads (one or many); results in order.

        ``deadline_ms`` is the end-to-end latency budget: still-unserved
        work past it is dropped server-side with a typed
        :class:`~repro.api.schemas.DeadlineExceededError` (504) instead
        of executing.  ``client_id`` opts into per-client quota
        accounting; ``priority`` picks the scheduling lane
        (``interactive``/``bulk``/``background``) — unset means
        anonymous, interactive, byte-identical to the pre-admission
        contract.
        """
        request = PredictRequest(
            structures=self._as_payloads(structures),
            model=model,
            deadline_ms=deadline_ms,
            client_id=client_id,
            priority=priority,
        )
        return self.transport.predict(request).to_results()

    def predict_one(
        self,
        structure,
        model: str | None = None,
        deadline_ms: float | None = None,
        client_id: str | None = None,
        priority: str | None = None,
    ) -> PredictionResult:
        return self.predict(
            [structure],
            model=model,
            deadline_ms=deadline_ms,
            client_id=client_id,
            priority=priority,
        )[0]

    # ------------------------------------------------------------------
    # relaxation and trajectories
    # ------------------------------------------------------------------
    def relax(
        self,
        structure,
        model: str | None = None,
        *,
        max_steps: int | None = None,
        fmax: float | None = None,
        max_step: float | None = None,
        skin: float | None = None,
        deadline_ms: float | None = None,
        chunk_steps: int | None = None,
        client_id: str | None = None,
        priority: str | None = None,
    ) -> RelaxResult:
        """Relax one graph or payload on the server's forces.

        Unset knobs fall back to the server's defaults; returns the same
        :class:`~repro.serving.relax.RelaxResult` the in-process
        ``PredictionService.relax`` returns, over either transport.

        With ``chunk_steps``, the descent is driven as a sequence of
        bounded ``/v1/relax`` segments, each starting from the last
        segment's **accepted** positions.  That makes a long descent
        resumable: if the replica serving it dies mid-segment, the
        transport's retry re-runs only that segment on a healthy replica
        — completed steps are never repeated, because their positions
        already live client-side.  ``deadline_ms`` applies per segment.
        """
        payload = (
            structure
            if isinstance(structure, StructurePayload)
            else StructurePayload.from_graph(structure)
        )
        if chunk_steps is None:
            request = RelaxRequest(
                structure=payload,
                model=model,
                max_steps=max_steps,
                fmax=fmax,
                max_step=max_step,
                skin=skin,
                deadline_ms=deadline_ms,
                client_id=client_id,
                priority=priority,
            )
            return self.transport.relax(request).to_result()
        if chunk_steps < 1:
            raise ValueError("chunk_steps must be >= 1")

        run = _RunTally(
            max_steps if max_steps is not None else RelaxSettings().max_steps, chunk_steps
        )
        first: RelaxResult | None = None
        while True:
            request = RelaxRequest(
                structure=payload,
                model=model,
                max_steps=run.next_steps(),
                fmax=fmax,
                max_step=max_step,
                skin=skin,
                deadline_ms=deadline_ms,
                client_id=client_id,
                priority=priority,
            )
            segment = self.transport.relax(request).to_result()
            if first is None:
                first = segment
            run.add(segment)
            if segment.converged or run.steps >= run.total:
                break
            # Resume the next segment from the accepted positions.
            payload = _moved_to(payload, segment.positions)
        return run.whole_run(segment, energy_initial=first.energy_initial)

    # ------------------------------------------------------------------
    # molecular dynamics
    # ------------------------------------------------------------------
    def md(
        self,
        structure,
        model: str | None = None,
        *,
        n_steps: int | None = None,
        timestep_fs: float | None = None,
        thermostat: str | None = None,
        temperature_k: float | None = None,
        friction: float | None = None,
        tau_fs: float | None = None,
        seed: int | None = None,
        frame_interval: int | None = None,
        step_offset: int | None = None,
        velocities=None,
        skin: float | None = None,
        deadline_ms: float | None = None,
        chunk_steps: int | None = None,
        client_id: str | None = None,
        priority: str | None = None,
    ) -> MDRun:
        """Run server-side MD on one graph or payload; iterate for frames.

        Returns an :class:`MDRun` — iterate it for
        :class:`~repro.serving.md.MDFrame` snapshots (thinned by
        ``frame_interval``); afterwards ``run.result`` holds the
        aggregated :class:`~repro.serving.md.MDResult`.  Unset knobs
        fall back to the server's :class:`~repro.serving.md.MDSettings`
        defaults.  Identical over both transports, bit for bit.

        With ``chunk_steps``, the run is a sequence of bounded segments
        resumed from the last frame's positions + velocities — which
        both survives a replica dying mid-run (the segment is resumed on
        a healthy replica, trajectory unchanged) and keeps each request
        inside a ``deadline_ms`` budget, which applies per segment.
        """
        payload = (
            structure
            if isinstance(structure, StructurePayload)
            else StructurePayload.from_graph(structure)
        )
        if chunk_steps is not None and chunk_steps < 1:
            raise ValueError("chunk_steps must be >= 1")
        return MDRun(
            self.transport,
            payload,
            model,
            knobs={
                "n_steps": n_steps,
                "timestep_fs": timestep_fs,
                "thermostat": thermostat,
                "temperature_k": temperature_k,
                "friction": friction,
                "tau_fs": tau_fs,
                "seed": seed,
                "frame_interval": frame_interval,
                "step_offset": step_offset,
                "skin": skin,
            },
            velocities=None if velocities is None else np.asarray(velocities, dtype=np.float64),
            deadline_ms=deadline_ms,
            chunk_steps=chunk_steps,
            client_id=client_id,
            priority=priority,
        )

    def trajectory(
        self,
        atomic_numbers,
        cell=None,
        pbc: tuple[bool, bool, bool] = (False, False, False),
        cutoff: float = DEFAULT_CUTOFF,
        skin: float = 0.3,
        max_neighbors: int | None = None,
        model: str | None = None,
    ) -> TrajectorySession:
        """Open a trajectory session whose skin list lives in this process.

        The :class:`~repro.serving.relax.TrajectorySession` keeps the
        neighbor list next to the process that owns the dynamics, and
        each ``step`` sends a schema-v2 structure with its edges
        attached, so a stateless server serves a stateful trajectory
        without a neighbor search per step on either side.  Works the
        same over :class:`LocalTransport` and :class:`HttpTransport`.
        """
        return TrajectorySession(
            lambda graph: self.predict_one(
                StructurePayload.from_graph(graph, include_edges=True), model=model
            ),
            atomic_numbers,
            cell=cell,
            pbc=pbc,
            cutoff=cutoff,
            skin=skin,
            max_neighbors=max_neighbors,
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def server_info(self) -> ServerInfo:
        return self.transport.server_info()

    def stats(self) -> StatsSnapshot:
        return self.transport.stats()

    def healthz(self) -> dict:
        return self.transport.healthz()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self.transport.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
