"""Front-end router: one listening socket, N replica backends.

The GIL bounds a single Python process no matter how many serving
worker threads it runs — model forwards are CPU-bound, so `/v1/predict`
throughput plateaus at roughly one core.  The replica subsystem breaks
that plateau by running N *processes* (see
:mod:`repro.serving.replicas`) and putting this router in front:

- **One socket in, N sockets out.**  Clients speak the ordinary v1
  HTTP/JSON API to the router; the router forwards ``POST /v1/predict``
  (and ``/v1/relax`` / ``/v1/md``, each pinned whole to one replica)
  bodies *verbatim* to a replica's own :class:`~repro.api.server.ApiServer`
  over loopback TCP and relays the response bytes back.  The v1 wire
  schema **is** the inter-process protocol — no second serialization
  layer, and anything a replica can say to a client it can say through
  the router (an md frame stream arrives buffered, re-framed with
  ``Content-Length``; the client's line reader accepts both framings).
- **Least-in-flight load balancing** with round-robin tie-breaking,
  skipping replicas that are unhealthy or draining.
- **Rerouting.**  A connection-level failure (refused, reset, truncated)
  marks the replica unhealthy and retries the request on another one, so
  a crashed worker costs a few milliseconds, not a failed request.
  Timeouts are *not* rerouted — a slow model forward retried elsewhere
  would double the load exactly when the fleet is slowest.
- **Draining.**  :meth:`Router.stop_admitting` turns new predicts into
  503s while in-flight ones finish (:meth:`Router.wait_idle`);
  :meth:`Router.set_draining` does the same for a single replica, which
  is what makes rolling restarts lossless.
- **Aggregated telemetry.**  ``GET /v1/stats`` fans out to every live
  replica, merges the per-model counters (:func:`aggregate_model_telemetry`
  — plan counters included) and reports a per-replica breakdown plus the
  router's own request/reroute/reject counters.

The router runs on a replica's HTTP stack (:mod:`repro.wire`: stdlib's
``ThreadingHTTPServer``, one thread per connection) and forwards over
``http.client``.  Its handler threads block in socket I/O with the GIL
released; the CPU work stays in the replicas.  One lock guards the
replica table, shared by the supervisor and the handler threads.

This module deliberately does **not** import :mod:`repro.api` — the api
package sits on top of serving — nor numpy or scipy, at import or at run
time: it shuffles bytes, so the fleet's front door boots without the
numeric stack.  What the router must share with the api (the schema
version, the hop headers, the body limit, the error envelope and
``Retry-After`` value it authors itself) comes from the dependency-free
:mod:`repro.wire`, and the ``/v1/stats`` merge from the stdlib-only
:mod:`repro.serving.telemetry`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from http.client import HTTPConnection, HTTPException, IncompleteRead

from repro.serving.telemetry import merge
from repro.wire import (
    CLIENT_HEADER,
    DEADLINE_HEADER,
    PRIORITY_HEADER,
    SCHEMA_VERSION,
    JsonHandler,
    JsonServer,
    error_envelope,
    retry_after_header,
)

#: Front-door shedding: the minimum fleet-wide brownout level at which a
#: lane (read from the priority *header* — bodies are opaque here) is
#: rejected instead of crossing the wire to a replica that would shed
#: it anyway.  Mirrors the admission controller's shedding
#: order — background first, then bulk, never interactive.
_LANE_SHED_LEVEL = {"background": 1, "bulk": 2}

#: Circuit-breaker states.  ``closed`` = normal traffic; ``open`` =
#: repeated connection failures, no traffic until the reset window
#: elapses; ``half-open`` = exactly one live request is probing whether
#: the replica recovered.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

#: Headers on every proxied request; the hop headers are added to them.
_PROXY_HEADERS = {
    "Accept": "application/json",
    "Content-Type": "application/json",
    "Connection": "close",
}


@dataclass
class ReplicaState:
    """The router's view of one backend replica."""

    replica_id: int
    port: int
    pid: int
    healthy: bool = True
    draining: bool = False
    in_flight: int = 0
    restarts: int = 0
    started_at: float = field(default_factory=time.monotonic)
    breaker: str = BREAKER_CLOSED
    breaker_failures: int = 0  # consecutive connection failures
    breaker_opened_at: float = 0.0
    #: Last healthz ``saturation`` section the supervisor relayed —
    #: queue depth, estimated wait, brownout level/state.  Feeds the
    #: router's front-door lane shedding.
    saturation: dict = field(default_factory=dict)

    def describe(self) -> dict:
        payload = {
            "port": self.port,
            "pid": self.pid,
            "healthy": self.healthy,
            "draining": self.draining,
            "in_flight": self.in_flight,
            "restarts": self.restarts,
            "breaker": self.breaker,
            "uptime_s": round(time.monotonic() - self.started_at, 3),
        }
        if self.saturation:
            payload["saturation"] = dict(self.saturation)
        return payload


def _rejection(
    code: str, message: str, status: int, retry_after_s: float | None = None
) -> tuple[int, dict, dict]:
    """A router-authored failure as ``(status, v1 error envelope, headers)``.

    The retryable statuses (429/503) carry ``Retry-After``, like a
    replica's own.
    """
    headers = {"Retry-After": retry_after_header(retry_after_s)} if status in (429, 503) else {}
    return status, error_envelope(code, message, status, retry_after_s), headers


# ----------------------------------------------------------------------
# Telemetry aggregation
# ----------------------------------------------------------------------
def aggregate_model_telemetry(per_replica: list[dict]) -> dict:
    """Merge per-replica ``/v1/stats`` model sections into fleet totals.

    Input: each element is one replica's ``models`` mapping (model name →
    telemetry entry).  Every field merges by the rule declared beside it
    in :data:`repro.serving.telemetry.MODEL` — counters sum, derived
    rates are recomputed from the sums, latency percentiles are
    request-weighted means (an approximation, see ``mean_by`` there).
    Missing sections are tolerated: replicas running older code simply
    contribute nothing to the sections they lack.
    """
    by_model: dict[str, list[dict]] = {}
    for models in per_replica:
        for name, entry in models.items():
            by_model.setdefault(name, []).append(entry)
    return {
        name: {"replica_count": len(entries), **merge(entries)}
        for name, entries in by_model.items()
    }


# ----------------------------------------------------------------------
# The router
# ----------------------------------------------------------------------
class Router:
    """HTTP front end load-balancing over a replica table.

    Lifecycle mirrors :class:`~repro.api.server.ApiServer`: construct,
    :meth:`start` (binds and serves from a daemon thread; the bound
    ephemeral port is :attr:`bound_port`), :meth:`close`.  The replica
    table is populated by the supervisor via :meth:`set_replica` /
    :meth:`remove_replica` and steered with :meth:`set_health` /
    :meth:`set_draining`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        replica_host: str = "127.0.0.1",
        proxy_timeout_s: float = 120.0,
        breaker_failure_threshold: int = 2,
        breaker_reset_s: float = 1.0,
    ) -> None:
        self.host = host
        self.requested_port = int(port)
        self.replica_host = replica_host
        self.proxy_timeout_s = float(proxy_timeout_s)
        if breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be >= 1")
        self.breaker_failure_threshold = int(breaker_failure_threshold)
        self.breaker_reset_s = float(breaker_reset_s)
        self._replicas: dict[int, ReplicaState] = {}
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._admitting = True
        self._rr = 0  # tie-break cursor for equal in-flight counts
        self._counters = {
            "requests": 0,
            "rerouted": 0,
            "rejected": 0,
            "proxy_errors": 0,
            "breaker_opens": 0,
            "deadline_expired": 0,
            "brownout_shed": 0,
        }
        self._started_at = time.monotonic()
        #: Optional supervisor hook: a callable returning the watchdog
        #: escalation counters to surface in ``/v1/stats``.  The router
        #: never escalates on its own — the supervisor owns SIGTERM/
        #: SIGKILL — so the counters are injected rather than computed.
        self.watchdog_counters: Callable[[], dict] | None = None
        self._httpd: JsonServer | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def bound_port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("router not started")
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.bound_port}"

    def start(self) -> "Router":
        if self._httpd is not None:
            raise RuntimeError("router already started")
        try:
            self._httpd = JsonServer((self.host, self.requested_port), _RouterHandler, self)
        except OSError as error:
            raise RuntimeError(f"router failed to bind: {error}") from error
        threading.Thread(
            target=self._httpd.serve_forever, args=(0.05,), name="replica-router", daemon=True
        ).start()
        return self

    def close(self) -> None:
        """Stop the listener; returns once it has stopped (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._httpd is not None:
            self._httpd.shutdown()  # waits for serve_forever to return
            self._httpd.server_close()

    # ------------------------------------------------------------------
    # replica table (supervisor-facing, thread-safe)
    # ------------------------------------------------------------------
    def set_replica(self, replica_id: int, port: int, pid: int, restarts: int = 0) -> None:
        """Register (or replace, after a restart) one backend replica."""
        with self._lock:
            self._replicas[replica_id] = ReplicaState(
                replica_id=replica_id, port=int(port), pid=int(pid), restarts=int(restarts)
            )

    def remove_replica(self, replica_id: int) -> None:
        with self._lock:
            self._replicas.pop(replica_id, None)

    def set_health(self, replica_id: int, healthy: bool) -> None:
        with self._lock:
            state = self._replicas.get(replica_id)
            if state is not None:
                state.healthy = bool(healthy)

    def set_draining(self, replica_id: int, draining: bool) -> None:
        with self._lock:
            state = self._replicas.get(replica_id)
            if state is not None:
                state.draining = bool(draining)

    def set_saturation(self, replica_id: int, saturation: dict | None) -> None:
        """Record one replica's healthz ``saturation`` section.

        The supervisor's monitor loop relays what the probe saw; the
        router uses it to shed low-priority lanes at the front door once
        the whole fleet is in brownout (see :meth:`_fleet_shed_hint`).
        """
        with self._lock:
            state = self._replicas.get(replica_id)
            if state is not None:
                state.saturation = dict(saturation or {})

    def _fleet_shed_hint(self, required_level: int) -> float | None:
        """Retry hint when *every* available replica sheds at this level.

        ``None`` means at least one replica would still accept the lane
        (or none has reported saturation yet) — forward as usual.  Front-
        door shedding is deliberately unanimous: a single recovered
        replica is enough to stop rejecting here, and a fleet with no
        available replica at all falls through to the 503 path instead.
        """
        with self._lock:
            infos = [
                state.saturation
                for state in self._replicas.values()
                if state.healthy and not state.draining
            ]
        if not infos or not all(
            info and int(info.get("brownout_level", 0)) >= required_level
            for info in infos
        ):
            return None
        hint = max((float(info.get("estimated_wait_s", 0.0)) for info in infos), default=0.0)
        return hint if hint > 0.0 else 1.0

    def replica_in_flight(self, replica_id: int) -> int:
        with self._lock:
            state = self._replicas.get(replica_id)
            return state.in_flight if state is not None else 0

    def total_in_flight(self) -> int:
        with self._lock:
            return sum(state.in_flight for state in self._replicas.values())

    def snapshot(self) -> dict[int, dict]:
        """Per-replica routing state (ids → describe dicts), for telemetry."""
        with self._lock:
            return {
                replica_id: state.describe() for replica_id, state in self._replicas.items()
            }

    # ------------------------------------------------------------------
    # admission / draining
    # ------------------------------------------------------------------
    @property
    def admitting(self) -> bool:
        with self._lock:
            return self._admitting

    def stop_admitting(self) -> None:
        """New ``/v1/predict`` requests get 503; in-flight ones finish."""
        with self._lock:
            self._admitting = False

    def resume_admitting(self) -> None:
        with self._lock:
            self._admitting = True

    def wait_idle(self, timeout_s: float) -> bool:
        """Block until no request is in flight; ``False`` on timeout."""
        with self._idle:
            return self._idle.wait_for(
                lambda: sum(s.in_flight for s in self._replicas.values()) == 0,
                timeout=timeout_s,
            )

    def _count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[key] += amount

    def _breaker_admits(self, state: ReplicaState, now: float) -> bool:
        """Whether the replica's circuit breaker lets a request through.

        Caller holds the lock.  An ``open`` breaker becomes eligible
        once the reset window has elapsed; if this replica is then
        chosen, :meth:`_acquire` flips it to ``half-open`` and the
        admitted request *is* the recovery probe — while it is in
        flight every other request routes elsewhere.
        """
        if state.breaker == BREAKER_CLOSED:
            return True
        if state.breaker == BREAKER_OPEN:
            return now - state.breaker_opened_at >= self.breaker_reset_s
        return False  # half-open: one probe at a time

    def _record_success(self, state: ReplicaState) -> None:
        """A proxied exchange completed: the replica is reachable."""
        with self._lock:
            state.breaker_failures = 0
            if state.breaker != BREAKER_CLOSED:
                state.breaker = BREAKER_CLOSED

    def _record_failure(self, state: ReplicaState) -> None:
        """A proxied exchange failed at the connection level."""
        with self._lock:
            state.breaker_failures += 1
            was_open = state.breaker != BREAKER_CLOSED
            if was_open or state.breaker_failures >= self.breaker_failure_threshold:
                # A failed half-open probe re-opens immediately (the
                # replica is still down); a closed breaker opens once
                # the consecutive-failure threshold is reached.
                state.breaker = BREAKER_OPEN
                state.breaker_opened_at = time.monotonic()
                self._counters["breaker_opens"] += 1

    def _acquire(self, exclude: set[int]) -> ReplicaState | None:
        """Pick the least-loaded healthy replica and charge it one request."""
        now = time.monotonic()
        with self._lock:
            candidates = [
                state
                for state in self._replicas.values()
                if state.healthy
                and not state.draining
                and state.replica_id not in exclude
                and self._breaker_admits(state, now)
            ]
            if not candidates:
                return None
            lowest = min(state.in_flight for state in candidates)
            ties = [state for state in candidates if state.in_flight == lowest]
            self._rr += 1
            chosen = ties[self._rr % len(ties)]
            if chosen.breaker != BREAKER_CLOSED:
                # Only the replica actually receiving the request flips
                # to half-open; unchosen open candidates stay open so
                # they never strand a probeless half-open state.
                chosen.breaker = BREAKER_HALF_OPEN
            chosen.in_flight += 1
            return chosen

    def _release(self, state: ReplicaState) -> None:
        with self._idle:
            state.in_flight = max(0, state.in_flight - 1)
            self._idle.notify_all()

    # ------------------------------------------------------------------
    # HTTP front end (handler threads)
    # ------------------------------------------------------------------
    def _dispatch(
        self, method: str, path: str, headers, body: bytes
    ) -> tuple[int, object, dict]:
        """One request's ``(status, dict or relayed bytes, headers)``; headers ignore case."""
        if method == "POST" and path in ("/v1/predict", "/v1/relax", "/v1/md"):
            return self._post(path, headers, body)
        if method == "GET" and path == "/v1/healthz":
            payload = self.health_payload()
            if payload["status"] == "unavailable":
                # Zero healthy replicas: a typed 503 so load balancers
                # and the retrying client both read it unambiguously.
                return _rejection(
                    "unavailable",
                    f"no healthy replica ({payload['total_replicas']} registered)",
                    503,
                )
            return 200, payload, {}
        if method == "GET" and path == "/v1/stats":
            payload = self.stats_payload()
            if not payload["models"] and not any(
                entry["healthy"] for entry in payload["replicas"].values()
            ):
                return _rejection(
                    "unavailable",
                    f"no healthy replica to aggregate stats from "
                    f"({len(payload['replicas'])} registered)",
                    503,
                )
            return 200, payload, {}
        if method == "GET" and path == "/v1/models":
            return self._proxy_any("GET", "/v1/models")
        return _rejection("not_found", f"no such endpoint: {method} {path}", 404)

    def _post(self, path: str, headers, body: bytes) -> tuple[int, object, dict]:
        # One body, one replica: a relax request pins its whole descent —
        # and an md request its whole segment — to the replica it lands
        # on (the trajectory's plan bucket and skin neighbor list stay
        # hot there), exactly like a predict pins its one forward.
        if not self.admitting:
            self._count("rejected")
            return _rejection(
                "unavailable", "router is draining; not admitting new requests", 503
            )
        # Front-door brownout shed: when every available replica reports
        # a brownout level that sheds this request's lane, reject here —
        # the request would only cross the wire to be 429'd anyway.  The
        # lane comes from the priority *header* (the body is opaque at
        # this layer); an absent or unknown value rides the interactive
        # default, which is never shed.
        lane_raw = headers.get(PRIORITY_HEADER)
        shed_level = _LANE_SHED_LEVEL.get(lane_raw or "")
        if shed_level is not None:
            hint = self._fleet_shed_hint(shed_level)
            if hint is not None:
                self._count("brownout_shed")
                return _rejection(
                    "overloaded",
                    f"fleet brownout: {lane_raw} lane is shedding at the router; retry later",
                    429,
                    retry_after_s=round(hint, 3),
                )
        self._count("requests")
        client_raw = headers.get(CLIENT_HEADER)
        # Deadline budget: stamp the header's remaining milliseconds on
        # arrival; each forwarding attempt re-advertises what is left.
        # A malformed value is forwarded untouched so the replica
        # rejects it with its typed 400 (the router never authors 400s).
        deadline = None
        forward_raw = headers.get(DEADLINE_HEADER)
        if forward_raw is not None:
            try:
                deadline = time.monotonic() + float(forward_raw) / 1000.0
                forward_raw = None
            except ValueError:
                pass
        tried: set[int] = set()
        while True:
            extra_headers = {}
            if client_raw is not None:
                extra_headers[CLIENT_HEADER] = client_raw
            if lane_raw is not None:
                extra_headers[PRIORITY_HEADER] = lane_raw
            timeout_s = self.proxy_timeout_s
            if forward_raw is not None:
                extra_headers[DEADLINE_HEADER] = forward_raw
            elif deadline is not None:
                remaining_s = deadline - time.monotonic()
                if remaining_s <= 0:
                    self._count("deadline_expired")
                    return _rejection(
                        "deadline_exceeded",
                        "deadline expired at the router before a replica answered",
                        504,
                    )
                extra_headers[DEADLINE_HEADER] = f"{remaining_s * 1000.0:.1f}"
                timeout_s = min(timeout_s, remaining_s)
            state = self._acquire(tried)
            if state is None:
                self._count("proxy_errors")
                return _rejection(
                    "unavailable", f"no healthy replica available ({len(tried)} tried)", 503
                )
            try:
                answer = self._proxy(state, "POST", path, timeout_s, body, extra_headers)
                self._record_success(state)
                return answer
            except TimeoutError:
                if deadline is not None and time.monotonic() >= deadline:
                    self._count("deadline_expired")
                    return _rejection(
                        "deadline_exceeded",
                        f"deadline expired while replica {state.replica_id} was serving",
                        504,
                    )
                # The replica is alive but slow; retrying elsewhere would
                # double the fleet's load exactly when it is slowest.
                return _rejection(
                    "timeout",
                    f"replica {state.replica_id} did not answer within {self.proxy_timeout_s}s",
                    504,
                )
            except (OSError, HTTPException):
                # Connection-level failure: the replica is gone or
                # incoherent.  Mark it down, feed its circuit breaker,
                # and reroute — the supervisor's health loop (or the
                # breaker's half-open probe) will bring it back.
                tried.add(state.replica_id)
                self.set_health(state.replica_id, False)
                self._record_failure(state)
                self._count("rerouted")
            finally:
                self._release(state)

    def _proxy_any(self, method: str, path: str) -> tuple[int, object, dict]:
        state = self._acquire(set())
        if state is None:
            return _rejection("unavailable", "no healthy replica available", 503)
        try:
            result = self._proxy(state, method, path, self.proxy_timeout_s)
            self._record_success(state)
            return result
        except (OSError, HTTPException) as error:
            self._count("proxy_errors")
            return _rejection("transport_error", f"replica {state.replica_id}: {error}", 502)
        finally:
            self._release(state)

    def _proxy(
        self,
        state: ReplicaState,
        method: str,
        path: str,
        timeout_s: float,
        body: bytes = b"",
        extra_headers: dict | None = None,
    ) -> tuple[int, bytes, dict]:
        """Forward one request to a replica; returns (status, body, headers).

        ``timeout_s`` bounds the whole exchange, a streamed ``/v1/md``
        body included: a socket timeout bounds one read, so it is re-armed
        to what is left before every read.  One connection per proxied
        request (``Connection: close``): on loopback the handshake is
        microseconds, and any I/O error here means *this* request, not a
        pooled connection in an unknown state.  Of the replica's response
        headers only ``Retry-After`` is relayed — the framing headers are
        re-authored by the handler, but the backoff hint belongs to the
        client.
        """
        deadline = time.monotonic() + timeout_s
        connection = HTTPConnection(self.replica_host, state.port, timeout=timeout_s)

        def read(call, *args):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"no answer within {timeout_s}s")
            sock.settimeout(remaining)
            return call(*args)

        try:
            connection.connect()
            # Under Connection: close, getresponse() detaches the socket
            # from the connection; the response still reads through it.
            sock = connection.sock
            connection.request(method, path, body, {**_PROXY_HEADERS, **(extra_headers or {})})
            with read(connection.getresponse) as response:
                payload = b"".join(iter(lambda: read(response.read1, 65536), b""))
                if response.length:  # EOF before the promised Content-Length
                    raise IncompleteRead(payload, response.length)
                retry_after = response.getheader("Retry-After")
        finally:
            connection.close()
        return response.status, payload, {} if retry_after is None else {"Retry-After": retry_after}

    # ------------------------------------------------------------------
    # router-authored endpoints
    # ------------------------------------------------------------------
    def health_payload(self) -> dict:
        with self._lock:
            replicas = {
                str(replica_id): state.describe()
                for replica_id, state in self._replicas.items()
            }
            admitting = self._admitting
        healthy = sum(1 for entry in replicas.values() if entry["healthy"])
        if not admitting:
            status = "shutting_down"
        elif healthy == len(replicas) and replicas:
            status = "ok"
        elif healthy:
            status = "degraded"
        else:
            status = "unavailable"
        return {
            "schema_version": SCHEMA_VERSION,
            "status": status,
            "role": "router",
            "healthy_replicas": healthy,
            "total_replicas": len(replicas),
            "replicas": replicas,
        }

    def stats_payload(self) -> dict:
        """Fan out ``/v1/stats`` to every live replica, one thread each, and aggregate."""
        with self._lock:
            states = [s for s in self._replicas.values() if s.healthy]
            table = {
                str(replica_id): state.describe()
                for replica_id, state in self._replicas.items()
            }
            counters = dict(self._counters)
            admitting = self._admitting

        def fetch(state: ReplicaState) -> dict | None:
            try:
                status, raw, _headers = self._proxy(state, "GET", "/v1/stats", self.proxy_timeout_s)
                return json.loads(raw) if status == 200 else None
            except (OSError, HTTPException, ValueError):
                return None

        with ThreadPoolExecutor(max_workers=len(states) or 1) as pool:
            fetched = list(zip(states, pool.map(fetch, states)))
        model_sections: list[dict] = []
        for state, snapshot in fetched:
            entry = table[str(state.replica_id)]  # same snapshot as states
            if snapshot is None:
                entry["unreachable"] = True
                continue
            entry["replica_pid"] = snapshot.get("pid")
            entry["replica_uptime_s"] = snapshot.get("uptime_s")
            entry["models"] = snapshot.get("models", {})
            model_sections.append(snapshot.get("models", {}))
        payload = {
            "schema_version": SCHEMA_VERSION,
            "models": aggregate_model_telemetry(model_sections),
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "pid": os.getpid(),
            "replicas": table,
            "router": {**counters, "admitting": admitting},
        }
        if self.watchdog_counters is not None:
            payload["watchdog"] = dict(self.watchdog_counters())
        return payload


class _RouterHandler(JsonHandler):
    """One client connection; ``self.server.app`` is the :class:`Router`."""

    def _route(self) -> None:
        try:
            body = self.read_body()
        except ValueError as error:
            # Same typed 400 a replica gives; read_body drops the connection.
            self.send_json(*_rejection("invalid_request", str(error), 400))
            return
        try:
            answer = self.server.app._dispatch(self.command, self.path, self.headers, body)
        except Exception as error:  # noqa: BLE001 - boundary
            answer = _rejection("internal_error", f"router error: {error}", 500)
        self.send_json(*answer)

    do_GET = do_POST = _route
