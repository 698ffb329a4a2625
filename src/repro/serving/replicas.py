"""Multi-process replica serving: the supervisor behind the router.

One Python process serves `/v1/predict` at roughly one core's worth of
model forwards — every serving worker thread shares the GIL.  This
module is the horizontal axis: :class:`ReplicaSupervisor` launches N
independent **replica processes**, each a full ``repro serve --http 0``
server with its own engine, :class:`~repro.serving.service.PredictionService`
and plan cache, and fronts them with the
:class:`~repro.serving.router.Router`.

Process model
-------------
Replicas are spawned fork+exec (``subprocess.Popen`` of the CLI) rather
than bare ``os.fork()``: the supervisor runs router and monitor threads,
and forking a threaded process can duplicate held locks into the child —
a fresh exec gives every replica a clean engine with nothing shared.
Each child starts in its own session so a Ctrl-C against
the supervisor's terminal doesn't race the children into shutdown before
the router has drained.

Startup handshake: the CLI prints ``bound_port=<port>`` once its
listener is up *and* the model is warm (``ApiServer`` binds the
ephemeral port; the gateway warms before the banner), so the supervisor
registers a replica with the router the moment that line appears.  A
replica that has not printed it within ``ReplicaSpec.startup_timeout_s``
— silent, or exited — is killed and reported with its output tail.

The supervisor process runs no forward.  This module and the router
import only the standard library, :mod:`repro.wire` and the stdlib-only
:mod:`~repro.serving.telemetry` (``tests/test_layering.py`` holds them
to that), so the supervisor boots in a fraction of a replica's time and
never maps numpy, scipy or a BLAS.

Lifecycle
---------
- **Health.**  A monitor thread probes every replica's ``/v1/healthz``
  each ``probe_interval_s`` and respawns any process that died —
  ``kill -9`` a worker and the router reroutes its traffic while the
  supervisor brings up a replacement.
- **Hung-replica watchdog.**  A crashed process is easy; a *wedged* one
  — alive, accepting connections, never finishing a request — is the
  dangerous failure, because it looks healthy to a liveness probe.  Two
  signals catch it: the healthz payload reports the age of the oldest
  in-flight request (``max_request_age_s``), and the probe itself has a
  deadline (``probe_timeout_s``; ``probe_failures_before_restart``
  consecutive misses mean the server loop is gone even if the process
  isn't).  Either way the watchdog escalates: SIGTERM, a short grace,
  SIGKILL, respawn — and the kill resets the wedged replica's hung
  proxied connections, which the router then reroutes, so waiting
  clients get answers instead of timeouts.
- **Graceful drain** (:meth:`ReplicaSupervisor.close`): the router stops
  admitting (new predicts → 503), in-flight requests finish, then every
  replica gets SIGTERM and takes its own graceful path (drain queue,
  exit 0).
- **Rolling restart** (:meth:`ReplicaSupervisor.rolling_restart`): one
  replica at a time is drained (router stops routing to it, its
  in-flight requests complete), restarted, and re-admitted once healthy.
  With ≥2 replicas no request fails; with 1 replica there is a brief
  503 window — that is the price of a one-replica fleet, not a bug.
"""

from __future__ import annotations

import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException
from pathlib import Path

from repro.serving.router import Router

#: The CLI's machine-readable startup line (also parsed by
#: ``benchmarks/smoke_http_api.py``).
_BOUND_PORT_RE = re.compile(r"bound_port=(\d+)")

#: Replica stdout lines kept for crash diagnostics.
_LOG_TAIL = 50


class ReplicaStartupError(RuntimeError):
    """A replica process failed to come up; carries its output tail."""


@dataclass(frozen=True)
class ReplicaSpec:
    """How to launch one replica.

    ``args`` is appended to ``repro serve --http 0 --host <host>`` — the
    model and serving knobs (``--preset``/``--checkpoint``, ``--workers``,
    ``--backend``, ...), identical for every replica in the fleet.
    """

    args: tuple[str, ...] = ()
    startup_timeout_s: float = 120.0


class _ReplicaHandle:
    """Supervisor-side record of one replica process."""

    def __init__(self, replica_id: int) -> None:
        self.replica_id = replica_id
        self.process: subprocess.Popen | None = None
        self.port: int = 0
        self.restarts = 0
        self.stopping = False  # a deliberate stop; the monitor must not respawn
        self.failed_probes = 0
        self.log: deque[str] = deque(maxlen=_LOG_TAIL)
        self.drainer: threading.Thread | None = None

    @property
    def pid(self) -> int:
        return self.process.pid if self.process is not None else 0

    def start_drainer(self, process: subprocess.Popen) -> queue.SimpleQueue:
        """Consume ``process``'s stdout from Popen on, so it can never block on a full pipe.

        Every line lands in :attr:`log`.  The returned queue receives the
        port from the first ``bound_port=`` line, or ``None`` if the
        output ends without one; the thread then drains to EOF.
        """
        bound: queue.SimpleQueue = queue.SimpleQueue()

        def drain() -> None:
            port = None
            with process.stdout:  # the drainer owns the pipe: closed at EOF
                for line in process.stdout:
                    self.log.append(line.rstrip("\n"))
                    match = _BOUND_PORT_RE.search(line) if port is None else None
                    if match:
                        port = int(match.group(1))
                        bound.put(port)
            if port is None:
                bound.put(None)

        self.drainer = threading.Thread(
            target=drain, name=f"replica-{self.replica_id}-stdout", daemon=True
        )
        self.drainer.start()
        return bound


class ReplicaSupervisor:
    """N replica processes + the router + the health/restart loop."""

    def __init__(
        self,
        count: int,
        spec: ReplicaSpec,
        host: str = "127.0.0.1",
        port: int = 0,
        probe_interval_s: float = 0.5,
        probe_failures_before_unhealthy: int = 3,
        probe_timeout_s: float = 2.0,
        max_request_age_s: float = 0.0,
        probe_failures_before_restart: int = 20,
        term_grace_s: float = 5.0,
        breaker_failure_threshold: int = 2,
        breaker_reset_s: float = 1.0,
    ) -> None:
        if count < 1:
            raise ValueError("count must be >= 1")
        self.count = int(count)
        self.spec = spec
        self.router = Router(
            host=host,
            port=port,
            breaker_failure_threshold=breaker_failure_threshold,
            breaker_reset_s=breaker_reset_s,
        )
        self.probe_interval_s = float(probe_interval_s)
        self.probe_failures_before_unhealthy = int(probe_failures_before_unhealthy)
        self.probe_timeout_s = float(probe_timeout_s)
        #: A replica whose oldest in-flight request is older than this is
        #: declared hung and restarted.  0 disables the age check — the
        #: right default when long relax descents legitimately hold one
        #: request for minutes; deployments that cap request latency
        #: should set it just above their slowest legal request.
        self.max_request_age_s = float(max_request_age_s)
        #: Consecutive probe *timeouts/refusals* before the watchdog
        #: concludes the serving loop itself is gone and restarts the
        #: process even though it is technically alive.  0 disables.
        self.probe_failures_before_restart = int(probe_failures_before_restart)
        self.term_grace_s = float(term_grace_s)
        #: Watchdog escalation counters (JSON-ready via describe(), and
        #: surfaced over HTTP in the router's ``/v1/stats`` payload).
        self.watchdog = {"hung_detected": 0, "sigterm": 0, "sigkill": 0, "respawns": 0}
        self.router.watchdog_counters = lambda: self.watchdog
        self._handles = [_ReplicaHandle(replica_id) for replica_id in range(self.count)]
        self._mutate = threading.Lock()  # serializes restarts vs. the monitor
        self._stop = threading.Event()
        self._monitor: threading.Thread | None = None
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    # address / introspection
    # ------------------------------------------------------------------
    @property
    def bound_port(self) -> int:
        return self.router.bound_port

    @property
    def url(self) -> str:
        return self.router.url

    def pids(self) -> dict[int, int]:
        return {handle.replica_id: handle.pid for handle in self._handles}

    def describe(self) -> dict:
        """Supervisor + router view of the fleet (JSON-ready)."""
        routing = self.router.snapshot()
        return {
            "replicas": {
                handle.replica_id: {
                    "pid": handle.pid,
                    "port": handle.port,
                    "restarts": handle.restarts,
                    "alive": handle.process is not None and handle.process.poll() is None,
                    "routing": routing.get(handle.replica_id),
                }
                for handle in self._handles
            },
            "admitting": self.router.admitting,
            "watchdog": dict(self.watchdog),
        }

    # ------------------------------------------------------------------
    # spawn plumbing
    # ------------------------------------------------------------------
    def _command(self) -> list[str]:
        return [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--http",
            "0",
            "--host",
            self.router.replica_host,
            *self.spec.args,
        ]

    def _environment(self, replica_id: int) -> dict[str, str]:
        env = dict(os.environ)
        src_dir = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        if not existing or src_dir not in existing.split(os.pathsep):
            env["PYTHONPATH"] = src_dir + (os.pathsep + existing if existing else "")
        # The child's fleet slot, so per-replica fault clauses
        # (``wedge:after=3:replica=0``) know whether they apply.
        env["REPRO_REPLICA_ID"] = str(replica_id)
        return env

    def _spawn(self, handle: _ReplicaHandle) -> None:
        """Launch one replica and wait until it reports its bound port.

        The wait is bounded by ``spec.startup_timeout_s`` even if the
        child prints nothing: its output is read on the drainer thread.
        """
        process = subprocess.Popen(
            self._command(),
            env=self._environment(handle.replica_id),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        try:
            port = handle.start_drainer(process).get(timeout=self.spec.startup_timeout_s)
        except queue.Empty:
            port = None
        if port is None:
            process.kill()
            process.wait()
            handle.drainer.join(timeout=1.0)  # the tail, up to the child's last line
            tail = "\n".join(handle.log)
            raise ReplicaStartupError(
                f"replica {handle.replica_id} never reported bound_port "
                f"(exit={process.returncode}, timeout {self.spec.startup_timeout_s:g}s):\n{tail}"
            )
        handle.process = process
        handle.port = port
        handle.stopping = False
        handle.failed_probes = 0

    def _terminate(self, handle: _ReplicaHandle, timeout_s: float = 30.0) -> None:
        """SIGTERM one replica and wait for its graceful exit."""
        process = handle.process
        if process is None:
            return
        handle.stopping = True
        if process.poll() is None:
            try:
                process.send_signal(signal.SIGTERM)
            except (ProcessLookupError, OSError):
                pass
            try:
                process.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ReplicaSupervisor":
        """Spawn every replica (in parallel), bind the router, start health."""
        if self._started:
            raise RuntimeError("supervisor already started")
        self._started = True
        errors: list[BaseException] = []

        def spawn(handle: _ReplicaHandle) -> None:
            try:
                self._spawn(handle)
            except BaseException as error:  # noqa: BLE001 - collected below
                errors.append(error)

        threads = [
            threading.Thread(target=spawn, args=(handle,), daemon=True)
            for handle in self._handles
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            self._kill_all()
            raise ReplicaStartupError(
                f"{len(errors)}/{self.count} replicas failed to start: {errors[0]}"
            )
        self.router.start()
        for handle in self._handles:
            self.router.set_replica(
                handle.replica_id, handle.port, handle.pid, restarts=handle.restarts
            )
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="replica-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def close(self, drain_timeout_s: float = 30.0) -> None:
        """Graceful shutdown: stop admitting, drain, SIGTERM the fleet."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=10.0)
        self.router.stop_admitting()
        self.router.wait_idle(drain_timeout_s)
        with self._mutate:
            for handle in self._handles:
                handle.stopping = True
                process = handle.process
                if process is not None and process.poll() is None:
                    try:
                        process.send_signal(signal.SIGTERM)
                    except (ProcessLookupError, OSError):
                        pass
            for handle in self._handles:
                process = handle.process
                if process is not None:
                    try:
                        process.wait(timeout=30.0)
                    except subprocess.TimeoutExpired:
                        process.kill()
                        process.wait()
        self.router.close()

    def _kill_all(self) -> None:
        for handle in self._handles:
            process = handle.process
            if process is not None and process.poll() is None:
                process.kill()
                process.wait()

    def __enter__(self) -> "ReplicaSupervisor":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # health + restart
    # ------------------------------------------------------------------
    def _probe(self, handle: _ReplicaHandle) -> tuple[bool, float]:
        """(healthz ok?, age of the replica's oldest in-flight request).

        Also relays the replica's ``saturation`` section (queue depth,
        brownout level) to the router, which sheds low-priority lanes at
        the front door once the whole fleet is in brownout.
        """
        connection = HTTPConnection(
            self.router.replica_host, handle.port, timeout=self.probe_timeout_s
        )
        try:
            connection.request("GET", "/v1/healthz")
            response = connection.getresponse()
            if not 200 <= response.status < 300:
                return False, 0.0
            payload = json.loads(response.read())
            oldest = payload.get("oldest_inflight_s") or 0.0
            self.router.set_saturation(handle.replica_id, payload.get("saturation") or {})
            return payload.get("status") == "ok", float(oldest)
        except (OSError, HTTPException, ValueError):
            return False, 0.0
        finally:
            connection.close()

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.probe_interval_s):
            for handle in self._handles:
                if self._stop.is_set():
                    return
                with self._mutate:
                    if handle.stopping:
                        continue
                    process = handle.process
                    if process is not None and process.poll() is not None:
                        # The process died underneath us: stop routing to
                        # it and bring up a replacement in its slot.
                        self.router.set_health(handle.replica_id, False)
                        self._respawn(handle)
                        continue
                ok, oldest_inflight_s = self._probe(handle)
                if ok and (
                    self.max_request_age_s > 0
                    and oldest_inflight_s > self.max_request_age_s
                ):
                    # Wedged: the probe answers (the HTTP loop is fine)
                    # but some request has been stuck far longer than any
                    # legal one — the dangerous failure a liveness probe
                    # alone cannot see.
                    self.router.set_health(handle.replica_id, False)
                    with self._mutate:
                        if not handle.stopping:
                            self._escalate(
                                handle,
                                f"oldest in-flight request is {oldest_inflight_s:.1f}s old "
                                f"(max {self.max_request_age_s:.1f}s)",
                            )
                    continue
                if ok:
                    handle.failed_probes = 0
                    self.router.set_health(handle.replica_id, True)
                else:
                    handle.failed_probes += 1
                    if handle.failed_probes >= self.probe_failures_before_unhealthy:
                        self.router.set_health(handle.replica_id, False)
                    if (
                        self.probe_failures_before_restart > 0
                        and handle.failed_probes >= self.probe_failures_before_restart
                    ):
                        # The process is alive but its server loop has
                        # stopped answering probes entirely.
                        with self._mutate:
                            if not handle.stopping:
                                self._escalate(
                                    handle,
                                    f"{handle.failed_probes} consecutive healthz "
                                    f"probes missed their {self.probe_timeout_s:.1f}s deadline",
                                )

    def _escalate(self, handle: _ReplicaHandle, reason: str) -> None:
        """Kill a hung replica — SIGTERM, grace, SIGKILL — then respawn.

        Caller holds ``_mutate``.  The kill is what un-wedges waiting
        clients: the replica's hung proxied connections reset, and the
        router's connection-error path reroutes them to healthy peers.
        """
        self.watchdog["hung_detected"] += 1
        handle.log.append(f"watchdog: restarting replica {handle.replica_id}: {reason}")
        process = handle.process
        if process is not None and process.poll() is None:
            try:
                process.send_signal(signal.SIGTERM)
                self.watchdog["sigterm"] += 1
            except (ProcessLookupError, OSError):
                pass
            try:
                process.wait(timeout=self.term_grace_s)
            except subprocess.TimeoutExpired:
                process.kill()
                self.watchdog["sigkill"] += 1
                process.wait()
        self.watchdog["respawns"] += 1
        handle.failed_probes = 0
        self._respawn(handle)

    def _respawn(self, handle: _ReplicaHandle) -> None:
        """Replace a dead replica's process (caller holds ``_mutate``)."""
        try:
            self._spawn(handle)
        except ReplicaStartupError as error:
            # Leave the slot unhealthy; the next monitor tick retries.
            handle.log.append(f"respawn failed: {error}")
            return
        handle.restarts += 1
        self.router.set_replica(
            handle.replica_id, handle.port, handle.pid, restarts=handle.restarts
        )

    # ------------------------------------------------------------------
    # rolling restart
    # ------------------------------------------------------------------
    def rolling_restart(self, drain_timeout_s: float = 60.0) -> dict[int, int]:
        """Restart every replica one at a time without dropping requests.

        Per replica: the router stops routing new requests to it, its
        in-flight requests complete, it is SIGTERMed (graceful: drains
        its own queue), a replacement is
        spawned in the same slot, and routing resumes once the new
        process reports its port.  Returns {replica_id: new pid}.
        """
        new_pids: dict[int, int] = {}
        for handle in self._handles:
            with self._mutate:
                self.router.set_draining(handle.replica_id, True)
                deadline = time.monotonic() + drain_timeout_s
                while (
                    self.router.replica_in_flight(handle.replica_id) > 0
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.02)
                self._terminate(handle)
                self._spawn(handle)
                handle.restarts += 1
                self.router.set_replica(
                    handle.replica_id, handle.port, handle.pid, restarts=handle.restarts
                )
                # set_replica builds a fresh (healthy, non-draining) entry,
                # so the slot is immediately routable again.
                new_pids[handle.replica_id] = handle.pid
        return new_pids
