"""Spawn and reap the real ``python -m repro serve --http 0`` subprocess.

The benchmark measures the deployed artefact, so the server is always
the CLI in its own process on an ephemeral port, found through the CLI's
machine-readable ``bound_port=`` line.  Every server is reaped on every
exit path — ``terminate``, five seconds, then ``kill`` over the whole
process tree — so a crashed run cannot leave a replica behind to skew
the next one.
"""

from __future__ import annotations

import atexit
import os
import re
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path

from . import host

SRC_DIR = Path(__file__).resolve().parents[2] / "src"
BOOT_TIMEOUT_S = 60.0
_BOUND_PORT = re.compile(r"bound_port=(\d+)")

#: One thread per numerical library, and the numpy kernel backend: the
#: autotuner's run-time numpy-vs-parallel timing otherwise picks different
#: kernels from one run to the next.
SERVER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SERVER_FLAGS = ("--backend", "numpy")

_live: set["Server"] = set()


class ServerError(RuntimeError):
    """The server subprocess did not come up, or died while in use."""


class Server:
    """One ``repro serve`` process; ``with Server(...).start() as server`` reaps it."""

    def __init__(self, preset: str, extra_args: tuple[str, ...] = ()) -> None:
        self.command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--http",
            "0",
            "--preset",
            preset,
            *SERVER_FLAGS,
            *extra_args,
        ]
        self.process: subprocess.Popen | None = None
        self.url = ""
        self.spawned_at = 0.0  # perf_counter at Popen: cold starts are timed from here
        self.boot_s = 0.0  # Popen -> bound_port= line
        self.log: deque[str] = deque(maxlen=50)

    def start(self) -> "Server":
        env = dict(os.environ, **SERVER_ENV)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + existing if existing else "")
        self.spawned_at = time.perf_counter()
        self.process = subprocess.Popen(
            self.command,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        _live.add(self)
        port = threading.Event()
        threading.Thread(target=self._drain, args=(port,), daemon=True).start()
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while not port.wait(0.1):
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise ServerError(
                    "server never reported bound_port=; last output:\n" + "\n".join(self.log)
                )
        return self

    def _drain(self, port: threading.Event) -> None:
        """Read the server's output to the end so it never blocks on a full pipe."""
        for line in self.process.stdout:
            self.log.append(line.rstrip("\n"))
            match = _BOUND_PORT.search(line)
            if match and not port.is_set():
                self.boot_s = time.perf_counter() - self.spawned_at
                self.url = f"http://127.0.0.1:{match.group(1)}"
                port.set()

    def pids(self) -> list[int]:
        """The server's process tree (router/supervisor plus its replicas)."""
        return host.process_tree(self.process.pid)

    def stop(self) -> None:
        """Graceful SIGTERM, five seconds, then SIGKILL for whatever is left."""
        process, self.process = self.process, None
        _live.discard(self)
        if process is None:
            return
        # Listed before the signal: a killed supervisor's replicas are
        # re-parented and could no longer be found through it.
        tree = [(pid, host.start_time(pid)) for pid in host.process_tree(process.pid)]
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                pass
        for pid, started in tree:
            # Same pid *and* same start time: never signal a recycled pid.
            if started is not None and host.start_time(pid) == started:
                try:
                    os.kill(pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass
        if process.poll() is None:
            process.kill()
        process.wait()
        process.stdout.close()
        # Killed replicas are not this process's children; watch them go.
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline and any(
            started is not None and host.start_time(pid) == started for pid, started in tree
        ):
            time.sleep(0.01)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _reap_stragglers() -> None:
    for server in list(_live):
        server.stop()


def _terminate(signum, _frame) -> None:
    raise SystemExit(128 + signum)  # unwinds through every `with Server(...)`


def install_reapers() -> None:
    """Reap servers at interpreter exit and on SIGTERM (entry points call this)."""
    atexit.register(_reap_stragglers)
    signal.signal(signal.SIGTERM, _terminate)
