"""`repro serve --http` as a real subprocess: startup, traffic, SIGTERM.

The in-process suites cover routing and schemas; what only a subprocess
can cover is the deployment contract: the CLI prints its bound URL on
stdout, serves real sockets, and treats SIGTERM exactly like Ctrl-C —
graceful ``service.stop()`` (drain, then exit 0) — which is what lets
an orchestrator roll replicas without dropping admitted requests.
"""

import json
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from benchmarks.smoke_http_api import start_server
from repro.api import PredictResponse

pytestmark = pytest.mark.skipif(
    sys.platform == "win32", reason="POSIX signal semantics required"
)


def wait_healthy(base_url: str, timeout_s: float = 30.0) -> dict:
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            with urllib.request.urlopen(base_url + "/v1/healthz", timeout=1) as response:
                return json.loads(response.read())
        except Exception:  # noqa: BLE001 - retry until the deadline
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)


WATER = {
    "schema_version": "v1",
    "structures": [
        {
            "atomic_numbers": [8, 1, 1],
            "positions": [[0.0, 0.0, 0.117], [0.0, 0.755, -0.471], [0.0, -0.755, -0.471]],
        }
    ],
}


def test_sigterm_is_a_graceful_shutdown():
    process, base_url = start_server()
    try:
        health = wait_healthy(base_url)
        assert health["status"] == "ok"
        assert health["models"] == ["default"]

        request = urllib.request.Request(
            base_url + "/v1/predict",
            data=json.dumps(WATER).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 200
            predicted = PredictResponse.from_json_dict(json.loads(response.read()))
        assert predicted.results[0].n_atoms == 3

        process.send_signal(signal.SIGTERM)
        out, _ = process.communicate(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()

    assert process.returncode == 0, out
    assert "received SIGTERM" in out
    assert "shutting down" in out
    assert "server stopped cleanly" in out


def test_http_429_under_tiny_queue_bound():
    """CLI-level admission control: --max-pending 1 turns a burst into 429."""
    process, base_url = start_server(
        "--max-pending", "1", "--flush-interval", "0.5", "--workers", "1"
    )
    try:
        wait_healthy(base_url)
        burst = {
            "schema_version": "v1",
            "structures": [
                {
                    "atomic_numbers": [6, 6],
                    "positions": [[0.0, 0.0, 0.0], [0.0, 0.0, 1.3 + i * 0.01]],
                }
                for i in range(6)
            ],
        }
        request = urllib.request.Request(
            base_url + "/v1/predict",
            data=json.dumps(burst).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 429
        body = json.loads(excinfo.value.read())
        assert body["error"]["code"] == "overloaded"
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()


def test_sigint_takes_the_same_path():
    """Ctrl-C and SIGTERM must be indistinguishable to the service."""
    process, base_url = start_server()
    try:
        wait_healthy(base_url)
        process.send_signal(signal.SIGINT)
        out, _ = process.communicate(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0, out
    assert "received SIGINT" in out
    assert "server stopped cleanly" in out
