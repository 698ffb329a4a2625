"""CI smoke for the HTTP serving API — the real CLI server, real sockets.

Boots `python -m repro serve --http 0` as a subprocess (ephemeral port,
tiny preset), then asserts the deployment contract end to end:

1. `/v1/healthz` comes up and reports the served model,
2. a POSTed structure returns 200 with a schema-valid `PredictResponse`
   (finite energy, `(n_atoms, 3)` finite forces),
3. a burst beyond `--max-pending 1` returns 429 with a typed
   `overloaded` error body,
4. a POSTed `/v1/relax` on a perturbed structure (second server, without
   the admission-control preset above) returns 200 with a schema-valid,
   *converged* `RelaxResponse`,
5. a POSTed `/v1/md` (same second server) streams NDJSON: schema-valid
   `frame` lines in step order, ending with exactly one terminal
   `summary` line that parses as a schema-valid `MDResponse`,
6. SIGTERM exits 0 through the graceful path,
7. the same deployment behind the replica router (`--replicas 1`): a
   predict returns 200, a malformed request line gets a typed 400, a
   `/v1/md` stream through the router ends in one `summary` line,
   `/v1/stats` merges one replica, the supervisor process (router
   included) has mapped neither numpy, scipy nor OpenBLAS after serving
   all that, and SIGTERM exits 0.  Its
   `Popen` → `bound_port=` seconds and resident set are printed.

Run:  PYTHONPATH=src python benchmarks/smoke_http_api.py
Exits nonzero (with the server log on stdout) on any violation.
"""

from __future__ import annotations

import json
import math
import os
import re
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np

from repro.api import MDFramePayload, MDResponse, PredictResponse, RelaxResponse

WATER = {
    "atomic_numbers": [8, 1, 1],
    "positions": [[0.0, 0.0, 0.117], [0.0, 0.755, -0.471], [0.0, -0.755, -0.471]],
}


def start_server(*extra_args: str) -> tuple[subprocess.Popen, str]:
    """Launch `repro serve --http 0 --preset tiny` + ``extra_args``.

    Returns ``(process, base_url)`` once the CLI reports its ephemeral
    port.  Shared with ``tests/api/test_cli_http.py`` — the CLI's
    machine-readable ``bound_port=<port>`` line is load-bearing here
    (the human banner is parsed only as a fallback), and this helper is
    its single parser.  Binding port 0 and reading the kernel-assigned
    port back means parallel CI jobs can never collide on a port.
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--http",
            "0",
            "--preset",
            "tiny",
            *extra_args,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 60
    while True:
        line = process.stdout.readline()
        match = re.search(r"bound_port=(\d+)", line)
        if match:
            return process, f"http://127.0.0.1:{match.group(1)}"
        match = re.search(r"on (http://[\d.]+:\d+)", line)  # pre-bound_port banner
        if match:
            return process, match.group(1)
        if not line or process.poll() is not None or time.monotonic() > deadline:
            stop(process)
            raise AssertionError(f"server never reported its URL (last line: {line!r})")


def stop(process: subprocess.Popen, timeout_s: float = 30.0) -> str:
    """SIGTERM ``process``, wait up to ``timeout_s``, then SIGKILL; returns its output.

    On SIGTERM a ``--replicas`` supervisor drains and stops its replicas.
    They run in sessions of their own, so a SIGKILL would orphan them.
    """
    process.terminate()
    try:
        return process.communicate(timeout=timeout_s)[0]
    except subprocess.TimeoutExpired:
        process.kill()
        return process.communicate()[0]


def post_predict(base_url: str, structures: list[dict]):
    request = urllib.request.Request(
        base_url + "/v1/predict",
        data=json.dumps({"schema_version": "v1", "structures": structures}).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read())


def wait_healthy(base_url: str) -> dict:
    """Poll ``/v1/healthz`` until it answers 200; returns its body."""
    deadline = time.monotonic() + 60
    while True:
        try:
            with urllib.request.urlopen(base_url + "/v1/healthz", timeout=1) as resp:
                return json.loads(resp.read())
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.1)


def check_md(base_url: str, content_type: str | None = None) -> None:
    """POST /v1/md: schema-valid frame lines in step order, one terminal summary."""
    request = urllib.request.Request(
        base_url + "/v1/md",
        data=json.dumps(
            {
                "schema_version": "v1",
                "structure": WATER,
                "n_steps": 20,
                "timestep_fs": 0.5,
                "thermostat": "langevin",
                "temperature_k": 300.0,
                "seed": 7,
                "frame_interval": 5,
            }
        ).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as resp:
        assert resp.status == 200, resp.status
        if content_type is not None:
            assert resp.headers["Content-Type"] == content_type, resp.headers["Content-Type"]
        lines = [json.loads(line) for line in resp.read().splitlines()]
    assert len(lines) >= 2, lines
    assert all("frame" in line for line in lines[:-1]), lines
    frames = [MDFramePayload.from_json_dict(line) for line in lines[:-1]]
    assert [frame.step for frame in frames] == [0, 5, 10, 15, 20], frames
    for frame in frames:  # strict schema check per streamed line
        assert frame.positions.shape == (3, 3)
        assert np.isfinite(frame.positions).all()
        assert np.isfinite(frame.velocities).all()
        assert math.isfinite(frame.energy)
    assert "summary" in lines[-1], lines[-1]
    md_summary = MDResponse.from_json_dict(lines[-1])  # strict schema check
    assert md_summary.result.steps == 20, lines[-1]
    assert md_summary.result.final_step == 20, lines[-1]
    assert md_summary.result.thermostat == "langevin", lines[-1]
    print(
        f"md ok at {base_url}: streamed {len(frames)} frames over 20 langevin steps "
        f"(T_final={md_summary.result.temperature_k:.0f}K, "
        f"{md_summary.result.neighbor_reuses} neighbor-list reuses)"
    )


#: Shared objects the fleet's front door must never map (``/proc/<pid>/maps``).
_NUMERIC_STACK = re.compile(r"numpy|scipy|openblas", re.IGNORECASE)


def check_front_door_is_light(pid: int) -> None:
    """The supervisor+router process maps no numeric library (Linux only)."""
    maps = Path(f"/proc/{pid}/maps")
    if not maps.exists():
        print("front-door check skipped: no /proc on this platform")
        return
    mapped = sorted(
        {line.split()[-1] for line in maps.read_text().splitlines() if _NUMERIC_STACK.search(line)}
    )
    assert not mapped, f"the router process mapped {len(mapped)} numeric libraries: {mapped[:3]}"
    status = Path(f"/proc/{pid}/status").read_text()
    rss_kb = int(re.search(r"VmRSS:\s+(\d+)", status).group(1))
    print(f"router front door ok: no numpy/scipy/OpenBLAS mapped, RSS {rss_kb / 1024:.0f} MB")


def check_router(process: subprocess.Popen, base_url: str) -> None:
    """Predict, a typed 400, an md stream and a clean SIGTERM through the router."""
    health = wait_healthy(base_url)
    assert health["status"] == "ok" and health["role"] == "router", health
    status, payload = post_predict(base_url, [WATER])
    assert status == 200, status
    PredictResponse.from_json_dict(payload)  # strict schema check
    print(f"router predict ok at {base_url}")

    # A malformed request line: a typed 400 and a close, not a silent drop.
    host, port = base_url.removeprefix("http://").split(":")
    received = b""
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(b"GARBAGE\r\n\r\n")
        while chunk := sock.recv(65536):
            received += chunk
    head, _, body = received.partition(b"\r\n\r\n")
    assert head.split()[1] == b"400", received
    assert json.loads(body)["error"]["code"] == "invalid_request", received
    print("router framing ok: malformed request line got a typed 400")

    # The router buffers the stream and re-frames it with Content-Length.
    check_md(base_url)
    with urllib.request.urlopen(base_url + "/v1/stats", timeout=60) as resp:
        stats = json.loads(resp.read())
    assert stats["models"]["default"]["replica_count"] == 1, stats
    # Having served, merged stats and probed, the supervisor (the router's
    # process) still runs on the standard library alone.
    check_front_door_is_light(process.pid)

    process.send_signal(signal.SIGTERM)
    out, _ = process.communicate(timeout=60)
    assert process.returncode == 0, (process.returncode, out)
    assert "supervisor stopped cleanly" in out, out
    print("router graceful SIGTERM shutdown ok (exit 0)")


def main() -> int:
    process, base_url = start_server("--workers", "1", "--max-pending", "1")
    try:
        # 1. Liveness.
        health = wait_healthy(base_url)
        assert health["status"] == "ok", health
        assert health["models"] == ["default"], health
        print(f"healthz ok at {base_url}")

        # 2. One structure -> 200 with schema-valid energy/forces.
        status, payload = post_predict(base_url, [WATER])
        assert status == 200, status
        response = PredictResponse.from_json_dict(payload)  # strict schema check
        (result,) = response.results
        assert result.n_atoms == 3
        assert math.isfinite(result.energy)
        assert result.forces.shape == (3, 3)
        assert np.isfinite(result.forces).all()
        print(f"predict ok: energy={result.energy:+.6f}, model={response.model!r}")

        # 3. Burst beyond --max-pending 1 -> 429 with a typed error body.
        # One call is enqueued as one group, so its second structure finds
        # the first still queued whatever the slot is doing.
        burst = [
            {
                "atomic_numbers": [6, 6],
                "positions": [[0.0, 0.0, 0.0], [0.0, 0.0, 1.3 + 0.01 * index]],
            }
            for index in range(6)
        ]
        try:
            status, payload = post_predict(base_url, burst)
            raise AssertionError(f"expected 429, got {status}: {payload}")
        except urllib.error.HTTPError as error:
            assert error.code == 429, error.code
            body = json.loads(error.read())
            assert body["error"]["code"] == "overloaded", body
            print("admission control ok: burst rejected with 429/overloaded")

        # 4. /v1/relax on a perturbed structure -> 200, schema-valid,
        # converged.  A second server, so the relax and MD checks run
        # without the --max-pending 1 preset above.
        relax_process, relax_url = start_server("--workers", "1")
        try:
            perturbed = {
                "atomic_numbers": WATER["atomic_numbers"],
                "positions": [
                    [x + 0.05, y - 0.03, z + 0.04]
                    for x, y, z in WATER["positions"]
                ],
            }
            request = urllib.request.Request(
                relax_url + "/v1/relax",
                data=json.dumps(
                    {"schema_version": "v1", "structure": perturbed, "max_steps": 200}
                ).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=120) as resp:
                assert resp.status == 200, resp.status
                relax_body = json.loads(resp.read())
            relaxed = RelaxResponse.from_json_dict(relax_body)  # strict schema check
            assert relaxed.result.converged, relax_body
            assert relaxed.result.reason in ("fmax", "step"), relax_body
            assert relaxed.result.energy <= relaxed.result.energy_initial
            assert relaxed.result.positions.shape == (3, 3)
            assert np.isfinite(relaxed.result.positions).all()
            print(
                f"relax ok: converged in {relaxed.result.steps} steps "
                f"(reason={relaxed.result.reason}, "
                f"dE={relaxed.result.energy - relaxed.result.energy_initial:+.6f}, "
                f"{relaxed.result.neighbor_reuses} neighbor-list reuses)"
            )

            # 5. /v1/md -> a streamed NDJSON trajectory: schema-valid
            # frame lines in step order, one terminal summary line.
            check_md(relax_url, content_type="application/x-ndjson")
        finally:
            stop(relax_process)

        # 6. SIGTERM -> graceful exit 0.
        process.send_signal(signal.SIGTERM)
        out, _ = process.communicate(timeout=60)
        assert process.returncode == 0, (process.returncode, out)
        assert "server stopped cleanly" in out, out
        print("graceful SIGTERM shutdown ok (exit 0)")

        # 7. The same deployment behind the replica router.
        spawned = time.perf_counter()
        router_process, router_url = start_server("--workers", "1", "--replicas", "1")
        print(f"router boot: {time.perf_counter() - spawned:.2f} s Popen -> bound_port=")
        try:
            check_router(router_process, router_url)
        finally:
            if router_process.poll() is None:
                print(stop(router_process))
    finally:
        if process.poll() is None:
            print(stop(process))
    print("HTTP API smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
