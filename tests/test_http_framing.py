"""The HTTP/1.1 framing both servers share (:mod:`repro.wire`), end to end.

A byte-level fuzz drives a real :class:`~repro.api.server.ApiServer`
and a :class:`~repro.serving.router.Router` in front of it with
truncated or mutated request lines and headers, duplicate or
conflicting ``Content-Length`` values, and clients that hang up
mid-body.  Whatever arrives, each connection must end within the idle
bound: with JSON v1 answers, none of them a 500, or with a clean close.
"""

import io
import json
import socket
import threading
import time
from contextlib import redirect_stderr

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import wire
from repro.api import ApiServer
from repro.models import HydraModel, ModelConfig
from repro.serving import ModelRegistry
from repro.serving.router import Router
from tests.helpers import parse_responses, raw_exchange

IDLE_S = 0.2
MARGIN_S = 2.0

WATER = {
    "atomic_numbers": [8, 1, 1],
    "positions": [[0.0, 0.0, 0.117], [0.0, 0.755, -0.471], [0.0, -0.755, -0.471]],
}
BODY = json.dumps({"schema_version": "v1", "structures": [WATER]}).encode()


class TestHangups:
    def test_client_hangups_are_quiet_and_other_errors_still_print(self, capsys):
        class Handler(wire.JsonHandler):
            def do_GET(self):
                if self.path == "/boom":
                    raise ValueError("boom")
                time.sleep(0.2)  # the client hangs up meanwhile
                self.send_json(200, b"x" * (1 << 22))

        server = wire.JsonServer(("127.0.0.1", 0), Handler, app=None)
        server.daemon_threads = False  # so server_close() joins the handlers
        threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
        try:
            for path in ("/hangup", "/boom"):
                with socket.create_connection(server.server_address, timeout=5) as sock:
                    sock.sendall(f"GET {path} HTTP/1.1\r\n\r\n".encode())
                    if path == "/boom":
                        assert sock.recv(1) == b""
        finally:
            server.shutdown()
            server.server_close()
        err = capsys.readouterr().err
        assert "ValueError: boom" in err
        assert "BrokenPipeError" not in err and "ConnectionResetError" not in err


@pytest.fixture(scope="module")
def front_ends():
    """A replica and a router in front of it, both with a short idle bound."""
    idle = wire.IDLE_TIMEOUT_S
    wire.IDLE_TIMEOUT_S = IDLE_S
    registry = ModelRegistry()
    registry.register_model("tiny", HydraModel(ModelConfig(hidden_dim=8, num_layers=2), seed=0))
    replica = ApiServer(registry, port=0, workers=1).start()
    router = Router().start()
    router.set_replica(0, replica.port, pid=1)
    yield {"replica": replica.url, "router": router.url}
    router.close()
    replica.close()
    wire.IDLE_TIMEOUT_S = idle


@st.composite
def exchanges(draw):
    """One connection's worth of bytes, and how the client ends it."""
    line = " ".join(
        part
        for part in (
            draw(st.sampled_from(["POST", "GET", "PUT", "post", ""])),
            draw(st.sampled_from(["/v1/predict", "/v1/healthz", "/v1/stats", "/nope", ""])),
            draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2.0", "HTTP/1.x", ""])),
        )
        if part
    )
    lengths = draw(
        st.lists(
            st.sampled_from([str(len(BODY)), str(len(BODY) + 7), "0", "3", "+5", "-1", "abc"]),
            max_size=3,
        )
    )
    headers = draw(
        st.lists(
            st.sampled_from(
                [
                    "Connection: close",
                    "Connection: keep-alive",
                    "X-Repro-Deadline-Ms: 5000",
                    "X-Repro-Deadline-Ms: nan",
                    "X-Repro-Priority: bulk",
                    "X-Repro-Client: tenant-a",
                    "Transfer-Encoding: chunked",
                    "no colon here",
                    " folded continuation",
                ]
            ),
            max_size=3,
        )
    )
    body = draw(st.sampled_from([BODY, b"", b"{not json", b"\xff\xfe"]))
    head = line + "\r\n" + "".join(f"Content-Length: {n}\r\n" for n in lengths)
    data = (head + "".join(f"{h}\r\n" for h in headers) + "\r\n").encode("latin-1") + body
    if draw(st.booleans()):  # overwrite a few bytes anywhere
        at = draw(st.integers(0, len(data) - 1))
        data = data[:at] + draw(st.binary(max_size=3)) + data[at + 1 :]
    cut = draw(st.integers(0, len(data)))
    return data[:cut] if draw(st.booleans()) else data, draw(st.booleans())


def test_no_byte_sequence_hangs_or_500s(front_ends):
    @settings(
        max_examples=30,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(exchange=exchanges())
    def check(exchange):
        data, half_close = exchange
        for url in front_ends.values():
            start = time.monotonic()
            received = raw_exchange(url, data, half_close, timeout=IDLE_S + MARGIN_S)
            assert time.monotonic() - start < IDLE_S + MARGIN_S
            for status, payload in parse_responses(received):
                assert status != 500, payload
                assert payload["schema_version"] == "v1"

    with redirect_stderr(io.StringIO()) as stderr:
        check()
    assert "Traceback" not in stderr.getvalue()
