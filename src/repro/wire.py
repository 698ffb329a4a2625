"""The process-independent half of the v1 wire contract.

What every hop must agree on before it can parse a body: the schema
version, the three ``X-Repro-*`` hop headers, the body-size limit, the
shape of an error envelope and of its ``Retry-After`` header, and the
HTTP/1.1 framing both servers run on.  The typed schemas
(:mod:`repro.api.schemas`) build on these; the replica router
(:mod:`repro.serving.router`), which forwards bodies verbatim and must
not import :mod:`repro.api`, needs nothing else.  This module therefore
imports nothing from ``repro`` — ``tests/test_layering.py`` holds it to
that — and only the standard library, so the router process never
loads the numeric stack.
"""

from __future__ import annotations

import json
import math
import sys
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

#: Version every top-level response body carries (requests may also say
#: ``v2``; see :data:`repro.api.schemas.SUPPORTED_VERSIONS`).
SCHEMA_VERSION = "v1"

#: HTTP header carrying the request's *remaining* deadline budget in
#: milliseconds (gRPC-timeout style: relative, re-stamped per hop).  The
#: header wins over the body's ``deadline_ms`` so proxies can decrement
#: the budget without re-serializing the body.
DEADLINE_HEADER = "X-Repro-Deadline-Ms"

#: HTTP header carrying the request's ``client_id`` for quota accounting
#: (additive; the header wins over the body field so front doors can
#: attribute traffic without parsing bodies).
CLIENT_HEADER = "X-Repro-Client"

#: HTTP header carrying the request's priority lane.  Like
#: :data:`CLIENT_HEADER` it mirrors a body field so the router can make
#: lane-level shedding decisions without parsing request bodies.
PRIORITY_HEADER = "X-Repro-Priority"

#: Request bodies above this are rejected before JSON parsing — by the
#: replica server and by the router in front of it, which must not
#: buffer more than the replica would accept.  At ~100 bytes per atom on
#: the wire this is far beyond any sane micro-batch.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Seconds a server waits on a silent client (mid-request or between
#: keep-alive requests) before it drops the connection; per read, so a
#: slow but live upload still lands.
IDLE_TIMEOUT_S = 30.0


def error_envelope(
    code: str, message: str, status: int, retry_after_s: float | None = None
) -> dict:
    """The JSON body every non-2xx response carries.

    ``retry_after_s`` is the honest backoff hint on retryable rejections
    (429/503), in the body as well as the ``Retry-After`` header so it
    survives transports that drop response headers; hint-free errors
    emit exactly the three original keys.
    """
    error: dict = {"code": code, "message": message, "status": status}
    if retry_after_s is not None:
        error["retry_after_s"] = float(retry_after_s)
    return {"schema_version": SCHEMA_VERSION, "error": error}


def retry_after_header(retry_after_s: float | None) -> str:
    """Format a ``Retry-After`` value: integral seconds, ceiling, >= 1.

    HTTP's ``Retry-After`` is delta-seconds (an integer).  Ceiling keeps
    the hint honest — never telling a client to come back *before* the
    quota refills — and the floor of 1 keeps the header meaningful when
    the true wait is milliseconds.
    """
    if retry_after_s is None or retry_after_s <= 0:
        return "1"
    return str(max(1, math.ceil(float(retry_after_s))))


def content_length(values: list[str] | None) -> int:
    """Parse a request's ``Content-Length`` headers; ``ValueError`` names the fault.

    ``values`` holds every occurrence of the header (none: a zero-length
    body).  Shared by both HTTP front ends so an oversized, malformed or
    conflicting header is refused with the same words whether a replica
    or the router reads it.  A length is ASCII digits only (``int``
    would also take ``+5`` or ``1_0``), and repeated headers must agree:
    otherwise two hops could frame one request differently.
    """
    distinct = sorted({value.strip(" \t") for value in values or ()})
    if len(distinct) > 1:
        raise ValueError(f"malformed Content-Length header: conflicting values {distinct}")
    raw = distinct[0] if distinct else "0"
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(f"malformed Content-Length header: {raw!r} is not a decimal length")
    length = int(raw)
    if length > MAX_BODY_BYTES:
        raise ValueError(f"request body too large ({length} > {MAX_BODY_BYTES} bytes)")
    return length


class JsonServer(ThreadingHTTPServer):
    """The listener both front ends run on: one thread per connection.

    ``app`` is what the handlers serve (a replica's gateway, the router).
    """

    daemon_threads = True
    # stdlib's listen backlog is 5: connects past it are dropped and retried
    # a second later, so a burst of a few dozen clients waited seconds.
    request_queue_size = 100

    def __init__(self, address, handler: type["JsonHandler"], app, verbose: bool = False) -> None:
        super().__init__(address, handler)
        self.app = app
        self.verbose = verbose

    def handle_error(self, request, client_address) -> None:
        """A client hanging up mid-exchange is routine; anything else still prints."""
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


class JsonHandler(BaseHTTPRequestHandler):
    """The HTTP/1.1 framing both front ends share; every answer is one JSON body.

    Subclasses supply ``do_GET``/``do_POST``; faults stdlib's parser
    finds itself get a typed v1 envelope here, not stdlib's HTML page.
    """

    server: JsonServer
    protocol_version = "HTTP/1.1"  # keep-alive; every response sets Content-Length
    # A request line that names no version is answered as HTTP/1.1 too,
    # so even a garbled one gets a status line and a typed body.
    default_request_version = "HTTP/1.1"

    def setup(self) -> None:
        self.timeout = IDLE_TIMEOUT_S  # read per connection, so tests can lower it
        super().setup()

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        if self.server.verbose:
            super().log_message(format, *args)

    def send_json(self, status: int, payload: dict | bytes, headers: dict | None = None) -> None:
        """Send one JSON body (a dict, or bytes already serialized)."""
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            # Advertise the drop so clients don't reuse a connection the
            # server is about to close.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def send_error(self, code: int, message: str | None = None, explain: str | None = None) -> None:
        """A fault stdlib's parser found: a typed v1 answer, then a close.

        An unsupported method gets the 404 an unknown path gets.
        """
        self.close_connection = True
        if code == HTTPStatus.NOT_IMPLEMENTED:
            code, kind = HTTPStatus.NOT_FOUND, "not_found"
            message = f"no such endpoint: {self.command} {self.path}"
        else:
            kind = "invalid_request"
        self.send_json(code, error_envelope(kind, message or HTTPStatus(code).phrase, int(code)))

    def read_body(self) -> bytes:
        """The request body as its ``Content-Length`` frames it.

        ``ValueError`` names a framing fault or a body cut short, and
        drops the connection after the answer (bytes may be left
        unread).  A stalled sender raises ``TimeoutError``, which
        handlers let propagate: stdlib then closes the connection.
        """
        try:
            length = content_length(self.headers.get_all("Content-Length"))
            body = self.rfile.read(length)
            if len(body) < length:
                raise ValueError(f"request body truncated ({len(body)} of {length} bytes)")
        except ValueError:
            self.close_connection = True
            raise
        return body
