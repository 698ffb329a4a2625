"""The process-independent half of the v1 wire contract.

What every hop must agree on before it can parse a body: the schema
version, the three ``X-Repro-*`` hop headers, the body-size limit, and
the shape of an error envelope.  The typed schemas (:mod:`repro.api.schemas`)
build on these; the replica router (:mod:`repro.serving.router`), which
forwards bodies verbatim and must not import :mod:`repro.api`, needs
nothing else.  This module therefore imports nothing from ``repro`` —
``tests/test_layering.py`` holds it to that.
"""

from __future__ import annotations

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
