"""Typed errors: the wire contract's failure half.

Every failure the API reports is one of these classes, mapped onto an
HTTP status by the server and rebuilt from the error envelope's ``code``
by the client (:data:`ERROR_TYPES`), so HTTP and in-process callers catch
the same exceptions.
"""

from __future__ import annotations


class ApiError(Exception):
    """Base class for every error the API maps onto an HTTP status."""

    code = "internal_error"
    http_status = 500
    #: Honest backoff hint (seconds) on retryable rejections; instances
    #: carrying one shadow this class default.
    retry_after_s: float | None = None


class SchemaError(ApiError):
    """The payload is malformed: wrong keys, types, shapes, or values."""

    code = "invalid_request"
    http_status = 400


class UnknownModelError(ApiError):
    """The request named a model the registry does not serve."""

    code = "unknown_model"
    http_status = 404


class NotFound(ApiError):
    """No such endpoint (route-level 404, distinct from unknown model)."""

    code = "not_found"
    http_status = 404


class OverloadedError(ApiError):
    """Admission control rejected the request; retry with backoff."""

    code = "overloaded"
    http_status = 429


class RequestTimeout(ApiError):
    """The request was admitted but not served within the timeout."""

    code = "timeout"
    http_status = 504


class DeadlineExceededError(ApiError):
    """The request's propagated deadline expired before it was served.

    Distinct from :class:`RequestTimeout` (the server's own wait bound):
    this is the *client's* budget, carried as ``deadline_ms`` in the
    body and ``X-Repro-Deadline-Ms`` on the wire, expiring somewhere on
    the path.  The server drops expired work instead of executing it, so
    receiving this guarantees no forward was burned on your behalf.
    """

    code = "deadline_exceeded"
    http_status = 504


class UnavailableError(ApiError):
    """No backend can take the request right now (draining or down).

    Raised by the replica router when it is draining for shutdown or has
    no healthy replica; unlike :class:`OverloadedError` (the service is
    up but full — back off) this means "try another endpoint or wait for
    the fleet to recover".
    """

    code = "unavailable"
    http_status = 503


class TransportError(ApiError):
    """The HTTP transport could not reach or understand the server."""

    code = "transport_error"
    http_status = 502


class MDDivergedError(ApiError):
    """The MD integration blew up (non-finite positions or velocities).

    A verdict, not a transient: the requested ``timestep_fs`` is too
    large for the served force field, so retrying or resuming the same
    run is pointless.  Streaming responses deliver this as a terminal
    ``error`` line (the 200 status is already on the wire when the blowup
    happens mid-run).
    """

    code = "md_diverged"
    http_status = 500


#: code → class, for rebuilding the typed error client-side.
ERROR_TYPES = {
    cls.code: cls
    for cls in (
        ApiError,
        SchemaError,
        UnknownModelError,
        NotFound,
        OverloadedError,
        RequestTimeout,
        DeadlineExceededError,
        TransportError,
        UnavailableError,
        MDDivergedError,
    )
}

