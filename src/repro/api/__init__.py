"""The public prediction API: versioned wire schemas, HTTP server, client.

This package is the single surface through which structures get
predicted, whatever the deployment shape:

- :mod:`repro.api.schemas` — the ``v1`` wire contract: strict, typed,
  bit-exact-float JSON payloads and the :class:`ApiError` taxonomy —
  plus the additive ``v2`` request schema (precomputed edges for
  trusted trajectory clients), the ``/v1/relax`` request/response pair,
  and the ``/v1/md`` request + streamed frame/summary line schemas.
  Each field is declared once; :mod:`repro.api.codec` (the table
  walker), :mod:`repro.api.kinds` (leaf value rules) and
  :mod:`repro.api.errors` (the taxonomy) are what it is built from.
- :mod:`repro.api.server` — :class:`ApiGateway` (transport-free request
  execution over a model registry) and :class:`ApiServer` (a stdlib
  threaded HTTP front end with JSON errors and graceful shutdown).
- :mod:`repro.api.client` — one :class:`Client` over interchangeable
  :class:`LocalTransport`/:class:`HttpTransport`, returning the same
  :class:`~repro.serving.service.PredictionResult` either way.

The CLI (``repro serve --http``, ``repro predict --input/--json``) is a
thin shell over these pieces.
"""

from repro.api.client import Client, ClientTrajectory, HttpTransport, LocalTransport, MDRun
from repro.api.schemas import (
    CLIENT_HEADER,
    DEADLINE_HEADER,
    DEFAULT_CUTOFF,
    DEFAULT_PRIORITY,
    MAX_STRUCTURES_PER_REQUEST,
    PRIORITY_HEADER,
    PRIORITY_LANES,
    SCHEMA_VERSION,
    SUPPORTED_VERSIONS,
    ApiError,
    DeadlineExceededError,
    ErrorPayload,
    MDDivergedError,
    MDFramePayload,
    MDRequest,
    MDResponse,
    MDResultPayload,
    NotFound,
    OverloadedError,
    PredictionPayload,
    PredictRequest,
    PredictResponse,
    RelaxationPayload,
    RelaxRequest,
    RelaxResponse,
    RequestTimeout,
    SchemaError,
    ServerInfo,
    StatsSnapshot,
    StructurePayload,
    TransportError,
    UnavailableError,
    UnknownModelError,
    structures_from_json,
)
from repro.api.server import ApiGateway, ApiServer

__all__ = [
    "ApiError",
    "ApiGateway",
    "ApiServer",
    "CLIENT_HEADER",
    "Client",
    "ClientTrajectory",
    "DEADLINE_HEADER",
    "DEFAULT_CUTOFF",
    "DEFAULT_PRIORITY",
    "DeadlineExceededError",
    "ErrorPayload",
    "HttpTransport",
    "LocalTransport",
    "MAX_STRUCTURES_PER_REQUEST",
    "MDDivergedError",
    "MDFramePayload",
    "MDRequest",
    "MDResponse",
    "MDResultPayload",
    "MDRun",
    "NotFound",
    "OverloadedError",
    "PRIORITY_HEADER",
    "PRIORITY_LANES",
    "PredictRequest",
    "PredictResponse",
    "PredictionPayload",
    "RelaxRequest",
    "RelaxResponse",
    "RelaxationPayload",
    "RequestTimeout",
    "SCHEMA_VERSION",
    "SUPPORTED_VERSIONS",
    "SchemaError",
    "ServerInfo",
    "StatsSnapshot",
    "StructurePayload",
    "TransportError",
    "UnavailableError",
    "UnknownModelError",
    "structures_from_json",
]
