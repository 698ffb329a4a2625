"""Versioned wire schemas for the prediction API.

Everything that crosses a process boundary — a request body, a response
body, an error — is one of the dataclasses here, and every top-level
object carries ``schema_version`` (currently :data:`SCHEMA_VERSION`,
``"v1"``) so servers and clients can detect drift instead of
misinterpreting each other.  Two design rules:

- **Strict validation.** ``from_json_dict`` rejects unknown keys, wrong
  types, wrong shapes, and non-finite coordinates with a typed
  :class:`SchemaError` whose message names the offending field.  A
  malformed request must become a clean 400, never a stack trace deep in
  graph construction.
- **Bit-exact floats.** Coordinates, cells, energies, and forces are
  serialized as plain JSON numbers.  Python's ``json`` writes floats via
  ``repr``, which is the shortest string that round-trips the exact
  float64 value — so payload → JSON → payload is **bit-exact** for
  float64 (and therefore for float32), and a structure predicted over
  HTTP is numerically identical to the same structure predicted
  in-process.  The golden files under ``tests/api/golden/`` pin this
  encoding.

**A field is declared once.**  Each field of each type is one
``name: type = row(kind, ...)`` line: its wire key, its
:class:`~repro.api.kinds.Kind` (JSON type, bounds, encoding) and how it
may be absent.  The codec in :mod:`repro.api.codec` walks those rows
for ``to_json_dict``, ``from_json_dict`` and the ``from_result`` /
``to_result`` bridges to the serving dataclasses.  Rules that relate
two fields (forces has ``n_atoms`` rows, pbc needs a cell) are explicit
checks in the type's ``_check``.

In schema ``v1`` a :class:`StructurePayload` does *not* carry edges:
connectivity is derived (radius cutoff + periodic images), so the wire
format ships only the physical inputs — positions, atomic numbers, cell,
pbc — and both the server and the local transport rebuild edges with the
same :func:`~repro.graph.radius.build_edges` call.  Clients on other
stacks therefore cannot disagree with the server about neighbor lists.
Schema ``v2`` is ``v1`` plus one optional ``edges`` block per structure
for *trusted* clients — a trajectory session keeping a
:class:`~repro.graph.radius.SkinNeighborList` hot client-side ships its
incrementally-maintained edges and the server skips neighbor search
entirely.  ``v2`` is additive: every ``v1`` body is a valid ``v2`` body,
responses stay ``v1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.api.codec import (
    DEFAULT, NULL, OMIT, Many, Row, Wire, from_mirror, row, to_mirror,
)  # fmt: skip
from repro.api.errors import (  # noqa: F401 - the taxonomy is re-exported from here
    ERROR_TYPES, ApiError, DeadlineExceededError, MDDivergedError, NotFound, OverloadedError,
    RequestTimeout, SchemaError, TransportError, UnavailableError, UnknownModelError,
)  # fmt: skip
from repro.api.kinds import (
    BOOL, CELL, COUNT, FINITE, MATRIX, NON_NEGATIVE, NUMBER, POSITIVE, STR, UNCHECKED, Kind,
    enum, expect_keys, expect_rows, float_matrix, integer, matrix_to_json, scalar,
)  # fmt: skip
from repro.graph.atoms import AtomGraph
from repro.graph.radius import build_edges
from repro.serving.batcher import DEFAULT_LANE, LANES
from repro.serving.md import (
    MAX_MD_STEP_OFFSET, MAX_MD_STEPS, MD_THERMOSTATS, MDFrame, MDResult, MDSettings,
)  # fmt: skip
from repro.serving.relax import MAX_RELAX_STEPS, RelaxResult, RelaxSettings
from repro.serving.service import PredictionResult
from repro.tensor.core import DEFAULT_DTYPE
from repro.wire import (  # noqa: F401 - the header names are re-exported from here
    CLIENT_HEADER, DEADLINE_HEADER, PRIORITY_HEADER, SCHEMA_VERSION, error_envelope,
)  # fmt: skip

#: Request versions the server accepts.  ``v2`` = ``v1`` + optional
#: precomputed edges per structure; responses are always ``v1``.
SUPPORTED_VERSIONS = ("v1", "v2")

#: Neighbor-search cutoff (angstrom) used when a wire structure is turned
#: into a graph; matches the data sources' default so served predictions
#: see the connectivity the models were trained on.
DEFAULT_CUTOFF = 5.0

#: Hard bound on structures per request — one request is one micro-batch
#: admission decision, not a bulk-import channel.
MAX_STRUCTURES_PER_REQUEST = 1024

#: Bound on ``deadline_ms`` — anything longer than an hour is a config
#: error, not a latency budget.
MAX_DEADLINE_MS = 3_600_000.0

#: Valid ``priority`` values, highest priority first (the batcher's
#: scheduling lanes; see :mod:`repro.serving.batcher`).
PRIORITY_LANES = LANES

#: Lane used when a request carries no ``priority``.
DEFAULT_PRIORITY = DEFAULT_LANE

#: Bound on ``client_id`` length — it is an accounting key, not a payload.
MAX_CLIENT_ID_CHARS = 128

#: ``reason`` values a relax response may carry.
RELAX_REASONS = ("fmax", "step", "max_steps")


# ----------------------------------------------------------------------
# Checks only these schemas have
# ----------------------------------------------------------------------
def validate_deadline_ms(value, where: str) -> float | None:
    """Validate an optional ``deadline_ms`` value (body field or header)."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number of milliseconds")
    if not (math.isfinite(value) and 0 < value <= MAX_DEADLINE_MS):
        raise SchemaError(f"{where}: must be in (0, {MAX_DEADLINE_MS:.0f}] ms")
    return float(value)


def validate_client_id(value, where: str) -> str | None:
    """Validate an optional ``client_id`` value (body field or header)."""
    if value is None:
        return None
    if not isinstance(value, str) or not value:
        raise SchemaError(f"{where}: expected a non-empty string")
    if len(value) > MAX_CLIENT_ID_CHARS:
        raise SchemaError(f"{where}: at most {MAX_CLIENT_ID_CHARS} characters")
    return value


_PRIORITY = enum(PRIORITY_LANES)


def validate_priority(value, where: str) -> str | None:
    """Validate an optional ``priority`` lane (body field or header)."""
    return None if value is None else _PRIORITY.decode(value, where)


def _atomic_numbers(value: Any, where: str) -> np.ndarray:
    # type() rather than isinstance(): one C-speed pass over the list,
    # and bool (an int subclass) fails it without a second test.
    if not isinstance(value, list) or not value or set(map(type, value)) != {int}:
        raise SchemaError(f"{where}: expected a non-empty list of ints")
    if min(value) < 1 or max(value) > 118:
        raise SchemaError(f"{where}: element numbers must be in [1, 118]")
    return np.asarray(value, dtype=np.int64)


def _pbc(value: Any, where: str) -> tuple[bool, bool, bool]:
    if (
        not isinstance(value, list)
        or len(value) != 3
        or any(not isinstance(flag, bool) for flag in value)
    ):
        raise SchemaError(f"{where}: expected three booleans")
    return (value[0], value[1], value[2])


def _strings(value: Any, where: str) -> tuple[str, ...]:
    if not isinstance(value, list) or any(not isinstance(item, str) for item in value):
        raise SchemaError(f"{where}: expected a list of strings")
    return tuple(value)


_ATOMIC_NUMBERS = Kind(
    _atomic_numbers,
    lambda value: np.asarray(value, dtype=np.int64),
    lambda value: np.asarray(value, dtype=np.int64).tolist(),
)
_PBC = Kind(
    _pbc,
    lambda value: tuple(bool(flag) for flag in value),
    # All-false is the absent default: molecules keep their v1 bytes.
    lambda value: [bool(flag) for flag in value] if any(value) else None,
)
_POSITIVE_INT = integer(1)
_ANY_INT = integer()
_OBJECT = scalar(dict, "an object")


def _edges_from_json(
    obj: Any, n_atoms: int, periodic: bool, where: str
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a v2 ``edges`` block into (edge_index, edge_shift) arrays."""
    expect_keys(obj, {"edge_index", "edge_shift"}, set(), where)
    pairs = obj["edge_index"]
    if (
        not isinstance(pairs, list)
        or len(pairs) != 2
        or any(not isinstance(side, list) for side in pairs)
        or len(pairs[0]) != len(pairs[1])
    ):
        raise SchemaError(f"{where}.edge_index: expected two equal-length index lists")
    for side in pairs:
        for value in side:
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchemaError(f"{where}.edge_index: non-integer index {value!r}")
            if not 0 <= value < n_atoms:
                raise SchemaError(
                    f"{where}.edge_index: index {value} out of range [0, {n_atoms})"
                )
    count = len(pairs[0])
    shift = float_matrix(obj["edge_shift"], (count, 3), f"{where}.edge_shift")
    if not periodic and count and bool(np.any(shift != 0.0)):
        raise SchemaError(f"{where}.edge_shift: nonzero shift on a non-periodic structure")
    # Cartesian image shifts live as DEFAULT_DTYPE in graphs; clients send
    # values that originated as that dtype, so the narrowing cast is exact.
    return (
        np.asarray(pairs, dtype=np.int64).reshape(2, count),
        shift.astype(DEFAULT_DTYPE),
    )


# ----------------------------------------------------------------------
# Structures
# ----------------------------------------------------------------------
@dataclass
class StructurePayload(Wire):
    """One atomistic structure as it crosses the wire.

    The projection of :class:`AtomGraph` onto physical inputs: atomic
    numbers, positions, and (for periodic systems) cell + pbc flags.
    Conversion back to a graph rebuilds connectivity with the server's
    cutoff — unless the payload carries a schema-v2 ``edges`` block
    (trusted clients only), in which case :meth:`to_graph` uses those
    edges verbatim and skips neighbor search.
    """

    atomic_numbers: np.ndarray = row(_ATOMIC_NUMBERS)
    positions: np.ndarray = row(MATRIX)
    cell: np.ndarray | None = row(CELL, OMIT)
    pbc: tuple[bool, bool, bool] = row(_PBC, OMIT, default=(False, False, False))
    edge_index: np.ndarray | None = None
    edge_shift: np.ndarray | None = None

    _where = "structure"
    # One wire block for the edge_index/edge_shift pair: written from the
    # ``edges`` property, validated and split by ``_check``.
    _extra_rows = (Row(UNCHECKED, OMIT, "edges", "edges"),)

    @classmethod
    def from_graph(cls, graph: AtomGraph, include_edges: bool = False) -> "StructurePayload":
        return cls(
            atomic_numbers=np.asarray(graph.atomic_numbers, dtype=np.int64),
            positions=np.asarray(graph.positions, dtype=np.float64),
            cell=None if graph.cell is None else np.asarray(graph.cell, dtype=np.float64),
            pbc=tuple(bool(flag) for flag in graph.pbc),
            edge_index=np.asarray(graph.edge_index) if include_edges else None,
            edge_shift=np.asarray(graph.edge_shift) if include_edges else None,
        )

    @property
    def has_edges(self) -> bool:
        return self.edge_index is not None

    @property
    def edges(self) -> dict | None:
        """The schema-v2 ``edges`` block, when both halves are present."""
        if self.edge_index is None or self.edge_shift is None:
            return None
        return {
            "edge_index": np.asarray(self.edge_index, dtype=np.int64).tolist(),
            "edge_shift": matrix_to_json(self.edge_shift),
        }

    def to_graph(
        self, cutoff: float = DEFAULT_CUTOFF, max_neighbors: int | None = None
    ) -> AtomGraph:
        """Rebuild the model-input graph (neighbor search included)."""
        if self.edge_index is not None and self.edge_shift is not None:
            edge_index = np.asarray(self.edge_index, dtype=np.int64)
            edge_shift = np.asarray(self.edge_shift, dtype=DEFAULT_DTYPE)
        else:
            edge_index, edge_shift = build_edges(
                self.positions, cutoff, self.cell, self.pbc, max_neighbors
            )
        return AtomGraph(
            atomic_numbers=self.atomic_numbers,
            positions=self.positions,
            edge_index=edge_index,
            edge_shift=edge_shift,
            cell=self.cell,
            pbc=self.pbc,
            source="api",
        )

    @classmethod
    def from_json_dict(
        cls, obj: dict, where: str = "structure", allow_edges: bool = False
    ) -> "StructurePayload":
        return cls._decode(obj, where, "v2" if allow_edges else SCHEMA_VERSION)

    @classmethod
    def _check(cls, values, where, version):
        n_atoms = len(values["atomic_numbers"])
        expect_rows(values["positions"], n_atoms, f"{where}.positions")
        periodic = any(values.get("pbc", ()))
        if periodic and values.get("cell") is None:
            raise SchemaError(f"{where}: pbc set but no cell given")
        edges = values.pop("edges", None)
        if edges is not None:
            if version != "v2":
                raise SchemaError(f"{where}.edges: precomputed edges require schema_version 'v2'")
            values["edge_index"], values["edge_shift"] = _edges_from_json(
                edges, n_atoms, periodic, f"{where}.edges"
            )


# ----------------------------------------------------------------------
# Requests: one envelope, three bodies
# ----------------------------------------------------------------------
@dataclass(kw_only=True)
class _RequestEnvelope(Wire):
    """What ``/v1/predict``, ``/v1/relax`` and ``/v1/md`` bodies share.

    A subclass declares the structure field first and then its knobs:
    optional overrides of the server's settings, ``None`` when unset.
    """

    model: str | None = row(STR, OMIT)
    #: Optional latency budget in milliseconds, relative to send time
    #: (additive v1 field).  Work still unserved when it runs out is
    #: dropped with a typed ``deadline_exceeded`` 504 instead of
    #: executing — a relax or MD run re-checks it before every force
    #: evaluation; see :data:`DEADLINE_HEADER` for the hop-by-hop form.
    deadline_ms: float | None = row(Kind(validate_deadline_ms, float), OMIT)
    #: Optional caller identity for per-client quota accounting
    #: (additive v1 field; :data:`CLIENT_HEADER` is the header form).
    #: One relax or MD run is one admission decision, not one per force
    #: evaluation.
    client_id: str | None = row(Kind(validate_client_id), OMIT)
    #: Optional priority lane (additive v1 field; one of
    #: :data:`PRIORITY_LANES`, default ``interactive`` server-side).
    priority: str | None = row(_PRIORITY, OMIT)

    _versions = SUPPORTED_VERSIONS

    @classmethod
    def _order(cls, rows):
        # The key order v1 bodies have always had: ``model`` follows the
        # structure, deadline and identity close the body.
        (model, *tail), (structure, *knobs) = rows[:4], rows[4:]
        return (structure, model, *knobs, *tail)

    def _structures(self) -> list[StructurePayload]:
        return [self.structure]

    def _wire_version(self) -> str:
        # Emit the lowest version that can carry the payload: v2 only
        # when some structure ships precomputed edges.
        return "v2" if any(s.has_edges for s in self._structures()) else SCHEMA_VERSION

    def _overrides(self) -> dict:
        """The knobs this request sets, to lay over the server's defaults."""
        knobs = list(type(self).__annotations__)[1:]
        return {name: value for name in knobs if (value := getattr(self, name)) is not None}


@dataclass
class PredictRequest(_RequestEnvelope):
    """``POST /v1/predict`` body: one or many structures, optional model."""

    structures: list[StructurePayload] = row(
        Many(StructurePayload, 1, MAX_STRUCTURES_PER_REQUEST)
    )

    _where = "request"

    @classmethod
    def from_graphs(
        cls, graphs: list[AtomGraph], model: str | None = None
    ) -> "PredictRequest":
        return cls(structures=[StructurePayload.from_graph(g) for g in graphs], model=model)

    def _structures(self) -> list[StructurePayload]:
        return self.structures


@dataclass
class RelaxRequest(_RequestEnvelope):
    """``POST /v1/relax`` body: one structure plus optional relax knobs.

    Unset knobs take the server's :class:`~repro.serving.relax.RelaxSettings`
    defaults; the neighbor cutoff is always the server's (clients cannot
    request connectivity the model was not trained on).
    """

    structure: StructurePayload = row(StructurePayload)
    max_steps: int | None = row(integer(1, MAX_RELAX_STEPS), OMIT)
    fmax: float | None = row(POSITIVE, OMIT)
    max_step: float | None = row(POSITIVE, OMIT)
    skin: float | None = row(POSITIVE, OMIT)

    _where = "relax request"

    def to_settings(self, cutoff: float, max_neighbors: int | None = None) -> RelaxSettings:
        """Server-side settings: request overrides on top of defaults."""
        return RelaxSettings(cutoff=cutoff, max_neighbors=max_neighbors, **self._overrides())


@dataclass
class MDRequest(_RequestEnvelope):
    """``POST /v1/md`` body: one structure plus optional integrator knobs.

    Unset knobs take the server's :class:`~repro.serving.md.MDSettings`
    defaults; like relax, the neighbor cutoff is always the server's.
    ``velocities`` (internal units, same shape as positions) and
    ``step_offset`` are the resume channel: a chunked client re-submits
    the last frame's positions + velocities with ``step_offset`` set to
    that frame's step, and the seeded step-indexed thermostat noise makes
    the resumed trajectory bit-identical to an uninterrupted one.
    ``deadline_ms`` is re-checked between force evaluations, so one
    request never holds a worker past its budget — long runs should
    chunk client-side (``Client.md(chunk_steps=...)``).
    """

    structure: StructurePayload = row(StructurePayload)
    n_steps: int | None = row(integer(1, MAX_MD_STEPS), OMIT)
    timestep_fs: float | None = row(POSITIVE, OMIT)
    thermostat: str | None = row(enum(MD_THERMOSTATS), OMIT)
    temperature_k: float | None = row(NON_NEGATIVE, OMIT)
    friction: float | None = row(POSITIVE, OMIT)
    tau_fs: float | None = row(POSITIVE, OMIT)
    seed: int | None = row(integer(0, 2**63 - 1), OMIT)
    frame_interval: int | None = row(integer(1, MAX_MD_STEPS), OMIT)
    step_offset: int | None = row(integer(0, MAX_MD_STEP_OFFSET), OMIT)
    skin: float | None = row(POSITIVE, OMIT)
    velocities: np.ndarray | None = row(MATRIX, OMIT)

    _where = "md request"

    @classmethod
    def _order(cls, rows):
        # The resume velocities were added after the envelope, and v1
        # bodies keep them there.
        *head, velocities, deadline_ms, client_id, priority = super()._order(rows)
        return (*head, deadline_ms, client_id, priority, velocities)

    def to_settings(self, cutoff: float, max_neighbors: int | None = None) -> MDSettings:
        """Server-side settings: request overrides on top of defaults."""
        return MDSettings(cutoff=cutoff, max_neighbors=max_neighbors, **self._overrides())

    @classmethod
    def _check(cls, values, where, version):
        if "velocities" in values:
            n_atoms = len(values["structure"].atomic_numbers)
            expect_rows(values["velocities"], n_atoms, f"{where}.velocities")


# ----------------------------------------------------------------------
# Predict / relax responses
# ----------------------------------------------------------------------
@dataclass
class PredictionPayload(Wire):
    """One structure's prediction as it crosses the wire.

    Mirrors :class:`~repro.serving.service.PredictionResult` — energy,
    forces, and the serving provenance (cache hit? batch size? physical
    or normalized units?) a client needs to interpret and debug it.
    """

    key: str = row(STR)
    energy: float = row(NUMBER)
    forces: np.ndarray = row(MATRIX)
    n_atoms: int = row(_POSITIVE_INT)
    cached: bool = row(BOOL)
    batch_graphs: int = row(_ANY_INT)
    physical_units: bool = row(BOOL)
    latency_s: float = row(NUMBER, DEFAULT, default=0.0)

    _where = "result"
    _mirrors = PredictionResult
    from_result = classmethod(from_mirror)
    to_result = to_mirror

    @classmethod
    def _check(cls, values, where, version):
        expect_rows(values["forces"], values["n_atoms"], f"{where}.forces")


@dataclass
class PredictResponse(Wire):
    """``POST /v1/predict`` success body: results in request order."""

    model: str = row(STR)
    results: list[PredictionPayload] = row(Many(PredictionPayload))

    _where = "response"
    _versions = (SCHEMA_VERSION,)

    @classmethod
    def from_results(
        cls, model: str, results: list[PredictionResult]
    ) -> "PredictResponse":
        return cls(model=model, results=[PredictionPayload.from_result(r) for r in results])

    def to_results(self) -> list[PredictionResult]:
        return [payload.to_result() for payload in self.results]


@dataclass
class RelaxationPayload(Wire):
    """One relaxation outcome as it crosses the wire.

    Mirrors :class:`~repro.serving.relax.RelaxResult` field for field,
    including the skin-list counters — a client can tell how much of the
    descent rode the incremental neighbor-list path.
    """

    converged: bool = row(BOOL)
    reason: str = row(enum(RELAX_REASONS))
    steps: int = row(COUNT)
    energy: float = row(FINITE)
    energy_initial: float = row(FINITE)
    fmax: float = row(FINITE)
    positions: np.ndarray = row(MATRIX)
    forces: np.ndarray = row(MATRIX)
    n_atoms: int = row(_POSITIVE_INT)
    physical_units: bool = row(BOOL)
    neighbor_rebuilds: int = row(COUNT)
    neighbor_reuses: int = row(COUNT)

    _where = "relaxation"
    _mirrors = RelaxResult
    from_result = classmethod(from_mirror)
    to_result = to_mirror

    @classmethod
    def _check(cls, values, where, version):
        expect_rows(values["positions"], values["n_atoms"], f"{where}.positions")
        expect_rows(values["forces"], values["n_atoms"], f"{where}.forces")


@dataclass
class RelaxResponse(Wire):
    """``POST /v1/relax`` success body."""

    model: str = row(STR)
    result: RelaxationPayload = row(RelaxationPayload)

    _where = "relax response"
    _versions = (SCHEMA_VERSION,)

    @classmethod
    def from_result(cls, model: str, result: RelaxResult) -> "RelaxResponse":
        return cls(model=model, result=RelaxationPayload.from_result(result))

    def to_result(self) -> RelaxResult:
        return self.result.to_result()


# ----------------------------------------------------------------------
# MD streamed frames / terminal summary
# ----------------------------------------------------------------------
@dataclass
class MDFramePayload(Wire):
    """One streamed trajectory snapshot (an NDJSON ``frame`` line).

    Mirrors :class:`~repro.serving.md.MDFrame`.  Positions are Å;
    velocities are internal units, serialized as plain JSON numbers —
    bit-exact for float64 — so resuming a chunked run from the last
    frame reproduces the uninterrupted trajectory exactly.
    """

    step: int = row(COUNT)
    energy: float = row(FINITE)
    kinetic_energy: float = row(FINITE)
    temperature_k: float = row(FINITE)
    positions: np.ndarray = row(MATRIX)
    velocities: np.ndarray = row(MATRIX)

    _where = "md frame"
    _versions = (SCHEMA_VERSION,)
    _wrapper = "frame"
    _mirrors = MDFrame
    from_frame = classmethod(from_mirror)
    to_frame = to_mirror

    @classmethod
    def _check(cls, values, where, version):
        expect_rows(values["velocities"], len(values["positions"]), f"{where}.velocities")


@dataclass
class MDResultPayload(Wire):
    """Terminal MD summary as it crosses the wire.

    Mirrors :class:`~repro.serving.md.MDResult` field for field,
    including the skin-list counters — reported identically to the relax
    payload so clients read one vocabulary.
    """

    steps: int = row(COUNT)
    first_step: int = row(COUNT)
    final_step: int = row(COUNT)
    frames: int = row(COUNT)
    energy: float = row(FINITE)
    kinetic_energy: float = row(FINITE)
    temperature_k: float = row(FINITE)
    thermostat: str = row(enum(MD_THERMOSTATS))
    n_atoms: int = row(_POSITIVE_INT)
    physical_units: bool = row(BOOL)
    neighbor_rebuilds: int = row(COUNT)
    neighbor_reuses: int = row(COUNT)

    _where = "md summary"
    _mirrors = MDResult
    from_result = classmethod(from_mirror)
    to_result = to_mirror


@dataclass
class MDResponse(Wire):
    """``POST /v1/md`` terminal summary (the stream's last NDJSON line).

    The ``summary`` key is the stream-integrity marker: a well-formed
    MD stream is zero or more ``frame`` lines followed by exactly one
    line carrying ``summary`` (success) or ``error`` (typed failure).  A
    stream that ends without either was truncated mid-run, and clients
    treat it as a transport error (and resume from the last frame).
    """

    model: str = row(STR)
    result: MDResultPayload = row(MDResultPayload, key="summary")

    _where = "md response"
    _versions = (SCHEMA_VERSION,)

    @classmethod
    def from_result(cls, model: str, result: MDResult) -> "MDResponse":
        return cls(model=model, result=MDResultPayload.from_result(result))

    def to_result(self) -> MDResult:
        return self.result.to_result()


# ----------------------------------------------------------------------
# Errors, server info, stats
# ----------------------------------------------------------------------
@dataclass
class ErrorPayload(Wire):
    """JSON body every non-2xx response carries."""

    code: str = row(STR)
    message: str = row(STR)
    status: int = row(_ANY_INT)
    #: Honest backoff hint in seconds, carried on retryable rejections
    #: (429/503) alongside the HTTP ``Retry-After`` header — in the body
    #: too so the hint survives transports that drop response headers
    #: (additive v1 field).
    retry_after_s: float | None = row(NON_NEGATIVE, OMIT)

    _where = "error payload"
    _versions = (SCHEMA_VERSION,)
    _wrapper = "error"

    @classmethod
    def from_error(cls, error: ApiError) -> "ErrorPayload":
        retry_after = getattr(error, "retry_after_s", None)
        return cls(
            code=error.code,
            message=str(error),
            status=error.http_status,
            retry_after_s=None if retry_after is None else float(retry_after),
        )

    def to_error(self) -> ApiError:
        """Rebuild the typed exception (client side of the contract)."""
        error_type = ERROR_TYPES.get(self.code, ApiError)
        error = error_type(self.message)
        if self.retry_after_s is not None:
            error.retry_after_s = float(self.retry_after_s)
        return error

    def to_json_dict(self) -> dict:
        # The envelope is also authored below the api package (the
        # replica router), so its one builder lives in repro.wire.
        return error_envelope(**vars(self))


@dataclass
class ServerInfo(Wire):
    """``GET /v1/models`` body: what this server serves and where."""

    models: list[dict] = row(scalar(list, "a list"))
    default_model: str | None = row(STR, NULL)
    endpoints: tuple[str, ...] = row(
        Kind(_strings, tuple, list),
        DEFAULT,
        default=(
            "POST /v1/predict",
            "POST /v1/relax",
            "POST /v1/md",
            "GET /v1/models",
            "GET /v1/healthz",
            "GET /v1/stats",
        ),
    )

    _where = "info"
    _versions = (SCHEMA_VERSION,)


@dataclass
class StatsSnapshot(Wire):
    """``GET /v1/stats`` body: per-model serving telemetry.

    Each model's entry carries the service's telemetry sections; their
    fields — and how a router merges each across replicas — are
    declared once, in :data:`repro.serving.telemetry.MODEL`.
    Additive top-level fields, still schema ``v1``:

    - ``uptime_s`` / ``pid`` — how long this server has been up and its
      process id, which is what lets a client (or the replica
      supervisor's tests) tell two replicas apart.
    - ``replicas`` — present only on a replica *router's* snapshot: the
      per-replica breakdown (health, in-flight, restarts, pid, and each
      replica's own ``models`` telemetry), while ``models`` holds the
      fleet-aggregated counters.
    - ``router`` — the router's own counters (requests, rerouted,
      rejected, proxy_errors, breaker_opens, deadline_expired,
      admitting).
    - ``watchdog`` — also router-only: the supervisor's hung-replica
      escalation counters (hung_detected, sigterm, sigkill, respawns).

    Sections and fields are additive by contract: snapshots written
    before a field existed keep parsing, and clients must tolerate
    unknown sections inside each model entry.
    """

    models: dict[str, dict] = row(
        scalar(dict, "an object keyed by model name"), default_factory=dict
    )
    uptime_s: float | None = row(NUMBER, OMIT)
    pid: int | None = row(_ANY_INT, OMIT)
    replicas: dict[str, dict] | None = row(scalar(dict, "an object keyed by replica id"), OMIT)
    router: dict | None = row(_OBJECT, OMIT)
    watchdog: dict | None = row(_OBJECT, OMIT)

    _where = "stats"
    _versions = (SCHEMA_VERSION,)


def structures_from_json(obj: Any) -> list[StructurePayload]:
    """Structures from either wire shape users reasonably write.

    Accepts a full :class:`PredictRequest` dict, a bare list of
    structure objects, or one structure object — the shapes ``repro
    predict --input`` meets in the wild.
    """
    if isinstance(obj, list):
        return [
            StructurePayload.from_json_dict(entry, where=f"structures[{index}]")
            for index, entry in enumerate(obj)
        ]
    if isinstance(obj, dict) and "structures" in obj:
        return PredictRequest.from_json_dict(obj).structures
    if isinstance(obj, dict):
        return [StructurePayload.from_json_dict(obj)]
    raise SchemaError(
        "expected a predict request, a list of structures, or one structure object"
    )
