"""Properties of the wire codec, driven by the registered tables.

Nothing here names a field: bodies are built by walking each type's rows
and asking a per-*kind* strategy for a value, so a new field is covered
the day it is declared, and a new kind fails loudly until it is given a
strategy.  Two properties, for every wire type:

(a) encode → ``json`` → decode gives back the same object, bit for bit;
(b) a valid body with one fault planted in it either still decodes or
    raises :class:`SchemaError` — never anything else (the contract that
    turns malformed input into a 400 instead of a 500).
"""

import copy
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import codec, kinds, schemas
from repro.api.codec import DEFAULT, WIRE_TYPES, Many
from repro.api.schemas import SchemaError, StructurePayload

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def kind_of(wire_type, field):
    return next(row.kind for row in wire_type.rows() if row.name == field)


floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
json_scalars = st.none() | st.booleans() | st.integers(-9, 9) | floats | st.text(max_size=6)
json_objects = st.dictionaries(st.text(max_size=6), json_scalars, max_size=3)


def matrix(rows):
    return st.lists(st.tuples(floats, floats, floats), min_size=rows, max_size=rows).map(
        lambda cells: np.array(cells, dtype=np.float64).reshape(rows, 3)
    )


def kind_strategies(n_atoms):
    """One strategy per kind; row-per-atom kinds agree on ``n_atoms``."""
    return {
        kinds.STR: st.text(max_size=12),
        kinds.BOOL: st.booleans(),
        kinds.NUMBER: floats,
        kinds.FINITE: floats,
        kinds.POSITIVE: st.floats(min_value=1e-9, max_value=1e9),
        kinds.NON_NEGATIVE: st.floats(min_value=0.0, max_value=1e9),
        kinds.COUNT: st.integers(0, 10**9),
        kinds.MATRIX: matrix(n_atoms),
        kinds.CELL: matrix(3),
        kind_of(StructurePayload, "atomic_numbers"): st.lists(
            st.integers(1, 118), min_size=n_atoms, max_size=n_atoms
        ).map(lambda numbers: np.array(numbers, dtype=np.int64)),
        kind_of(StructurePayload, "pbc"): st.tuples(*[st.booleans()] * 3),
        kind_of(schemas.PredictionPayload, "n_atoms"): st.just(n_atoms),
        kind_of(schemas.PredictionPayload, "batch_graphs"): st.integers(-5, 10**6),
        kind_of(schemas.PredictRequest, "deadline_ms"): st.floats(
            min_value=1e-3, max_value=schemas.MAX_DEADLINE_MS
        ),
        kind_of(schemas.PredictRequest, "client_id"): st.text(
            min_size=1, max_size=schemas.MAX_CLIENT_ID_CHARS
        ),
        kind_of(schemas.ServerInfo, "models"): st.lists(json_objects, max_size=2),
        kind_of(schemas.ServerInfo, "endpoints"): st.lists(st.text(max_size=8), max_size=3).map(
            tuple
        ),
        kind_of(schemas.StatsSnapshot, "models"): st.dictionaries(
            st.text(max_size=6), json_objects, max_size=2
        ),
        kind_of(schemas.StatsSnapshot, "replicas"): st.dictionaries(
            st.text(max_size=3), json_objects, max_size=2
        ),
        kind_of(schemas.StatsSnapshot, "router"): json_objects,
    }


def value_for(draw, kind, strategies):
    if isinstance(kind, Many):
        count = draw(st.integers(kind.low, kind.low + 2))
        return [build(draw, kind.item, strategies) for _ in range(count)]
    if isinstance(kind, type):
        return build(draw, kind, strategies)
    if kind in strategies:
        return draw(strategies[kind])
    if kind.domain and isinstance(kind.domain[0], str):  # enum(values)
        return draw(st.sampled_from(kind.domain))
    if kind.domain:  # integer(low, high)
        low, high = kind.domain
        return draw(st.integers(-9 if low is None else low, 10**9 if high is None else high))
    raise AssertionError(f"no strategy for kind {kind!r}: add one to kind_strategies()")


def build(draw, wire_type, strategies):
    """A valid instance of ``wire_type``, every optional row present or not."""
    fields = {field.name for field in dataclasses.fields(wire_type)}
    values = {}
    for row in wire_type.rows():
        if row.name not in fields:
            continue  # written from a property (``edges``)
        if row.optional in (None, DEFAULT) or draw(st.booleans()):
            values[row.name] = value_for(draw, row.kind, strategies)
    if wire_type is StructurePayload:
        # The cross-field rules, mirrored: pbc needs a cell; a v2 edge
        # list indexes real atoms and shifts only across periodic cells.
        if values.get("cell") is None:
            values.pop("pbc", None)
        if draw(st.booleans()):
            n_atoms, periodic = len(values["atomic_numbers"]), any(values.get("pbc", ()))
            pairs = draw(st.lists(st.tuples(*[st.integers(0, n_atoms - 1)] * 2), max_size=4))
            values["edge_index"] = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
            shifts = st.integers(-2, 2) if periodic else st.just(0)
            values["edge_shift"] = np.array(
                [[draw(shifts) * 0.5 for _ in range(3)] for _ in pairs], dtype=np.float32
            ).reshape(-1, 3)
    return wire_type(**values)


def instances(wire_type):
    @st.composite
    def one(draw):
        n_atoms = draw(st.integers(1, 3))
        return build(draw, wire_type, kind_strategies(n_atoms))

    return one()


def same(left, right) -> bool:
    """Equal bit for bit: arrays by dtype, shape and bytes."""
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        left, right = np.asarray(left), np.asarray(right)
        return (
            left.dtype == right.dtype
            and left.shape == right.shape
            and left.tobytes() == right.tobytes()
        )
    if dataclasses.is_dataclass(left):
        return type(left) is type(right) and all(
            same(getattr(left, field.name), getattr(right, field.name))
            for field in dataclasses.fields(left)
        )
    if isinstance(left, (list, tuple)):
        return (
            type(left) is type(right)
            and len(left) == len(right)
            and all(same(a, b) for a, b in zip(left, right))
        )
    return type(left) is type(right) and left == right


def decode(wire_type, body):
    if wire_type is StructurePayload:
        return wire_type.from_json_dict(body, allow_edges=True)
    return wire_type.from_json_dict(body)


def test_all_fourteen_types_are_registered():
    assert len(WIRE_TYPES) == 14
    assert {wire_type.__module__ for wire_type in WIRE_TYPES} == {schemas.__name__}


@pytest.mark.parametrize("wire_type", WIRE_TYPES, ids=lambda wire_type: wire_type.__name__)
class TestEveryWireType:
    @SETTINGS
    @given(data=st.data())
    def test_json_round_trip_is_bit_exact(self, wire_type, data):
        original = data.draw(instances(wire_type))
        wire_text = json.dumps(original.to_json_dict())
        recovered = decode(wire_type, json.loads(wire_text))
        assert same(recovered, original)
        assert json.dumps(recovered.to_json_dict()) == wire_text

    # A trusted v2 client's edge shift beyond float32 range lands as inf in
    # the graph dtype; numpy says so, and that is not what is under test.
    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    @settings(SETTINGS, max_examples=8)
    @given(data=st.data())
    def test_one_fault_decodes_or_raises_schema_error_only(self, wire_type, data):
        body = json.loads(json.dumps(data.draw(instances(wire_type)).to_json_dict()))
        for description, faulty in every_single_fault(body):
            try:
                decode(wire_type, faulty)
            except SchemaError:
                pass  # the only exception a body may cause
            except Exception as error:  # noqa: BLE001 - the property under test
                pytest.fail(f"{description} on {body!r} raised {error!r}")


#: What a fault puts in place of a value: every JSON type, the boundary
#: numbers, the non-finite floats, and an integer no float can hold.
FAULTS = [None, True, False, 0, 1, -1, 2**63, 10**400, 0.5, -0.0, 1e308, float("nan"),
          float("inf"), float("-inf"), "", "x", "1.0", [], [[]], [0], [[0.0, 0.0]], {},
          {"x": 1}]  # fmt: skip


def every_single_fault(body):
    """Each one-node mutation of ``body``: replace, delete, add — and the root."""
    sites = []  # path to every node below the root

    def walk(node, path):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            sites.append((*path, key))
            if isinstance(child, (dict, list)):
                walk(child, (*path, key))

    walk(body, ())
    for fault in FAULTS:
        yield f"root := {fault!r}", copy.deepcopy(fault)
    for path in sites:
        for fault in [*FAULTS, "delete", "grow"]:
            mutated = copy.deepcopy(body)
            container = mutated
            for step in path[:-1]:
                container = container[step]
            if fault == "delete":
                del container[path[-1]]
            elif fault != "grow":
                container[path[-1]] = copy.deepcopy(fault)
            elif isinstance(container[path[-1]], dict):
                container[path[-1]]["unheard_of"] = 1
            elif isinstance(container[path[-1]], list):
                container[path[-1]].append(0.0)
            else:
                continue
            yield f"{'.'.join(map(str, path))} := {fault!r}", mutated


class TestDecodersThatLetOtherExceptionsEscape:
    """The two hand-unrolled decoders that predated the tables did."""

    def prediction(self, **changes) -> dict:
        body = {
            "key": "k", "energy": -1.0, "forces": [[0.0, 0.0, 0.0]], "n_atoms": 1,
            "cached": False, "batch_graphs": 1, "physical_units": True, "latency_s": 0.002,
        }  # fmt: skip
        return {**body, **changes}

    @pytest.mark.parametrize("bad", ["x", "1.0", [0.1], None, True])
    def test_latency_s_is_a_checked_number(self, bad):
        with pytest.raises(SchemaError, match=r"result\.latency_s: expected a number"):
            schemas.PredictionPayload.from_json_dict(self.prediction(latency_s=bad))

    def test_latency_s_may_still_be_absent(self):
        body = self.prediction()
        del body["latency_s"]
        assert schemas.PredictionPayload.from_json_dict(body).latency_s == 0.0

    @pytest.mark.parametrize("bad", [None, 3, "POST /v1/predict", [1], {"a": 1}])
    def test_endpoints_is_a_checked_list_of_strings(self, bad):
        body = {"schema_version": "v1", "models": [], "endpoints": bad}
        with pytest.raises(SchemaError, match=r"info\.endpoints: expected a list of strings"):
            schemas.ServerInfo.from_json_dict(body)

    def test_an_integer_beyond_float_range_is_a_schema_error(self):
        structure = {"atomic_numbers": [1], "positions": [[10**400, 0.0, 0.0]]}
        with pytest.raises(SchemaError, match="too large for a float"):
            StructurePayload.from_json_dict(structure)


def test_codec_module_knows_no_wire_type():
    """The walker is generic: the tables live in schemas, not in the codec."""
    assert not any(name in vars(codec) for name in (t.__name__ for t in WIRE_TYPES))
