"""The wire oracle: byte-exact encodings and exact rejection messages.

``golden/*.json`` were written by the hand-unrolled codec that preceded
the field tables and are the contract the tables are held to:

- the six shape goldens are ``json.dumps(x.to_json_dict(), indent=2)``
  byte for byte — key order included, so a client diffing bodies sees
  no change;
- ``rejections.json`` holds one valid body per wire type (``bases``) and
  single-fault mutations of them (``cases``), each with the exact
  ``SchemaError`` text — the string a client reads in a 400 envelope.
  It uses Python's ``NaN``/``Infinity`` JSON tokens for the non-finite
  faults.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.api import schemas
from repro.api.schemas import SchemaError

GOLDEN = Path(__file__).parent / "golden"
REJECTIONS = json.loads((GOLDEN / "rejections.json").read_text())


@pytest.mark.parametrize(
    "name, schema",
    [
        ("relax_request.json", schemas.RelaxRequest),
        ("relax_response.json", schemas.RelaxResponse),
        ("md_request.json", schemas.MDRequest),
        ("md_frame.json", schemas.MDFramePayload),
        ("md_summary.json", schemas.MDResponse),
        ("predict_request_v2_edges.json", schemas.PredictRequest),
    ],
)
def test_parse_reemit_is_byte_exact(name, schema):
    text = (GOLDEN / name).read_text()
    reemitted = schema.from_json_dict(json.loads(text)).to_json_dict()
    assert json.dumps(reemitted, indent=2) + "\n" == text


def test_v2_golden_carries_edges_the_server_uses_verbatim():
    golden = json.loads((GOLDEN / "predict_request_v2_edges.json").read_text())
    assert golden["schema_version"] == "v2"
    edged, plain = schemas.PredictRequest.from_json_dict(golden).structures
    assert edged.has_edges and not plain.has_edges
    graph = edged.to_graph(cutoff=0.1)  # a cutoff this small would find no edges
    assert graph.n_edges == len(golden["structures"][0]["edges"]["edge_shift"]) > 0


def mutated(case: dict):
    """The case's base body with its one fault applied."""
    body = copy.deepcopy(REJECTIONS["bases"][case["base"]])
    path = case["path"]
    if not path:
        return case["value"]
    target = body
    for step in path[:-1]:
        target = target[step]
    if case["op"] == "delete":
        del target[path[-1]]
    else:
        target[path[-1]] = case["value"]
    return body


def wire_type(case: dict):
    return getattr(schemas, case["base"].split("/")[0])


def case_id(case: dict) -> str:
    path = ".".join(str(step) for step in case["path"]) or "<body>"
    return f"{case['base']}:{path}:{case['fault'].replace(' ', '-')}"


def test_rejections_cover_every_wire_type():
    assert len(REJECTIONS["cases"]) >= 80
    covered = {case["base"].split("/")[0] for case in REJECTIONS["cases"]}
    assert covered == {
        "StructurePayload", "PredictRequest", "PredictionPayload", "PredictResponse",
        "RelaxRequest", "RelaxationPayload", "RelaxResponse", "MDRequest",
        "MDFramePayload", "MDResultPayload", "MDResponse", "ErrorPayload",
        "ServerInfo", "StatsSnapshot",
    }  # fmt: skip


@pytest.mark.parametrize("base", sorted(REJECTIONS["bases"]))
def test_every_base_is_valid_and_reemits_itself(base):
    body = REJECTIONS["bases"][base]
    schema = getattr(schemas, base.split("/")[0])
    assert schema.from_json_dict(copy.deepcopy(body)).to_json_dict() == body


@pytest.mark.parametrize("case", REJECTIONS["cases"], ids=case_id)
def test_single_fault_is_rejected_with_the_pinned_message(case):
    with pytest.raises(SchemaError) as caught:
        wire_type(case).from_json_dict(mutated(case))
    assert str(caught.value) == case["error"]
