"""Fleet ``/v1/stats`` aggregation, pinned against captured replica telemetry.

``golden/replica_stats.json`` holds four replicas' ``models`` mappings as
the router parses them: three live ``PredictionService.telemetry()``
dicts (predicts, cache hits, an expired deadline, relax, MD under three
thermostats, a rate-quota shed, a brownout that climbed two levels) and
one sparse entry from an "older replica".  ``golden/fleet_stats.json`` is
what ``aggregate_model_telemetry`` answered for them when they were
captured; the merge must keep answering exactly that.
"""

import json
from pathlib import Path

from repro.serving.router import aggregate_model_telemetry

GOLDEN = Path(__file__).resolve().parent / "golden"


def load(name: str):
    return json.loads((GOLDEN / name).read_text())


def canonical(value) -> str:
    """Key-order-free text form; unlike ``==`` it tells ``0`` from ``0.0`` and ``False``."""
    return json.dumps(value, sort_keys=True)


def test_fleet_merge_reproduces_the_golden_exactly():
    merged = aggregate_model_telemetry(load("replica_stats.json"))
    assert merged == load("fleet_stats.json")
    assert canonical(merged) == canonical(load("fleet_stats.json"))
