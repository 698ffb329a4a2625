"""``BENCHMARK.json`` against the harness, and the line the driver reads."""

import json
import re

from benchmarks.e2e import run
from benchmarks.e2e.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_spec_names_the_harness_workloads_and_metrics():
    spec = run.SPEC
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why and len(w["why"]) <= 200
               for w in spec["workloads"])
    assert list(run.END_TO_END) == [
        "setup_s", "op_p50_ms", "op_p90_ms", "structures_per_s", "success_share",
    ]
    assert run.END_TO_END["setup_s"]["unit"] == "s"
    assert run.END_TO_END["setup_s"]["better"] == "lower"
    assert spec["paths"] == ["benchmarks/e2e"] and spec["command"][-1].startswith(spec["paths"][0])


def test_spec_is_inside_the_contract_limits():
    spec = run.SPEC
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for m in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(name) for name in names)
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert 2 <= len(spec["workloads"]) <= 8 and 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 15) < 3420  # 15 s of set-up and checking per run


def test_contract_line_has_every_metric_and_the_clock_floor_for_layers_not_crossed():
    result = {
        "attempted": 10, "failed": 0, "empty_span_ms": 0.00021,
        "metrics": {
            "serving.router.hop_ms": None,
            "api.schemas.request_bytes": None,
            "models.hydra.forward_ms": 1.35,
        },
    }
    line = json.loads(run.contract_line(result, run.PER_LAYER))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and set(line["metrics"]) == set(run.PER_LAYER)
    assert line["metrics"]["serving.router.hop_ms"] == {"value": 0.00021, "unit": "ms"}
    assert line["metrics"]["api.schemas.request_bytes"] == {"value": 0, "unit": "B"}
    assert line["metrics"]["models.hydra.forward_ms"]["value"] == 1.35
    failed = json.loads(run.contract_line(dict(result, failed=1), run.PER_LAYER))
    assert failed["correct"] is False
