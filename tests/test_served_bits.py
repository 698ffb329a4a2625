"""Served-bits oracle: the energies and forces the model serves, pinned.

Every other output test checks self-consistency (planned against
unplanned, served against inline).  This one pins the numbers: a fixed
set of ANI1x molecules, OC20 slabs and MPtrj cells, served by the
``tiny`` and ``base`` presets lone and as one batch, planned and
unplanned, plus one relax and one MD chunk through ``Client.local``.

The goldens (``tests/golden/served/``) record the host they were made
on: the fields of ``benchmarks/e2e/host.py:fingerprint()``, the BLAS
build and the SIMD extensions numpy detected, which pick the kernels
that set the low bits.  On a host with the same key every array's
SHA-256 must match.  On any other host the bitwise test skips and says
which fields differ, and the arrays must still agree to rtol 1e-5.

Regenerate the goldens (a re-pin is its own commit) from the repo root:

    PYTHONPATH=src python -m tests.test_served_bits
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from benchmarks.e2e.host import fingerprint
from repro.api import Client
from repro.data.sources import ANI1xSource, MPTrjSource, OC20Source
from repro.graph.batch import collate
from repro.models import HydraModel, get_preset
from repro.serving import ModelRegistry

GOLDEN = Path(__file__).resolve().parent / "golden" / "served"
ARRAYS = GOLDEN / "served.npz"
DIGESTS = GOLDEN / "digests.json"
RTOL = 1e-5


def host_key() -> dict:
    """What decides the low bits of a served array on this host."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        **fingerprint(),
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "simd": sorted(config["SIMD Extensions"]["found"]),
    }


def digest(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    header = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha256(header + array.tobytes()).hexdigest()


def structures() -> dict[str, list]:
    return {
        "ani1x": ANI1xSource().sample(8, seed=3),
        "oc20": OC20Source().sample(3, seed=4),
        "mptrj": MPTrjSource().sample(3, seed=5),
    }


def served_arrays() -> dict[str, np.ndarray]:
    """Every pinned array, keyed ``preset/call/structure/path/output``."""
    graphs = structures()
    named = [
        (f"{source}{index}", graph)
        for source, items in graphs.items()
        for index, graph in enumerate(items)
    ]
    arrays: dict[str, np.ndarray] = {}
    for preset in ("tiny", "base"):
        model = HydraModel(get_preset(preset), seed=1)
        for path, plan in (("unplanned", False), ("planned", True)):
            calls = [(f"lone/{name}", [graph]) for name, graph in named]
            calls.append(("batch/all", [graph for _, graph in named]))
            for call, members in calls:
                outputs = model.serve(collate(members), plan=plan)
                for output in ("energy", "forces"):
                    arrays[f"{preset}/{call}/{path}/{output}"] = outputs[output]

    registry = ModelRegistry()
    registry.register_model("tiny", HydraModel(get_preset("tiny"), seed=1))
    with Client.local(registry) as client:
        relaxed = client.relax(graphs["ani1x"][0], max_steps=6)
        arrays["client/relax/ani1x0/energy"] = np.array([relaxed.energy_initial, relaxed.energy])
        arrays["client/relax/ani1x0/forces"] = relaxed.forces
        arrays["client/relax/ani1x0/positions"] = relaxed.positions
        run = client.md(
            graphs["mptrj"][0], n_steps=4, thermostat="langevin", temperature_k=300.0, seed=7
        )
        frames = run.frames()
        arrays["client/md/mptrj0/energy"] = np.array([frame.energy for frame in frames])
        arrays["client/md/mptrj0/positions"] = np.stack([frame.positions for frame in frames])
        arrays["client/md/mptrj0/velocities"] = np.stack([frame.velocities for frame in frames])
    return arrays


def write_goldens() -> None:
    arrays = served_arrays()
    GOLDEN.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(ARRAYS, **arrays)
    record = {"host": host_key(), "digests": {name: digest(a) for name, a in arrays.items()}}
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(arrays)} arrays to {ARRAYS.relative_to(Path.cwd())}")


@pytest.fixture(scope="module")
def served():
    return served_arrays()


@pytest.fixture(scope="module")
def record():
    return json.loads(DIGESTS.read_text())


def test_the_goldens_cover_what_is_served(served, record):
    with np.load(ARRAYS) as golden:
        assert set(golden.files) == set(served) == set(record["digests"])


def test_served_arrays_are_close_to_the_goldens(served):
    with np.load(ARRAYS) as golden:
        for name, array in served.items():
            scale = float(np.abs(golden[name]).max(initial=0.0))
            np.testing.assert_allclose(
                array, golden[name], rtol=RTOL, atol=RTOL * scale, err_msg=name
            )


def test_served_bits_equal_the_goldens(served, record):
    here, there = host_key(), record["host"]
    differing = sorted(key for key in here.keys() | there.keys() if here.get(key) != there.get(key))
    if differing:
        pytest.skip(
            "bitwise check skipped: the goldens were made on another host "
            f"({', '.join(differing)} differ), whose kernels may round differently; "
            "the rtol check still ran"
        )
    moved = sorted(name for name, a in served.items() if digest(a) != record["digests"][name])
    assert moved == []


if __name__ == "__main__":
    write_goldens()
