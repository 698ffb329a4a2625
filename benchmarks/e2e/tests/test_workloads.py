import numpy as np
import pytest

from benchmarks.e2e import workloads
from benchmarks.e2e.workloads import WORKLOADS
from repro.api.schemas import DEFAULT_CUTOFF
from repro.serving import structure_hash


def stream(name: str, seed: int, replays: int = 2) -> bytes:
    workload = WORKLOADS[name]
    base = workloads.base_ops(workload, seed)
    return b"".join(
        workloads.wire_bytes(workload, op)
        for index in range(replays)
        for op in workloads.replay(workload, base, seed, index)
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    assert stream(name, 3) == stream(name, 3)
    assert stream(name, 3) != stream(name, 4)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_block_sizes(name):
    workload = WORKLOADS[name]
    ops = workloads.base_ops(workload, 0)
    assert len(ops) == workload.ops_per_block
    latencies = (
        workloads.MD_STEPS // workloads.MD_FRAME_INTERVAL
        if workload.kind == "md"
        else sum(op.gated for op in ops)
    )
    # predict_bulk trades ops per block for a forward-dominated call (README).
    assert latencies >= (15 if name == "predict_bulk" else 30)


@pytest.mark.parametrize("name", ["predict_lone", "predict_bulk", "md_stream"])
def test_replays_keep_the_work_and_change_every_hash(name):
    workload = WORKLOADS[name]
    base = workloads.base_ops(workload, 5)
    first, second = (workloads.replay(workload, base, 5, index) for index in (1, 2))
    fresh_hashes = set()
    for op_a, op_b in zip(first[:20], second[:20]):
        assert op_a.verbatim == op_b.verbatim and op_a.gated == op_b.gated
        for a, b, verbatim in zip(op_a.structures, op_b.structures, op_a.verbatim):
            graph_a, graph_b = a.to_graph(DEFAULT_CUTOFF), b.to_graph(DEFAULT_CUTOFF)
            assert graph_a.n_atoms == graph_b.n_atoms
            assert graph_a.edge_index.shape == graph_b.edge_index.shape
            if verbatim:
                assert structure_hash(graph_a) == structure_hash(graph_b)
            else:
                assert structure_hash(graph_a) != structure_hash(graph_b)
                fresh_hashes.update((structure_hash(graph_a), structure_hash(graph_b)))
    fresh = sum(not v for op in first[:20] for v in op.verbatim)
    assert len(fresh_hashes) == 2 * fresh  # no fresh structure repeats, within or across blocks


def test_rotation_is_rigid():
    workload = WORKLOADS["predict_lone"]
    base = workloads.base_ops(workload, 1)
    moved = workloads.replay(workload, base, 1, 1)
    for op_a, op_b in zip(base[:5], moved[:5]):
        a, b = op_a.structures[0].positions, op_b.structures[0].positions
        distances = lambda x: np.linalg.norm(x[:, None] - x[None], axis=-1)  # noqa: E731
        assert np.allclose(distances(a), distances(b), atol=1e-9)
        assert not np.allclose(a, b)


def test_bulk_hot_share_is_exactly_a_quarter():
    workload = WORKLOADS["predict_bulk"]
    base = workloads.base_ops(workload, 2)
    hot = workloads.hot_structures(base)
    hot_ids = {id(structure) for structure in hot}
    assert len(hot) <= workloads.BULK_HOT_SET
    for op in workloads.replay(workload, base, 2, 3):
        assert len(op.structures) == workloads.BULK_CALL == 16
        assert sum(op.verbatim) == workloads.BULK_HOT_PER_CALL == 4
        picked = [s for s, v in zip(op.structures, op.verbatim) if v]
        assert all(id(s) in hot_ids for s in picked)  # sent verbatim: the same objects
        assert len({id(s) for s in picked}) == 4
        periodic = sum(s.cell is not None for s, v in zip(op.structures, op.verbatim) if not v)
        assert periodic == 6  # 6 molecules + 6 crystals are fresh


def test_bulk_sizes_cover_the_paper_mixture_range():
    base = workloads.base_ops(WORKLOADS["predict_bulk"], 0)
    molecules = [len(s.atomic_numbers) for op in base for s in op.structures if s.cell is None]
    crystals = [len(s.atomic_numbers) for op in base for s in op.structures if s.cell is not None]
    assert 18 <= min(molecules) <= 30 and 60 <= max(molecules) <= 85
    assert min(crystals) == 32 and max(crystals) == 64
    assert sum(len(s.atomic_numbers) for s in base[0].structures) > 512  # more than one micro-batch


def test_molecule_sizes_are_held_near_the_typical_size():
    atoms, edges = workloads.TYPICAL_SIZE[workloads.LONE_HEAVY]
    for seed in (0, 1, 2):
        molecule = workloads.steady_molecule(np.random.default_rng(seed), workloads.LONE_HEAVY)
        assert abs(len(molecule.atomic_numbers) - atoms) <= 2
        assert abs(workloads.edge_count(molecule) - edges) < 0.1 * edges


def test_bulk_call_splits_the_same_way_whatever_the_seed():
    for seed in (0, 1, 2, 3):
        op = workloads.base_ops(WORKLOADS["predict_bulk"], seed)[seed]
        fresh = [len(s.atomic_numbers) for s, v in zip(op.structures, op.verbatim) if not v]
        assert sum(fresh[:-1]) <= 512 - 20 < 512 < sum(fresh)  # all but the last fill batch one


def test_routed_mix_is_four_interactive_then_one_bulk_lane_call():
    workload = WORKLOADS["predict_routed"]
    ops = workloads.base_ops(workload, 0)
    for index, op in enumerate(ops):
        if index % 5 == 4:
            assert (op.priority, op.gated, len(op.structures)) == ("bulk", False, 8)
        else:
            assert (op.priority, op.gated, len(op.structures)) == (None, True, 1)
    request = workloads.wire_request(workload, ops[4]).to_json_dict()
    assert request["client_id"] == "bench" and request["priority"] == "bulk"


def test_md_op_is_a_triclinic_64_atom_cell_seeded_by_block_index():
    workload = WORKLOADS["md_stream"]
    base = workloads.base_ops(workload, 0)
    (op,) = workloads.replay(workload, base, 0, 7)
    structure = op.structures[0]
    assert len(structure.atomic_numbers) == 64 and all(structure.pbc)
    off_diagonal = structure.cell - np.diag(np.diag(structure.cell))
    assert np.abs(off_diagonal).max() > 0.1
    request = workloads.wire_request(workload, op).to_json_dict()
    assert request["seed"] == 7 and request["thermostat"] == "langevin"
    assert request["n_steps"] == workloads.MD_STEPS


def test_plan_cover_is_the_first_op_of_each_bucket():
    workload = WORKLOADS["predict_routed"]
    ops = workloads.replay(workload, workloads.base_ops(workload, 0), 0, 0)
    cover = workloads.plan_cover(ops)
    assert cover[0] is ops[0]
    assert {len(op.structures) for op in cover} == {1, 8}
    assert len(cover) < 10
