"""The four closed-loop workloads and their seeded request streams.

Every workload is a list of *base ops* drawn once per ``--seed`` from
``repro.data.sources.builders`` (the paper's molecule + crystal mixture),
and a run replays that list block after block under a fresh seeded rigid
rotation (molecules) or translation (periodic cells).  A replay keeps
every atom count, edge count and plan bucket of its block position, but
changes every coordinate and therefore every ``structure_hash`` — so the
server does identical work per block without ever seeing a repeat, unless
the workload asks for one (``predict_bulk``'s hot set is sent verbatim).

The work is also held steady *across seeds*: sizes follow a fixed
schedule, crystals use lattices whose neighbour shells sit clear of the
5 A cutoff, and each molecule is the candidate (of ``CANDIDATES`` seeded
draws) nearest the typical atom and edge count for its size.  A
different seed then means different coordinates, not a different amount
of work, which is what lets runs with different seeds be compared.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.api.schemas import DEFAULT_CUTOFF, MDRequest, PredictRequest, StructurePayload
from repro.data.sources.builders import bulk_crystal, random_molecule
from repro.graph.batch import collate
from repro.graph.radius import build_edges
from repro.tensor.plan import plan_key

MOLECULE_ELEMENTS = ["C", "N", "O"]
#: Typical (atoms, 5 A edges) of a ``random_molecule`` by heavy-atom count.
TYPICAL_SIZE = {
    10: (24, 535),
    14: (32, 945),
    18: (41, 1500),
    20: (46, 1750),
    22: (50, 2150),
    26: (59, 2930),
    30: (69, 3580),
}
CANDIDATES = 16

#: (prototype, species, lattice, repeat): 32-64 atom cells whose shells
#: stay off the cutoff under the 1% strain and 0.04 A jitter used below.
CRYSTALS = (
    ("rocksalt", ["Mg", "O"], 4.21, (2, 2, 1)),
    ("rocksalt", ["Mg", "O"], 4.21, (2, 2, 2)),
    ("cscl", ["Cu", "Mg"], 3.2, (2, 2, 4)),
    ("fcc", ["Pt"], 3.92, (2, 2, 2)),
    ("fcc", ["Pt"], 3.92, (2, 2, 4)),
    ("perovskite", ["Ba", "Ti"], 3.9, (2, 2, 2)),
)
CRYSTAL_STRAIN = 0.01

BULK_MOLECULE_SIZES = (10, 14, 18, 22, 26, 30)  # about 24-70 atoms
BULK_VARIANTS = 3  # distinct base molecules per size; calls cycle through them
BULK_CALL = 16  # structures per call: 6 molecules + 6 crystals + 4 hot
BULK_HOT_PER_CALL = 4
BULK_HOT_SET = 64
BULK_HOT_SLOTS = (3, 7, 11, 15)

LONE_HEAVY = 20  # about 45 atoms
LONE_POOL = 12

ROUTED_BULK_EVERY = 5  # 4 interactive calls, then 1 bulk-lane call
ROUTED_BULK_CALL = 8

MD_STEPS = 120
MD_FRAME_INTERVAL = 4
MD_SETTINGS = {
    "n_steps": MD_STEPS,
    "timestep_fs": 0.5,
    "thermostat": "langevin",
    "temperature_k": 300.0,
    "frame_interval": MD_FRAME_INTERVAL,
}
#: Shear applied to the cubic 64-atom rocksalt cell to make it triclinic.
MD_SHEAR = np.array([[1.0, 0.0, 0.0], [0.10, 1.0, 0.0], [0.05, 0.08, 1.0]])


@dataclass(frozen=True)
class Op:
    """One client call: its structures and how the call is labelled."""

    structures: tuple[StructurePayload, ...]
    verbatim: tuple[bool, ...]  # True: sent unchanged in every replay (hot set)
    priority: str | None = None
    gated: bool = True  # False: counts for throughput/CPU/success, not latency
    md_seed: int | None = None  # set on /v1/md ops


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    preset: str
    kind: str  # "predict" or "md"
    ops_per_block: int
    server_args: tuple[str, ...] = ()
    client_id: str | None = None

    @property
    def number(self) -> int:
        return list(WORKLOADS).index(self.name)


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="predict_lone",
            why="one 45-atom molecule per call, no repeats: batcher wait, HTTP and client "
            "dominate, the forward is a small share",
            preset="tiny",
            kind="predict",
            ops_per_block=130,
        ),
        Workload(
            name="predict_bulk",
            why="16 molecules+crystals per call, 4 from a hot set: the planned forward "
            "dominates, with graph build, JSON, hashing, collate and cache hits beside it",
            preset="base",
            kind="predict",
            ops_per_block=15,
        ),
        Workload(
            name="md_stream",
            why="streamed Langevin MD on a 64-atom triclinic cell: a service session that "
            "pays the flush tick once per step, plus skin lists and NDJSON streaming",
            preset="tiny",
            kind="md",
            ops_per_block=1,
        ),
        Workload(
            name="predict_routed",
            why="lone calls plus bulk-lane calls through --replicas 1 with a client id: "
            "the only path across router, replica supervisor, lanes and admission",
            preset="tiny",
            kind="predict",
            ops_per_block=100,
            server_args=("--replicas", "1"),
            client_id="bench",
        ),
    )
}


# ----------------------------------------------------------------------
# base structures
# ----------------------------------------------------------------------
def edge_count(structure: StructurePayload) -> int:
    edge_index, _ = build_edges(
        structure.positions, DEFAULT_CUTOFF, structure.cell, structure.pbc, None
    )
    return int(edge_index.shape[1])


def steady_molecule(rng: np.random.Generator, num_heavy: int) -> StructurePayload:
    """The candidate molecule nearest the typical atom and edge count of its size."""
    atoms, edges = TYPICAL_SIZE[num_heavy]
    best, best_gap = None, None
    for _ in range(CANDIDATES):
        numbers, positions = random_molecule(rng, MOLECULE_ELEMENTS, num_heavy)
        candidate = StructurePayload(atomic_numbers=numbers, positions=positions)
        gap = abs(len(numbers) - atoms) / atoms + abs(edge_count(candidate) - edges) / edges
        if best_gap is None or gap < best_gap:
            best, best_gap = candidate, gap
    return best


def crystal(
    rng: np.random.Generator, kind: int, strain: float = CRYSTAL_STRAIN
) -> StructurePayload:
    prototype, species, lattice, repeat = CRYSTALS[kind % len(CRYSTALS)]
    numbers, positions, cell = bulk_crystal(rng, prototype, species, lattice, repeat, strain=strain)
    return StructurePayload(
        atomic_numbers=numbers, positions=positions, cell=cell, pbc=(True, True, True)
    )


def _single(structure: StructurePayload, **labels) -> Op:
    return Op(structures=(structure,), verbatim=(False,), **labels)


def _lone_ops(rng: np.random.Generator, count: int) -> list[Op]:
    pool = [steady_molecule(rng, LONE_HEAVY) for _ in range(LONE_POOL)]
    return [_single(pool[index % LONE_POOL]) for index in range(count)]


def _bulk_ops(rng: np.random.Generator, count: int) -> list[Op]:
    """Calls of 6 crystals, then 6 molecules by rising size, with 4 hot ones between.

    The order fixes how the batcher splits every call, whatever the seed:
    the crystals (264 atoms) and the five smaller molecules (about 210)
    fill the first 512-atom micro-batch with some 40 atoms to spare, and
    the largest molecule always flushes alone on the tick.
    """
    molecules = {
        size: [steady_molecule(rng, size) for _ in range(BULK_VARIANTS)]
        for size in BULK_MOLECULE_SIZES
    }
    crystals = [crystal(rng, kind) for kind in range(len(CRYSTALS))]
    hot = bulk_hot_set(rng)
    ops = []
    for index in range(count):
        fresh = crystals + [molecules[size][index % BULK_VARIANTS] for size in BULK_MOLECULE_SIZES]
        picks = rng.choice(len(hot), size=BULK_HOT_PER_CALL, replace=False)
        structures, verbatim = [], []
        for slot in range(BULK_CALL):
            if slot in BULK_HOT_SLOTS:
                structures.append(hot[int(picks[BULK_HOT_SLOTS.index(slot)])])
            else:
                structures.append(fresh.pop(0))
            verbatim.append(slot in BULK_HOT_SLOTS)
        ops.append(Op(structures=tuple(structures), verbatim=tuple(verbatim)))
    return ops


def bulk_hot_set(rng: np.random.Generator) -> list[StructurePayload]:
    """The 64 structures ``predict_bulk`` re-sends verbatim (cache hits)."""
    hot = []
    for index in range(BULK_HOT_SET // 2):
        size = BULK_MOLECULE_SIZES[index % len(BULK_MOLECULE_SIZES)]
        numbers, positions = random_molecule(rng, MOLECULE_ELEMENTS, size)
        hot.append(StructurePayload(atomic_numbers=numbers, positions=positions))
        hot.append(crystal(rng, index))
    return hot


def _routed_ops(rng: np.random.Generator, count: int) -> list[Op]:
    pool = [steady_molecule(rng, LONE_HEAVY) for _ in range(LONE_POOL)]
    ops = []
    for index in range(count):
        if index % ROUTED_BULK_EVERY == ROUTED_BULK_EVERY - 1:
            members = tuple(pool[(index + k) % LONE_POOL] for k in range(ROUTED_BULK_CALL))
            ops.append(
                Op(
                    structures=members,
                    verbatim=(False,) * ROUTED_BULK_CALL,
                    priority="bulk",
                    gated=False,
                )
            )
        else:
            ops.append(_single(pool[index % LONE_POOL]))
    return ops


def _md_ops(rng: np.random.Generator, count: int) -> list[Op]:
    # Unstrained: the shear below puts shells all along the cutoff, where a
    # strain would turn the seed into a different edge count.
    base = crystal(rng, 1, strain=0.0)  # 64-atom rocksalt
    cell = base.cell @ MD_SHEAR
    sheared = StructurePayload(
        atomic_numbers=base.atomic_numbers,
        positions=base.positions @ MD_SHEAR,
        cell=cell,
        pbc=base.pbc,
    )
    return [_single(sheared, md_seed=0) for _ in range(count)]


_BUILDERS = {
    "predict_lone": _lone_ops,
    "predict_bulk": _bulk_ops,
    "md_stream": _md_ops,
    "predict_routed": _routed_ops,
}


def base_ops(workload: Workload, seed: int) -> list[Op]:
    """The workload's block, before any replay moves it; a pure function of ``seed``."""
    rng = np.random.default_rng([seed, workload.number, 0])
    return _BUILDERS[workload.name](rng, workload.ops_per_block)


def hot_structures(ops: list[Op]) -> list[StructurePayload]:
    """Structures to send once before measuring so later sends are cache hits."""
    seen, hot = set(), []
    for op in ops:
        for structure, verbatim in zip(op.structures, op.verbatim):
            if verbatim and id(structure) not in seen:
                seen.add(id(structure))
                hot.append(structure)
    return hot


# ----------------------------------------------------------------------
# replays
# ----------------------------------------------------------------------
def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    rotation, upper = np.linalg.qr(rng.normal(size=(3, 3)))
    rotation = rotation * np.sign(np.diag(upper))  # make the factorisation unique
    if np.linalg.det(rotation) < 0:
        rotation[:, 0] = -rotation[:, 0]
    return rotation


def moved(structure: StructurePayload, rng: np.random.Generator) -> StructurePayload:
    """Rigidly rotate a molecule about its centroid, or translate a periodic cell."""
    positions = np.asarray(structure.positions, dtype=np.float64)
    if structure.cell is None:
        centre = positions.mean(axis=0)
        positions = (positions - centre) @ _random_rotation(rng).T + centre
    else:
        positions = positions + rng.uniform(size=3) @ np.asarray(structure.cell)
    return StructurePayload(
        atomic_numbers=structure.atomic_numbers,
        positions=positions,
        cell=structure.cell,
        pbc=structure.pbc,
    )


def replay(workload: Workload, ops: list[Op], seed: int, index: int) -> list[Op]:
    """Replay ``index`` of the base block: same work, fresh coordinates.

    MD ops also take ``index`` as their thermostat seed, so every block
    integrates a different (but equally long) trajectory.
    """
    rng = np.random.default_rng([seed, workload.number, 1 + index])
    replayed = []
    for op in ops:
        structures = tuple(
            structure if verbatim else moved(structure, rng)
            for structure, verbatim in zip(op.structures, op.verbatim)
        )
        replayed.append(
            Op(
                structures=structures,
                verbatim=op.verbatim,
                priority=op.priority,
                gated=op.gated,
                md_seed=None if op.md_seed is None else index,
            )
        )
    return replayed


# ----------------------------------------------------------------------
# wire form and plan coverage
# ----------------------------------------------------------------------
def wire_request(workload: Workload, op: Op):
    """The typed request ``Client`` builds for ``op`` (same fields, same order)."""
    if workload.kind == "md":
        return MDRequest(
            structure=op.structures[0],
            client_id=workload.client_id,
            priority=op.priority,
            seed=op.md_seed,
            step_offset=0,
            **MD_SETTINGS,
        )
    return PredictRequest(
        structures=list(op.structures), client_id=workload.client_id, priority=op.priority
    )


def wire_bytes(workload: Workload, op: Op) -> bytes:
    return json.dumps(wire_request(workload, op).to_json_dict()).encode("utf-8")


def plan_cover(ops: list[Op]) -> list[Op]:
    """The first op of each plan bucket the block touches.

    A call's structures are keyed as one batch, which is exact for
    single-structure calls; a multi-structure call may be split by the
    batcher into more buckets than its key says, all compiled by that
    same call.
    """
    cover, seen = [], set()
    for op in ops:
        graphs = [structure.to_graph(DEFAULT_CUTOFF) for structure in op.structures]
        key = plan_key(collate(graphs))[:3]
        if key not in seen:
            seen.add(key)
            cover.append(op)
    return cover
