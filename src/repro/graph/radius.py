"""Radial-cutoff neighbor search, with and without periodic boundaries.

Molecular sources (ANI1x, QM7-X analogues) use the open-boundary path;
slab and bulk sources (OC20/OC22/MPTrj analogues) use the periodic path,
which enumerates the integer image shifts that can reach within the
cutoff and queries a KD-tree over the replicated positions.
"""

from __future__ import annotations

from itertools import chain

import numpy as np
from scipy.spatial import cKDTree

from repro.tensor.core import DEFAULT_DTYPE


def radius_graph(positions: np.ndarray, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Directed edges between atoms closer than ``cutoff`` (open boundaries).

    Returns ``(edge_index, edge_shift)`` with all-zero shifts.  Shifts are
    ``DEFAULT_DTYPE`` (float32), matching the periodic path and the
    engine's batch arrays.
    """
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[0]
    if n == 0:
        return np.zeros((2, 0), dtype=np.int64), np.zeros((0, 3), dtype=DEFAULT_DTYPE)
    tree = cKDTree(positions)
    pairs = tree.query_pairs(r=cutoff, output_type="ndarray")
    if pairs.size == 0:
        return np.zeros((2, 0), dtype=np.int64), np.zeros((0, 3), dtype=DEFAULT_DTYPE)
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    edge_index = np.stack([src, dst]).astype(np.int64)
    return edge_index, np.zeros((edge_index.shape[1], 3), dtype=DEFAULT_DTYPE)


#: Memoized image ranges per (cell bytes, pbc, cutoff).  The HTTP server
#: rebuilds edges per request, and screening traffic reuses a handful of
#: cells across thousands of structures — the determinant/cross-product
#: face geometry is identical every time.  Bounded by wholesale clearing
#: (the entries are tiny; churn past the bound means keys barely repeat
#: anyway).  Callers must not mutate the cached range arrays.
_SHIFT_RANGES_CACHE: dict[tuple[bytes, tuple[bool, bool, bool], float], list[np.ndarray]] = {}
_SHIFT_RANGES_CACHE_MAX = 256


def _shift_ranges(cell: np.ndarray, pbc: tuple[bool, bool, bool], cutoff: float) -> list[np.ndarray]:
    """Integer image ranges per axis that can bring atoms within ``cutoff``.

    Uses the perpendicular distance between opposite cell faces, which is
    exact for arbitrary (including triclinic) cells.  Memoized on the
    cell's bytes + pbc + cutoff: repeated ``build_edges`` calls with the
    same cell (the serving hot path) skip the face-geometry recompute.
    """
    key = (cell.tobytes(), tuple(bool(flag) for flag in pbc), float(cutoff))
    cached = _SHIFT_RANGES_CACHE.get(key)
    if cached is not None:
        return cached
    ranges = []
    # Face distances: volume / area of the face spanned by the other two vectors.
    volume = abs(np.linalg.det(cell))
    for axis in range(3):
        if not pbc[axis]:
            ranges.append(np.array([0]))
            continue
        others = [cell[(axis + 1) % 3], cell[(axis + 2) % 3]]
        face_area = np.linalg.norm(np.cross(others[0], others[1]))
        height = volume / face_area
        reach = int(np.ceil(cutoff / height))
        ranges.append(np.arange(-reach, reach + 1))
    if len(_SHIFT_RANGES_CACHE) >= _SHIFT_RANGES_CACHE_MAX:
        _SHIFT_RANGES_CACHE.clear()
    _SHIFT_RANGES_CACHE[key] = ranges
    return ranges


def _periodic_neighbors(
    positions: np.ndarray,
    cell: np.ndarray,
    pbc: tuple[bool, bool, bool],
    cutoff: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Periodic pairs within ``cutoff`` as ``(src, dst, shift_cart64)``.

    The shared search behind :func:`periodic_radius_graph` (which casts
    the shifts to ``DEFAULT_DTYPE``) and :class:`SkinNeighborList` (which
    keeps the float64 rows so its distance re-filter reproduces the
    KD-tree's arithmetic exactly).
    """
    n = positions.shape[0]
    ranges = _shift_ranges(cell, pbc, cutoff)
    shifts_int = np.array(np.meshgrid(*ranges, indexing="ij")).reshape(3, -1).T
    shifts_cart = shifts_int @ cell  # (s, 3)

    # Replicate source atoms across the candidate images.
    num_images = shifts_cart.shape[0]
    replicated = (positions[None, :, :] + shifts_cart[:, None, :]).reshape(-1, 3)
    source_atom = np.tile(np.arange(n), num_images)
    source_shift = np.repeat(np.arange(num_images), n)

    tree = cKDTree(replicated)
    # For every destination atom, find replicated sources within the cutoff.
    neighbor_lists = tree.query_ball_point(positions, r=cutoff)

    # One flattening pass instead of a per-destination Python loop: the
    # ball-point hit lists stream straight into a single index array
    # (no per-list ndarray + concatenate), destination ids repeat by
    # per-atom hit counts, and the self-edge mask is built array-wise.
    # Order matches the loop version exactly (destinations ascending,
    # KD-tree order within).
    counts = np.fromiter(map(len, neighbor_lists), dtype=np.int64, count=n)
    total = int(counts.sum())
    if total == 0:
        return (
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros((0, 3), dtype=np.float64),
        )
    hits = np.fromiter(chain.from_iterable(neighbor_lists), dtype=np.int64, count=total)
    dst_atoms = np.repeat(np.arange(n, dtype=np.int64), counts)
    src_atoms = source_atom[hits]
    images = source_shift[hits]
    # Drop the self edge at zero shift (an atom is not its own neighbor).
    zero_image = int(np.flatnonzero((shifts_int == 0).all(axis=1))[0])
    keep = ~((src_atoms == dst_atoms) & (images == zero_image))
    src_atoms, dst_atoms, images = src_atoms[keep], dst_atoms[keep], images[keep]
    return src_atoms, dst_atoms, shifts_cart[images]


def periodic_radius_graph(
    positions: np.ndarray,
    cell: np.ndarray,
    pbc: tuple[bool, bool, bool],
    cutoff: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Directed edges under periodic boundary conditions.

    Each atom is connected to every periodic image of every atom (including
    its own images, but not itself at zero shift) within ``cutoff``.
    Returns ``(edge_index, edge_shift)`` where ``edge_shift`` is the
    Cartesian shift applied to the *source* atom, in ``DEFAULT_DTYPE``
    (float32) like the open-boundary path -- the search itself runs in
    float64.
    """
    positions = np.asarray(positions, dtype=np.float64)
    cell = np.asarray(cell, dtype=np.float64).reshape(3, 3)
    if positions.shape[0] == 0:
        return np.zeros((2, 0), dtype=np.int64), np.zeros((0, 3), dtype=DEFAULT_DTYPE)
    src_atoms, dst_atoms, shift64 = _periodic_neighbors(positions, cell, pbc, cutoff)
    if src_atoms.size == 0:
        return np.zeros((2, 0), dtype=np.int64), np.zeros((0, 3), dtype=DEFAULT_DTYPE)
    edge_index = np.stack([src_atoms, dst_atoms])
    return edge_index, shift64.astype(DEFAULT_DTYPE)


def trim_max_neighbors(
    positions: np.ndarray,
    edge_index: np.ndarray,
    edge_shift: np.ndarray,
    max_neighbors: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Keep only the ``max_neighbors`` nearest sources per destination atom.

    This is the standard OCP-style graph construction (radius cutoff plus
    a per-atom neighbor cap) that keeps dense periodic structures from
    exploding the edge count.  Trimming is by distance rank, ties broken
    by original order.
    """
    if edge_index.shape[1] == 0:
        return edge_index, edge_shift
    src, dst = edge_index
    vectors = positions[dst] - (positions[src] + edge_shift)
    distances = np.sqrt((vectors * vectors).sum(axis=1))
    order = np.lexsort((distances, dst))
    sorted_dst = dst[order]
    group_starts = np.flatnonzero(np.diff(sorted_dst, prepend=-1))
    group_sizes = np.diff(np.append(group_starts, sorted_dst.shape[0]))
    rank = np.arange(sorted_dst.shape[0]) - np.repeat(group_starts, group_sizes)
    keep = np.sort(order[rank < max_neighbors])
    return edge_index[:, keep], edge_shift[keep]


def build_edges(
    positions: np.ndarray,
    cutoff: float,
    cell: np.ndarray | None = None,
    pbc: tuple[bool, bool, bool] = (False, False, False),
    max_neighbors: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Dispatch to the open-boundary or periodic neighbor search.

    ``max_neighbors`` optionally caps in-edges per atom (OCP convention);
    note the capped graph is no longer direction-symmetric, which is fine
    for model input but not for pair-potential evaluation.
    """
    if cell is None or not any(pbc):
        edge_index, edge_shift = radius_graph(positions, cutoff)
    else:
        edge_index, edge_shift = periodic_radius_graph(positions, cell, pbc, cutoff)
    if max_neighbors is not None:
        positions = np.asarray(positions, dtype=np.float64)
        edge_index, edge_shift = trim_max_neighbors(
            positions, edge_index, edge_shift, max_neighbors
        )
    return edge_index, edge_shift


def canonicalize_edges(
    edge_index: np.ndarray, edge_shift: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sort edges into the canonical total order ``(dst, src, shift)``.

    Neighbor searches are order-unstable: the KD-tree's traversal order
    depends on the tree it built, so the *same* edge set comes back in
    different sequences from different constructions.  Trajectory serving
    needs a construction-independent order — it is what lets the
    incremental :class:`SkinNeighborList` path be compared bit-for-bit
    against a from-scratch :func:`build_edges`, and what makes structure
    hashes and traced-plan inputs deterministic along a trajectory.
    ``(src, dst, image)`` triples are unique, so the order is total, and
    any subsequence of a canonical edge list is canonical too: the skin
    list sorts its candidates once and keeps that order through its
    per-step distance filter.
    """
    if edge_index.shape[1] == 0:
        return edge_index, edge_shift
    order = _canonical_order(edge_index[0], edge_index[1], edge_shift)
    return edge_index[:, order], edge_shift[order]


def _canonical_order(src: np.ndarray, dst: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """The permutation that sorts edges by ``(dst, src, shift)``."""
    return np.lexsort((shift[:, 2], shift[:, 1], shift[:, 0], src, dst))


class SkinNeighborList:
    """Verlet-style skin list: build once at ``cutoff + skin``, re-filter after.

    The trajectory-serving workload (relaxation, MD) presents the same
    structure over and over with tiny displacements.  Rebuilding the
    radius graph from scratch each step repays the KD-tree construction
    for information that barely changed, so this list:

    1. **builds** the candidate graph at ``cutoff + skin`` (a superset of
       every edge that can become relevant while atoms move less than
       ``skin / 2``), remembering the positions it was built at, and
    2. **reuses** it on later calls while ``2 * max_displacement < skin``
       holds, re-filtering candidates by exact distance at the current
       positions — a handful of vector ops instead of a tree build.

    The re-filter reproduces the KD-tree's arithmetic exactly (same
    float64 replicated offsets, same squared-distance comparison), and
    the candidates are sorted into :func:`canonicalize_edges` order once,
    at the rebuild.  The filter keeps a subsequence, which stays in that
    order, so the incremental result is **bit-identical** to a
    from-scratch ``canonicalize_edges(*build_edges(...))`` at every step
    with no per-step sort — pinned by ``tests/graph/test_skin_list.py``.

    The cache invalidates itself whenever the candidate set could be
    stale: displacement past the skin bound, a different atom count, a
    changed cell, pbc flags, ``cutoff``, or ``skin``.  ``rebuilds`` and
    ``reuses`` count how the trade-off played out (surfaced in serving
    telemetry and ``/v1/stats``).
    """

    def __init__(
        self,
        cutoff: float,
        skin: float = 0.3,
        max_neighbors: int | None = None,
    ) -> None:
        if cutoff <= 0.0:
            raise ValueError(f"cutoff must be positive, got {cutoff}")
        if skin <= 0.0:
            raise ValueError(f"skin must be positive, got {skin}")
        self.cutoff = float(cutoff)
        self.skin = float(skin)
        self.max_neighbors = max_neighbors
        self.rebuilds = 0
        self.reuses = 0
        self._ref_positions: np.ndarray | None = None
        self._ref_key: tuple | None = None  # (n, cell bytes, pbc, cutoff, skin)
        self._cand_src: np.ndarray | None = None
        self._cand_dst: np.ndarray | None = None
        self._cand_shift64: np.ndarray | None = None  # float64, for exact re-filter
        self._cand_shift32: np.ndarray | None = None  # DEFAULT_DTYPE, for output

    def _state_key(self, n: int, cell: np.ndarray | None, pbc: tuple) -> tuple:
        cell_bytes = None if cell is None else cell.tobytes()
        return (n, cell_bytes, tuple(bool(flag) for flag in pbc), self.cutoff, self.skin)

    def _needs_rebuild(self, positions: np.ndarray, key: tuple) -> bool:
        if self._ref_positions is None or key != self._ref_key:
            return True
        displacement = positions - self._ref_positions
        max_disp_sq = float((displacement * displacement).sum(axis=1).max())
        return 4.0 * max_disp_sq >= self.skin * self.skin  # 2 * max_disp >= skin

    def _rebuild(self, positions: np.ndarray, cell: np.ndarray | None, pbc: tuple) -> None:
        radius = self.cutoff + self.skin
        if cell is None or not any(pbc):
            edge_index, _ = radius_graph(positions, radius)
            src, dst = edge_index
            shift64 = np.zeros((src.shape[0], 3), dtype=np.float64)
        else:
            src, dst, shift64 = _periodic_neighbors(positions, cell, pbc, radius)
        # Canonical order by the float32 shifts the output carries, as
        # canonicalize_edges sorts a from-scratch build.
        shift32 = shift64.astype(DEFAULT_DTYPE)
        order = _canonical_order(src, dst, shift32)
        self._cand_src, self._cand_dst = src[order], dst[order]
        self._cand_shift64, self._cand_shift32 = shift64[order], shift32[order]
        self._ref_positions = positions.copy()
        self.rebuilds += 1

    def update(
        self,
        positions: np.ndarray,
        cell: np.ndarray | None = None,
        pbc: tuple[bool, bool, bool] = (False, False, False),
    ) -> tuple[np.ndarray, np.ndarray]:
        """Edges within ``cutoff`` at ``positions``, in canonical order.

        Same ``(edge_index, edge_shift)`` contract as :func:`build_edges`
        (``DEFAULT_DTYPE`` shifts, optional ``max_neighbors`` trim), but
        the order is canonical — deterministic across the incremental
        and from-scratch construction paths.
        """
        positions = np.asarray(positions, dtype=np.float64)
        if cell is not None:
            cell = np.asarray(cell, dtype=np.float64).reshape(3, 3)
        key = self._state_key(positions.shape[0], cell, pbc)
        if self._needs_rebuild(positions, key):
            self._rebuild(positions, cell, pbc)
            self._ref_key = key
        else:
            self.reuses += 1
        src, dst, shift64 = self._cand_src, self._cand_dst, self._cand_shift64
        if src.size == 0:
            edge_index = np.zeros((2, 0), dtype=np.int64)
            edge_shift = np.zeros((0, 3), dtype=DEFAULT_DTYPE)
        else:
            # Exact KD-tree arithmetic: the replicated source the tree
            # stored is positions[src] + shift, and membership compares
            # squared distance against cutoff**2 (scipy's <= convention).
            delta = positions[dst] - (positions[src] + shift64)
            within = (delta * delta).sum(axis=1) <= self.cutoff * self.cutoff
            edge_index = np.stack([src[within], dst[within]])
            edge_shift = self._cand_shift32[within]
        if self.max_neighbors is not None:
            edge_index, edge_shift = trim_max_neighbors(
                positions, edge_index, edge_shift, self.max_neighbors
            )
        return edge_index, edge_shift
