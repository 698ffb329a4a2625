"""Canonical structure hashing for the serving result cache.

Two requests carrying the same atomistic structure must map to the same
cache key, so the hash covers exactly the model inputs — atomic numbers,
positions, connectivity, periodic shifts, cell, pbc flags — and nothing
else.  Labels (energy/forces) are *outputs*; including them would split
identical inference requests into distinct keys whenever one client
happens to attach reference labels.

Positions are hashed as their raw bytes, unrounded: serving traffic
that resubmits a structure resubmits the same bytes, and two geometries
that differ anywhere (consecutive MD steps, say) never share a key.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.graph.atoms import AtomGraph


def _digest_array(hasher: "hashlib._Hash", array: np.ndarray) -> None:
    """Feed an array into the hash in a layout-independent way."""
    contiguous = np.ascontiguousarray(array)
    hasher.update(str(contiguous.dtype).encode())
    hasher.update(np.asarray(contiguous.shape, dtype=np.int64).tobytes())
    hasher.update(contiguous.tobytes())


def structure_hash(graph: AtomGraph) -> str:
    """Return a hex digest identifying ``graph``'s model inputs."""
    hasher = hashlib.sha256()
    _digest_array(hasher, graph.atomic_numbers)
    _digest_array(hasher, graph.positions)
    _digest_array(hasher, graph.edge_index)
    _digest_array(hasher, graph.edge_shift)
    if graph.cell is not None:
        _digest_array(hasher, np.asarray(graph.cell, dtype=np.float64))
    hasher.update(bytes(int(flag) for flag in graph.pbc))
    return hasher.hexdigest()
