"""Structure-hash semantics: inputs in, labels out."""

import numpy as np

from repro.serving import structure_hash
from tests.helpers import make_molecule_graphs, make_periodic_graphs


def test_identical_structures_collide():
    a = make_molecule_graphs(1, seed=3)[0]
    b = make_molecule_graphs(1, seed=3)[0]
    assert structure_hash(a) == structure_hash(b)


def test_different_structures_differ():
    a, b = make_molecule_graphs(2, seed=3)
    assert structure_hash(a) != structure_hash(b)


def test_positions_matter():
    """Keys are never rounded: a move as small as one MD step, or float
    noise, gives a new key, so the cache cannot answer for another geometry."""
    a = make_molecule_graphs(1, seed=0)[0]
    for offset in (0.5, 1e-3, 1e-9):
        b = make_molecule_graphs(1, seed=0)[0]
        b.positions = b.positions + offset
        assert structure_hash(a) != structure_hash(b)


def test_labels_do_not_matter():
    a = make_molecule_graphs(1, seed=0)[0]
    b = make_molecule_graphs(1, seed=0)[0]
    b.energy = a.energy + 123.0
    b.forces = b.forces + 1.0
    assert structure_hash(a) == structure_hash(b)


def test_periodic_cell_matters():
    a = make_periodic_graphs(1, seed=0)[0]
    b = make_periodic_graphs(1, seed=0)[0]
    assert structure_hash(a) == structure_hash(b)
    b.cell = np.asarray(b.cell) * 1.01
    assert structure_hash(a) != structure_hash(b)

