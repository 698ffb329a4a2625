"""Skin neighbor-list correctness: incremental must equal from-scratch.

The contract under test is bit-identity: at every trajectory step the
:class:`SkinNeighborList`'s re-filtered candidate edges, in canonical
order, must equal ``canonicalize_edges(*build_edges(...))`` exactly —
same indices, same float32 shift bits.  Anything weaker would let the
incremental serving path drift from the from-scratch one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.radius import (
    SkinNeighborList,
    build_edges,
    canonicalize_edges,
    periodic_radius_graph,
)

#: A deliberately skewed triclinic cell — face heights differ per axis,
#: so the periodic image enumeration is exercised asymmetrically.
TRICLINIC = np.array(
    [
        [6.2, 0.0, 0.0],
        [1.9, 5.7, 0.0],
        [-1.1, 0.8, 5.3],
    ]
)


def random_walk(positions: np.ndarray, steps: int, scale: float, seed: int):
    """MD-like displacement stream: small correlated random moves."""
    rng = np.random.default_rng(seed)
    current = positions.copy()
    for _ in range(steps):
        current = current + rng.normal(0.0, scale, size=positions.shape)
        yield current


def reference_edges(positions, cutoff, cell=None, pbc=(False, False, False)):
    return canonicalize_edges(*build_edges(positions, cutoff, cell, pbc))


def assert_bit_identical(actual, expected):
    actual_index, actual_shift = actual
    expected_index, expected_shift = expected
    assert np.array_equal(actual_index, expected_index)
    assert actual_shift.dtype == expected_shift.dtype
    assert np.array_equal(actual_shift, expected_shift)


class TestIncrementalEqualsFromScratch:
    def test_triclinic_pbc_trajectory(self):
        """Every step of a periodic random walk matches a fresh build exactly."""
        rng = np.random.default_rng(7)
        positions = rng.uniform(0.0, 5.0, size=(24, 3))
        pbc = (True, True, True)
        nl = SkinNeighborList(cutoff=3.5, skin=0.4)
        for current in random_walk(positions, steps=40, scale=0.01, seed=11):
            incremental = nl.update(current, TRICLINIC, pbc)
            assert_bit_identical(
                incremental, reference_edges(current, 3.5, TRICLINIC, pbc)
            )
        assert nl.rebuilds >= 1
        assert nl.reuses > nl.rebuilds  # the walk is small; reuse dominates

    def test_matches_periodic_radius_graph_directly(self):
        """The reference path is the real periodic search, not a stand-in."""
        rng = np.random.default_rng(3)
        positions = rng.uniform(0.0, 5.0, size=(16, 3))
        pbc = (True, True, True)
        nl = SkinNeighborList(cutoff=3.0, skin=0.3)
        incremental = nl.update(positions, TRICLINIC, pbc)
        expected = canonicalize_edges(
            *periodic_radius_graph(positions, TRICLINIC, pbc, 3.0)
        )
        assert_bit_identical(incremental, expected)

    def test_open_boundary_trajectory(self):
        rng = np.random.default_rng(5)
        positions = rng.uniform(0.0, 6.0, size=(20, 3))
        nl = SkinNeighborList(cutoff=4.0, skin=0.5)
        for current in random_walk(positions, steps=30, scale=0.015, seed=13):
            assert_bit_identical(
                nl.update(current), reference_edges(current, 4.0)
            )
        assert nl.reuses > 0

    def test_mixed_pbc_axes(self):
        """Slab-style (True, True, False) periodicity also round-trips."""
        rng = np.random.default_rng(9)
        positions = rng.uniform(0.0, 5.0, size=(18, 3))
        pbc = (True, True, False)
        nl = SkinNeighborList(cutoff=3.2, skin=0.35)
        for current in random_walk(positions, steps=15, scale=0.012, seed=17):
            assert_bit_identical(
                nl.update(current, TRICLINIC, pbc),
                reference_edges(current, 3.2, TRICLINIC, pbc),
            )

    def test_max_neighbors_trim_matches(self):
        rng = np.random.default_rng(21)
        positions = rng.uniform(0.0, 4.0, size=(20, 3))
        pbc = (True, True, True)
        nl = SkinNeighborList(cutoff=3.5, skin=0.4, max_neighbors=6)
        for current in random_walk(positions, steps=10, scale=0.01, seed=23):
            expected = canonicalize_edges(*build_edges(current, 3.5, TRICLINIC, pbc))
            from repro.graph.radius import trim_max_neighbors

            expected = trim_max_neighbors(current, *expected, max_neighbors=6)
            assert_bit_identical(nl.update(current, TRICLINIC, pbc), expected)


class TestRebuildPolicy:
    def test_small_steps_reuse(self):
        rng = np.random.default_rng(1)
        positions = rng.uniform(0.0, 5.0, size=(12, 3))
        nl = SkinNeighborList(cutoff=3.0, skin=0.4)
        nl.update(positions)
        nl.update(positions + 0.01)  # well inside skin/2
        assert (nl.rebuilds, nl.reuses) == (1, 1)

    def test_displacement_past_skin_bound_forces_rebuild(self):
        """One atom moving >= skin/2 from the reference invalidates the cache."""
        rng = np.random.default_rng(2)
        positions = rng.uniform(0.0, 5.0, size=(12, 3))
        nl = SkinNeighborList(cutoff=3.0, skin=0.4)
        nl.update(positions)
        moved = positions.copy()
        moved[0, 0] += 0.25  # past skin / 2 = 0.2: 2 * disp >= skin, must rebuild
        nl.update(moved)
        assert (nl.rebuilds, nl.reuses) == (2, 0)
        # Displacement is measured against the *reference* positions, so a
        # slow drift eventually rebuilds even though per-step moves are tiny.
        drifting = moved.copy()
        for _ in range(30):
            drifting = drifting + 0.02
            nl.update(drifting)
        assert nl.rebuilds > 2

    def test_cell_change_invalidates(self):
        rng = np.random.default_rng(4)
        positions = rng.uniform(0.0, 5.0, size=(10, 3))
        pbc = (True, True, True)
        nl = SkinNeighborList(cutoff=3.0, skin=0.4)
        nl.update(positions, TRICLINIC, pbc)
        strained = TRICLINIC * 1.01
        edges = nl.update(positions, strained, pbc)
        assert (nl.rebuilds, nl.reuses) == (2, 0)
        assert_bit_identical(edges, reference_edges(positions, 3.0, strained, pbc))

    def test_pbc_change_invalidates(self):
        rng = np.random.default_rng(6)
        positions = rng.uniform(0.0, 5.0, size=(10, 3))
        nl = SkinNeighborList(cutoff=3.0, skin=0.4)
        nl.update(positions, TRICLINIC, (True, True, True))
        edges = nl.update(positions, TRICLINIC, (True, False, False))
        assert (nl.rebuilds, nl.reuses) == (2, 0)
        assert_bit_identical(
            edges, reference_edges(positions, 3.0, TRICLINIC, (True, False, False))
        )

    def test_atom_count_change_invalidates(self):
        rng = np.random.default_rng(8)
        positions = rng.uniform(0.0, 5.0, size=(10, 3))
        nl = SkinNeighborList(cutoff=3.0, skin=0.4)
        nl.update(positions)
        smaller = positions[:7]
        edges = nl.update(smaller)
        assert (nl.rebuilds, nl.reuses) == (2, 0)
        assert_bit_identical(edges, reference_edges(smaller, 3.0))


class TestCanonicalOrder:
    def test_total_order_is_construction_independent(self):
        """Shuffled edges canonicalize back to the same arrays."""
        rng = np.random.default_rng(10)
        positions = rng.uniform(0.0, 5.0, size=(14, 3))
        edge_index, edge_shift = build_edges(
            positions, 3.5, TRICLINIC, (True, True, True)
        )
        canon = canonicalize_edges(edge_index, edge_shift)
        perm = rng.permutation(edge_index.shape[1])
        shuffled = canonicalize_edges(edge_index[:, perm], edge_shift[perm])
        assert_bit_identical(shuffled, canon)

    def test_empty_graph_passthrough(self):
        edge_index = np.zeros((2, 0), dtype=np.int64)
        edge_shift = np.zeros((0, 3), dtype=np.float32)
        out_index, out_shift = canonicalize_edges(edge_index, edge_shift)
        assert out_index.shape == (2, 0)
        assert out_shift.shape == (0, 3)

    def test_isolated_atoms_produce_empty_edges(self):
        positions = np.array([[0.0, 0.0, 0.0], [50.0, 50.0, 50.0]])
        nl = SkinNeighborList(cutoff=2.0, skin=0.3)
        edge_index, edge_shift = nl.update(positions)
        assert edge_index.shape == (2, 0)
        assert edge_shift.shape == (0, 3)


class TestSortsOnce:
    """Candidates are sorted at the rebuild; ``update()`` never re-sorts."""

    def test_candidates_are_canonical_after_a_rebuild(self):
        rng = np.random.default_rng(12)
        positions = rng.uniform(0.0, 5.0, size=(20, 3))
        nl = SkinNeighborList(cutoff=3.5, skin=0.4)
        nl.update(positions, TRICLINIC, (True, True, True))
        candidates = (np.stack([nl._cand_src, nl._cand_dst]), nl._cand_shift32)
        assert candidates[0].shape[1] > 0
        assert_bit_identical(candidates, canonicalize_edges(*candidates))

    def test_update_never_calls_canonicalize_edges(self, monkeypatch):
        import repro.graph.radius as radius

        def refuse(*args, **kwargs):
            raise AssertionError("canonicalize_edges called on the skin-list path")

        monkeypatch.setattr(radius, "canonicalize_edges", refuse)
        pbc = (True, True, True)

        rng = np.random.default_rng(14)
        positions = rng.uniform(0.0, 5.0, size=(24, 3))
        nl = SkinNeighborList(cutoff=3.5, skin=0.4)
        for current in random_walk(positions, steps=20, scale=0.01, seed=15):
            assert_bit_identical(
                nl.update(current, TRICLINIC, pbc), reference_edges(current, 3.5, TRICLINIC, pbc)
            )
        assert nl.reuses > nl.rebuilds

        from repro.graph.radius import trim_max_neighbors

        capped = SkinNeighborList(cutoff=3.5, skin=0.4, max_neighbors=6)
        for current in random_walk(positions, steps=8, scale=0.01, seed=16):
            expected = trim_max_neighbors(
                current, *reference_edges(current, 3.5, TRICLINIC, pbc), max_neighbors=6
            )
            assert_bit_identical(capped.update(current, TRICLINIC, pbc), expected)
        assert capped.reuses > 0

        isolated = np.array([[0.0, 0.0, 0.0], [50.0, 50.0, 50.0]])
        empty = SkinNeighborList(cutoff=2.0, skin=0.3)
        for current in (isolated, isolated + 0.01):
            assert_bit_identical(empty.update(current), reference_edges(current, 2.0))
        assert (empty.rebuilds, empty.reuses) == (1, 1)


class TestValidation:
    @pytest.mark.parametrize("cutoff,skin", [(0.0, 0.3), (-1.0, 0.3), (3.0, 0.0), (3.0, -0.1)])
    def test_rejects_non_positive_parameters(self, cutoff, skin):
        with pytest.raises(ValueError):
            SkinNeighborList(cutoff=cutoff, skin=skin)
