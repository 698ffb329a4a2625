"""Featurization: RBF expansion, cutoff envelope, species vocabulary."""

import numpy as np
import pytest

from repro.graph.features import SpeciesVocabulary, cosine_cutoff, gaussian_rbf
from repro.graph.stats import corpus_stats, degree_histogram
from tests.helpers import make_molecule_graphs


class TestGaussianRBF:
    def test_shape(self):
        out = gaussian_rbf(np.linspace(0, 5, 7), cutoff=5.0, num_basis=16)
        assert out.shape == (7, 16)

    def test_peak_at_center(self):
        centers = np.linspace(0.0, 5.0, 8)
        out = gaussian_rbf(np.array([centers[3]]), cutoff=5.0, num_basis=8)
        assert out[0].argmax() == 3
        assert out[0, 3] == pytest.approx(1.0)

    def test_distinguishes_distances(self):
        out = gaussian_rbf(np.array([1.0, 4.0]), cutoff=5.0, num_basis=8)
        assert not np.allclose(out[0], out[1])

    def test_bits_match_the_closed_form(self):
        """The in-place evaluation reproduces the one-line expression exactly."""
        distances = np.random.default_rng(0).uniform(0.0, 6.0, 500)
        centers = np.linspace(0.0, 5.0, 16)
        width = 5.0 / 15
        expected = np.exp(-0.5 * ((distances[:, None] - centers[None, :]) / width) ** 2)
        assert np.array_equal(gaussian_rbf(distances, cutoff=5.0, num_basis=16), expected)
        assert gaussian_rbf(np.zeros(0), cutoff=5.0).shape == (0, 16)


class TestCosineCutoff:
    def test_boundary_values(self):
        env = cosine_cutoff(np.array([0.0, 2.5, 5.0, 6.0]), cutoff=5.0)
        assert env[0] == pytest.approx(1.0)
        assert env[1] == pytest.approx(0.5)
        assert env[2] == pytest.approx(0.0, abs=1e-12)
        assert env[3] == 0.0

    def test_monotone_decreasing(self):
        env = cosine_cutoff(np.linspace(0, 5, 50), cutoff=5.0)
        assert (np.diff(env) <= 1e-12).all()


class TestVocabulary:
    def test_encode_passthrough(self):
        vocab = SpeciesVocabulary()
        z = np.array([1, 6, 8, 78])
        assert np.array_equal(vocab.encode(z), z)

    def test_rejects_out_of_range(self):
        vocab = SpeciesVocabulary(max_z=94)
        with pytest.raises(ValueError):
            vocab.encode(np.array([95]))
        with pytest.raises(ValueError):
            vocab.encode(np.array([0]))

    def test_size_covers_range(self):
        assert SpeciesVocabulary(max_z=94).size == 95


class TestStats:
    def test_corpus_stats_totals(self):
        graphs = make_molecule_graphs(4)
        stats = corpus_stats(graphs)
        assert stats.num_graphs == 4
        assert stats.num_nodes == sum(g.n_atoms for g in graphs)
        assert stats.nodes_per_graph == pytest.approx(stats.num_nodes / 4)
        assert stats.mean_degree > 0

    def test_degree_histogram_sums_to_nodes(self):
        graph = make_molecule_graphs(1)[0]
        histogram = degree_histogram(graph)
        assert histogram.sum() == graph.n_atoms
