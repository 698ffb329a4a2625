"""Hypothesis property-based tests on core invariants.

These cover the algebraic guts of the engine and substrates with
generated inputs: broadcasting gradients, segment-sum linearity, batch
collation invariants, power-law recovery, and cost-model monotonicity.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.distributed.cost_model import CommCostModel
from repro.graph.features import cosine_cutoff, gaussian_rbf
from repro.scaling.powerlaw import fit_power_law
from repro.tensor import Tensor, gather, segment_sum

_floats = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)


def _array(shape):
    return arrays(np.float64, shape, elements=_floats)


class TestEngineProperties:
    @given(_array((4, 3)), _array((4, 3)))
    @settings(max_examples=25, deadline=None)
    def test_add_gradient_is_ones(self, a, b):
        ta = Tensor(a, requires_grad=True, dtype=np.float64)
        tb = Tensor(b, requires_grad=True, dtype=np.float64)
        (ta + tb).sum().backward()
        assert np.allclose(ta.grad, 1.0)
        assert np.allclose(tb.grad, 1.0)

    @given(_array((3, 4)))
    @settings(max_examples=25, deadline=None)
    def test_mul_gradient_is_partner(self, a):
        partner = np.full((3, 4), 2.5)
        t = Tensor(a, requires_grad=True, dtype=np.float64)
        (t * Tensor(partner, dtype=np.float64)).sum().backward()
        assert np.allclose(t.grad, partner)

    @given(_array((5, 2)), st.lists(st.integers(0, 2), min_size=5, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_segment_sum_preserves_total(self, data, segments):
        """Sum over segments equals sum over rows (mass conservation)."""
        out = segment_sum(Tensor(data, dtype=np.float64), np.array(segments), 3)
        assert np.allclose(out.numpy().sum(axis=0), data.sum(axis=0), atol=1e-9)

    @given(_array((6, 3)))
    @settings(max_examples=25, deadline=None)
    def test_gather_then_segment_sum_identity(self, data):
        """Scatter of a gather with identity indices reproduces the input."""
        idx = np.arange(6)
        out = segment_sum(gather(Tensor(data, dtype=np.float64), idx), idx, 6)
        assert np.allclose(out.numpy(), data, atol=1e-12)

    @given(_array((2, 5)), st.integers(0, 1))
    @settings(max_examples=25, deadline=None)
    def test_sum_axis_matches_numpy(self, data, axis):
        out = Tensor(data, dtype=np.float64).sum(axis=axis)
        assert np.allclose(out.numpy(), data.sum(axis=axis), atol=1e-12)

    @given(_array((4, 4)))
    @settings(max_examples=25, deadline=None)
    def test_double_backward_accumulates_exactly(self, data):
        t = Tensor(data, requires_grad=True, dtype=np.float64)
        (t * 3.0).sum().backward()
        first = t.grad.copy()
        (t * 3.0).sum().backward()
        assert np.allclose(t.grad, 2 * first)


class TestFeatureProperties:
    @given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_cutoff_envelope_bounded(self, distances):
        env = cosine_cutoff(np.array(distances), cutoff=5.0)
        assert ((env >= 0.0) & (env <= 1.0)).all()
        assert (env[np.array(distances) > 5.0] == 0.0).all()

    @given(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_rbf_rows_bounded_and_finite(self, distances):
        rbf = gaussian_rbf(np.array(distances), cutoff=5.0, num_basis=8)
        assert np.isfinite(rbf).all()
        assert ((rbf >= 0.0) & (rbf <= 1.0)).all()


class TestScalingProperties:
    @given(
        st.floats(0.05, 0.8),
        st.floats(0.01, 1.0),
        st.floats(0.5, 50.0),
    )
    @example(alpha=0.75, floor=1.0, scale=0.5)  # floor-dominated: a local search misses it
    @settings(max_examples=20, deadline=None)
    def test_power_law_recovery(self, alpha, floor, scale):
        x = np.logspace(3, 8, 16)
        y = scale * x**-alpha + floor
        fit = fit_power_law(x, y)
        assert np.abs(fit.predict(x) - y).max() < 0.05 * (y.max() - y.min() + 1e-9)


class TestCostModelProperties:
    @given(st.integers(2, 64), st.floats(1e3, 1e10))
    @settings(max_examples=30, deadline=None)
    def test_allreduce_decomposition(self, ranks, nbytes):
        cost = CommCostModel(ranks)
        total = cost.all_reduce(nbytes)
        assert total > 0
        assert total == cost.reduce_scatter(nbytes) + cost.all_gather(nbytes)

    @given(st.integers(2, 64))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_bytes(self, ranks):
        cost = CommCostModel(ranks)
        times = [cost.all_reduce(n) for n in (1e3, 1e6, 1e9)]
        assert times == sorted(times)


class TestBatchProperties:
    @given(st.integers(1, 6), st.integers(0, 3))
    @settings(max_examples=10, deadline=None)
    def test_collate_preserves_totals(self, count, seed):
        from repro.graph.batch import collate
        from tests.helpers import make_molecule_graphs

        graphs = make_molecule_graphs(count, seed=seed)
        batch = collate(graphs)
        assert batch.num_nodes == sum(g.n_atoms for g in graphs)
        assert batch.num_edges == sum(g.n_edges for g in graphs)
        assert np.allclose(
            sorted(batch.forces.sum(axis=1)),
            sorted(np.concatenate([g.forces for g in graphs]).sum(axis=1).astype(np.float32)),
            atol=1e-4,
        )

    @given(st.integers(1, 5))
    @settings(max_examples=10, deadline=None)
    def test_node_graph_is_sorted_and_complete(self, count):
        from repro.graph.batch import collate
        from tests.helpers import make_molecule_graphs

        batch = collate(make_molecule_graphs(count, seed=1))
        assert (np.diff(batch.node_graph) >= 0).all()
        assert set(batch.node_graph) == set(range(count))
