"""Kernel substitution, buffer pool, and the inference fast path."""

import numpy as np
import pytest

from repro.graph.atoms import AtomGraph
from repro.graph.batch import collate
from repro.models import HydraModel, ModelConfig
from repro.tensor import kernels
from repro.tensor.allocator import BufferPool, active_pool, pool_empty, pool_zeros, use_pool
from repro.tensor.core import Tensor, function_nodes_created, no_grad
from tests.helpers import count_calls, make_molecule_graphs, make_periodic_graphs
from tests.reference import composed_ops


class TestBufferPool:
    def test_reuses_dead_buffers(self):
        pool = BufferPool()
        first = pool.acquire((8, 4), np.float32)
        first_id = id(first)
        del first
        second = pool.acquire((8, 4), np.float32)
        assert id(second) == first_id
        assert pool.stats.hits == 1
        assert pool.stats.misses == 1

    def test_never_reuses_live_buffers(self):
        pool = BufferPool()
        live = pool.acquire((4,), np.float32)
        other = pool.acquire((4,), np.float32)
        assert other is not live
        assert pool.stats.misses == 2

    def test_views_keep_base_buffers_busy(self):
        pool = BufferPool()
        base = pool.acquire((6, 2), np.float32)
        view = base[1:3]
        del base
        # The view still references the storage, so it must not be reused.
        replacement = pool.acquire((6, 2), np.float32)
        assert replacement.base is None
        assert not np.shares_memory(replacement, view)

    def test_bucket_cap_bounds_retention(self):
        pool = BufferPool(max_per_bucket=2)
        kept = [pool.acquire((3,), np.float32) for _ in range(5)]
        assert pool.reserved_bytes() == 2 * 3 * 4
        del kept

    def test_byte_budget_evicts_stale_idle_shapes(self):
        # 100-float budget: two dead 40-float shapes, then a 60-float
        # acquire must evict idle buffers rather than blow the budget.
        pool = BufferPool(max_total_bytes=400)
        stale = pool.acquire((40,), np.float32)
        del stale
        stale2 = pool.acquire((35,), np.float32)
        del stale2
        big = pool.acquire((60,), np.float32)
        assert pool.reserved_bytes() <= 400
        assert pool.stats.evictions >= 1
        del big

    def test_byte_budget_never_blocks_allocation(self):
        # Busy buffers cannot be evicted; acquire still hands out arrays,
        # it just stops retaining them.
        pool = BufferPool(max_total_bytes=100)
        live = [pool.acquire((20,), np.float32) for _ in range(5)]
        assert len({id(a) for a in live}) == 5
        assert pool.reserved_bytes() <= 100

    def test_pool_helpers_respect_active_pool(self):
        assert active_pool() is None
        plain = pool_zeros((2, 2), np.float32)
        assert (plain == 0).all()
        with use_pool() as pool:
            assert active_pool() is pool
            scratch = pool_empty((5, 5), np.float32)
            scratch.fill(7.0)
            zeroed = pool_zeros((5, 5), np.float32)
            assert (zeroed == 0).all()
        assert active_pool() is None

    def test_training_steps_recycle_buffers(self):
        batch = collate(make_molecule_graphs(3, seed=11))
        model = HydraModel(ModelConfig(hidden_dim=16, num_layers=2), seed=0)
        target_e = np.zeros((batch.num_graphs, 1), dtype=np.float32)
        target_f = np.zeros((batch.num_nodes, 3), dtype=np.float32)

        def step():
            model.zero_grad()
            loss = model.loss(model(batch), target_e, target_f)
            loss.backward()
            return loss.item()

        pool = BufferPool()
        with use_pool(pool):
            first = step()
            after_first = pool.stats.misses
            second = step()
        assert np.isfinite(first) and np.isfinite(second)
        # Steady state: the second step reuses the first step's buffers.
        assert pool.stats.hits > 0
        assert pool.stats.misses <= after_first + 2

    def test_pooled_training_matches_unpooled(self):
        batch = collate(make_molecule_graphs(3, seed=12))
        target_e = np.zeros((batch.num_graphs, 1), dtype=np.float32)
        target_f = np.zeros((batch.num_nodes, 3), dtype=np.float32)

        def losses(pooled: bool) -> list[float]:
            from contextlib import nullcontext

            model = HydraModel(ModelConfig(hidden_dim=16, num_layers=2), seed=3)
            from repro.optim import Adam

            optimizer = Adam(model.parameters(), lr=1e-3)
            out = []
            with use_pool() if pooled else nullcontext():
                for _ in range(3):
                    model.zero_grad()
                    loss = model.loss(model(batch), target_e, target_f)
                    loss.backward()
                    optimizer.step()
                    out.append(loss.item())
            return out

        assert losses(True) == pytest.approx(losses(False), rel=1e-6)


class TestInferenceFastPath:
    def test_no_function_nodes_under_no_grad(self):
        batch = collate(make_molecule_graphs(3, seed=13))
        model = HydraModel(ModelConfig(hidden_dim=16, num_layers=2), seed=0)
        model.predict(batch)  # warm any lazy setup
        before = function_nodes_created()
        with no_grad():
            predictions = model(batch)
        assert function_nodes_created() == before
        assert predictions["energy"].requires_grad is False
        assert predictions["energy"]._ctx is None

    def test_predict_uses_fast_path(self):
        batch = collate(make_molecule_graphs(2, seed=14))
        model = HydraModel(ModelConfig(hidden_dim=8, num_layers=1), seed=0)
        before = function_nodes_created()
        model.predict(batch)
        assert function_nodes_created() == before

    def test_grad_mode_still_builds_nodes(self):
        batch = collate(make_molecule_graphs(2, seed=15))
        model = HydraModel(ModelConfig(hidden_dim=8, num_layers=1), seed=0)
        before = function_nodes_created()
        model(batch)
        assert function_nodes_created() > before

    def test_fast_path_matches_grad_path(self):
        batch = collate(make_molecule_graphs(3, seed=16))
        model = HydraModel(ModelConfig(hidden_dim=16, num_layers=2), seed=0)
        trained = model(batch)
        inferred = model.predict(batch)
        for key in ("energy", "forces"):
            np.testing.assert_allclose(
                trained[key].numpy(), inferred[key].numpy(), atol=1e-6
            )

    def test_structure_without_edges(self):
        """An isolated atom has no neighbors: every edge kernel sees zero rows."""
        atom = AtomGraph(
            atomic_numbers=[8], positions=[[0.0, 0.0, 0.0]],
            edge_index=np.zeros((2, 0)), edge_shift=np.zeros((0, 3)),
        )
        batch = collate([atom])
        model = HydraModel(ModelConfig(hidden_dim=16, num_layers=2), seed=0)
        unplanned = model.predict(batch, plan=False)
        with composed_ops():
            reference = model.predict(batch, plan=False)
        model.predict(batch, plan=True)
        replayed = model.predict(batch, plan=True)
        assert np.isfinite(unplanned["energy"].numpy()).all()
        np.testing.assert_array_equal(unplanned["forces"].numpy(), np.zeros((1, 3)))
        np.testing.assert_allclose(
            unplanned["energy"].numpy(), reference["energy"].numpy(), atol=1e-6
        )
        for key in ("energy", "forces"):
            np.testing.assert_array_equal(replayed[key].numpy(), unplanned[key].numpy())


class TestSubstitutedKernels:
    """Each op has one implementation, called directly: a substitute
    patched over it runs in forward, backward and the no-grad fast path,
    with the implementation's exact bits."""

    def _batch(self):
        return collate(make_molecule_graphs(4, seed=5) + make_periodic_graphs(2, seed=5))

    def test_training_losses_match(self, monkeypatch):
        from repro.optim import Adam

        batch = self._batch()
        target_e = np.zeros((batch.num_graphs, 1), dtype=np.float32)
        target_f = np.zeros((batch.num_nodes, 3), dtype=np.float32)

        def losses() -> list[float]:
            model = HydraModel(ModelConfig(hidden_dim=16, num_layers=2), seed=3)
            optimizer = Adam(model.parameters(), lr=1e-3)
            out = []
            for _ in range(3):
                model.zero_grad()
                loss = model.loss(model(batch), target_e, target_f)
                loss.backward()
                optimizer.step()
                out.append(loss.item())
            return out

        reference = losses()
        calls = count_calls(monkeypatch, kernels.EdgeMessageLinearKernel, "forward", "backward")
        assert losses() == reference
        assert calls["forward"] > 0
        assert calls["backward"] > 0

    def test_predict_matches(self, monkeypatch):
        batch = self._batch()
        model = HydraModel(ModelConfig(hidden_dim=16, num_layers=2), seed=0)
        reference = model.predict(batch, plan=False)
        calls = count_calls(monkeypatch, kernels.LinearKernel, "forward", "backward")
        predicted = model.predict(batch, plan=False)
        for key in ("energy", "forces"):
            np.testing.assert_array_equal(predicted[key].numpy(), reference[key].numpy())
        assert calls["forward"] > 0
        assert calls["backward"] == 0

    def test_no_function_nodes_with_a_substituted_kernel(self, monkeypatch):
        batch = self._batch()
        model = HydraModel(ModelConfig(hidden_dim=16, num_layers=2), seed=0)
        calls = count_calls(monkeypatch, kernels.SiLUKernel, "forward")
        model.predict(batch)  # warm any lazy setup
        before = function_nodes_created()
        with no_grad():
            predictions = model(batch)
        assert function_nodes_created() == before
        assert predictions["energy"].requires_grad is False
        assert predictions["energy"]._ctx is None
        assert calls["forward"] > 0

    def test_grad_tensors_flow_through_substituted_kernels(self, monkeypatch):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((64, 8)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((8, 4)).astype(np.float32), requires_grad=True)

        def run():
            x.zero_grad()
            w.zero_grad()
            kernels.silu(kernels.linear(x, w)).sum().backward()
            return np.array(x.grad), np.array(w.grad)

        gx_reference, gw_reference = run()
        linear_calls = count_calls(monkeypatch, kernels.LinearKernel, "backward")
        silu_calls = count_calls(monkeypatch, kernels.SiLUKernel, "backward")
        gx, gw = run()
        np.testing.assert_array_equal(gx, gx_reference)
        np.testing.assert_array_equal(gw, gw_reference)
        assert linear_calls["backward"] == 1
        assert silu_calls["backward"] == 1


def test_use_backend_accepts_only_numpy():
    with kernels.use_backend(kernels.BACKEND):
        pass
    for name in ("cuda", "triton", "NUMPY", ""):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            with kernels.use_backend(name):
                pytest.fail("the block ran on an unknown backend")
