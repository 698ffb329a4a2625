"""Traced execution plans: bit-exact replay, bucketing, invalidation.

The plan subsystem's contract is absolute: a replayed forward returns
the *same bits* the op-by-op ``no_grad`` path returns, for every
backend, every shape bucket, and every batch in a bucket — or the
compiler refuses and the model falls back to the unplanned path.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.graph.batch import collate
from repro.models import HydraModel, ModelConfig
from repro.tensor import allocator, kernels
from repro.tensor.allocator import SequentialArena
from repro.tensor.core import function_nodes_created
from repro.tensor.plan import PlanTraceError, bucket, compile_plan, plan_inputs, plan_key
from tests.helpers import (
    delegating_backend,
    make_molecule_graphs,
    make_periodic_graphs,
    registered_backend,
)

CONFIG = ModelConfig(hidden_dim=16, num_layers=2)


def fresh_model(config: ModelConfig = CONFIG, seed: int = 0) -> HydraModel:
    return HydraModel(config, seed=seed)


def assert_same_outputs(a: dict, b: dict) -> None:
    np.testing.assert_array_equal(a["energy"], b["energy"])
    np.testing.assert_array_equal(a["forces"], b["forces"])


class TestBitExactReplay:
    def test_compile_then_replay_match_unplanned(self):
        model = fresh_model()
        batch = collate(make_molecule_graphs(3, seed=0))
        unplanned = model.serve(batch, plan=False)
        compiled = model.serve(batch, plan=True)  # first call: compile
        replayed = model.serve(batch, plan=True)  # second call: replay
        assert_same_outputs(unplanned, compiled)
        assert_same_outputs(unplanned, replayed)
        assert model.plans.stats.compiled == 1
        assert model.plans.stats.hits == 1

    def test_replay_on_different_batch_in_same_bucket(self):
        """The plan must not bake any batch's data: same bucket, new atoms."""
        model = fresh_model()
        first = collate(make_molecule_graphs(3, seed=0))
        second = collate(make_molecule_graphs(3, seed=7))
        assert plan_key(first) == plan_key(second)  # the premise of the test
        model.serve(first, plan=True)
        unplanned = model.serve(second, plan=False)
        replayed = model.serve(second, plan=True)
        assert model.plans.stats.hits >= 1
        assert_same_outputs(unplanned, replayed)

    def test_periodic_structures_replay_bit_exact(self):
        model = fresh_model()
        batch = collate(make_periodic_graphs(2, seed=1))
        unplanned = model.serve(batch, plan=False)
        model.serve(batch, plan=True)
        assert_same_outputs(unplanned, model.serve(batch, plan=True))

    @pytest.mark.parametrize("backend", kernels.available_backends())
    def test_backends_replay_bit_exact(self, backend):
        model = fresh_model()
        batch = collate(make_molecule_graphs(3, seed=2))
        with kernels.use_backend(backend):
            unplanned = model.serve(batch, plan=False)
            model.serve(batch, plan=True)
            replayed = model.serve(batch, plan=True)
        assert_same_outputs(unplanned, replayed)

    def test_registered_backend_replays_bit_exact(self):
        """A plan freezes the active backend's kernels and replays them."""
        model = fresh_model()
        batch = collate(make_molecule_graphs(3, seed=2))
        reference = model.serve(batch, plan=False)
        with delegating_backend("delegate") as calls, kernels.use_backend("delegate"):
            unplanned = model.serve(batch, plan=False)
            model.serve(batch, plan=True)
            before = calls[("edge_message_linear", "forward")]
            replayed = model.serve(batch, plan=True)
            assert calls[("edge_message_linear", "forward")] > before
        assert_same_outputs(unplanned, replayed)
        assert_same_outputs(reference, replayed)

    def test_attention_and_layernorm_variants_replay(self):
        config = ModelConfig(hidden_dim=16, num_layers=2, attention=True, layer_norm=True)
        model = fresh_model(config, seed=3)
        batch = collate(make_molecule_graphs(2, seed=3))
        unplanned = model.serve(batch, plan=False)
        model.serve(batch, plan=True)
        assert_same_outputs(unplanned, model.serve(batch, plan=True))

    def test_fusion_disabled_reference_path_replays(self):
        model = fresh_model()
        batch = collate(make_molecule_graphs(2, seed=4))
        with kernels.fusion(False):
            unplanned = model.serve(batch, plan=False)
            model.serve(batch, plan=True)
            replayed = model.serve(batch, plan=True)
        assert_same_outputs(unplanned, replayed)

    def test_predict_wraps_replayed_arrays(self):
        model = fresh_model()
        batch = collate(make_molecule_graphs(2, seed=5))
        expected = model.predict(batch, plan=False)
        model.predict(batch, plan=True)
        planned = model.predict(batch, plan=True)
        np.testing.assert_array_equal(planned["energy"].numpy(), expected["energy"].numpy())
        np.testing.assert_array_equal(planned["forces"].numpy(), expected["forces"].numpy())

    def test_replay_creates_no_function_nodes(self):
        model = fresh_model()
        batch = collate(make_molecule_graphs(2, seed=6))
        model.serve(batch, plan=True)  # compile outside the measurement
        before = function_nodes_created()
        model.serve(batch, plan=True)
        assert function_nodes_created() == before


class TestBucketing:
    def test_bucket_rounds_up_to_power_of_two(self):
        assert bucket(0) == 0
        assert bucket(1) == 1
        assert bucket(2) == 2
        assert bucket(3) == 4
        assert bucket(1000) == 1024
        assert bucket(1024) == 1024
        assert bucket(1025) == 2048

    def test_same_bucket_shares_key(self):
        def sizes(nodes, edges, graphs):
            return SimpleNamespace(num_nodes=nodes, num_edges=edges, num_graphs=graphs)

        key = plan_key(sizes(600, 1000, 3))
        assert key == (1024, 1024, 4, "numpy", True)
        assert plan_key(sizes(1024, 513, 4)) == key
        assert plan_key(sizes(1025, 1000, 3)) != key  # different nodes bucket
        assert plan_key(sizes(600, 1000, 5)) != key  # different graphs bucket

    def test_bucket_miss_recompiles(self):
        model = fresh_model()
        small = collate(make_molecule_graphs(1, seed=0))
        large = collate(make_molecule_graphs(6, seed=0))
        assert plan_key(small) != plan_key(large)
        model.serve(small, plan=True)
        model.serve(large, plan=True)
        assert model.plans.stats.compiled == 2
        assert len(model.plans) == 2

    def test_key_tracks_backend_and_fusion(self):
        batch = collate(make_molecule_graphs(2, seed=0))
        base = plan_key(batch)
        numpy_linear = kernels.get_kernel("linear", backend="numpy")
        with registered_backend("test-backend", linear=numpy_linear):
            with kernels.use_backend("test-backend"):
                assert plan_key(batch) != base
        with kernels.fusion(False):
            assert plan_key(batch) != base

    def test_replayed_outputs_are_owned(self):
        """A later replay must not mutate results already handed out."""
        model = fresh_model()
        first = collate(make_molecule_graphs(3, seed=0))
        second = collate(make_molecule_graphs(3, seed=7))
        model.serve(first, plan=True)
        result = model.serve(first, plan=True)
        energy, forces = result["energy"].copy(), result["forces"].copy()
        model.serve(second, plan=True)  # same bucket: same arena slots
        np.testing.assert_array_equal(result["energy"], energy)
        np.testing.assert_array_equal(result["forces"], forces)


class TestInvalidation:
    def test_in_place_parameter_updates_flow_into_plans(self):
        """Optimizer-style ``data -=`` updates need no recompilation."""
        model = fresh_model()
        batch = collate(make_molecule_graphs(2, seed=0))
        model.serve(batch, plan=True)
        for parameter in model.parameters():
            parameter.data *= 1.01
        unplanned = model.serve(batch, plan=False)
        assert_same_outputs(unplanned, model.serve(batch, plan=True))
        assert model.plans.stats.compiled == 1  # no recompile happened

    def test_rebound_parameter_storage_invalidates(self):
        model = fresh_model()
        batch = collate(make_molecule_graphs(2, seed=0))
        model.serve(batch, plan=True)
        parameter = model.parameters()[0]
        parameter.data = (parameter.data * 2.0).copy()
        unplanned = model.serve(batch, plan=False)
        assert_same_outputs(unplanned, model.serve(batch, plan=True))
        assert model.plans.stats.compiled == 2  # the rebind forced a recompile

    def test_invalidate_clears_plans(self):
        model = fresh_model()
        batch = collate(make_molecule_graphs(2, seed=0))
        model.serve(batch, plan=True)
        assert len(model.plans) == 1
        model.plans.invalidate()
        assert len(model.plans) == 0


class TestFallback:
    def test_checkpointed_model_falls_back_to_unplanned(self):
        config = ModelConfig(hidden_dim=16, num_layers=2, checkpoint_activations=True)
        model = fresh_model(config)
        batch = collate(make_molecule_graphs(2, seed=0))
        unplanned = model.serve(batch, plan=False)
        served = model.serve(batch, plan=True)
        assert_same_outputs(unplanned, served)
        assert model.plans.stats.fallbacks >= 1
        assert len(model.plans) == 0
        # The fallback is remembered: no repeated compile attempts.
        model.serve(batch, plan=True)
        assert model.plans.stats.compiled == 0

    def test_compile_refuses_checkpointing_directly(self):
        config = ModelConfig(hidden_dim=16, num_layers=2, checkpoint_activations=True)
        model = fresh_model(config)
        batch = collate(make_molecule_graphs(2, seed=0))
        with pytest.raises(PlanTraceError, match="checkpointing"):
            compile_plan(model, batch)

    def test_out_of_range_species_raise_like_embedding(self):
        model = fresh_model()
        batch = collate(make_molecule_graphs(2, seed=0))
        model.serve(batch, plan=True)
        batch.atomic_numbers[0] = model.config.vocab_size + 7
        with pytest.raises(IndexError, match="out of range"):
            model.serve(batch, plan=True)
        with pytest.raises(IndexError, match="out of range"):
            model.serve(batch, plan=False)


class TestPlanInternals:
    def test_plan_freezes_kernel_backends_into_labels(self):
        model = fresh_model()
        batch = collate(make_molecule_graphs(2, seed=0))
        plan, _ = compile_plan(model, batch)
        labels = plan.labels()
        assert any(label.startswith("EdgeMessageLinear[") for label in labels)
        assert any(label.startswith("FusedSiLU[") for label in labels)
        assert all(label.endswith("[numpy]") for label in labels if "[" in label)

    def test_arena_schedule_recycles_slots(self):
        """Liveness packing must reuse arena slots across steps."""
        model = fresh_model(ModelConfig(hidden_dim=16, num_layers=3))
        batch = collate(make_molecule_graphs(2, seed=0))
        plan, _ = compile_plan(model, batch)
        positions = sum(len(slots) for slots in plan._step_slots.values())
        assert positions > 0
        assert plan._arena_slots < positions

    def test_replay_source_is_inspectable(self):
        model = fresh_model()
        batch = collate(make_molecule_graphs(2, seed=0))
        plan, _ = compile_plan(model, batch)
        assert plan.source.startswith("def _replay(")
        assert "return {'energy': " in plan.source

    def test_unregistered_batch_shaped_constant_is_refused(self):
        """The guard that keeps batch data out of baked constants."""
        from repro.tensor.plan import PlanTracer

        tracer = PlanTracer(dims={"num_nodes": 5}, guard_dims=(5, 8), constants=[])
        rogue = np.zeros((5, 3), dtype=np.float32)

        class FakeOp:
            @staticmethod
            def infer(value):
                return value * 2.0

        with pytest.raises(PlanTraceError, match="batch-shaped"):
            tracer.record(FakeOp, (rogue,), {})

    def test_sequential_arena_off_schedule_acquires_fall_back(self):
        arena = SequentialArena()
        arena.configure({0: [0]}, 1)
        arena.begin_step(0)
        first = arena.acquire((4, 4), np.float32)
        extra = arena.acquire((2, 2), np.float32)  # beyond the step's table
        unmarked = arena.acquire((3,), np.float32)  # after an unknown step
        arena.begin_step(5)  # a step with no learned acquires
        orphan = arena.acquire((2,), np.float32)
        for array, fill in ((first, 1.0), (extra, 2.0), (unmarked, 3.0), (orphan, 4.0)):
            array[...] = fill
        assert (first == 1.0).all() and (extra == 2.0).all()
        assert (unmarked == 3.0).all() and (orphan == 4.0).all()

    def test_sequential_arena_grows_and_memoizes(self):
        arena = SequentialArena()
        arena.configure({0: [0], 2: [0]}, 1)
        arena.begin_step(0)
        a = arena.acquire((4,), np.float32)
        arena.begin_step(0)
        b = arena.acquire((4,), np.float32)
        assert b is a  # memoized view on a same-shape replay
        arena.begin_step(0)
        big = arena.acquire((64,), np.float32)  # forces a regrow
        assert big.shape == (64,)

    def test_parallel_delegation_branch_flip_stays_bit_exact(self):
        """Regression: a frozen kernel may take a different branch on two
        batches of the same bucket and change its scratch-acquire count
        mid-plan.  The step-addressed arena must contain that divergence
        — outputs stay bit-identical to the unplanned path, never
        silently wrong, whichever batch the schedule was learned on.
        """
        first = collate(make_molecule_graphs(3, seed=0))
        second = collate(make_molecule_graphs(3, seed=7))
        assert plan_key(first) == plan_key(second)
        low, high = sorted((first.num_edges, second.num_edges))
        assert low < high  # need the edge counts to straddle the floor
        floor = (low + high + 1) // 2  # low < floor <= high
        numpy_linear = kernels.get_kernel("linear", backend="numpy")

        class _RowFloorLinear:
            """numpy ``linear``, staged through one extra pooled buffer at
            ``floor`` rows or more: two scratch acquires instead of one,
            the same bits either way."""

            @staticmethod
            def forward(x, weight, bias=None):
                out = numpy_linear.forward(x, weight, bias)
                if x.shape[0] < floor:
                    return out
                staged = allocator.pool_empty(out.shape, out.dtype)
                np.copyto(staged, out)
                return staged

        with registered_backend("row-floor", linear=_RowFloorLinear):
            with kernels.use_backend("row-floor"):
                for order in ((first, second), (second, first)):
                    model = fresh_model()
                    for batch in order:
                        unplanned = model.serve(batch, plan=False)
                        model.serve(batch, plan=True)
                        replayed = model.serve(batch, plan=True)
                        assert_same_outputs(unplanned, replayed)
                    assert model.plans.stats.compiled == 1  # one schedule, both branches

    def test_plan_inputs_match_unplanned_geometry(self):
        model = fresh_model()
        batch = collate(make_molecule_graphs(2, seed=0))
        inputs, dims = plan_inputs(model, batch)
        assert dims == {"num_nodes": batch.num_nodes, "num_graphs": batch.num_graphs}
        assert inputs["rbf"].shape == (batch.num_edges, model.config.num_rbf)
        assert inputs["inv_counts"].shape == (batch.num_graphs, 1)

    def test_telemetry_counters_are_json_ready(self):
        import json

        model = fresh_model()
        batch = collate(make_molecule_graphs(2, seed=0))
        model.serve(batch, plan=True)
        model.serve(batch, plan=True)
        payload = model.plans.telemetry()
        json.dumps(payload)
        assert payload["plans_compiled"] == 1
        assert payload["plan_hits"] == 1
        assert payload["plan_misses"] == 1
        assert payload["cached_plans"] == 1
        assert 0.0 < payload["plan_hit_rate"] <= 1.0
