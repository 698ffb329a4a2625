"""Traced execution plans: bit-exact replay, bucketing, invalidation.

The plan subsystem's contract is absolute: a replayed forward returns
the *same bits* the op-by-op ``no_grad`` path returns, for every shape
bucket and every batch in a bucket — or the compiler refuses and the
model falls back to the unplanned path.
"""

import re
import sys
import threading
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.graph.batch import collate
from repro.models import HydraModel, ModelConfig
from repro.tensor import allocator, kernels
from repro.tensor.core import function_nodes_created
from repro.tensor.plan import PlanTraceError, bucket, compile_plan, plan_inputs, plan_key
from tests.helpers import count_calls, make_molecule_graphs, make_periodic_graphs
from tests.reference import composed_ops

CONFIG = ModelConfig(hidden_dim=16, num_layers=2)
TINY = ModelConfig(hidden_dim=8, num_layers=2)


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

    @pytest.mark.parametrize("backend", [kernels.BACKEND])
    def test_backends_replay_bit_exact(self, backend):
        model = fresh_model()
        batch = collate(make_molecule_graphs(3, seed=2))
        with kernels.use_backend(backend):
            unplanned = model.serve(batch, plan=False)
            model.serve(batch, plan=True)
            replayed = model.serve(batch, plan=True)
        assert_same_outputs(unplanned, replayed)

    def test_substituted_kernel_runs_in_replay(self, monkeypatch):
        """A replay calls each op's ``infer``, substitutes included."""
        model = fresh_model()
        batch = collate(make_molecule_graphs(3, seed=2))
        reference = model.serve(batch, plan=False)
        calls = count_calls(monkeypatch, kernels.EdgeMessages, "infer")
        unplanned = model.serve(batch, plan=False)
        model.serve(batch, plan=True)
        before = calls["infer"]
        replayed = model.serve(batch, plan=True)
        assert calls["infer"] > before
        assert_same_outputs(unplanned, replayed)
        assert_same_outputs(reference, replayed)

    def test_attention_and_layernorm_variants_replay(self):
        config = ModelConfig(hidden_dim=16, num_layers=2, attention=True, layer_norm=True)
        model = fresh_model(config, seed=3)
        batch = collate(make_molecule_graphs(2, seed=3))
        unplanned = model.serve(batch, plan=False)
        model.serve(batch, plan=True)
        assert_same_outputs(unplanned, model.serve(batch, plan=True))

    def test_composed_primitive_ops_replay(self):
        model = fresh_model()
        batch = collate(make_molecule_graphs(2, seed=4))
        with composed_ops():
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
        assert key == (1024, 1024, 4)
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

    def test_replayed_outputs_are_owned(self):
        """A later replay must not mutate results already handed out."""
        model = fresh_model()
        first = collate(make_molecule_graphs(3, seed=0))
        second = collate(make_molecule_graphs(3, seed=7))
        with allocator.use_pool(allocator.BufferPool()):
            model.serve(first, plan=True)
            result = model.serve(first, plan=True)
            energy, forces = result["energy"].copy(), result["forces"].copy()
            model.serve(second, plan=True)  # recycles the pooled replay scratch
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
    def test_plan_labels_are_op_names(self):
        model = fresh_model()
        batch = collate(make_molecule_graphs(2, seed=0))
        plan, _ = compile_plan(model, batch)
        labels = plan.labels()
        assert {"EdgeMessages", "EdgeCoordWeights", "SegmentSum", "MulSegmentSum"} <= set(labels)
        assert all(label.isidentifier() for label in labels)

    def test_warm_replay_takes_all_scratch_from_the_active_pool(self):
        model = fresh_model()
        batch = collate(make_molecule_graphs(3, seed=0))
        pool = allocator.BufferPool()
        with allocator.use_pool(pool):
            plan, _ = compile_plan(model, batch)
            inputs, dims = plan_inputs(model, batch)
            plan.replay(inputs, dims)  # the first replay warms the pool
            hits, misses = pool.stats.hits, pool.stats.misses
            plan.replay(inputs, dims)
        assert pool.stats.misses == misses
        assert pool.stats.hits > hits

    def test_liveness_dels_recycle_scratch_within_one_replay(self):
        """One replay on a fresh pool hands out fewer distinct buffers
        (one per miss) than it makes acquires: dead values go idle.  So
        a deeper model needs no more distinct buffers than a shallow one.
        """
        batch = collate(make_molecule_graphs(2, seed=0))
        distinct = []
        for layers in (3, 6):
            model = fresh_model(ModelConfig(hidden_dim=16, num_layers=layers))
            plan, _ = compile_plan(model, batch)
            inputs, dims = plan_inputs(model, batch)
            pool = allocator.BufferPool()
            with allocator.use_pool(pool):
                plan.replay(inputs, dims)
            assert pool.stats.misses < pool.stats.hits  # most acquires recycle
            distinct.append(pool.stats.misses)
        assert distinct[0] == distinct[1]

    def test_source_dels_each_non_output_value_once_after_its_last_read(self):
        model = fresh_model()
        batch = collate(make_molecule_graphs(2, seed=0))
        plan, _ = compile_plan(model, batch)
        lines = plan.source.splitlines()
        deleted: dict[str, int] = {}
        mentioned: dict[str, int] = {}
        for number, line in enumerate(lines):
            names = re.findall(r"\bv\d+\b", line)
            if line.strip().startswith("del "):
                for name in names:
                    assert name not in deleted, f"{name} deleted twice"
                    deleted[name] = number
            else:
                for name in names:
                    mentioned[name] = number
        outputs = {f"v{slot}" for slot in plan.output_slots.values()}
        assert set(deleted) == {f"v{slot}" for slot in range(plan.num_slots)} - outputs
        for name, number in deleted.items():
            assert mentioned[name] < number, f"{name} read after its del"
            # Right after the last read: only other dels in between.
            between = lines[mentioned[name] + 1 : number]
            assert all(line.strip().startswith("del ") for line in between), name

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

    def test_parallel_delegation_branch_flip_stays_bit_exact(self, monkeypatch):
        """Regression: a frozen kernel may take a different branch on two
        batches of the same bucket and change its scratch-acquire count
        mid-plan.  A shape-keyed refcount pool has no schedule to diverge
        from, so outputs stay bit-identical to the unplanned path
        whichever batch compiled the plan.
        """
        first = collate(make_molecule_graphs(3, seed=0))
        second = collate(make_molecule_graphs(3, seed=7))
        assert plan_key(first) == plan_key(second)
        low, high = sorted((first.num_edges, second.num_edges))
        assert low < high  # need the edge counts to straddle the floor
        floor = (low + high + 1) // 2  # low < floor <= high
        linear = kernels.FusedLinear.infer

        def row_floor_linear(x, weight, bias=None):
            """``linear``, staged through one extra pooled buffer at ``floor``
            rows or more: two scratch acquires instead of one, the same
            bits either way."""
            out = linear(x, weight, bias)
            if x.shape[0] < floor:
                return out
            staged = allocator.pool_empty(out.shape, out.dtype)
            np.copyto(staged, out)
            return staged

        monkeypatch.setattr(kernels.FusedLinear, "infer", row_floor_linear)
        for order in ((first, second), (second, first)):
            model = fresh_model()
            with allocator.use_pool(allocator.BufferPool()):
                for batch in order:
                    unplanned = model.serve(batch, plan=False)
                    model.serve(batch, plan=True)
                    replayed = model.serve(batch, plan=True)
                    assert_same_outputs(unplanned, replayed)
            assert model.plans.stats.compiled == 1  # one plan, both branches

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


class TestSameBucketProperty:
    @given(seeds=st.lists(st.integers(0, 10_000), min_size=3, max_size=4, unique=True))
    @settings(max_examples=20, deadline=None)
    def test_planned_matches_unplanned_whatever_compiled_the_bucket(self, seeds):
        """Random molecule batches of one bucket: the first compiles, the
        rest replay, all bit-identical to the unplanned path — also when
        two threads replay the plan at once on one shared pool."""
        batches = [collate(make_molecule_graphs(3, seed=seed)) for seed in seeds]
        keys = [plan_key(batch) for batch in batches]
        key, count = Counter(keys).most_common(1)[0]
        assume(count >= 2)
        same = [batch for batch, k in zip(batches, keys) if k == key]
        model = fresh_model(TINY)
        expected = [model.serve(batch, plan=False) for batch in same]
        pool = allocator.BufferPool()
        with allocator.use_pool(pool):
            for batch, want in zip(same, expected):
                assert_same_outputs(want, model.serve(batch, plan=True))
        assert model.plans.stats.compiled == 1

        barrier = threading.Barrier(2)
        errors: list[Exception] = []

        def replay_all(shift: int) -> None:
            try:
                barrier.wait(10.0)
                with allocator.use_pool(pool):
                    for step in range(3 * len(same)):
                        index = (step + shift) % len(same)
                        assert_same_outputs(expected[index], model.serve(same[index], plan=True))
            except Exception as error:  # noqa: BLE001 - reported on the test thread
                errors.append(error)

        threads = [threading.Thread(target=replay_all, args=(shift,)) for shift in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two replays finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert model.plans.stats.compiled == 1
