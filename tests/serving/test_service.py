"""End-to-end PredictionService: parity, dedup, caching, slots."""

import dataclasses
import sys
import threading
import time

import numpy as np
import pytest

from repro.graph.batch import collate
from repro.models import HydraModel, ModelConfig
from repro.serving import PredictionService, ServeRequest, ServiceConfig
from repro.tensor import function_nodes_created, kernels
from tests.helpers import (
    GatedModel,
    count_calls,
    in_thread,
    make_molecule_graphs,
    make_periodic_graphs,
    predicted_split,
    wait_for_busy_slots,
    wait_until,
)

CONFIG = ModelConfig(hidden_dim=16, num_layers=2)


@pytest.fixture(scope="module")
def model():
    return HydraModel(CONFIG, seed=0)


@pytest.fixture(scope="module")
def graphs():
    return make_molecule_graphs(6, seed=2) + make_periodic_graphs(2, seed=2)


class _Rendezvous:
    """A model whose forwards all start together: no thread can return
    for a second batch before every free slot has been taken."""

    def __init__(self, model, parties: int) -> None:
        self._model = model
        self._barrier = threading.Barrier(parties)

    def __getattr__(self, name):
        return getattr(self._model, name)

    def serve(self, batch, plan=True):
        self._barrier.wait(timeout=10.0)
        return self._model.serve(batch, plan=plan)


class _HeldForwards:
    """A model whose first ``held`` forwards each wait for the test to release them.

    Forward ``failing`` (an index, if given) raises instead of running.
    """

    def __init__(self, model, held: int, failing: int | None = None) -> None:
        self._model = model
        self._lock = threading.Lock()
        self._count = 0
        self.failing = failing
        self.entered = [threading.Event() for _ in range(held)]
        self.release = [threading.Event() for _ in range(held)]

    def __getattr__(self, name):
        return getattr(self._model, name)

    def serve(self, batch, plan=True):
        with self._lock:
            index, self._count = self._count, self._count + 1
        if index < len(self.entered):
            self.entered[index].set()
            assert self.release[index].wait(10.0)
        if index == self.failing:
            raise RuntimeError("backend down")
        return self._model.serve(batch, plan=plan)


def _reference(model, graph):
    """Single-structure ground truth: collate-of-one on the fast path."""
    batch = collate([graph])
    out = model.serve(batch)
    return float(out["energy"][0, 0]), out["forces"]


class TestInline:
    def test_matches_single_structure_predict(self, model, graphs):
        service = PredictionService(model)
        results = service.predict_many(list(graphs))
        for graph, result in zip(graphs, results):
            energy, forces = _reference(model, graph)
            assert abs(result.energy - energy) < 1e-5
            np.testing.assert_allclose(result.forces, forces, atol=1e-5)
            assert result.n_atoms == graph.n_atoms

    def test_results_in_input_order(self, model, graphs):
        service = PredictionService(model)
        shuffled = list(reversed(graphs))
        results = service.predict_many(shuffled)
        assert [r.n_atoms for r in results] == [g.n_atoms for g in shuffled]

    def test_repeat_traffic_hits_cache(self, model, graphs):
        service = PredictionService(model)
        first = service.predict_many(list(graphs))
        assert all(not r.cached for r in first)
        second = service.predict_many(list(graphs))
        assert all(r.cached for r in second)
        assert service.cache.stats.hits == len(graphs)
        for a, b in zip(first, second):
            assert a.energy == b.energy
            np.testing.assert_array_equal(a.forces, b.forces)

    def test_duplicates_within_call_computed_once(self, model, graphs):
        service = PredictionService(model)
        results = service.predict_many([graphs[0], graphs[1], graphs[0]])
        # One micro-batch, two unique structures computed.
        assert len(service.stats.batch_records) == 1
        assert service.stats.batch_records[0].num_graphs == 2
        assert results[0].energy == results[2].energy
        np.testing.assert_array_equal(results[0].forces, results[2].forces)

    def test_no_autograd_nodes_on_serving_path(self, model, graphs):
        service = PredictionService(model)
        service.predict_many(list(graphs))  # warm any lazy setup
        before = function_nodes_created()
        service.predict_many(list(make_molecule_graphs(3, seed=9)))
        assert function_nodes_created() == before

    def test_chunking_respects_graph_budget(self, model, graphs):
        service = PredictionService(model, ServiceConfig(max_graphs=3, max_atoms=10**9))
        service.predict_many(list(graphs))
        sizes = [b.num_graphs for b in service.stats.batch_records]
        assert sum(sizes) == len(graphs)
        assert max(sizes) <= 3

    def test_chunking_respects_atom_budget(self, model, graphs):
        budget = max(g.n_atoms for g in graphs)  # every batch is small
        service = PredictionService(model, ServiceConfig(max_atoms=budget))
        service.predict_many(list(graphs))
        for record in service.stats.batch_records:
            assert record.num_atoms <= budget or record.num_graphs == 1

    def test_single_predict(self, model, graphs):
        service = PredictionService(model)
        result = service.predict(graphs[0])
        energy, _ = _reference(model, graphs[0])
        assert abs(result.energy - energy) < 1e-5

    def test_cache_disabled_recomputes(self, model, graphs):
        service = PredictionService(model, ServiceConfig(cache_capacity=0))
        service.predict_many([graphs[0]])
        service.predict_many([graphs[0]])
        assert len(service.stats.batch_records) == 2


class TestServed:
    def test_workers_match_inline(self, model, graphs):
        inline = PredictionService(model).predict_many(list(graphs))
        service = PredictionService(
            model, ServiceConfig(flush_interval_s=0.002)
        )
        with service.start(workers=2):
            served = [service.submit(g) for g in graphs]
            served = [request.wait(10.0) for request in served]
        for a, b in zip(inline, served):
            assert abs(a.energy - b.energy) < 1e-5
            np.testing.assert_allclose(a.forces, b.forces, atol=1e-5)

    def test_predict_many_routes_through_slots(self, model, graphs):
        service = PredictionService(model, ServiceConfig(flush_interval_s=0.002))
        with service:
            results = service.predict_many(list(graphs))
        assert [r.n_atoms for r in results] == [g.n_atoms for g in graphs]
        assert len(service.stats.batch_records) >= 1

    def test_stop_is_idempotent_and_drains(self, model, graphs):
        service = PredictionService(model)
        service.start(workers=1)
        # Everything submitted has been served by the time stop() returns.
        pending = [service.submit(g) for g in graphs[:3]]
        service.stop()
        service.stop()
        for request in pending:
            assert request.done()
        assert not service.running

    def test_start_twice_rejected(self, model):
        service = PredictionService(model)
        service.start()
        try:
            with pytest.raises(RuntimeError):
                service.start()
        finally:
            service.stop()

    def test_unstarted_submit_runs_on_the_calling_thread(self, model, graphs):
        request = PredictionService(model).submit(graphs[0])
        assert request.done()
        served = PredictionService(model)
        with served.start(workers=1):
            expected = served.submit(graphs[0]).wait(10.0)
        result = request.wait(timeout=0)
        assert result.energy == expected.energy  # bit-identical, no tolerance
        np.testing.assert_array_equal(result.forces, expected.forces)

    def test_no_dispatch_thread_exists(self, model, graphs, monkeypatch):
        # start(workers=N) sets a cap on concurrent forwards; it starts no
        # thread, and a lone call's forward runs on the calling thread.
        service = PredictionService(model)
        before = threading.active_count()
        service.start(workers=4)
        try:
            assert threading.active_count() == before
            serving_threads = []
            serve = model.serve

            def recorded(batch, plan=True):
                serving_threads.append(threading.get_ident())
                return serve(batch, plan=plan)

            monkeypatch.setattr(model, "serve", recorded)
            service.predict(graphs[0])
            assert serving_threads == [threading.get_ident()]
        finally:
            service.stop()
        assert threading.active_count() == before


class TestConcurrentServing:
    """No model lock: N slots must run forwards concurrently *and* exactly."""

    CONFIG = ServiceConfig(
        max_graphs=4, max_atoms=10**9, cache_capacity=0, flush_interval_s=30.0
    )

    def test_one_slot_group_bit_identical_to_inline(self, model):
        # One slot, one predict_many group: the caller takes the group in
        # exactly the chunks an unstarted service cuts (same budget rule,
        # the whole budget), so results must be *bitwise* equal, not close.
        graphs = make_molecule_graphs(12, seed=21)
        inline = PredictionService(model, self.CONFIG).predict_many(list(graphs))
        service = PredictionService(model, self.CONFIG)
        with service.start(workers=1):
            served = service.predict_many(list(graphs))
        assert [r.batch_graphs for r in served] == [4] * 12
        for a, b in zip(inline, served):
            assert a.energy == b.energy  # bit-identical, no tolerance
            np.testing.assert_array_equal(a.forces, b.forces)

    def test_workers4_share_a_group_reproducibly(self, model):
        # Four free slots share one group — the caller and a chain of
        # helpers, each started after its parent's take: the split is a
        # pure function of the group and the slot count — the same every
        # run, equal to what first_chunk_size predicts with the shared
        # atom budget — and the forwards, now differently composed than
        # inline's, agree to the benchmark's own tolerance.
        graphs = make_molecule_graphs(12, seed=21)
        chunks = predicted_split(
            [ServeRequest(graph=graph, key="") for graph in graphs],
            free=4,
            max_atoms=self.CONFIG.max_atoms,
            max_graphs=self.CONFIG.max_graphs,
        )
        assert len(chunks) == 4  # every free slot gets a share
        predicted = [len(chunk) for chunk in chunks for _ in chunk]
        inline = PredictionService(model, self.CONFIG).predict_many(list(graphs))
        for _ in range(2):
            service = PredictionService(_Rendezvous(model, parties=4), self.CONFIG)
            with service.start(workers=4):
                served = service.predict_many(list(graphs))
            assert [r.batch_graphs for r in served] == predicted
            for a, b in zip(inline, served):
                np.testing.assert_allclose(a.energy, b.energy, rtol=1e-5, atol=1e-6)
                np.testing.assert_allclose(a.forces, b.forces, rtol=1e-5, atol=1e-6)

    def test_two_slot_split_is_deterministic(self, model):
        # Back-to-back groups on two slots: every group is cut the same
        # way, the two-way split first_chunk_size predicts, because a
        # call returns only after each slot it used is free again.
        graphs = make_molecule_graphs(12, seed=24)
        config = ServiceConfig(cache_capacity=0)
        chunks = predicted_split(
            [ServeRequest(graph=graph, key="") for graph in graphs],
            free=2,
            max_atoms=config.max_atoms,
            max_graphs=config.max_graphs,
        )
        expected = sorted((len(chunk), sum(r.n_atoms for r in chunk)) for chunk in chunks)
        assert len(expected) == 2
        service = PredictionService(model, config)
        with service.start(workers=2):
            for _ in range(20):
                seen = service.summary().batches
                service.predict_many(list(graphs))
                assert service._batcher.busy == 0
                assert service.summary().batches == seen + 2
                cut = [(r.num_graphs, r.num_atoms) for r in list(service.stats.batch_records)[-2:]]
                assert sorted(cut) == expected

    def test_lone_predict_never_waits_for_a_tick(self, model):
        graphs = make_molecule_graphs(3, seed=23)
        service = PredictionService(model, ServiceConfig(flush_interval_s=30.0))
        with service.start(workers=2):
            service.predict(graphs[0])  # compile the plan bucket
            start = time.perf_counter()
            for graph in graphs[1:]:
                service.predict(graph)
            assert time.perf_counter() - start < 1.0
        reasons = service.telemetry()["batching"]["flush_reasons"]
        assert reasons == {"free_worker": 3}

    def test_no_model_lock_attribute(self, model):
        # The serialization point the thread-local engine removed must
        # not quietly come back.
        assert not hasattr(PredictionService(model), "_model_lock")

    def test_workers4_run_a_substituted_kernel(self, model, monkeypatch):
        # Worker threads call each op's ``infer``: a substitute patched
        # over it runs in their forwards too.
        graphs = make_molecule_graphs(8, seed=22)
        calls = count_calls(monkeypatch, kernels.EdgeMessages, "infer")
        config = ServiceConfig(max_graphs=4, max_atoms=10**9, cache_capacity=0, backend="numpy")
        inline = PredictionService(model, config).predict_many(list(graphs))
        service = PredictionService(model, config)
        before = calls["infer"]
        with service.start(workers=4):
            served = service.predict_many(list(graphs))
        assert calls["infer"] > before
        assert service.telemetry()["engine"]["backend"] == "numpy"
        for a, b in zip(inline, served):
            assert abs(a.energy - b.energy) < 1e-5

    def test_telemetry_reports_engine_backend(self, model):
        service = PredictionService(model, ServiceConfig(backend="numpy"))
        assert service.telemetry()["engine"] == {"backend": "numpy", "physical_units": False}

    def test_unknown_backend_rejected_at_construction(self, model):
        # numpy is the only backend: a typo'd (or retired) name fails
        # loudly instead of serving numpy under another name.
        for backend in ("paralell", "parallel", "auto"):
            with pytest.raises(ValueError, match="unknown kernel backend"):
                PredictionService(model, ServiceConfig(backend=backend))


class TestCallersShareSlots:
    """Each caller runs its batches; one held in another caller's batch is waited for."""

    CONFIG = ServiceConfig(max_atoms=10**9, cache_capacity=0)

    def test_a_request_taken_by_another_caller_is_waited_for(self, model):
        # One slot, two structures per batch.  A's first forward holds
        # [a1, a2] while B's structure queues behind a3 and B parks; when
        # the slot comes back A takes [a3, b], and B — its request in A's
        # hands — stops taking and waits for it.
        a1, a2, a3, b = make_molecule_graphs(4, seed=50)
        held = _HeldForwards(model, held=2)
        config = dataclasses.replace(self.CONFIG, max_graphs=2)
        service = PredictionService(held, config).start(workers=1)
        takes: dict[str, list] = {}
        take = service._batcher.take

        def counted_take(mine, until=None):
            batch = take(mine, until)
            takes.setdefault(threading.current_thread().name, []).append(batch)
            return batch

        service._batcher.take = counted_take
        thread_a, outcome_a = in_thread(service.predict_many, [a1, a2, a3])
        assert held.entered[0].wait(10.0)  # A runs [a1, a2]
        thread_b, outcome_b = in_thread(service.predict, b)
        wait_until(lambda: service._batcher.pending_graphs == 2)
        held.release[0].set()
        assert held.entered[1].wait(10.0)  # A runs [a3, b]
        wait_until(lambda: thread_b.name in takes)
        assert takes[thread_b.name] == [None]  # its one take: none of its own queued
        time.sleep(0.05)
        assert thread_b.is_alive() and takes[thread_b.name] == [None]  # waiting, not spinning
        held.release[1].set()
        thread_a.join(10.0)
        thread_b.join(10.0)
        assert not thread_a.is_alive() and not thread_b.is_alive()
        served = [*outcome_a["result"], outcome_b["result"]]
        # The same batches, cut by an unstarted service: bit for bit.
        inline = PredictionService(model, config).predict_many([a1, a2, a3, b])
        for result, expected in zip(served, inline):
            assert result.energy == expected.energy  # bit-identical, no tolerance
            np.testing.assert_array_equal(result.forces, expected.forces)
        assert [len(batch) for batch in takes[thread_a.name] if batch] == [2, 2]
        assert service.telemetry()["batching"]["flush_reasons"] == {"graphs_budget": 2}
        service.stop()

    def test_a_failed_batch_reaches_every_caller_in_it(self, model):
        # A's first forward holds [a1, a2]; when it finishes A takes
        # [a3, b] — one batch, two callers — and that forward fails.
        # Both calls raise it.
        a1, a2, a3, b = make_molecule_graphs(4, seed=51)
        held = _HeldForwards(model, held=1, failing=1)
        service = PredictionService(held, dataclasses.replace(self.CONFIG, max_graphs=2))
        service.start(workers=1)
        thread_a, outcome_a = in_thread(service.predict_many, [a1, a2, a3])
        assert held.entered[0].wait(10.0)
        thread_b, outcome_b = in_thread(service.predict, b)
        wait_until(lambda: service._batcher.pending_graphs == 2)
        held.release[0].set()
        thread_b.join(10.0)
        thread_a.join(10.0)
        assert not thread_a.is_alive() and not thread_b.is_alive()
        assert "backend down" in str(outcome_b.get("error"))
        assert "backend down" in str(outcome_a.get("error"))
        # Only A's first batch completed a forward, its slot came back,
        # and the service still serves on the calling thread.
        assert [r.num_graphs for r in service.stats.batch_records] == [2]
        assert service._batcher.busy == 0
        assert service.predict(b).n_atoms == b.n_atoms
        service.stop()

    @pytest.mark.parametrize("workers", [None, 2])
    def test_concurrent_callers_share_the_queue_exactly(self, model, workers):
        # More callers than cores, switching threads as often as the
        # interpreter allows, on one slot (unstarted) or two: every call
        # returns, and one structure per batch keeps every result
        # bit-identical to a lone call.
        config = dataclasses.replace(self.CONFIG, max_graphs=1)
        groups = [make_molecule_graphs(6, seed=60 + index) for index in range(4)]
        service = PredictionService(model, config)
        if workers:
            service.start(workers=workers)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            calls = [in_thread(service.predict_many, group) for group in groups]
            for thread, _ in calls:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread, _ in calls)
        assert service._batcher.busy == 0 and service._batcher.pending_graphs == 0
        lone = PredictionService(model, config)
        for group, (_, outcome) in zip(groups, calls):
            for graph, result in zip(group, outcome["result"]):
                expected = lone.predict(graph)
                assert result.energy == expected.energy
                np.testing.assert_array_equal(result.forces, expected.forces)
        assert service.summary().requests == 24
        assert service.telemetry()["batching"]["flush_reasons"] == {"graphs_budget": 24}
        service.stop()


class TestGroupServing:
    """A served predict_many is one group: refusals neither leak nor double-resolve."""

    def _busy_service(self, model, **config):
        """One slot, held inside a forward, so what is enqueued stays queued."""
        gated = GatedModel(model)
        service = PredictionService(gated, ServiceConfig(**config)).start(workers=1)
        running, _ = in_thread(service.predict, make_molecule_graphs(1, seed=40)[0])
        assert gated.entered.wait(10.0)
        wait_for_busy_slots(service._batcher, 1)
        return service, gated, running

    def test_queue_bound_mid_group_keeps_the_prefix_and_frees_the_tail(self, model):
        from repro.serving import ServiceOverloaded, structure_hash

        graphs = make_molecule_graphs(6, seed=41)
        service, gated, running = self._busy_service(
            model, max_pending=3, client_concurrency=32
        )
        try:
            thread, outcome = in_thread(service.predict_many, graphs, client_id="tenant")
            # Three are queued and still hold their leases; the refused
            # fourth and the two behind it gave theirs back, once each.
            wait_until(lambda: service.telemetry()["batching"]["rejected"] == 1)
            assert service._batcher.pending_graphs == 3
            assert service.admission._inflight == {"tenant": 3}
            gated.gate.set()
            running.join(10.0)
            thread.join(10.0)
            # The caller ran its prefix, then raised the refusal.
            assert isinstance(outcome.get("error"), ServiceOverloaded)
            assert "queue full" in str(outcome["error"])
        finally:
            gated.gate.set()
            service.stop()
        assert service.admission._inflight == {}
        # The prefix ran and filled the cache (the wholesale retry is
        # cheaper); the tail never reached a forward.
        cached = [service.cache.peek(structure_hash(g)) is not None for g in graphs]
        assert cached == [True, True, True, False, False, False]
        assert service.summary().requests == 4  # the held one + the prefix

    def test_quota_mid_group_still_runs_what_was_admitted(self, model):
        from repro.serving import QuotaExceeded, structure_hash

        graphs = make_molecule_graphs(5, seed=42)
        service, gated, running = self._busy_service(model, client_concurrency=3)
        try:
            thread, outcome = in_thread(service.predict_many, graphs, client_id="tenant")
            wait_until(lambda: service._batcher.pending_graphs == 3)
            assert service.admission._inflight == {"tenant": 3}
            gated.gate.set()
            running.join(10.0)
            thread.join(10.0)
            assert isinstance(outcome.get("error"), QuotaExceeded)
            assert "in flight" in str(outcome["error"])
        finally:
            gated.gate.set()
            service.stop()
        assert service.admission._inflight == {}
        cached = [service.cache.peek(structure_hash(g)) is not None for g in graphs]
        assert cached == [True, True, True, False, False]

    def test_deadline_mid_group_fails_nothing_that_runs(self, model):
        from repro.serving import DeadlineExceeded

        graphs = make_molecule_graphs(4, seed=43)
        service, gated, running = self._busy_service(model)
        try:
            # A measured drain rate of a second per graph: the third of the
            # group is predicted to wait two seconds, past its deadline.
            service._batcher.record_service(graphs=1, duration_s=1.0)
            thread, outcome = in_thread(
                service.predict_many, graphs, deadline=time.monotonic() + 1.5
            )
            wait_until(lambda: service._batcher.shed_predicted == 1)
            assert service._batcher.pending_graphs == 2
            gated.gate.set()
            running.join(10.0)
            thread.join(10.0)
            assert isinstance(outcome.get("error"), DeadlineExceeded)
            assert "shed at submit" in str(outcome["error"])
        finally:
            gated.gate.set()
            service.stop()
        assert service.summary().requests == 3  # the held one + the two queued
        assert service.telemetry()["batching"]["shed_predicted"] == 1

    def test_group_waits_against_one_absolute_deadline(self, model):
        # Four structures behind a slot that never comes back: the call
        # gives up after request_timeout_s, not after four of them, and
        # takes its structures out of the queue and its leases back.
        graphs = make_molecule_graphs(4, seed=44)
        service, gated, running = self._busy_service(
            model, request_timeout_s=0.3, client_concurrency=32
        )
        try:
            start = time.perf_counter()
            with pytest.raises(TimeoutError, match="given up"):
                service.predict_many(graphs, client_id="tenant")
            assert time.perf_counter() - start < 0.9
            assert service._batcher.pending_graphs == 0
            assert service.admission._inflight == {}
        finally:
            gated.gate.set()
            running.join(10.0)
            service.stop()
        assert service.summary().requests == 1  # only the held one ran


class TestDenormalization:
    """A stored Normalizer turns served outputs into physical units."""

    def _normalizer(self):
        from repro.data.normalize import Normalizer

        return Normalizer(
            energy_mean_per_atom=-3.5, energy_std_per_atom=2.0, force_std=4.0
        )

    def test_outputs_are_denormalized(self, model, graphs):
        normalizer = self._normalizer()
        plain = PredictionService(model).predict_many(list(graphs))
        physical = PredictionService(model, normalizer=normalizer).predict_many(
            list(graphs)
        )
        for graph, norm, phys in zip(graphs, plain, physical):
            assert not norm.physical_units
            assert phys.physical_units
            expected_energy = (
                norm.energy * normalizer.energy_std_per_atom
                + normalizer.energy_mean_per_atom
            ) * graph.n_atoms
            assert phys.energy == pytest.approx(expected_energy, rel=1e-6)
            np.testing.assert_allclose(
                phys.forces, norm.forces * normalizer.force_std, atol=1e-6
            )

    def test_cache_hits_stay_physical(self, model, graphs):
        service = PredictionService(model, normalizer=self._normalizer())
        first = service.predict_many(list(graphs))
        second = service.predict_many(list(graphs))
        for a, b in zip(first, second):
            assert b.cached and b.physical_units
            assert a.energy == b.energy

    def test_checkpoint_round_trip_through_registry(self, model, tmp_path):
        from repro.serving import ModelRegistry
        from repro.train import save_checkpoint

        normalizer = self._normalizer()
        path = save_checkpoint(tmp_path / "m.npz", model, normalizer=normalizer)
        registry = ModelRegistry()
        registry.register_checkpoint("prod", path)
        service = PredictionService.from_registry(registry, "prod")
        assert service.normalizer == normalizer
        graph = make_molecule_graphs(1, seed=3)[0]
        result = service.predict(graph)
        assert result.physical_units

    def test_checkpoint_without_normalizer_serves_normalized(self, model, tmp_path):
        from repro.serving import ModelRegistry
        from repro.train import save_checkpoint

        path = save_checkpoint(tmp_path / "m.npz", model)
        registry = ModelRegistry()
        registry.register_checkpoint("raw", path)
        service = PredictionService.from_registry(registry, "raw")
        assert service.normalizer is None
        result = service.predict(make_molecule_graphs(1, seed=4)[0])
        assert not result.physical_units


class TestTelemetry:
    def test_summary_counts(self, model, graphs):
        service = PredictionService(model)
        service.predict_many(list(graphs))
        service.predict_many(list(graphs))
        summary = service.summary()
        assert summary.requests == 2 * len(graphs)
        assert summary.cache_hits == len(graphs)
        assert 0.0 < summary.cache_hit_rate < 1.0
        assert summary.p95_latency_s >= summary.p50_latency_s >= 0.0

    def test_telemetry_is_json_ready(self, model, graphs):
        import json

        service = PredictionService(model)
        service.predict_many(list(graphs))
        payload = json.dumps(service.telemetry())
        assert "buffer_pool" in payload
        assert "result_cache" in payload


class TestFailurePropagation:
    def test_model_error_fails_waiters(self, graphs):
        class Broken:
            def serve(self, batch, plan=True):
                raise RuntimeError("backend down")

        service = PredictionService(HydraModel(CONFIG, seed=0))
        service.model = Broken()
        with pytest.raises(RuntimeError, match="backend down"):
            service.predict_many([graphs[0]])

    def test_registry_constructor(self, model):
        from repro.serving import ModelRegistry

        registry = ModelRegistry()
        registry.register_model("m", model)
        service = PredictionService.from_registry(registry, "m")
        assert service.model is model


class TestReviewRegressions:
    """Guards for defects found in review: bounded stats, peek labeling."""

    def test_stats_window_bounds_memory_but_totals_are_exact(self):
        from repro.serving.stats import ServingStats

        stats = ServingStats(window=4)
        for i in range(10):
            stats.record_request(latency_s=0.001 * i, cached=(i % 2 == 0), batch_graphs=1)
        assert len(stats.request_records) == 4
        summary = stats.summary()
        assert summary.requests == 10
        assert summary.cache_hits == 5

    def test_peek_satisfied_request_is_labeled_cached(self, model, graphs):
        from repro.serving import ServeRequest, structure_hash

        service = PredictionService(model)
        # Precompute the structure so the worker-side peek re-check
        # (not the submit-time get) finds it.
        service.predict_many([graphs[0]])
        key = structure_hash(graphs[0])
        request = ServeRequest(graph=graphs[0], key=key)
        service._batcher.submit(request)
        service._execute(service._batcher.take([request]))
        result = request.wait(timeout=0)
        assert result.cached is True
        # No new model batch ran for it.
        assert len(service.stats.batch_records) == 1

    def test_unstarted_batches_match_a_one_slot_take_loop(self, model, graphs):
        from repro.serving import MicroBatcher, ServeRequest, structure_hash

        max_atoms = sum(g.n_atoms for g in graphs[:3])
        service = PredictionService(model, ServiceConfig(max_atoms=max_atoms))
        service.predict_many(list(graphs))
        batcher = MicroBatcher(max_atoms=max_atoms, max_graphs=64, flush_interval_s=0.0)
        group = [ServeRequest(graph=g, key=structure_hash(g)) for g in graphs]
        batcher.submit_many(group)
        released = []
        while (batch := batcher.take(group)) is not None:
            batcher.release()
            released.append((len(batch), sum(r.n_atoms for r in batch)))
        assert len(released) >= 2
        assert [(r.num_graphs, r.num_atoms) for r in service.stats.batch_records] == released

    def test_flush_reasons_survive_stop(self, model, graphs):
        service = PredictionService(model, ServiceConfig(flush_interval_s=0.002))
        with service.start(workers=1):
            pending = [service.submit(g) for g in graphs]
            for request in pending:
                request.wait(10.0)
        assert not service.running
        reasons = service.telemetry()["batching"]["flush_reasons"]
        assert sum(reasons.values()) >= 1

    def test_telemetry_during_stop_never_exceeds_final(self, model, graphs):
        # Counters live on the service's one batcher, so a read that lands
        # inside stop() sees each of them once, never a fold in progress.
        from repro.serving import DeadlineExceeded, ServiceOverloaded

        gated = GatedModel(model)
        service = PredictionService(gated, ServiceConfig(max_pending=1)).start(workers=1)
        running, _ = in_thread(service.predict, graphs[0])
        assert gated.entered.wait(10.0)
        doomed, outcome = in_thread(service.predict, graphs[1], deadline=time.monotonic() + 0.05)
        wait_until(lambda: service._batcher.pending_graphs == 1)
        with pytest.raises(ServiceOverloaded):
            service.submit(graphs[2])
        doomed.join(10.0)  # its caller woke at its deadline, parked beside a busy slot
        assert isinstance(outcome.get("error"), DeadlineExceeded)
        assert "expired" in str(outcome["error"])
        gated.gate.set()
        running.join(10.0)
        for graph in graphs[3:]:
            service.predict(graph)

        reads, halt = [], threading.Event()

        def read():
            while not halt.is_set():
                batching = service.telemetry()["batching"]
                reads.append(batching)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reader = threading.Thread(target=read, daemon=True)
            reader.start()
            while not reads and reader.is_alive():
                time.sleep(0.001)
            service.stop()
            halt.set()
            reader.join(10.0)
        finally:
            sys.setswitchinterval(previous)
        assert not reader.is_alive()
        final = service.telemetry()["batching"]
        assert final["rejected"] == 1 and final["expired"] == 1
        for batching in reads:
            assert batching["rejected"] <= final["rejected"]
            assert batching["expired"] <= final["expired"]
            for reason, count in batching["flush_reasons"].items():
                assert count <= final["flush_reasons"][reason]
