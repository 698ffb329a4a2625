"""Engine thread-safety: grad mode, pool/tracker stacks, shared pools.

These are the invariants that let serving workers run model forwards
concurrently without a global model lock: every piece of engine context
(``no_grad``, ``use_pool``, ``use_tracker``) is
thread-local, and the shared structures (one ``BufferPool``, the node
counter) are safe under concurrent access.
"""

import threading

import numpy as np

from repro.graph.batch import collate
from repro.models import HydraModel, ModelConfig
from repro.tensor.allocator import (
    BufferPool,
    MemoryTracker,
    active_pool,
    active_tracker,
    global_tracker,
    use_pool,
    use_tracker,
)
from repro.tensor.core import (
    Tensor,
    function_nodes_created,
    grad_enabled,
    no_grad,
    segment_sum,
)
from tests.helpers import make_molecule_graphs


def _run_in_thread(fn, *args):
    """Run ``fn`` on a fresh thread; re-raise anything it raised."""
    box: dict = {}

    def target():
        try:
            box["result"] = fn(*args)
        except BaseException as exc:  # noqa: BLE001
            box["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(30.0)
    assert not thread.is_alive(), "worker thread hung"
    if "error" in box:
        raise box["error"]
    return box["result"]


class TestGradModeIsolation:
    def test_no_grad_does_not_leak_across_threads(self):
        entered = threading.Event()
        release = threading.Event()
        observed: dict[str, bool] = {}

        def holder():
            with no_grad():
                entered.set()
                assert release.wait(10.0)
            return grad_enabled()

        def observer():
            assert entered.wait(10.0)
            observed["other_thread"] = grad_enabled()
            release.set()

        holder_thread = threading.Thread(target=lambda: observed.update(h=holder()))
        watcher_thread = threading.Thread(target=observer)
        holder_thread.start()
        watcher_thread.start()
        holder_thread.join(10.0)
        watcher_thread.join(10.0)
        # While one thread sat inside no_grad, the other stayed in grad mode.
        assert observed["other_thread"] is True
        assert observed["h"] is True  # restored after the block
        assert grad_enabled() is True  # main thread untouched throughout

    def test_fresh_threads_start_with_grad_enabled(self):
        with no_grad():
            # Even spawned *during* a main-thread no_grad block.
            assert _run_in_thread(grad_enabled) is True

    def test_node_counter_sums_across_threads(self):
        before = function_nodes_created()

        def build_graph():
            x = Tensor(np.ones((4, 4), dtype=np.float32), requires_grad=True)
            (x * 2.0).sum().backward()

        threads = [threading.Thread(target=build_graph) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        # 4 threads x (Mul, Sum) >= 8 nodes, all visible from the main thread.
        assert function_nodes_created() >= before + 8


class TestContextStackIsolation:
    def test_use_pool_is_thread_local(self):
        pool = BufferPool()
        inside = threading.Event()
        release = threading.Event()
        seen: dict[str, object] = {}

        def holder():
            with use_pool(pool):
                inside.set()
                assert release.wait(10.0)

        def observer():
            assert inside.wait(10.0)
            seen["pool"] = active_pool()
            release.set()

        a = threading.Thread(target=holder)
        b = threading.Thread(target=observer)
        a.start()
        b.start()
        a.join(10.0)
        b.join(10.0)
        assert seen["pool"] is None  # the holder's pool never leaked over
        assert active_pool() is None

    def test_use_tracker_is_thread_local(self):
        tracker = MemoryTracker("rank0")
        inside = threading.Event()
        release = threading.Event()
        seen: dict[str, object] = {}

        def holder():
            with use_tracker(tracker):
                inside.set()
                assert release.wait(10.0)
                return active_tracker()

        def observer():
            assert inside.wait(10.0)
            seen["tracker"] = active_tracker()
            release.set()

        a = threading.Thread(target=lambda: seen.update(holder=holder()))
        b = threading.Thread(target=observer)
        a.start()
        b.start()
        a.join(10.0)
        b.join(10.0)
        assert seen["holder"] is tracker
        assert seen["tracker"] is global_tracker()

    def test_tracker_category_stack_is_thread_local(self):
        tracker = MemoryTracker("shared")
        inside = threading.Event()
        release = threading.Event()
        seen: dict[str, str] = {}

        def holder():
            with tracker.category("weights"):
                inside.set()
                assert release.wait(10.0)

        def observer():
            assert inside.wait(10.0)
            seen["category"] = tracker.active_category
            release.set()

        a = threading.Thread(target=holder)
        b = threading.Thread(target=observer)
        a.start()
        b.start()
        a.join(10.0)
        b.join(10.0)
        assert seen["category"] == "activations"


class TestSharedPoolConcurrency:
    def test_shared_pool_never_hands_one_buffer_to_two_threads(self):
        pool = BufferPool()
        corruption: list[str] = []
        barrier = threading.Barrier(4)

        def worker(tag: float):
            barrier.wait(10.0)
            for _ in range(200):
                buf = pool.acquire((64,), np.float64)
                buf.fill(tag)
                if not (buf == tag).all():
                    corruption.append(f"worker {tag} saw foreign writes")
                del buf

        threads = [threading.Thread(target=worker, args=(float(i),)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert corruption == []
        assert pool.stats.hits + pool.stats.misses == 4 * 200

    def test_concurrent_model_forwards_match_sequential(self):
        """Four threads forwarding through one model under one shared pool."""
        model = HydraModel(ModelConfig(hidden_dim=16, num_layers=2), seed=0)
        batches = [collate(make_molecule_graphs(2, seed=s)) for s in range(4)]
        expected = [model.predict(b)["energy"].numpy().copy() for b in batches]
        pool = BufferPool()
        results: list = [None] * 4
        barrier = threading.Barrier(4)

        def worker(index: int):
            barrier.wait(10.0)
            for _ in range(5):
                with use_pool(pool):
                    out = model.serve(batches[index])
                results[index] = out["energy"]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got, want)


class TestPlannedConcurrentServing:
    """Execution-plan replay under ``start(workers=4)`` concurrent serving.

    Plans are cached per model and replayed by whichever worker thread
    picks up a batch, every replay drawing scratch from the service's
    one shared buffer pool — the
    results must be bit-identical to the inline *unplanned* path, and
    replays (not just compiles) must actually happen under load.
    """

    def test_workers4_planned_serving_matches_unplanned_inline(self):
        from repro.serving import PredictionService, ServiceConfig

        model = HydraModel(ModelConfig(hidden_dim=16, num_layers=2), seed=0)
        graphs = make_molecule_graphs(6, seed=3)
        # Ground truth: each structure served alone, unplanned, inline.
        expected = {}
        for graph in graphs:
            outputs = model.serve(collate([graph]), plan=False)
            expected[id(graph)] = (
                float(outputs["energy"][0, 0]),
                np.array(outputs["forces"]),
            )

        service = PredictionService(
            model,
            # max_graphs=1 so every request is its own single-graph batch
            # (comparable bit-for-bit with the inline ground truth);
            # caching off so every request exercises a planned forward.
            ServiceConfig(max_graphs=1, cache_capacity=0, flush_interval_s=0.001),
        )
        service.start(workers=4)
        try:
            stream = graphs * 4  # repeats: same buckets hit from many threads
            results = service.predict_many(stream)
        finally:
            service.stop()
        for graph, result in zip(stream, results):
            want_energy, want_forces = expected[id(graph)]
            assert result.energy == want_energy
            np.testing.assert_array_equal(result.forces, want_forces)
        # Concurrency genuinely exercised the plan cache: compiles for
        # the buckets, replays for the repeats (racing workers may each
        # compile a bucket once, so the exact split is load-dependent).
        stats = model.plans.stats
        assert stats.compiled >= 1
        assert stats.hits >= 1
        assert stats.hits + stats.misses == len(stream)

    def test_plan_compile_race_is_benign(self):
        """Many threads compiling the same bucket: one plan, equal bits."""
        model = HydraModel(ModelConfig(hidden_dim=16, num_layers=2), seed=0)
        batch = collate(make_molecule_graphs(2, seed=0))
        expected = model.serve(batch, plan=False)
        barrier = threading.Barrier(4)
        outputs: list = [None] * 4

        def worker(index: int):
            barrier.wait(10.0)
            outputs[index] = model.serve(batch, plan=True)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        for out in outputs:
            np.testing.assert_array_equal(out["energy"], expected["energy"])
            np.testing.assert_array_equal(out["forces"], expected["forces"])
        assert len(model.plans) == 1  # racing compiles collapsed to one plan


class TestIncidenceCacheConcurrency:
    def test_concurrent_segment_sums_match_scatter_add(self):
        """Threads sharing one index and rewriting their own never read a
        stale or foreign incidence matrix."""
        import sys

        shared = np.random.default_rng(0).integers(0, 16, 400).astype(np.int64)
        values = np.random.default_rng(1).standard_normal((400, 3))
        errors: list = []

        def expected(seg):
            out = np.zeros((16, 3))
            np.add.at(out, seg, values)
            return out

        shared_expected = expected(shared)

        def worker(seed):
            rng = np.random.default_rng(seed)
            own = rng.integers(0, 16, 400).astype(np.int64)
            try:
                for _ in range(40):
                    got = segment_sum(Tensor(values, dtype=np.float64), shared, 16).numpy()
                    np.testing.assert_allclose(got, shared_expected, rtol=1e-12, atol=1e-12)
                    own[:] = rng.integers(0, 16, 400)
                    got = segment_sum(Tensor(values, dtype=np.float64), own, 16).numpy()
                    np.testing.assert_allclose(got, expected(own), rtol=1e-12, atol=1e-12)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in threads), "worker thread hung"
        assert not errors, errors[0]
