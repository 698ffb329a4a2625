"""Micro-batcher dispatch discipline: budgets, free workers, shares, drain."""

import threading
import time

import pytest

from repro.serving import (
    FLUSH_ATOMS,
    FLUSH_GRAPHS,
    FLUSH_WORKER,
    DeadlineExceeded,
    MicroBatcher,
    ServeRequest,
    ServiceOverloaded,
)
from repro.serving.batcher import first_chunk_size
from tests.helpers import (
    GatedModel,
    make_molecule_graphs,
    predicted_split,
    wait_for_free_workers,
)


def _requests(count: int, seed: int = 0) -> list[ServeRequest]:
    graphs = make_molecule_graphs(count, seed=seed)
    return [ServeRequest(graph=g, key=str(i)) for i, g in enumerate(graphs)]


def test_atom_budget_flush():
    requests = _requests(6)
    total_atoms = sum(r.n_atoms for r in requests[:3])
    batcher = MicroBatcher(max_atoms=total_atoms, max_graphs=100, flush_interval_s=60.0)
    for request in requests[:3]:
        batcher.submit(request)
    batch = batcher.next_batch()
    assert [r.key for r in batch] == ["0", "1", "2"]
    assert batcher.flush_reasons == {FLUSH_ATOMS: 1}
    assert batcher.pending_graphs == 0
    assert batcher.pending_atoms == 0


def test_graph_budget_flush_keeps_fifo_order():
    requests = _requests(5)
    batcher = MicroBatcher(max_atoms=10**9, max_graphs=2, flush_interval_s=60.0)
    for request in requests:
        batcher.submit(request)
    assert [r.key for r in batcher.next_batch()] == ["0", "1"]
    assert [r.key for r in batcher.next_batch()] == ["2", "3"]
    assert batcher.flush_reasons[FLUSH_GRAPHS] == 2


def test_free_worker_takes_a_partial_batch_at_once():
    # Nothing fills a budget and flush_interval_s is half a minute: the
    # worker that asks still gets both requests now, not at a tick.
    requests = _requests(2)
    batcher = MicroBatcher(max_atoms=10**9, max_graphs=100, flush_interval_s=30.0)
    start = time.monotonic()
    for request in requests:
        batcher.submit(request)
    batch = batcher.next_batch()
    assert time.monotonic() - start < 1.0
    assert [r.key for r in batch] == ["0", "1"]
    assert batcher.flush_reasons == {FLUSH_WORKER: 1}


def _take_with_free_workers(batcher: MicroBatcher, group: list[ServeRequest], free: int):
    """Park ``free`` consumers in next_batch(), enqueue ``group``, return their batches."""
    batches = []

    def consume():
        batch = batcher.next_batch()
        if batch is not None:
            batches.append(batch)

    threads = [threading.Thread(target=consume) for _ in range(free)]
    for thread in threads:
        thread.start()
    wait_for_free_workers(batcher, free)
    batcher.submit_many(group)
    batcher.close()
    for thread in threads:
        thread.join(timeout=5.0)
    # Takes are serialised by the batcher's lock and a later take starts
    # where the earlier one stopped, so group order is take order.
    return sorted(batches, key=lambda batch: int(batch[0].key))


def test_group_is_shared_between_two_free_workers():
    group = _requests(12, seed=3)
    splits = []
    for _ in range(3):
        batcher = MicroBatcher(max_atoms=512, max_graphs=64, flush_interval_s=30.0)
        batches = _take_with_free_workers(batcher, group, free=2)
        splits.append([[r.key for r in batch] for batch in batches])
    first, second = batches
    assert [r.key for r in first + second] == [r.key for r in group]  # nothing lost, in order
    largest = max(r.n_atoms for r in group)
    atoms = [sum(r.n_atoms for r in batch) for batch in batches]
    assert abs(atoms[0] - atoms[1]) <= largest
    # A pure function of the group and the number of free workers:
    # reproducible, and exactly what the one budget rule predicts.
    assert splits[0] == splits[1] == splits[2]
    predicted = predicted_split(group, 2, max_atoms=512, max_graphs=64)
    assert splits[0] == [[r.key for r in chunk] for chunk in predicted]


def test_one_free_worker_takes_the_same_chunks_as_before():
    # With nobody to share with, the share is the whole budget: the
    # chunks are first_chunk_size's at max_atoms, as they always were.
    group = _requests(12, seed=3)
    max_atoms = sum(r.n_atoms for r in group[:5])
    batcher = MicroBatcher(max_atoms=max_atoms, max_graphs=64, flush_interval_s=30.0)
    batcher.submit_many(group)
    batcher.close()
    taken = []
    while (batch := batcher.next_batch()) is not None:
        taken.append([r.key for r in batch])
    expected, rest = [], list(group)
    while rest:
        count = first_chunk_size(rest, max_atoms, 64)
        expected.append([r.key for r in rest[:count]])
        rest = rest[count:]
    assert taken == expected
    assert len(taken) > 1


def test_saturated_share_is_capped_by_the_budget():
    # More than two budgets' worth pending, two free workers: each take
    # is still bounded by max_atoms, never by an inflated share.
    group = _requests(12, seed=3)
    max_atoms = sum(r.n_atoms for r in group) // 4
    batcher = MicroBatcher(max_atoms=max_atoms, max_graphs=64, flush_interval_s=30.0)
    for batch in _take_with_free_workers(batcher, group, free=2):
        assert sum(r.n_atoms for r in batch) <= max_atoms or len(batch) == 1


class TestGroupEnqueue:
    """submit_many refuses a tail without leaking it or touching the prefix."""

    def _group(self, count: int = 5):
        released = []
        requests = _requests(count)
        for request in requests:
            request.on_done = lambda key=request.key: released.append(key)
        return requests, released

    def test_queue_bound_fails_the_tail_and_keeps_the_prefix(self):
        requests, released = self._group()
        batcher = MicroBatcher(max_atoms=10**9, max_graphs=100, max_pending=2)
        with pytest.raises(ServiceOverloaded, match="queue full") as caught:
            batcher.submit_many(requests)
        assert batcher.pending_graphs == 2 and batcher.rejected == 1
        # The refused request and all behind it: failed with the rejection,
        # hooks fired once each, never queued.
        assert released == ["2", "3", "4"]
        for request in requests[2:]:
            with pytest.raises(ServiceOverloaded) as failed:
                request.wait(timeout=0)
            assert failed.value is caught.value
        # The prefix is untouched and is what a worker gets.
        assert not any(request.done() for request in requests[:2])
        assert [r.key for r in batcher.next_batch()] == ["0", "1"]
        for request in requests[:2]:
            request.resolve("served")
        assert released == ["2", "3", "4", "0", "1"]  # each exactly once

    def test_expired_member_fails_from_there_on(self):
        requests, released = self._group(4)
        requests[1].deadline = time.monotonic() - 0.001
        batcher = MicroBatcher(max_atoms=10**9, max_graphs=100)
        with pytest.raises(DeadlineExceeded, match="arrived past its deadline"):
            batcher.submit_many(requests)
        assert batcher.pending_graphs == 1 and batcher.expired == 1
        assert released == ["1", "2", "3"]
        assert [r.key for r in batcher.next_batch()] == ["0"]

    def test_predicted_wait_sheds_inside_a_group(self):
        requests, released = self._group(4)
        batcher = MicroBatcher(max_atoms=10**9, max_graphs=100)
        batcher.record_service(graphs=1, duration_s=1.0)  # 1 s per graph
        requests[2].deadline = time.monotonic() + 0.5  # two queued ahead: ~2 s
        with pytest.raises(DeadlineExceeded, match="shed at submit"):
            batcher.submit_many(requests)
        assert batcher.pending_graphs == 2 and batcher.shed_predicted == 1
        assert released == ["2", "3"]

    def test_a_group_is_seen_whole_or_not_at_all(self):
        # A consumer parked before the group arrives wakes to all of it.
        requests, _ = self._group(5)
        batcher = MicroBatcher(max_atoms=10**9, max_graphs=100)
        (batch,) = _take_with_free_workers(batcher, requests, free=1)
        assert [r.key for r in batch] == ["0", "1", "2", "3", "4"]


def test_expired_reads_the_instant_it_is_given():
    """``now=0.0`` is an instant, not "no instant": the wall clock is not read."""
    request = _requests(1)[0]
    request.deadline = 1.0
    assert not request.expired(now=0.0)
    assert request.expired(now=1.0)
    request.deadline = -1.0
    assert request.expired(now=0.0)
    request.deadline = None
    assert not request.expired(now=0.0)


def test_oversized_structure_ships_alone():
    requests = _requests(3)
    big = max(requests, key=lambda r: r.n_atoms)
    batcher = MicroBatcher(max_atoms=big.n_atoms - 1, max_graphs=100, flush_interval_s=0.0)
    batcher.submit(big)
    batch = batcher.next_batch()
    assert batch == [big]


def test_close_drains_then_returns_none():
    requests = _requests(3)
    batcher = MicroBatcher(max_atoms=10**9, max_graphs=100, flush_interval_s=60.0)
    for request in requests:
        batcher.submit(request)
    batcher.close()
    assert len(batcher.next_batch()) == 3
    assert batcher.next_batch() is None
    with pytest.raises(RuntimeError):
        batcher.submit(requests[0])


def test_blocked_consumer_wakes_on_submit():
    batcher = MicroBatcher(max_atoms=1, max_graphs=100, flush_interval_s=60.0)
    received = []

    def consume():
        received.append(batcher.next_batch())

    thread = threading.Thread(target=consume)
    thread.start()
    time.sleep(0.02)  # let the consumer block on an empty queue
    request = _requests(1)[0]
    batcher.submit(request)
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert received == [[request]]


def test_producers_and_consumers_under_contention_lose_nothing():
    """More threads than cores, a 1 µs switch interval: every request is
    handed out exactly once and the free-worker count returns to zero."""
    import sys

    graphs = make_molecule_graphs(8, seed=9)
    batcher = MicroBatcher(max_atoms=60, max_graphs=5)
    handed_out: list[ServeRequest] = []
    groups = [
        [ServeRequest(graph=graphs[(p + i) % 8], key=f"{p}-{i}") for i in range(120)]
        for p in range(4)
    ]

    def produce(requests):
        for start in range(0, len(requests), 6):
            batcher.submit(requests[start])
            batcher.submit_many(requests[start + 1 : start + 6])

    def consume():
        while (batch := batcher.next_batch()) is not None:
            assert sum(r.n_atoms for r in batch) <= 60 or len(batch) == 1
            handed_out.extend(batch)  # list.extend is atomic under the GIL

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        consumers = [threading.Thread(target=consume) for _ in range(4)]
        producers = [threading.Thread(target=produce, args=(group,)) for group in groups]
        for thread in consumers + producers:
            thread.start()
        for thread in producers:
            thread.join(timeout=30.0)
        batcher.close()
        for thread in consumers:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in consumers + producers)
    assert sorted(r.key for r in handed_out) == sorted(r.key for g in groups for r in g)
    assert batcher.pending_graphs == 0 and batcher._free_workers == 0


def test_validates_parameters():
    with pytest.raises(ValueError):
        MicroBatcher(max_atoms=0)
    with pytest.raises(ValueError):
        MicroBatcher(max_graphs=0)
    with pytest.raises(ValueError):
        MicroBatcher(flush_interval_s=-1.0)
    with pytest.raises(ValueError):
        MicroBatcher(max_pending=-1)


def test_admission_control_rejects_at_the_bound():
    requests = _requests(4)
    # No consumer thread runs here, so rejection is deterministic.
    batcher = MicroBatcher(max_atoms=10**9, max_graphs=100, flush_interval_s=0.0, max_pending=2)
    batcher.submit(requests[0])
    batcher.submit(requests[1])
    with pytest.raises(ServiceOverloaded, match="queue full"):
        batcher.submit(requests[2])
    # The rejection left the queue untouched and was counted.
    assert batcher.pending_graphs == 2
    assert batcher.rejected == 1
    # Draining frees capacity: admission is about *current* depth.
    assert len(batcher.next_batch()) == 2
    batcher.submit(requests[2])
    assert batcher.pending_graphs == 1


def test_admission_control_disabled_by_default():
    requests = _requests(6)
    batcher = MicroBatcher(max_atoms=10**9, max_graphs=100, flush_interval_s=60.0)
    for request in requests:
        batcher.submit(request)
    assert batcher.pending_graphs == 6
    assert batcher.rejected == 0


def _gated_service(max_pending: int):
    from repro.models import HydraModel, ModelConfig
    from repro.serving import PredictionService, ServiceConfig

    model = GatedModel(HydraModel(ModelConfig(hidden_dim=8, num_layers=1), seed=0))
    return PredictionService(model, ServiceConfig(max_pending=max_pending)), model


def test_service_surfaces_overload_and_keeps_serving():
    """A rejected burst does not poison the service for later requests."""
    service, model = _gated_service(max_pending=1)
    graphs = make_molecule_graphs(4, seed=5)
    service.start(workers=1)
    try:
        # The only worker is held inside the first forward, the second
        # submit fills the bound behind it, so the third must be rejected.
        running = service.submit(graphs[0])
        assert model.entered.wait(10.0)
        admitted = service.submit(graphs[1])
        with pytest.raises(ServiceOverloaded):
            service.submit(graphs[2])
        # Telemetry shows the rejection while the admitted requests are
        # unaffected, and once they drain the service accepts new work.
        assert service.telemetry()["batching"]["rejected"] == 1
        model.gate.set()
        assert running.wait(10.0).n_atoms == graphs[0].n_atoms
        assert admitted.wait(10.0).n_atoms == graphs[1].n_atoms
        result = service.predict(graphs[3])
        assert result.n_atoms == graphs[3].n_atoms
    finally:
        model.gate.set()
        service.stop()
    assert service.telemetry()["batching"]["rejected"] == 1  # survives stop()


def test_cache_hits_bypass_admission_control():
    """A full queue must not reject requests the cache can answer."""
    service, model = _gated_service(max_pending=1)
    graphs = make_molecule_graphs(4, seed=6)
    service.start(workers=1)
    try:
        model.gate.set()
        warm = service.predict(graphs[0])  # populate the cache
        model.gate.clear()
        model.entered.clear()
        # Hold the worker in a forward and fill the queue to its bound...
        service.submit(graphs[1])
        assert model.entered.wait(10.0)
        service.submit(graphs[2])
        with pytest.raises(ServiceOverloaded):
            service.submit(graphs[3])
        # ...and the cached structure still resolves instantly.
        hit = service.submit(graphs[0])
        assert hit.done()
        assert hit.wait(0).cached
        assert hit.wait(0).energy == warm.energy
    finally:
        model.gate.set()
        service.stop()
