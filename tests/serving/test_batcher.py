"""Micro-batcher dispatch discipline: budgets, slots, shares, give-ups."""

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
    in_thread,
    wait_until,
)


def _requests(count: int, seed: int = 0) -> list[ServeRequest]:
    graphs = make_molecule_graphs(count, seed=seed)
    return [ServeRequest(graph=g, key=str(i)) for i, g in enumerate(graphs)]


def _take(batcher: MicroBatcher, mine: list[ServeRequest]) -> list[ServeRequest] | None:
    """One take whose forward finishes at once: the slot goes straight back."""
    batch = batcher.take(mine)
    if batch is not None:
        batcher.release()
    return batch


def test_atom_budget_flush():
    requests = _requests(6)
    total_atoms = sum(r.n_atoms for r in requests[:3])
    batcher = MicroBatcher(max_atoms=total_atoms, max_graphs=100, flush_interval_s=60.0)
    for request in requests[:3]:
        batcher.submit(request)
    batch = _take(batcher, requests[:3])
    assert [r.key for r in batch] == ["0", "1", "2"]
    assert batcher.flush_reasons == {FLUSH_ATOMS: 1}
    assert batcher.pending_graphs == 0
    assert batcher.pending_atoms == 0


def test_graph_budget_flush_keeps_fifo_order():
    requests = _requests(5)
    batcher = MicroBatcher(max_atoms=10**9, max_graphs=2, flush_interval_s=60.0)
    for request in requests:
        batcher.submit(request)
    assert [r.key for r in _take(batcher, requests)] == ["0", "1"]
    assert [r.key for r in _take(batcher, requests)] == ["2", "3"]
    assert batcher.flush_reasons[FLUSH_GRAPHS] == 2


def test_free_slot_takes_a_partial_batch_at_once():
    # Nothing fills a budget and flush_interval_s is half a minute: the
    # caller with a free slot still gets both requests now, not at a tick.
    requests = _requests(2)
    batcher = MicroBatcher(max_atoms=10**9, max_graphs=100, flush_interval_s=30.0)
    start = time.monotonic()
    for request in requests:
        batcher.submit(request)
    batch = _take(batcher, requests)
    assert time.monotonic() - start < 1.0
    assert [r.key for r in batch] == ["0", "1"]
    assert batcher.flush_reasons == {FLUSH_WORKER: 1}


def _takes_with_free_slots(batcher: MicroBatcher, group: list[ServeRequest], free: int):
    """Enqueue ``group`` on ``free`` idle slots; take once per slot, then release them all."""
    batcher.workers = free
    batcher.submit_many(group)
    batches = []
    for _ in range(free):
        batch = batcher.take(group)
        if batch is None:
            break
        batches.append(batch)
    for _ in batches:
        batcher.release()
    return batches


def test_group_is_shared_between_two_free_slots():
    group = _requests(12, seed=3)
    splits = []
    for _ in range(3):
        batcher = MicroBatcher(max_atoms=512, max_graphs=64, flush_interval_s=30.0)
        batches = _takes_with_free_slots(batcher, group, free=2)
        splits.append([[r.key for r in batch] for batch in batches])
    first, second = batches
    assert [r.key for r in first + second] == [r.key for r in group]  # nothing lost, in order
    largest = max(r.n_atoms for r in group)
    atoms = [sum(r.n_atoms for r in batch) for batch in batches]
    assert abs(atoms[0] - atoms[1]) <= largest
    # A pure function of the group and the number of free slots:
    # reproducible, and exactly what the one budget rule predicts.
    assert splits[0] == splits[1] == splits[2]
    predicted = predicted_split(group, 2, max_atoms=512, max_graphs=64)
    assert splits[0] == [[r.key for r in chunk] for chunk in predicted]


def test_share_counts_free_slots_not_busy_ones():
    # Three slots, one held by another forward: two are free, so the
    # take's share is half of what is pending, not a third (the slot
    # count) and not all of it (the one busy slot).
    group = _requests(12, seed=3)
    batcher = MicroBatcher(max_atoms=10**9, max_graphs=64, workers=3)
    held = _requests(1, seed=4)
    batcher.submit_many(held)
    assert batcher.take(held) == held
    batcher.submit_many(group)
    (batch,) = [batcher.take(group)]
    (expected, _) = predicted_split(group, 2, max_atoms=10**9, max_graphs=64)
    assert [r.key for r in batch] == [r.key for r in expected]
    assert batcher.busy == 2


def test_one_free_slot_takes_the_same_chunks_as_before():
    # With nobody to share with, the share is the whole budget: the
    # chunks are first_chunk_size's at max_atoms, as they always were.
    group = _requests(12, seed=3)
    max_atoms = sum(r.n_atoms for r in group[:5])
    batcher = MicroBatcher(max_atoms=max_atoms, max_graphs=64, flush_interval_s=30.0)
    batcher.submit_many(group)
    taken = []
    while (batch := _take(batcher, group)) is not None:
        taken.append([r.key for r in batch])
    expected, rest = [], list(group)
    while rest:
        count = first_chunk_size(rest, max_atoms, 64)
        expected.append([r.key for r in rest[:count]])
        rest = rest[count:]
    assert taken == expected
    assert len(taken) > 1


def test_saturated_share_is_capped_by_the_budget():
    # More than two budgets' worth pending, two free slots: each take
    # is still bounded by max_atoms, never by an inflated share.
    group = _requests(12, seed=3)
    max_atoms = sum(r.n_atoms for r in group) // 4
    batcher = MicroBatcher(max_atoms=max_atoms, max_graphs=64, flush_interval_s=30.0)
    for batch in _takes_with_free_slots(batcher, group, free=2):
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
        # The prefix is untouched and is what a take gets.
        assert not any(request.done() for request in requests[:2])
        assert [r.key for r in _take(batcher, requests)] == ["0", "1"]
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
        assert [r.key for r in _take(batcher, requests)] == ["0"]

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
        # A caller parked for a slot while a group arrives wakes to all of it.
        requests, _ = self._group(6)
        mine, group = requests[:1], requests[1:]
        batcher = MicroBatcher(max_atoms=10**9, max_graphs=100)
        held = _requests(1, seed=7)
        batcher.submit_many(held)
        assert batcher.take(held) == held  # the one slot is busy
        batcher.submit_many(mine)
        taken = []
        caller = threading.Thread(target=lambda: taken.append(batcher.take(mine)))
        caller.start()
        batcher.submit_many(group)
        batcher.release()
        caller.join(timeout=5.0)
        assert [r.key for r in taken[0]] == ["0", "1", "2", "3", "4", "5"]


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
    batch = _take(batcher, [big])
    assert batch == [big]


def test_take_returns_none_once_none_of_mine_is_queued():
    # Taken by this caller, or by another caller's take: either way the
    # caller stops taking and waits on its handles instead.
    requests = _requests(3)
    batcher = MicroBatcher(max_atoms=10**9, max_graphs=2, flush_interval_s=60.0)
    mine, theirs = requests[:1], requests[1:]
    batcher.submit_many(mine + theirs)
    assert _take(batcher, theirs) == mine + theirs[:1]  # the head is not theirs
    assert batcher.take(mine) is None and batcher.busy == 0
    assert [r.key for r in _take(batcher, theirs)] == ["2"]
    assert _take(batcher, theirs) is None
    assert batcher.take([]) is None


def test_parked_caller_wakes_on_release():
    batcher = MicroBatcher(max_atoms=1, max_graphs=100, flush_interval_s=60.0)
    held, mine = _requests(2)
    batcher.submit(held)
    assert batcher.take([held]) == [held]
    batcher.submit(mine)
    received = []
    thread = threading.Thread(target=lambda: received.append(batcher.take([mine])))
    thread.start()
    time.sleep(0.02)  # let the caller park: the only slot is busy
    assert thread.is_alive() and not received
    batcher.release()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert received == [[mine]] and batcher.busy == 1


def test_parked_caller_gives_up_at_its_instant_and_wakes_at_its_deadline():
    released = []
    held, late, doomed = _requests(3)
    for request in (late, doomed):
        request.on_done = lambda key=request.key: released.append(key)
    batcher = MicroBatcher(max_atoms=10**9, max_graphs=100, flush_interval_s=60.0)
    batcher.submit(held)
    assert batcher.take([held]) == [held]  # and never released
    batcher.submit(late)
    start = time.monotonic()
    assert batcher.take([late], until=start + 0.05) is None
    assert 0.04 <= time.monotonic() - start < 2.0
    with pytest.raises(TimeoutError, match="given up"):
        late.wait(timeout=0)
    doomed.deadline = time.monotonic() + 0.05
    batcher.submit(doomed)
    start = time.monotonic()
    assert batcher.take([doomed], until=start + 30.0) is None
    assert time.monotonic() - start < 2.0
    with pytest.raises(DeadlineExceeded, match="expired"):
        doomed.wait(timeout=0)
    # Out of the lanes, each lease given back once, the slot still held.
    assert batcher.pending_graphs == 0 and released == ["1", "2"]
    assert batcher.busy == 1 and batcher.expired == 1


def test_callers_under_contention_lose_nothing():
    """More threads than cores, a 1 µs switch interval: every request is
    handed out exactly once and every slot comes back."""
    import sys

    graphs = make_molecule_graphs(8, seed=9)
    batcher = MicroBatcher(max_atoms=60, max_graphs=5, workers=2)
    handed_out: list[ServeRequest] = []
    groups = [
        [ServeRequest(graph=graphs[(p + i) % 8], key=f"{p}-{i}") for i in range(120)]
        for p in range(4)
    ]

    def call(requests):
        for start in range(0, len(requests), 6):
            mine = requests[start : start + 6]
            batcher.submit(mine[0])
            batcher.submit_many(mine[1:])
            while (batch := batcher.take(mine)) is not None:
                assert batcher.busy <= 2
                assert sum(r.n_atoms for r in batch) <= 60 or len(batch) == 1
                handed_out.extend(batch)  # list.extend is atomic under the GIL
                batcher.release()
                for request in batch:
                    request.resolve(None)
            for request in mine:
                request.wait(timeout=30.0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(group,)) for group in groups]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert sorted(r.key for r in handed_out) == sorted(r.key for g in groups for r in g)
    assert batcher.pending_graphs == 0 and batcher.busy == 0


def test_validates_parameters():
    with pytest.raises(ValueError):
        MicroBatcher(max_atoms=0)
    with pytest.raises(ValueError):
        MicroBatcher(max_graphs=0)
    with pytest.raises(ValueError):
        MicroBatcher(flush_interval_s=-1.0)
    with pytest.raises(ValueError):
        MicroBatcher(max_pending=-1)
    with pytest.raises(ValueError):
        MicroBatcher(workers=0)
    with pytest.raises(ValueError):
        MicroBatcher().workers = 0


def test_admission_control_rejects_at_the_bound():
    requests = _requests(4)
    # Nothing takes from the queue here, so rejection is deterministic.
    batcher = MicroBatcher(max_atoms=10**9, max_graphs=100, flush_interval_s=0.0, max_pending=2)
    batcher.submit(requests[0])
    batcher.submit(requests[1])
    with pytest.raises(ServiceOverloaded, match="queue full"):
        batcher.submit(requests[2])
    # The rejection left the queue untouched and was counted.
    assert batcher.pending_graphs == 2
    assert batcher.rejected == 1
    # Draining frees capacity: admission is about *current* depth.
    assert len(_take(batcher, requests[:2])) == 2
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
        # The only slot is held inside the first forward, the second
        # call's structure fills the bound behind it, so the third must
        # be rejected.
        running, first = in_thread(service.predict, graphs[0])
        assert model.entered.wait(10.0)
        admitted, second = in_thread(service.predict, graphs[1])
        wait_until(lambda: service._batcher.pending_graphs == 1)
        with pytest.raises(ServiceOverloaded):
            service.submit(graphs[2])
        # Telemetry shows the rejection while the admitted requests are
        # unaffected, and once they drain the service accepts new work.
        assert service.telemetry()["batching"]["rejected"] == 1
        model.gate.set()
        running.join(10.0)
        admitted.join(10.0)
        assert first["result"].n_atoms == graphs[0].n_atoms
        assert second["result"].n_atoms == graphs[1].n_atoms
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
    calls = []
    try:
        model.gate.set()
        warm = service.predict(graphs[0])  # populate the cache
        model.gate.clear()
        model.entered.clear()
        # Hold the slot in a forward and fill the queue to its bound...
        calls.append(in_thread(service.predict, graphs[1]))
        assert model.entered.wait(10.0)
        calls.append(in_thread(service.predict, graphs[2]))
        wait_until(lambda: service._batcher.pending_graphs == 1)
        with pytest.raises(ServiceOverloaded):
            service.submit(graphs[3])
        # ...and the cached structure still resolves instantly.
        hit = service.submit(graphs[0])
        assert hit.done()
        assert hit.wait(0).cached
        assert hit.wait(0).energy == warm.energy
    finally:
        model.gate.set()
        for thread, _ in calls:
            thread.join(10.0)
        service.stop()
