"""Stateful search over ``MicroBatcher``: conservation, budgets, fairness, dispatch.

A Hypothesis rule machine drives one batcher through submit / submit-group /
worker-asks / worker-completes / caller-takes / clock-advance / expire /
close / reopen in any order and checks, after every step, the properties
the serving stack leans on.  ``caller_takes`` is the non-blocking take an
unstarted service's calling thread makes; ``reopen`` is what a stopped
service does to its batcher once the worker threads have drained it.
Nothing here sleeps: the batcher's clock is a fake the machine advances,
and its workers are real threads parked on an instrumented condition that
tells the machine "parked" and wakes only when the machine says so — so
every step ends in a quiescent state the invariants can read.
"""

import threading
from collections import deque
from itertools import combinations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.serving import (
    LANE_WEIGHTS,
    LANES,
    DeadlineExceeded,
    MicroBatcher,
    ServeRequest,
    ServiceOverloaded,
)
from repro.serving import batcher as batcher_module
from tests.helpers import make_molecule_graphs

GRAPHS = make_molecule_graphs(8, seed=0)  # 8 to 22 atoms
WORKERS = 3
NEVER = 3600.0  # an aging bound no run reaches


class _Clock:
    """Stands in for the ``time`` module inside ``repro.serving.batcher``."""

    def __init__(self) -> None:
        self.now = 1000.0

    def monotonic(self) -> float:
        return self.now


class _Worker:
    """One consumer slot: ``out`` → ``asking`` → ``parked`` | ``holding`` | ``finished``."""

    def __init__(self) -> None:
        self.state = "out"
        self.batch: list[ServeRequest] | None = None
        self.folded = False  # the held batch is already in the model
        self.thread: threading.Thread | None = None


class _ParkingCondition(threading.Condition):
    """Waiters report that they parked; timeouts are the machine's to deliver."""

    def __init__(self, machine: "BatcherMachine") -> None:
        super().__init__()
        self._machine = machine

    def wait(self, timeout=None):
        self._machine._report("parked")
        return super().wait()


def _failure(request: ServeRequest) -> BaseException | None:
    try:
        request.wait(timeout=0)
    except BaseException as error:  # noqa: BLE001 — whatever the request was failed with
        return error
    return None


class BatcherMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.clock = _Clock()
        self._real_time = batcher_module.time
        batcher_module.time = self.clock
        self._mx = threading.Condition()  # guards worker states
        self.workers = [_Worker() for _ in range(WORKERS)]
        self.dequeues: list[threading.Thread] = []  # one entry per dequeued request
        self.lanes = {lane: deque() for lane in LANES}  # the model's queue
        self.submitted: list[ServeRequest] = []
        self.rejected: set[int] = set()
        self.expired: set[int] = set()
        self.taken: set[int] = set()
        self.aged_picks = 0
        self.pairs = {pair: [0, 0] for pair in combinations(LANES, 2)}
        self.closed = False
        self.settles = 0  # ~ steps so far; `close` waits for the run's tail

    @initialize(
        max_atoms=st.sampled_from([30, 48, 10**9]),
        max_graphs=st.sampled_from([3, 12]),
        max_pending=st.sampled_from([0, 16]),
        lane_aging_s=st.sampled_from([0.01, NEVER]),
    )
    def build(self, max_atoms, max_graphs, max_pending, lane_aging_s):
        self.batcher = MicroBatcher(
            max_atoms=max_atoms,
            max_graphs=max_graphs,
            flush_interval_s=0.005,
            max_pending=max_pending,
            lane_aging_s=lane_aging_s,
            workers=WORKERS,
            on_dequeue_wait=lambda wait: self.dequeues.append(threading.current_thread()),
        )
        self.batcher._cond = _ParkingCondition(self)

    # ------------------------------------------------------------------
    # worker threads and the quiescence handshake
    # ------------------------------------------------------------------
    def _report(self, state: str, batch=None) -> None:
        me = threading.current_thread()
        with self._mx:
            worker = next(w for w in self.workers if w.thread is me)
            worker.state, worker.batch, worker.folded = state, batch, False
            self._mx.notify_all()

    def _in_state(self, state: str) -> list[int]:
        return [index for index, worker in enumerate(self.workers) if worker.state == state]

    def _ask(self) -> None:
        batch = self.batcher.next_batch()
        self._report("finished" if batch is None else "holding", batch)

    def _settle(self) -> None:
        """Wake every parked worker; return once each has parked again or returned."""
        with self.batcher._cond:
            # Holding the batcher's lock, a worker in state "parked" is
            # either truly parked (the notify below wakes it) or queued
            # for this lock after an earlier notify; both report again.
            with self._mx:
                for worker in self.workers:
                    if worker.state == "parked":
                        worker.state = "asking"
            self.batcher._cond.notify_all()
        with self._mx:
            quiet = self._mx.wait_for(
                lambda: all(worker.state != "asking" for worker in self.workers), timeout=30.0
            )
        assert quiet, "a worker neither parked nor returned"
        self.settles += 1
        self._replay()

    def _replay(self, taken: list[ServeRequest] | None = None) -> None:
        """Fold what the workers did since the last quiescent state into the model.

        ``taken`` is the batch the machine's own thread just took, if any.
        """
        now = self.clock.now
        for lane, queue in self.lanes.items():
            for request in [r for r in queue if r.done()]:
                # Failed while queued and never handed to a worker: only
                # the dequeue-time deadline drop may do that.
                assert isinstance(_failure(request), DeadlineExceeded)
                assert request.deadline is not None and request.deadline <= now
                self.expired.add(id(request))
            self.lanes[lane] = deque(r for r in queue if not r.done())
        batches = {}
        if taken is not None:
            self._check_budgets(taken)
            batches[threading.current_thread()] = iter(taken)
        for worker in self.workers:
            if worker.state == "holding" and not worker.folded:
                worker.folded = True
                self._check_budgets(worker.batch)
                batches[worker.thread] = iter(worker.batch)
        for thread in self.dequeues:
            self._dequeued(next(batches[thread]), now)
        self.dequeues.clear()
        assert all(next(rest, None) is None for rest in batches.values())

    def _check_budgets(self, batch: list[ServeRequest]) -> None:
        assert 1 <= len(batch) <= self.batcher.max_graphs
        atoms = sum(request.n_atoms for request in batch)
        assert atoms <= self.batcher.max_atoms or len(batch) == 1

    def _dequeued(self, request: ServeRequest, now: float) -> None:
        assert id(request) not in self.taken, "a request was handed out twice"
        self.taken.add(id(request))
        assert self.lanes[request.lane][0] is request, "FIFO within a lane"
        heads = [queue[0] for queue in self.lanes.values() if queue]
        aged = [h for h in heads if now - h.submitted_at >= self.batcher.lane_aging_s]
        if aged:
            self.aged_picks += 1
            assert request.submitted_at == min(h.submitted_at for h in aged), (
                "an aged head is served next"
            )
        for pair, counts in self.pairs.items():
            if not all(self.lanes[lane] for lane in pair):
                counts[:] = [0, 0]
            elif request.lane in pair:
                counts[pair.index(request.lane)] += 1
                # Start-time fair queueing: two lanes backlogged over the
                # same window are served in proportion to their weights,
                # each to within one request.  An aged pick moves the
                # virtual clock out of band, so the claim is for batchers
                # that have not aged anything yet.
                if not self.aged_picks:
                    (a, b), (n_a, n_b) = pair, counts
                    skew = abs(n_a / LANE_WEIGHTS[a] - n_b / LANE_WEIGHTS[b])
                    assert skew <= 1 / LANE_WEIGHTS[a] + 1 / LANE_WEIGHTS[b] + 1e-9, (
                        f"{a}:{b} served {n_a}:{n_b} over a saturated window"
                    )
        self.lanes[request.lane].popleft()

    # ------------------------------------------------------------------
    # rules
    # ------------------------------------------------------------------
    def _request(self, draw, lane: str | None = None) -> ServeRequest:
        budget = draw(st.sampled_from([None, None, 0.002, 0.02, 1.0]))
        return ServeRequest(
            graph=GRAPHS[draw(st.integers(0, len(GRAPHS) - 1))],
            key=str(len(self.submitted)),
            submitted_at=self.clock.now,
            deadline=None if budget is None else self.clock.now + budget,
            lane=lane or draw(st.sampled_from(LANES)),
        )

    def _submit(self, requests: list[ServeRequest], enqueue) -> None:
        self.submitted.extend(requests)
        try:
            enqueue()
        except (ServiceOverloaded, DeadlineExceeded, RuntimeError) as error:
            if type(error) is RuntimeError:
                assert self.closed, "an open batcher refused a request as closed"
            # The refused request and everything behind it in its group
            # carry the rejection itself; the prefix stays queued.
            refused = [request for request in requests if _failure(request) is error]
            assert refused and refused == requests[-len(refused) :]
            self.rejected.update(id(request) for request in refused)
        for request in requests:
            if id(request) not in self.rejected:
                self.lanes[request.lane].append(request)
        self._settle()

    def _submit_group(self, requests: list[ServeRequest]) -> None:
        self._submit(requests, lambda: self.batcher.submit_many(requests))

    @rule(data=st.data())
    def submit(self, data):
        request = self._request(data.draw)
        self._submit([request], lambda: self.batcher.submit(request))

    @rule(data=st.data(), size=st.integers(2, 8))
    def submit_group(self, data, size):
        self._submit_group([self._request(data.draw) for _ in range(size)])

    @rule(data=st.data(), each=st.integers(2, 4))
    def flood(self, data, each):
        """Backlog every lane at once: the saturated windows the share bound is about."""
        self._submit_group([self._request(data.draw, lane) for lane in LANES for _ in range(each)])

    @precondition(lambda self: self._in_state("out"))
    @rule(data=st.data())
    def worker_asks(self, data):
        worker = self.workers[data.draw(st.sampled_from(self._in_state("out")))]
        worker.state = "asking"
        worker.thread = threading.Thread(target=self._ask, daemon=True)
        worker.thread.start()
        self._settle()

    @precondition(lambda self: self._in_state("holding"))
    @rule(data=st.data(), seconds=st.sampled_from([0.0005, 0.004, 0.05]))
    def worker_completes(self, data, seconds):
        worker = self.workers[data.draw(st.sampled_from(self._in_state("holding")))]
        for request in worker.batch:
            request.resolve(None)
        self.batcher.record_service(len(worker.batch), seconds)
        worker.state = "out"

    @rule(seconds=st.sampled_from([0.0005, 0.004, 0.05]))
    def caller_takes(self, seconds):
        """The machine's own thread takes a batch without blocking, and runs it."""
        batch = self.batcher.next_batch(wait=False)
        self._replay(batch)
        if batch is None:
            assert not any(self.lanes.values()), "a non-blocking take left pending work behind"
            return
        for request in batch:
            request.resolve(None)
        self.batcher.record_service(len(batch), seconds)

    @rule(seconds=st.sampled_from([0.001, 0.004, 0.006, 0.03, 0.06]))
    def clock_advances(self, seconds):
        self.clock.now += seconds
        self._settle()

    @precondition(lambda self: any(r.deadline for q in self.lanes.values() for r in q))
    @rule()
    def expire(self):
        """Jump to the instant the next queued deadline passes."""
        self.clock.now = min(
            r.deadline for queue in self.lanes.values() for r in queue if r.deadline
        )
        self._settle()

    @precondition(lambda self: not self.closed and self.settles >= 20)
    @rule()
    def close(self):
        self.closed = True
        self.batcher.close()
        self._settle()

    @precondition(lambda self: self.closed and not any(self.lanes.values()))
    @rule()
    def reopen(self):
        """Accept work again once the closed queue drained; finished workers may ask anew."""
        self.batcher.reopen()
        self.closed = False
        for worker in self.workers:
            if worker.state == "finished":
                worker.state = "out"

    # ------------------------------------------------------------------
    # invariants (read in a quiescent state)
    # ------------------------------------------------------------------
    @invariant()
    def counters_equal_queue_contents(self):
        if not hasattr(self, "batcher"):
            return
        queued = [request for queue in self.lanes.values() for request in queue]
        assert self.batcher.pending_graphs == len(queued)
        assert self.batcher.pending_atoms == sum(request.n_atoms for request in queued)
        assert self.batcher.lane_depths() == {
            lane: len(queue) for lane, queue in self.lanes.items()
        }

    @invariant()
    def no_worker_waits_on_a_non_empty_queue(self):
        if not hasattr(self, "batcher"):
            return
        if any(worker.state == "parked" for worker in self.workers):
            assert self.batcher.pending_graphs == 0, "a free worker is waiting beside queued work"

    def teardown(self):
        """Drain, then: every request ended as exactly one of taken / expired / rejected."""
        try:
            if not hasattr(self, "batcher"):
                return
            self.batcher.close()
            self._settle()
            while any(worker.state != "finished" for worker in self.workers):
                for worker in self.workers:
                    if worker.state == "holding":
                        for request in worker.batch:
                            request.resolve(None)
                        worker.state = "out"
                    if worker.state == "out":
                        worker.state = "asking"
                        worker.thread = threading.Thread(target=self._ask, daemon=True)
                        worker.thread.start()
                self._settle()
            assert not any(self.lanes.values())
            outcomes = [self.rejected, self.expired, self.taken]
            for request in self.submitted:
                assert sum(id(request) in outcome for outcome in outcomes) == 1
        finally:
            batcher_module.time = self._real_time


BatcherMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=50, deadline=None
)
TestBatcherMachine = BatcherMachine.TestCase
