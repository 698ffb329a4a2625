"""Stateful search over ``MicroBatcher`` slots: conservation, budgets, fairness, wake-ups.

A Hypothesis rule machine drives one batcher the way the service's callers
do — a caller arrives (enqueues a group and takes), takes again after a
forward, releases its slot, gives up at its instant, while the clock moves
and deadlines pass — in any order, and checks after every step the
properties the serving stack leans on.  Nothing here sleeps: the
batcher's clock is a fake the machine advances, and each take runs on a
real thread parked on an instrumented condition that tells the machine
"parked", and that marks every parked caller as waking when the batcher
notifies — so every step ends in a quiescent state the invariants can
read, and a release that forgets to notify leaves its caller parked.
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
NEVER = 3600.0  # an aging bound no run reaches


class _Clock:
    """Stands in for the ``time`` module inside ``repro.serving.batcher``."""

    def __init__(self) -> None:
        self.now = 1000.0

    def monotonic(self) -> float:
        return self.now


class _Caller:
    """One call: ``asking`` → ``parked`` | ``holding`` | ``finished``; ``out`` between takes."""

    def __init__(self, mine: list[ServeRequest], until: float) -> None:
        self.mine = mine
        self.until = until
        self.state = "out"
        self.batch: list[ServeRequest] | None = None
        self.folded = False  # the held batch is already in the model
        self.thread: threading.Thread | None = None


class _ParkingCondition(threading.Condition):
    """Waiters report that they parked; a notify marks them waking.

    Timeouts are the machine's to deliver (it advances the clock, then
    notifies), so ``wait`` ignores them.  Woken callers go on one at a
    time, in caller order, so a run is a function of its draws alone.
    """

    def __init__(self, machine: "BatcherMachine") -> None:
        super().__init__()
        self._machine = machine
        self.turns: deque[_Caller] = deque()  # woken callers, next to go first

    def wait(self, timeout=None):
        me = self._machine._report("parked")
        self.pass_turn()
        super().wait()
        while not self.turns or self.turns[0] is not me:
            super().wait()
        self.turns.popleft()

    def notify_all(self):
        self.turns.extend(self._machine._waking())
        super().notify_all()

    def pass_turn(self) -> None:
        """The caller whose turn it was parked again or returned: wake the next."""
        if self.turns:
            super().notify_all()


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
        self._mx = threading.Condition()  # guards caller states
        self.callers: list[_Caller] = []
        self.dequeues: list[threading.Thread] = []  # one entry per dequeued request
        self.lanes = {lane: deque() for lane in LANES}  # the model's queue
        self.submitted: list[ServeRequest] = []
        self.leases: dict[int, int] = {}  # id(request) -> on_done calls
        self.rejected: set[int] = set()
        self.expired: set[int] = set()
        self.given_up: set[int] = set()
        self.taken: set[int] = set()
        self.aged_picks = 0
        self.pairs = {pair: [0, 0] for pair in combinations(LANES, 2)}

    @initialize(
        workers=st.sampled_from([1, 2, 3]),
        max_atoms=st.sampled_from([30, 48, 10**9]),
        max_graphs=st.sampled_from([3, 12]),
        max_pending=st.sampled_from([0, 16]),
        lane_aging_s=st.sampled_from([0.01, NEVER]),
    )
    def build(self, workers, max_atoms, max_graphs, max_pending, lane_aging_s):
        self.batcher = MicroBatcher(
            max_atoms=max_atoms,
            max_graphs=max_graphs,
            flush_interval_s=0.005,
            max_pending=max_pending,
            lane_aging_s=lane_aging_s,
            workers=workers,
            on_dequeue_wait=lambda wait: self.dequeues.append(threading.current_thread()),
        )
        self.batcher._cond = _ParkingCondition(self)

    # ------------------------------------------------------------------
    # take threads and the quiescence handshake
    # ------------------------------------------------------------------
    def _caller(self) -> _Caller:
        me = threading.current_thread()
        return next(caller for caller in self.callers if caller.thread is me)

    def _report(self, state: str, batch=None) -> _Caller:
        with self._mx:
            caller = self._caller()
            caller.state, caller.batch, caller.folded = state, batch, False
            self._mx.notify_all()
        return caller

    def _waking(self) -> list[_Caller]:
        """The batcher notified (its lock held): every parked caller is waking."""
        with self._mx:
            woken = [caller for caller in self.callers if caller.state == "parked"]
            for caller in woken:
                caller.state = "asking"
        return woken

    def _in_state(self, state: str) -> list[int]:
        return [index for index, caller in enumerate(self.callers) if caller.state == state]

    def _ask(self, caller: _Caller) -> None:
        """The caller takes once, on its own thread."""

        def take():
            batch = self.batcher.take(caller.mine, caller.until)
            self._report("finished" if batch is None else "holding", batch)
            with self.batcher._cond:
                self.batcher._cond.pass_turn()

        caller.state = "asking"
        caller.thread = threading.Thread(target=take, daemon=True)
        caller.thread.start()

    def _holding(self) -> int:
        return sum(caller.state == "holding" for caller in self.callers)

    def _step(self, action) -> None:
        """Run ``action``, then let every waking caller park again or return."""
        free = self.batcher.workers - self._holding()
        action()
        with self._mx:
            quiet = self._mx.wait_for(
                lambda: all(caller.state != "asking" for caller in self.callers), timeout=30.0
            )
        assert quiet, "a caller neither parked nor returned"
        self._replay(free)

    def _replay(self, free: int) -> None:
        """Fold what the callers did since the last quiescent state into the model.

        ``free`` is how many slots were free before it.
        """
        now = self.clock.now
        for lane, queue in self.lanes.items():
            for request in [r for r in queue if r.done()]:
                # Failed while queued, never handed to a forward: a
                # deadline drop, or its caller giving up.
                error = _failure(request)
                if isinstance(error, DeadlineExceeded):
                    assert request.deadline is not None and request.deadline <= now
                    self.expired.add(id(request))
                else:
                    assert isinstance(error, TimeoutError), error
                    owner = next(c for c in self.callers if any(r is request for r in c.mine))
                    assert owner.until <= now and owner.state == "finished"
                    self.given_up.add(id(request))
            self.lanes[lane] = deque(r for r in queue if not r.done())
        batches = {}
        for caller in self.callers:
            if caller.state == "holding" and not caller.folded:
                caller.folded = True
                self._check_budgets(caller.batch)
                batches[caller.thread] = iter(caller.batch)
        if len(batches) == 1:
            # One take from a known queue: its atom budget is its share
            # of what was pending among the slots that were free.
            (batch,) = [caller.batch for caller in self.callers if caller.thread in batches]
            pending = sum(r.n_atoms for queue in self.lanes.values() for r in queue)
            share = -(-pending // free)
            atoms = sum(r.n_atoms for r in batch)
            assert atoms <= min(self.batcher.max_atoms, share) or len(batch) == 1, (
                f"{atoms} atoms taken; the share of {pending} among {free} free slots is {share}"
            )
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
        request = ServeRequest(
            graph=GRAPHS[draw(st.integers(0, len(GRAPHS) - 1))],
            key=str(len(self.submitted)),
            submitted_at=self.clock.now,
            deadline=None if budget is None else self.clock.now + budget,
            lane=lane or draw(st.sampled_from(LANES)),
        )
        self.leases[id(request)] = 0

        def release(key=id(request)):
            self.leases[key] += 1

        request.on_done = release
        self.submitted.append(request)
        return request

    def _wake(self) -> None:
        """Deliver the parked callers' timeouts: the clock moved."""
        with self.batcher._cond:
            self.batcher._cond.notify_all()

    def _arrive(self, requests: list[ServeRequest], patience: float) -> None:
        try:
            self.batcher.submit_many(requests)
        except (ServiceOverloaded, DeadlineExceeded) as error:
            # The refused request and everything behind it in its group
            # carry the rejection itself; the prefix stays queued.
            refused = [request for request in requests if _failure(request) is error]
            assert refused and refused == requests[-len(refused) :]
            self.rejected.update(id(request) for request in refused)
        for request in requests:
            if id(request) not in self.rejected:
                self.lanes[request.lane].append(request)
        caller = _Caller(requests, self.clock.now + patience)
        self.callers.append(caller)
        self._step(lambda: self._ask(caller))

    @rule(data=st.data(), size=st.integers(1, 6), patience=st.sampled_from([0.01, 0.05, 1.0]))
    def caller_arrives(self, data, size, patience):
        self._arrive([self._request(data.draw) for _ in range(size)], patience)

    @rule(data=st.data(), each=st.integers(2, 4))
    def flood(self, data, each):
        """Backlog every lane at once: the saturated windows the share bound is about."""
        self._arrive([self._request(data.draw, lane) for lane in LANES for _ in range(each)], 1.0)

    @precondition(lambda self: self._in_state("out"))
    @rule(data=st.data())
    def caller_takes(self, data):
        """A caller back from its forward takes again."""
        caller = self.callers[data.draw(st.sampled_from(self._in_state("out")))]
        self._step(lambda: self._ask(caller))

    @precondition(lambda self: self._in_state("holding"))
    @rule(data=st.data(), seconds=st.sampled_from([0.0005, 0.004, 0.05]))
    def caller_releases(self, data, seconds):
        """A forward finishes: the slot goes back, then the results go out."""
        caller = self.callers[data.draw(st.sampled_from(self._in_state("holding")))]
        self.batcher.record_service(len(caller.batch), seconds)
        caller.state = "out"
        self._step(lambda: self._finish(caller))

    def _finish(self, caller: _Caller) -> None:
        self.batcher.release()
        for request in caller.batch:
            request.resolve(None)

    @precondition(lambda self: self._in_state("parked"))
    @rule(data=st.data())
    def caller_gives_up(self, data):
        """Jump to a parked caller's give-up instant; it wakes then."""
        caller = self.callers[data.draw(st.sampled_from(self._in_state("parked")))]
        self.clock.now = max(self.clock.now, caller.until)
        self._step(self._wake)

    @rule(seconds=st.sampled_from([0.001, 0.004, 0.006, 0.03, 0.06]))
    def clock_advances(self, seconds):
        self.clock.now += seconds
        self._step(self._wake)

    @precondition(lambda self: any(r.deadline for q in self.lanes.values() for r in q))
    @rule()
    def expire(self):
        """Jump to the instant the next queued deadline passes."""
        self.clock.now = min(
            r.deadline for queue in self.lanes.values() for r in queue if r.deadline
        )
        self._step(self._wake)

    # ------------------------------------------------------------------
    # invariants (read in a quiescent state)
    # ------------------------------------------------------------------
    @invariant()
    def busy_slots_are_the_holding_callers(self):
        if not hasattr(self, "batcher"):
            return
        assert self.batcher.busy == self._holding() <= self.batcher.workers

    @invariant()
    def no_caller_parks_beside_a_free_slot(self):
        if not hasattr(self, "batcher") or self.batcher.busy >= self.batcher.workers:
            return
        for caller in self.callers:
            if caller.state == "parked":
                assert not any(request.queued for request in caller.mine), (
                    "a caller with queued work is parked beside a free slot"
                )

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
    def leases_are_conserved(self):
        """A lease comes back once, when its request ends, and not before."""
        for request in self.submitted:
            assert self.leases[id(request)] == int(request.done())

    def teardown(self):
        """Drain, then: every request ended as exactly one outcome, its lease back once."""
        try:
            if not hasattr(self, "batcher"):
                return
            while any(caller.state != "finished" for caller in self.callers):
                for caller in self.callers:
                    if caller.state == "holding":
                        caller.state = "out"
                        self._step(lambda: self._finish(caller))
                for caller in self.callers:
                    if caller.state == "out":
                        self._step(lambda: self._ask(caller))
                assert not self._in_state("parked") or self._in_state("holding"), (
                    "parked callers beside free slots at drain"
                )
            assert not any(self.lanes.values())
            assert self.batcher.busy == 0
            outcomes = [self.rejected, self.expired, self.given_up, self.taken]
            for request in self.submitted:
                assert sum(id(request) in outcome for outcome in outcomes) == 1
                assert self.leases[id(request)] == 1
        finally:
            batcher_module.time = self._real_time


BatcherMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=50, deadline=None
)
TestBatcherMachine = BatcherMachine.TestCase
