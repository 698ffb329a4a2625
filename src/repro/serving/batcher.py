"""Dynamic micro-batching: queue requests, hand them to free workers.

The throughput of the fused inference path scales with batch size —
collating K small structures into one disjoint-union graph amortizes
per-call overhead across K structures — but serving traffic arrives one
structure at a time.  The :class:`MicroBatcher` bridges the two with one
rule: *a worker that asks for work takes what is pending now, and takes
only its share when other workers are also free*.

- **Free worker.**  Nothing is queued beside an idle worker:
  :meth:`MicroBatcher.next_batch` returns as soon as anything is
  pending.  Requests accumulate — and batches form — only while every
  worker is busy; the next worker to come free takes them in
  weighted-fair order.
- **Budgets.**  One take stops at the **atom budget** (``max_atoms``,
  the knob that bounds peak activation memory per forward) or the
  **graph budget** (``max_graphs``), whichever comes first.
- **Share.**  When several workers are free at once (a multi-structure
  call arriving at an idle service, enqueued whole by
  :meth:`MicroBatcher.submit_many`), each take's atom budget is cut to
  ``ceil(pending atoms / free workers)``, so the call becomes that many
  similar-sized forwards running side by side instead of one large
  batch and a remainder.

So queue delay is paid only while every worker is busy; there is no
flush timer.  ``flush_interval_s`` is still accepted and reported, and
still seeds the default lane-aging bound, but it no longer delays a
batch.  Atoms-not-graphs as the primary budget is what a variable-size
graph workload needs, since forward cost tracks nodes and edges, not
graph count.

**Priority lanes.**  The queue is split into three lanes —
``interactive``, ``bulk``, ``background`` — scheduled by weighted fair
queueing: each lane carries a virtual clock that advances by
``1/weight`` per dequeued request, and batches are filled from the lane
with the smallest clock.  With the default 8:3:1 weights a saturated
queue serves 8 interactive structures for every 3 bulk and 1 background,
while an idle lane costs nothing.  Two guarantees hold regardless of
weights: requests are FIFO *within* a lane, and a request whose queue
age exceeds the aging bound is served next no matter its lane — so
background work is throttled under load, never starved.

**Admission control.** An optional ``max_pending`` bounds the queue
depth: once that many structures are waiting, :meth:`MicroBatcher.submit`
raises :class:`ServiceOverloaded` instead of enqueueing.  Rejecting at
the door keeps a slow consumer from growing an unbounded backlog whose
requests would all time out anyway — the client gets an immediate,
retryable signal (HTTP 429 at the API layer) while in-flight work keeps
its latency bound.  Deadline shedding is equally eager: a request whose
``deadline`` has already passed — or whose *predicted* queue wait
(pending work over the measured drain rate) would outlive it — is
rejected at submit with :class:`DeadlineExceeded` instead of being
discovered dead at dequeue.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.graph.atoms import AtomGraph

#: Priority lanes, highest priority first.  The tuple order doubles as
#: the tie-break when two lanes' virtual clocks are equal.
LANES = ("interactive", "bulk", "background")
DEFAULT_LANE = "interactive"
#: Weighted-fair shares under saturation (idle lanes cost nothing).
LANE_WEIGHTS = {"interactive": 8, "bulk": 3, "background": 1}


class ServiceOverloaded(RuntimeError):
    """Admission control rejected a request: the pending queue is full.

    Retryable by construction — the queue was full *now*; nothing about
    the request itself was wrong.  The HTTP front end maps this to 429.
    Subclasses in :mod:`repro.serving.admission` carry an honest
    ``retry_after_s`` hint; this base sets it to ``None``.
    """

    retry_after_s: float | None = None


class DeadlineExceeded(RuntimeError):
    """The request's deadline passed before (or while) it was served.

    Raised instead of executing a forward whose result nobody is still
    waiting for: the batcher sheds at submit (already expired, or
    predicted to expire while queued), drops expired entries at dequeue,
    and the relax loop checks between force evaluations.  The HTTP
    front end maps this to 504 with code ``deadline_exceeded``.
    """


@dataclass
class ServeRequest:
    """One enqueued structure, with its completion signal.

    Workers fulfil the request by calling :meth:`resolve` (or
    :meth:`fail`); the submitting client blocks in :meth:`wait`.
    """

    graph: AtomGraph
    key: str
    submitted_at: float = field(default_factory=time.monotonic)
    #: Absolute ``time.monotonic()`` instant after which serving this
    #: request is wasted work (``None``: no deadline).
    deadline: float | None = None
    #: Scheduling lane (see :data:`LANES`); FIFO within a lane.
    lane: str = DEFAULT_LANE
    #: Caller identity for quota accounting (``None``: anonymous).
    client_id: str | None = None
    #: Invoked exactly once when the request completes (either way) —
    #: the hook admission leases use to release concurrency slots.
    on_done: object = field(default=None, repr=False, compare=False)
    _done: threading.Event = field(default_factory=threading.Event, repr=False)
    _result: object = None
    _error: BaseException | None = None

    @property
    def n_atoms(self) -> int:
        return self.graph.n_atoms

    def expired(self, now: float | None = None) -> bool:
        if now is None:
            now = time.monotonic()
        return self.deadline is not None and now >= self.deadline

    def _fire_done(self) -> None:
        callback, self.on_done = self.on_done, None
        if callback is not None:
            callback()

    def resolve(self, result) -> None:
        self._result = result
        self._done.set()
        self._fire_done()

    def fail(self, error: BaseException) -> None:
        self._error = error
        self._done.set()
        self._fire_done()

    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float | None = None):
        """Block until fulfilled; returns the result or re-raises."""
        if not self._done.wait(timeout):
            raise TimeoutError(f"request {self.key[:12]} not served within {timeout}s")
        if self._error is not None:
            raise self._error
        return self._result


#: What bounded a batch when it left the queue (recorded for
#: telemetry/tests): a full budget's worth was pending, the queue was
#: draining at close, or a free worker simply took what there was.
FLUSH_ATOMS = "atoms_budget"
FLUSH_GRAPHS = "graphs_budget"
FLUSH_CLOSE = "close"
FLUSH_WORKER = "free_worker"


def first_chunk_size(
    requests: Iterable[ServeRequest], max_atoms: int, max_graphs: int
) -> int:
    """How many leading requests one flush takes (always >= 1).

    The single source of truth for the budget discipline: every take
    from the batcher is cut by it, whichever thread asks.  A single
    structure larger than ``max_atoms`` still ships as a batch of one:
    oversized structures must be servable, they just never share a batch.
    ``requests`` is read lazily, one past the last request taken.
    """
    count = 0
    atoms = 0
    for request in requests:
        if count >= max_graphs:
            break
        if count and atoms + request.n_atoms > max_atoms:
            break
        count += 1
        atoms += request.n_atoms
    return count


class MicroBatcher:
    """Bounded accumulation queue handing budget-sized batches to free workers."""

    def __init__(
        self,
        max_atoms: int = 512,
        max_graphs: int = 64,
        flush_interval_s: float = 0.005,
        max_pending: int = 0,
        lane_aging_s: float | None = None,
        workers: int = 1,
        on_dequeue_wait=None,
    ) -> None:
        if max_atoms < 1 or max_graphs < 1:
            raise ValueError("max_atoms and max_graphs must be >= 1")
        if flush_interval_s < 0:
            raise ValueError("flush_interval_s must be >= 0")
        if max_pending < 0:
            raise ValueError("max_pending must be >= 0 (0 disables admission control)")
        if lane_aging_s is not None and lane_aging_s < 0:
            raise ValueError("lane_aging_s must be >= 0")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.max_atoms = int(max_atoms)
        self.max_graphs = int(max_graphs)
        self.flush_interval_s = float(flush_interval_s)
        self.max_pending = int(max_pending)
        #: A request older than this jumps the weighted-fair schedule —
        #: the anti-starvation bound.  Defaults to 10 ``flush_interval_s``
        #: (floored at 50 ms), the one thing that value still decides.
        self.lane_aging_s = (
            float(lane_aging_s)
            if lane_aging_s is not None
            else max(0.05, 10.0 * self.flush_interval_s)
        )
        #: Consumer-thread count — the queue-wait estimator's drain
        #: concurrency hint, set by the service at start() and stop().
        self.workers = int(workers)
        #: Called with each dequeued request's queue age (seconds); the
        #: brownout controller's saturation signal.
        self.on_dequeue_wait = on_dequeue_wait
        self.rejected = 0  # admission-control rejections (telemetry)
        self.expired = 0  # deadline-expired drops (telemetry)
        self.shed_predicted = 0  # predicted-wait submit rejections (telemetry)
        self._lanes: dict[str, deque[ServeRequest]] = {lane: deque() for lane in LANES}
        self._virtual: dict[str, float] = {lane: 0.0 for lane in LANES}
        self._vtime = 0.0  # virtual clock of the most recent dequeue
        self._pending_count = 0
        self._pending_atoms = 0
        self._free_workers = 0  # consumers inside next_batch() right now
        #: EWMA of measured per-graph service time (record_service), the
        #: basis of the predicted-wait shed at submit.
        self._per_graph_s: float | None = None
        self._closed = False
        self._cond = threading.Condition()
        self.flush_reasons: dict[str, int] = {}

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def submit(self, request: ServeRequest) -> None:
        """Enqueue one request, or reject it if the queue is at capacity."""
        self.submit_many([request])

    def submit_many(self, requests: list[ServeRequest]) -> None:
        """Enqueue a group under one lock hold: a worker sees all of it or none.

        Every request passes the checks of :meth:`submit`, in order.  The
        first one refused raises its rejection; the requests ahead of it
        stay queued and run, and it and everything behind it are failed
        with that rejection — never queued, so never executed, and their
        ``on_done`` hooks (admission leases) fire exactly once.
        """
        if not requests:
            return  # a call answered wholly by the cache wakes nobody
        with self._cond:
            now = time.monotonic()
            queued = 0
            try:
                for request in requests:
                    self._enqueue_locked(request, now)
                    queued += 1
            except BaseException as error:
                for request in requests[queued:]:
                    request.fail(error)
                raise
            finally:
                self._cond.notify_all()

    def _enqueue_locked(self, request: ServeRequest, now: float) -> None:
        if request.lane not in self._lanes:
            raise ValueError(f"unknown lane {request.lane!r}; expected one of {LANES}")
        if self._closed:
            raise RuntimeError("cannot submit to a closed MicroBatcher")
        if request.expired(now):
            # Expired on arrival: reject before it occupies queue
            # space a live request could use.
            self.expired += 1
            raise DeadlineExceeded(f"request {request.key[:12]} arrived past its deadline")
        if self.max_pending and self._pending_count >= self.max_pending:
            self.rejected += 1
            raise ServiceOverloaded(
                f"pending queue full ({self._pending_count}/{self.max_pending} "
                "structures); retry later"
            )
        if request.deadline is not None:
            # Predicted-wait shed: if the measured drain rate says the
            # queue ahead of this request already outlives its
            # deadline, fail now instead of discovering it at dequeue.
            wait = self._estimated_wait_locked()
            if wait > 0.0 and now + wait >= request.deadline:
                self.shed_predicted += 1
                self.expired += 1
                raise DeadlineExceeded(
                    f"request {request.key[:12]} predicted to wait {wait:.3f}s "
                    "in the queue, past its deadline; shed at submit"
                )
        lane = self._lanes[request.lane]
        if not lane:
            # A lane waking from idle starts at the current virtual
            # clock — it competes fairly from now, it does not cash
            # in credit accumulated while empty.
            self._virtual[request.lane] = max(self._virtual[request.lane], self._vtime)
        lane.append(request)
        self._pending_count += 1
        self._pending_atoms += request.n_atoms

    def close(self) -> None:
        """Stop accepting requests; queued work drains as final batches."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def reopen(self) -> None:
        """Accept requests again after :meth:`close` (counters carry on)."""
        with self._cond:
            self._closed = False

    @property
    def pending_graphs(self) -> int:
        with self._cond:
            return self._pending_count

    @property
    def pending_atoms(self) -> int:
        with self._cond:
            return self._pending_atoms

    def lane_depths(self) -> dict[str, int]:
        """Current queue depth per lane (telemetry)."""
        with self._cond:
            return {lane: len(queue) for lane, queue in self._lanes.items()}

    # ------------------------------------------------------------------
    # queue-wait estimation
    # ------------------------------------------------------------------
    def record_service(self, graphs: int, duration_s: float) -> None:
        """Feed one executed batch's timing into the drain-rate EWMA."""
        per_graph = float(duration_s) / max(1, int(graphs))
        with self._cond:
            if self._per_graph_s is None:
                self._per_graph_s = per_graph
            else:
                self._per_graph_s = 0.7 * self._per_graph_s + 0.3 * per_graph

    def _estimated_wait_locked(self) -> float:
        if self._per_graph_s is None or not self._pending_count:
            return 0.0
        return self._pending_count * self._per_graph_s / max(1, self.workers)

    @property
    def estimated_wait_s(self) -> float:
        """Predicted queue wait for a request arriving right now."""
        with self._cond:
            return self._estimated_wait_locked()

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    def _flush_reason(self) -> str:
        """What bounds the batch about to leave a non-empty queue."""
        if self._pending_atoms >= self.max_atoms:
            return FLUSH_ATOMS
        if self._pending_count >= self.max_graphs:
            return FLUSH_GRAPHS
        return FLUSH_CLOSE if self._closed else FLUSH_WORKER

    def _select_lane(self, now: float) -> str:
        """Which lane serves next: aged head first, else smallest clock."""
        aged: str | None = None
        aged_at = 0.0
        for lane in LANES:
            queue = self._lanes[lane]
            if not queue:
                continue
            head = queue[0]
            if now - head.submitted_at >= self.lane_aging_s and (
                aged is None or head.submitted_at < aged_at
            ):
                aged, aged_at = lane, head.submitted_at
        if aged is not None:
            return aged
        best: str | None = None
        for lane in LANES:
            if self._lanes[lane] and (
                best is None or self._virtual[lane] < self._virtual[best]
            ):
                best = lane
        assert best is not None  # caller checked _pending_count
        return best

    def _take_batch(self, now: float) -> list[ServeRequest]:
        """Pop this worker's batch via weighted-fair selection.

        Always takes at least one request; FIFO within each lane.  The
        budgets are :func:`first_chunk_size`'s, with the atom budget cut
        to this worker's share of what is pending when other workers are
        free to take the rest; alone, or under saturation, the share is
        the whole of ``max_atoms``.
        """
        batch: list[ServeRequest] = []

        def heads():
            # first_chunk_size looks one request past its chunk, so a
            # head is only shown here; asking for the next one takes it.
            while self._pending_count:
                lane = self._select_lane(now)
                head = self._lanes[lane][0]
                yield head
                self._lanes[lane].popleft()
                self._pending_count -= 1
                self._pending_atoms -= head.n_atoms
                self._vtime = self._virtual[lane]
                self._virtual[lane] += 1.0 / LANE_WEIGHTS[lane]
                batch.append(head)
                if self.on_dequeue_wait is not None:
                    self.on_dequeue_wait(max(0.0, now - head.submitted_at))

        share = -(-self._pending_atoms // self._free_workers)
        first_chunk_size(heads(), min(self.max_atoms, share), self.max_graphs)
        return batch

    def _drop_expired(self, now: float) -> None:
        """Fail and remove pending requests whose deadline has passed.

        Runs at every dequeue decision: an expired entry never reaches a
        worker, so no forward is burned on a result the caller has
        already given up on.  The waiting client is released immediately
        with :class:`DeadlineExceeded` rather than at flush time.
        """
        for lane, queue in self._lanes.items():
            if not any(request.expired(now) for request in queue):
                continue
            kept: deque[ServeRequest] = deque()
            for request in queue:
                if request.expired(now):
                    self.expired += 1
                    self._pending_count -= 1
                    self._pending_atoms -= request.n_atoms
                    request.fail(
                        DeadlineExceeded(
                            f"request {request.key[:12]} expired after waiting "
                            f"{now - request.submitted_at:.3f}s in the queue"
                        )
                    )
                else:
                    kept.append(request)
            self._lanes[lane] = kept

    def next_batch(self, wait: bool = True) -> list[ServeRequest] | None:
        """Block until anything is queued; ``None`` once closed and drained.

        Safe to call from many worker threads; each released batch goes
        to exactly one caller, and no caller waits beside queued work.
        With ``wait=False`` this is a take that never blocks: ``None``
        means nothing is pending once expired entries are dropped.
        """
        with self._cond:
            self._free_workers += 1
            try:
                while True:
                    now = time.monotonic()
                    self._drop_expired(now)
                    if self._pending_count:
                        reason = self._flush_reason()
                        self.flush_reasons[reason] = self.flush_reasons.get(reason, 0) + 1
                        return self._take_batch(now)
                    if self._closed or not wait:
                        return None
                    self._cond.wait()
            finally:
                self._free_workers -= 1
