"""The serving front end: cache → micro-batch → fused no-grad forward.

``PredictionService`` is the subsystem's public surface.  A request
(one :class:`AtomGraph`) flows through three stages:

1. **Dedup** — the structure is hashed (:func:`structure_hash`) and
   looked up in the :class:`ResultCache`; a hit returns immediately
   without touching the model.
2. **Micro-batch** — misses are enqueued into a :class:`MicroBatcher`,
   which hands them to a free worker at once and lets them accumulate,
   up to an atom/graph budget, only while every worker is busy.
3. **Execute** — a worker collates the batch into one disjoint-union
   :class:`GraphBatch` and runs :meth:`HydraModel.serve` (the zero-
   ``Function``-node ``no_grad`` fast path) under a shared
   :class:`BufferPool`, then scatters
   per-graph results back to the waiting requests and populates the
   cache.  When the service holds the training run's
   :class:`~repro.data.normalize.Normalizer`, results are denormalized
   to physical units before caching.

Every call takes that one path through the one batcher the service
owns for its lifetime.  Who executes the batches is the only variable:
``start(workers=N)`` spins up N dispatch threads, so concurrent clients
block on their own requests — what an RPC front end wants; an unstarted
service (or one stopped again) has none, so each call drains the queue
on its own thread until its requests are done — what batch jobs and
benchmarks want.  The engine's grad mode, pool stack, and kernel
dispatch are all thread-local, so workers (and concurrent callers)
execute model forwards **truly concurrently** — there is no global
model lock.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.data.normalize import Normalizer
from repro.graph.atoms import AtomGraph
from repro.graph.batch import collate
from repro.models.hydra import HydraModel
from repro.serving.admission import BROWNOUT_STATES, AdmissionConfig, AdmissionController
from repro.serving.batcher import DEFAULT_LANE, DeadlineExceeded, MicroBatcher, ServeRequest
from repro.serving.cache import ResultCache
from repro.serving.hashing import structure_hash
from repro.serving.md import MDSettings, run_md
from repro.serving.relax import RelaxResult, RelaxSettings, TrajectorySession, relax_positions
from repro.serving.stats import ServingStats, StatsSummary
from repro.serving.telemetry import MODEL, derive
from repro.tensor.allocator import BufferPool, use_pool
from repro.tensor.kernels import BACKEND


@dataclass(frozen=True)
class PredictionResult:
    """What a client gets back for one structure.

    Without a normalizer, ``energy`` is the model's normalized per-atom
    energy for the graph and ``forces`` the normalized ``(n_atoms, 3)``
    components (``physical_units=False``).  When the service holds the
    training run's :class:`Normalizer` — stored in the checkpoint's
    ``extra`` block — outputs are **denormalized**: ``energy`` is the
    structure's total energy and ``forces`` the force components, both
    in the training corpus's physical units (``physical_units=True``).
    Arrays are owned by the service's cache — treat them as read-only.
    """

    key: str
    energy: float
    forces: np.ndarray
    n_atoms: int
    cached: bool
    latency_s: float
    batch_graphs: int
    physical_units: bool = False


@dataclass(frozen=True)
class ServiceConfig:
    """Serving knobs, grouped so deployments can version them."""

    max_atoms: int = 512  # micro-batch atom budget (bounds forward memory)
    max_graphs: int = 64  # micro-batch graph budget
    #: No longer delays a batch (a free worker takes queued work at
    #: once); kept because it is reported in ``/v1/stats`` and seeds the
    #: default ``lane_aging_s``.
    flush_interval_s: float = 0.005
    cache_capacity: int = 4096  # LRU entries; <=0 disables caching
    hash_decimals: int | None = None  # optional coordinate rounding for keys
    request_timeout_s: float = 30.0  # client-side wait bound on queued work
    #: Admission control: queued structures beyond this bound are
    #: rejected with :class:`ServiceOverloaded` at submit time instead
    #: of growing an unbounded backlog.  0 disables the bound.
    #: Cache hits never count against it — they bypass the batcher.
    max_pending: int = 0
    #: Kernel backend name: ``None`` or :data:`~repro.tensor.kernels.BACKEND`,
    #: the only one.  Validated at service construction.
    backend: str | None = None
    #: Traced execution plans (:mod:`repro.tensor.plan`): with ``True``
    #: (the default) the first forward of a shape bucket compiles a
    #: plan and later forwards replay it with zero Python dispatch,
    #: bit-identically.  ``False`` is the escape hatch (CLI
    #: ``--no-plan``) forcing every forward down the op-by-op path.
    plan: bool = True
    #: Per-client token-bucket refill (structures/s); 0 disables rate
    #: quotas.  Quotas key on the request's ``client_id`` — anonymous
    #: requests are exempt (there is no identity to account against).
    client_rate: float = 0.0
    #: Per-client bucket capacity; 0 derives ``max(1, 2*client_rate)``.
    client_burst: float = 0.0
    #: Per-client in-flight structure bound; 0 disables.
    client_concurrency: int = 0
    #: Queue-age p95 (seconds) that enters brownout shedding — background
    #: lane first, then bulk, never interactive.  0 disables brownout.
    brownout_enter_s: float = 0.0
    #: Queue-age p95 that exits brownout; 0 derives ``enter/2``.
    brownout_exit_s: float = 0.0
    #: Minimum seconds between brownout level transitions (hysteresis).
    brownout_dwell_s: float = 0.25
    #: Anti-starvation bound for the batcher's weighted-fair lanes: a
    #: request older than this is served next regardless of lane.
    #: ``None`` derives 10 x ``flush_interval_s`` (floored at 50 ms).
    lane_aging_s: float | None = None


def _session_counters(**extra) -> dict:
    """Lifetime counters of one session workload, keyed as its stats section.

    ``seconds`` is what MD's ``steps_per_s`` divides by; relax keeps it too
    (one block, used twice) and does not publish a rate.
    """
    return {
        "sessions": 0,
        "steps": 0,
        "seconds": 0.0,
        "neighbor_rebuilds": 0,
        "neighbor_reuses": 0,
        **extra,
    }


class _ForceSession:
    """One admitted relax / MD / trajectory run: every force evaluation it makes.

    Admission runs once, here — a session is one request, not one per
    force evaluation.  :meth:`predict` is what the integrator drives:
    the deadline is re-checked before every evaluation (a long run stops
    between steps rather than holding a worker past its budget), then
    the call inherits the lane for scheduling but never re-charges
    quotas.  :meth:`on_step` counts evaluations, skin-list outcomes and
    elapsed time as they happen, so an aborted run keeps its progress
    and ``steps`` never runs ahead of ``seconds``; :meth:`close` belongs
    in the caller's ``finally``.
    """

    def __init__(
        self, service, counters, what, deadline, lane, client_id, initial: int = 0
    ) -> None:
        self._lease = service.admission.admit(client_id, lane)
        self._service = service
        self._counters = counters
        self._what = what
        self._call = {"deadline": deadline, "lane": lane, "client_id": client_id, "admit": False}
        self._initial = initial  # leading evaluations that are not steps (MD's first forces)
        self._mark = time.perf_counter()
        self._fold(sessions=1)

    def _fold(self, **amounts) -> None:
        now = time.perf_counter()
        with self._service._counter_lock:
            self._counters["seconds"] += now - self._mark
            for name, amount in amounts.items():
                self._counters[name] += amount
        self._mark = now

    def predict(self, graph: AtomGraph) -> PredictionResult:
        deadline = self._call["deadline"]
        if deadline is not None and time.monotonic() >= deadline:
            self._service._count_expired(1)
            raise DeadlineExceeded(f"{self._what} deadline expired between force evaluations")
        return self._service.predict(graph, **self._call)

    def on_step(self, rebuilds: int, reuses: int) -> None:
        if self._initial:
            self._initial -= 1
            steps = 0
        else:
            steps = 1
        self._fold(steps=steps, neighbor_rebuilds=rebuilds, neighbor_reuses=reuses)

    def close(self, **totals) -> None:
        """Release the lease; fold the elapsed tail and the run's closing ``totals``."""
        self._lease.release()
        self._fold(**totals)


class PredictionService:
    """Dynamic-batching inference front end over one :class:`HydraModel`."""

    def __init__(
        self,
        model: HydraModel,
        config: ServiceConfig | None = None,
        pool: BufferPool | None = None,
        normalizer: Normalizer | None = None,
    ) -> None:
        self.model = model
        self.config = config or ServiceConfig()
        self.pool = pool if pool is not None else BufferPool()
        self.normalizer = normalizer
        self.cache = ResultCache(self.config.cache_capacity)
        self.stats = ServingStats()
        self._workers: list[threading.Thread] = []
        self._expired = 0  # session deadline expiries (the batcher counts its own)
        # Quota + brownout policy gate (always present; with default
        # config it admits everything and only counts).
        self.admission = AdmissionController(
            AdmissionConfig(
                client_rate=self.config.client_rate,
                client_burst=self.config.client_burst,
                client_concurrency=self.config.client_concurrency,
                brownout_enter_s=self.config.brownout_enter_s,
                brownout_exit_s=self.config.brownout_exit_s,
                brownout_dwell_s=self.config.brownout_dwell_s,
            )
        )
        self._batcher = MicroBatcher(
            max_atoms=self.config.max_atoms,
            max_graphs=self.config.max_graphs,
            flush_interval_s=self.config.flush_interval_s,
            max_pending=self.config.max_pending,
            lane_aging_s=self.config.lane_aging_s,
            # Each dequeued request's queue age feeds the brownout
            # controller — the saturation signal is *measured* wait.
            on_dequeue_wait=self.admission.observe_wait,
        )
        # Session-workload counters (relax loops + trajectory sessions, MD
        # runs) and the service-side ``expired`` count, written from
        # whichever thread drives the session — hence the one lock.
        self._counter_lock = threading.Lock()
        self._relax = _session_counters(converged=0)
        self._md = _session_counters(thermostats={})
        # No model lock: the engine's grad mode and pool stack are
        # thread-local, and the shared BufferPool is internally locked,
        # so N workers run N model forwards truly concurrently.
        if self.config.backend not in (None, BACKEND):
            raise ValueError(
                f"unknown kernel backend {self.config.backend!r}; available: {[BACKEND]}"
            )

    @classmethod
    def from_registry(cls, registry, name: str, **kwargs) -> "PredictionService":
        """Build a service over a named model from a :class:`ModelRegistry`.

        The registry entry's stored normalizer (if any) rides along, so
        checkpoints saved with one serve physical units automatically.
        An explicit ``normalizer=`` kwarg wins over the stored one.
        """
        model, normalizer = registry.get_bundle(name)
        kwargs.setdefault("normalizer", normalizer)
        return cls(model, **kwargs)

    # ------------------------------------------------------------------
    # lifecycle (worker threads)
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return bool(self._workers)

    def start(self, workers: int = 1) -> "PredictionService":
        """Spin up ``workers`` dispatch threads consuming the batcher."""
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if self.running:
            raise RuntimeError("service already started")
        self._batcher.workers = workers
        for index in range(workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"serving-worker-{index}", daemon=True
            )
            thread.start()
            self._workers.append(thread)
        return self

    def stop(self) -> None:
        """Drain queued requests and join the workers; callers run their own batches again."""
        if self.running:
            self._batcher.close()
            for thread in self._workers:
                thread.join()
            self._workers.clear()
            self._batcher.workers = 1
            self._batcher.reopen()

    def __enter__(self) -> "PredictionService":
        if not self.running:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _worker_loop(self) -> None:
        while (batch := self._batcher.next_batch()) is not None:
            self._run(batch)

    def _run(self, batch: list[ServeRequest]) -> None:
        """Execute one batch on this thread, which survives a failed forward."""
        try:
            self._execute(batch)
        except Exception:  # noqa: BLE001
            # _execute already failed every waiter in the batch, and each
            # waiter re-raises it; the thread goes on to the next batch.
            pass

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    def _prepare(
        self, graph: AtomGraph, deadline, lane: str, client_id, admit: bool
    ) -> ServeRequest:
        """Admission, hashing and the cache lookup: a request ready to enqueue.

        A cache hit comes back already resolved.  Otherwise the request
        carries its admission lease as ``on_done``, so whoever resolves
        or fails it — a worker, or the batcher refusing it — frees the
        concurrency slot, exactly once.
        """
        lease = self.admission.admit(client_id, lane) if admit else None
        try:
            key = structure_hash(graph, self.config.hash_decimals)
            request = ServeRequest(
                graph=graph,
                key=key,
                deadline=deadline,
                lane=lane,
                client_id=client_id,
                on_done=lease.release if lease is not None else None,
            )
            payload = self.cache.get(key)
        except BaseException:
            if lease is not None:
                lease.release()
            raise
        if payload is not None:
            # A hit is instant — it beats any deadline that hasn't
            # already passed at the transport layer.  The rate bucket
            # stays charged; resolving frees only the concurrency slot.
            request.resolve(self._hit_result(key, graph, payload))
            self.stats.record_request(latency_s=0.0, cached=True, batch_graphs=1)
        return request

    def _dispatch(
        self, graphs: list[AtomGraph], deadline, lane: str, client_id, admit: bool
    ) -> list[ServeRequest]:
        """Prepare ``graphs`` and enqueue the misses as one group; returns the handles.

        If a structure is refused (quota, queue bound, deadline) this
        raises that rejection, but only after the structures admitted
        ahead of it — charged, so queued — have been handed on.
        """
        requests: list[ServeRequest] = []
        try:
            for graph in graphs:
                requests.append(self._prepare(graph, deadline, lane, client_id, admit))
        finally:
            try:
                self._batcher.submit_many([request for request in requests if not request.done()])
            finally:
                self._drain(requests)
        return requests

    def _drain(self, requests: list[ServeRequest]) -> None:
        """With no worker threads, run queued batches on this thread until ``requests`` are done.

        The calling thread is the worker.  A request another caller's
        thread took is left to that thread: waiting on its handle blocks
        until it is resolved.
        """
        if self.running:
            return
        for request in requests:
            while not request.done() and (batch := self._batcher.next_batch(wait=False)):
                self._run(batch)

    def submit(
        self,
        graph: AtomGraph,
        deadline: float | None = None,
        lane: str = DEFAULT_LANE,
        client_id: str | None = None,
        admit: bool = True,
    ) -> ServeRequest:
        """Enqueue one structure; returns its handle.

        Cache hits are resolved immediately — the returned request is
        already ``done()`` and never enters the batcher; so is a miss on
        an unstarted service, which executes on the calling thread
        (unless a concurrent caller took it first).  ``deadline``
        is an absolute ``time.monotonic()`` instant; entries still
        queued past it are dropped at dequeue with
        :class:`~repro.serving.batcher.DeadlineExceeded` instead of
        burning a forward.  Admission policy (quotas, brownout) runs
        *before* the cache lookup, so hits charge rate buckets too;
        ``admit=False`` is the internal bypass for force evaluations
        inside an already-admitted relax/MD session.
        """
        (request,) = self._dispatch([graph], deadline, lane, client_id, admit)
        return request

    def predict(
        self,
        graph: AtomGraph,
        deadline: float | None = None,
        lane: str = DEFAULT_LANE,
        client_id: str | None = None,
        admit: bool = True,
    ) -> PredictionResult:
        """Serve one structure, blocking until its result is ready."""
        return self.submit(
            graph, deadline=deadline, lane=lane, client_id=client_id, admit=admit
        ).wait(self.config.request_timeout_s)

    def predict_many(
        self,
        graphs: list[AtomGraph],
        deadline: float | None = None,
        lane: str = DEFAULT_LANE,
        client_id: str | None = None,
    ) -> list[PredictionResult]:
        """Serve a list of structures; results come back in input order.

        The cache misses are enqueued as one group, cut into batches by
        the batching budgets — shared between the free dispatch workers,
        or taken in turn by the calling thread on an unstarted service.
        With a ``deadline`` (absolute monotonic instant), expired work is
        shed at submit or dropped at dequeue, never executed.  If a
        structure is refused (quota, queue bound, deadline) the call
        raises that rejection; the structures ahead of it still run and
        fill the cache.
        """
        requests = self._dispatch(graphs, deadline, lane, client_id, True)
        give_up = time.monotonic() + self.config.request_timeout_s
        return [request.wait(max(0.0, give_up - time.monotonic())) for request in requests]

    # ------------------------------------------------------------------
    # trajectory workloads (relaxation, MD-style sessions)
    # ------------------------------------------------------------------
    def _count_expired(self, count: int) -> None:
        """The one writer of the service-side ``expired`` counter."""
        with self._counter_lock:
            self._expired += count

    def trajectory(
        self,
        atomic_numbers,
        cell=None,
        pbc: tuple[bool, bool, bool] = (False, False, False),
        cutoff: float = 5.0,
        skin: float = 0.3,
        max_neighbors: int | None = None,
    ) -> TrajectorySession:
        """Open a trajectory session: consecutive predicts, graphs reused.

        Each ``session.step(positions)`` builds edges through a
        :class:`~repro.graph.radius.SkinNeighborList` (from scratch only
        when displacements exceed the skin bound) and predicts through
        this service — micro-batcher, result cache, and plan cache
        included.  Sessions keep one shape bucket hot, so plan replays
        dominate after the first step.  The caller owns the dynamics, so
        the session is anonymous, interactive and has no deadline; it
        counts under ``relax``.
        """
        session = _ForceSession(self, self._relax, "trajectory", None, DEFAULT_LANE, None)
        return TrajectorySession(
            session.predict,
            atomic_numbers,
            cell=cell,
            pbc=pbc,
            cutoff=cutoff,
            skin=skin,
            max_neighbors=max_neighbors,
            on_step=session.on_step,
        )

    def relax(
        self,
        graph: AtomGraph,
        settings: RelaxSettings | None = None,
        deadline: float | None = None,
        lane: str = DEFAULT_LANE,
        client_id: str | None = None,
    ) -> RelaxResult:
        """Relax ``graph``'s geometry on served forces (see :mod:`.relax`).

        Every force evaluation is a regular :meth:`predict` — it rides
        the micro-batcher alongside interactive traffic, and consecutive
        steps replay the same traced plan bucket.  The input graph's
        edges are ignored; the relax session's skin list owns
        connectivity for the whole descent.  Admission and the
        ``deadline`` (absolute monotonic instant) work as
        :class:`_ForceSession` describes.
        """
        session = _ForceSession(self, self._relax, "relax", deadline, lane, client_id)
        converged = False
        try:
            result = relax_positions(session.predict, graph, settings, on_step=session.on_step)
            converged = result.converged
            return result
        finally:
            session.close(converged=int(converged))

    def md(
        self,
        graph: AtomGraph,
        settings: MDSettings | None = None,
        deadline: float | None = None,
        lane: str = DEFAULT_LANE,
        client_id: str | None = None,
    ):
        """Run molecular dynamics on served forces (see :mod:`.md`).

        A generator of ``("frame", MDFrame)`` events ending with one
        ``("result", MDResult)`` — drained lazily so the HTTP layer can
        stream frames as they are produced.  Like :meth:`relax`, every
        force evaluation is a regular :meth:`predict` inside one
        :class:`_ForceSession`, and the session's skin neighbor list
        persists across steps; a run stopped by its ``deadline`` keeps
        the steps it made — chunked clients resume from the last frame.
        """
        settings = settings or MDSettings()
        session = _ForceSession(self, self._md, "md", deadline, lane, client_id, initial=1)
        with self._counter_lock:
            kinds = self._md["thermostats"]
            kinds[settings.thermostat] = kinds.get(settings.thermostat, 0) + 1

        def events():
            try:
                yield from run_md(session.predict, graph, settings, on_step=session.on_step)
            finally:
                session.close()

        return events()

    # ------------------------------------------------------------------
    # batch execution (dispatch workers, or the calling thread)
    # ------------------------------------------------------------------
    def _hit_result(
        self, key: str, graph: AtomGraph, payload, latency_s: float = 0.0, batch_graphs: int = 1
    ) -> PredictionResult:
        energy, forces = payload
        return PredictionResult(
            key=key,
            energy=energy,
            forces=forces,
            n_atoms=graph.n_atoms,
            cached=True,
            latency_s=latency_s,
            batch_graphs=batch_graphs,
            physical_units=self.normalizer is not None,
        )

    def _execute(self, requests: list[ServeRequest]) -> None:
        """Run one micro-batch: dedupe, collate, forward, scatter."""
        if not requests:
            return
        start = time.perf_counter()
        try:
            # Dedupe identical structures within the batch, and re-check
            # the cache: another worker's batch may have computed a key
            # between this request's submit-time miss and now.
            order: list[str] = []
            by_key: dict[str, list[ServeRequest]] = {}
            ready: dict[str, object] = {}
            for request in requests:
                if request.key not in by_key:
                    by_key[request.key] = []
                    payload = self.cache.peek(request.key)
                    if payload is not None:
                        ready[request.key] = payload
                    else:
                        order.append(request.key)
                by_key[request.key].append(request)

            if order:
                graphs = [by_key[key][0].graph for key in order]
                batch = collate(graphs)
                with use_pool(self.pool):
                    outputs = self.model.serve(batch, plan=self.config.plan)
                duration = time.perf_counter() - start
                self.stats.record_batch(batch.num_graphs, batch.num_nodes, duration)
                # Feed the drain-rate EWMA behind the batcher's
                # predicted-wait shed at submit.
                self._batcher.record_service(batch.num_graphs, duration)
                for key, graph, energy, forces in zip(
                    order,
                    graphs,
                    outputs["energy"][:, 0],
                    batch.split_node_array(outputs["forces"]),
                ):
                    energy = float(energy)
                    forces = np.array(forces)
                    if self.normalizer is not None:
                        # Model outputs are normalized per-atom energy and
                        # normalized forces; undo the corpus transform and
                        # rescale energy back to the structure total.
                        energy = float(
                            self.normalizer.denormalize_energy_per_atom(energy)
                            * graph.n_atoms
                        )
                        forces = self.normalizer.denormalize_forces(forces)
                    payload = (energy, forces)
                    self.cache.put(key, payload)
                    ready[key] = payload

            now = time.monotonic()
            computed = set(order)
            for key, group in by_key.items():
                energy, forces = ready[key]
                # A key absent from `order` was satisfied by the peek
                # re-check (another batch computed it since this
                # request's submit-time miss) — that is a cache-served
                # result and must be labeled as one.
                from_cache = key not in computed
                for request in group:
                    latency = max(0.0, now - request.submitted_at)
                    request.resolve(
                        PredictionResult(
                            key=key,
                            energy=energy,
                            forces=forces,
                            n_atoms=request.n_atoms,
                            cached=from_cache,
                            latency_s=latency,
                            batch_graphs=len(order) or 1,
                            physical_units=self.normalizer is not None,
                        )
                    )
                    self.stats.record_request(
                        latency_s=latency, cached=from_cache, batch_graphs=len(order) or 1
                    )
        except BaseException as error:  # noqa: BLE001 — fail every waiter, not just one
            for request in requests:
                if not request.done():
                    request.fail(error)
            raise

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    def summary(self) -> StatsSummary:
        return self.stats.summary()

    def _plan_telemetry(self) -> dict:
        """Plan-cache counters for this service's model (JSON-ready)."""
        payload: dict = {"enabled": bool(self.config.plan)}
        plans = getattr(self.model, "plans", None)
        if plans is not None:
            payload.update(plans.telemetry())
        return payload

    def _session_telemetry(self) -> dict:
        """The ``relax`` and ``md`` sections: declared keys, skin hit rates derived."""
        with self._counter_lock:
            relax = dict(self._relax)
            md = dict(self._md, thermostats=dict(self._md["thermostats"]))
        md["steps_per_s"] = (md["steps"] / md["seconds"]) if md["seconds"] else 0.0
        return {"relax": derive(MODEL["relax"], relax), "md": derive(MODEL["md"], md)}

    def saturation(self) -> dict:
        """Cheap load gauges for the healthz probe (no full telemetry walk).

        The replica supervisor polls healthz every tick; these numbers
        let the router shed at the front door before a request ever
        crosses the wire to a replica already in brownout.
        """
        level = self.admission.brownout.level
        return {
            "queue_depth": self._batcher.pending_graphs,
            "estimated_wait_s": round(self._batcher.estimated_wait_s, 6),
            "brownout_level": level,
            "brownout_state": BROWNOUT_STATES[level],
        }

    def telemetry(self) -> dict:
        """JSON-ready stats: serving, result cache, buffer pool, plans, engine."""
        batcher = self._batcher
        return {
            "serving": self.summary().as_dict(),
            "result_cache": self.cache.stats.as_dict(),
            "buffer_pool": self.pool.snapshot(),
            "plans": self._plan_telemetry(),
            **self._session_telemetry(),
            "batching": {
                "max_atoms": self.config.max_atoms,
                "max_graphs": self.config.max_graphs,
                "flush_interval_s": self.config.flush_interval_s,
                "max_pending": self.config.max_pending,
                "rejected": batcher.rejected,
                "expired": self._expired + batcher.expired,
                "shed_predicted": batcher.shed_predicted,
                "estimated_wait_s": batcher.estimated_wait_s,
                "flush_reasons": dict(batcher.flush_reasons),
            },
            "admission": self.admission.telemetry(lane_depths=batcher.lane_depths()),
            "engine": {
                "backend": BACKEND,
                "physical_units": self.normalizer is not None,
            },
        }
