"""The traced pass: where one op's time goes, layer by layer, from outside.

Nothing under ``src/`` is instrumented.  Instead the workload's block is
replayed through a *ladder* of public entry points, each one layer deeper
than the last — HTTP via the router, HTTP direct, ``Client.local``, a
started ``PredictionService``, the same service inline, and the leaf
calls under it (hash, cache lookup, collate, planned forward).  Every
rung records one span per op; a layer's self time is its rung's median
minus the medians of the rungs directly below it, so the self times sum
to the top rung by construction.  Each rung gets its own replay of the
block (same work, fresh coordinates), because a structure seen twice
would be a cache hit the second time.

These numbers never feed the gated table; they say where to look.  The
open-loop probe at the end is likewise ungated: two sender threads and a
server share two cores, so its latencies include the generator's own
scheduling, which is why it reports how late the generator ran.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.api import ApiError, Client
from repro.api.schemas import DEFAULT_CUTOFF, PredictRequest, PredictResponse
from repro.graph.atoms import AtomGraph
from repro.graph.batch import collate
from repro.graph.radius import SkinNeighborList
from repro.models import HydraModel, get_preset
from repro.serving import (
    AdmissionController,
    ModelRegistry,
    PredictionService,
    ResultCache,
    ServeRequest,
    ServiceConfig,
    structure_hash,
)
from repro.serving.batcher import first_chunk_size
from repro.serving.md import run_md
from repro.tensor.allocator import BufferPool, use_pool
from repro.tensor.kernels import use_backend
from repro.tensor.plan import plan_key

from . import blockstats, host, measure, servers, workloads
from .measure import MODEL_NAME, MODEL_SEED, frozen_gc
from .workloads import Op, Workload

BACKEND = "numpy"
PROBE_RATE_PER_S = 40.0
PROBE_SENDERS = 2
PROBE_SECONDS = 20.0
ADMISSION_CHECKS = 2000

# Layer names, top of the ladder first; a span's parent is the layer above.
HOP = "serving.router.hop"
HTTP = "api.server.http_tax"
LOCAL = "api.client.local_tax"
MD = "serving.md.integrator_self"
WAIT = "serving.batcher.queue_wait"
SERVICE = "serving.service.self"


# ----------------------------------------------------------------------
# spans and the self-time tree
# ----------------------------------------------------------------------
class Trace:
    """Spans kept in memory: (name, op id, start s, end s, parent name)."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[tuple] = []

    def run(self, name: str, parent: str | None, items, call) -> tuple[list, list[float]]:
        """``call(item)`` per item under one span each; returns results and ms."""
        results, durations = [], []
        for op_id, item in enumerate(items):
            start = time.perf_counter()
            result = call(item)
            end = time.perf_counter()
            self.spans.append((name, op_id, start - self.origin, end - self.origin, parent))
            results.append(result)
            durations.append((end - start) * 1000.0)
        return results, durations


@dataclass
class Node:
    """A layer's rung: its total time and the rungs directly below it."""

    name: str
    total_ms: float
    children: list["Node"] = field(default_factory=list)


def self_times(node: Node) -> dict[str, float]:
    """Each layer's total minus its children's totals; sums to the root total."""
    times = {node.name: node.total_ms - sum(child.total_ms for child in node.children)}
    for child in node.children:
        times.update(self_times(child))
    return times


# ----------------------------------------------------------------------
# what the rungs of one traced workload share
# ----------------------------------------------------------------------
class Bench:
    """One traced workload: its ops, model, spans and tally."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.base = workloads.base_ops(workload, seed)
        self.hot_graphs = [
            structure.to_graph(DEFAULT_CUTOFF) for structure in workloads.hot_structures(self.base)
        ]
        self._replays = itertools.count(100)  # clear of the untraced run's indices
        self.model = HydraModel(get_preset(workload.preset), seed=MODEL_SEED)
        self.config = ServiceConfig(backend=BACKEND)
        self.trace = Trace()
        self.tally = measure.Tally(workload)

    def fresh_block(self) -> list[Op]:
        return workloads.replay(self.workload, self.base, self.seed, next(self._replays))

    def service(self, started: bool) -> PredictionService:
        """A service over the shared model, its cache holding the hot set."""
        service = PredictionService(self.model, self.config)
        if started:
            service.start(workers=2)
        if self.hot_graphs:
            service.predict_many(self.hot_graphs)
        return service

    def local(self) -> Client:
        registry = ModelRegistry()
        registry.register_model(MODEL_NAME, self.model)
        client = Client.local(registry, config=self.config, workers=2)
        measure.prime_hot_set(client, self.workload, self.base)
        return client

    def served(self, client: Client, op: Op) -> list[float]:
        """One op through a client; a failure is booked, not raised."""
        try:
            payload, latencies, _ = measure.execute(client, self.workload, op)
        except measure.OpFailed as error:
            self.tally.book([(op, None, str(error))])
            return []
        self.tally.book([(op, payload, None)])
        return latencies

    def spanned_block(self, name: str, parent: str | None, client: Client) -> list[float]:
        """A fresh replay through ``client`` under spans; gated per-op ms."""
        ops = self.fresh_block()
        with frozen_gc():
            if self.workload.kind != "md":
                _, durations = self.trace.run(
                    name, parent, ops, lambda op: self.served(client, op)
                )
                return _gated(ops, durations)
            # One MD op is one streamed run.  Its spans are the gaps between
            # frames (MD_FRAME_INTERVAL steps each), laid back from the end.
            durations = []
            for op in ops:
                latencies = self.served(client, op)
                widths = [gap * workloads.MD_FRAME_INTERVAL / 1000.0 for gap in latencies]
                at = time.perf_counter() - self.trace.origin - sum(widths)
                for index, width in enumerate(widths):
                    self.trace.spans.append((name, index, at, at + width, parent))
                    at += width
                durations.extend(latencies)
            return durations


def _gated(ops: list[Op], values: list) -> list:
    return [value for op, value in zip(ops, values) if op.gated]


def _graphs(op: Op) -> list[AtomGraph]:
    return [structure.to_graph(DEFAULT_CUTOFF) for structure in op.structures]


def _client_rung(bench: Bench, name: str, parent: str | None, client: Client) -> list[float]:
    """Warm one replay through ``client``, then span a fresh one."""
    for op in bench.fresh_block():
        bench.served(client, op)
    return bench.spanned_block(name, parent, client)


# ----------------------------------------------------------------------
# the service and the leaves under it
# ----------------------------------------------------------------------
LEAVES = (
    "serving.hashing.hash",
    "serving.cache.lookup",
    "graph.batch.collate",
    "models.hydra.forward",
)


def _leaf_rungs(bench: Bench, graphs_per_op: list[list[AtomGraph]]) -> dict:
    """Hash, cache lookup, collate and planned forward, op by op, on prebuilt graphs.

    The four calls run back to back per op, as they do inside the service,
    so each finds its inputs as warm as the service would.  Returns per-op
    millisecond lists keyed by layer name, plus ``tensor.plan.compile_ms``
    (a bucket's first forward minus its replay, averaged over buckets).
    """
    config, clock = bench.config, time.perf_counter
    cache = ResultCache(config.cache_capacity)
    for graph in bench.hot_graphs:
        cache.put(structure_hash(graph), (0.0, None))

    def chunks(graphs, keys, hits) -> list[list[AtomGraph]]:
        """The misses of one op, split as the batcher's flush would split them."""
        misses = [
            ServeRequest(graph=graph, key=key)
            for graph, key, hit in zip(graphs, keys, hits)
            if hit is None
        ]
        out = []
        while misses:
            count = first_chunk_size(misses, config.max_atoms, config.max_graphs)
            out.append([request.graph for request in misses[:count]])
            misses = misses[count:]
        return out

    def one_op(graphs, forward_ms: dict) -> list[float]:
        """The four leaves for one op; returns the five clock readings around them."""
        t0 = clock()
        keys = [structure_hash(graph) for graph in graphs]
        t1 = clock()
        hits = [cache.get(key) for key in keys]
        t2 = clock()
        chunked = chunks(graphs, keys, hits)  # the harness's own bookkeeping: untimed
        t3 = clock()
        batches = [collate(chunk) for chunk in chunked]
        t4 = clock()
        for batch in batches:
            start = clock()
            bench.model.serve(batch, plan=config.plan)
            forward_ms.setdefault(plan_key(batch), (clock() - start) * 1000.0)
        return [(t0, t1), (t1, t2), (t3, t4), (t4, clock())]

    first_ms: dict[tuple, float] = {}
    replay_ms: dict[tuple, float] = {}
    per_layer: dict = {name: [] for name in LEAVES}
    with use_backend(BACKEND), use_pool(BufferPool()):
        for graphs in graphs_per_op:
            one_op(graphs, first_ms)  # compiles each bucket the block touches
        for op_id, graphs in enumerate(graphs_per_op):
            for name, (start, end) in zip(LEAVES, one_op(graphs, replay_ms)):
                origin = bench.trace.origin
                bench.trace.spans.append((name, op_id, start - origin, end - origin, SERVICE))
                per_layer[name].append((end - start) * 1000.0)
    per_layer["tensor.plan.compile_ms"] = statistics.mean(
        first_ms[key] - replay_ms[key] for key in first_ms
    )
    return per_layer


def _service_rungs(
    bench: Bench,
    graphs_per_op: list[list[AtomGraph]],
    gated: list[bool],
    started_ms: list[float] | None = None,
):
    """Leaves, inline service and started service over the same prebuilt graphs.

    Returns the started-service node (inline service and leaves below
    it), the per-layer metrics these rungs give, and the inline results.
    ``started_ms`` supplies the started-service timings when the caller
    already took them (the MD run times its own predicts).
    """

    def median(values: list[float]) -> float:
        return statistics.median(value for value, keep in zip(values, gated) if keep)

    with frozen_gc():
        leaves = _leaf_rungs(bench, graphs_per_op)
        results, inline_ms = bench.trace.run(
            SERVICE, WAIT, graphs_per_op, bench.service(started=False).predict_many
        )
    if started_ms is None:
        # Same graphs again, but a new service: its cache holds only the hot set.
        started = bench.service(started=True)
        try:
            with frozen_gc():
                _, started_ms = bench.trace.run(WAIT, LOCAL, graphs_per_op, started.predict_many)
        finally:
            started.stop()
    metrics = {"tensor.plan.compile_ms": leaves.pop("tensor.plan.compile_ms")}
    leaf_nodes = [Node(name, median(values)) for name, values in leaves.items()]
    metrics.update({f"{node.name}_ms": node.total_ms for node in leaf_nodes})
    inline_node = Node(SERVICE, median(inline_ms), leaf_nodes)
    metrics["serving.service.inline_ms"] = inline_node.total_ms
    return Node(WAIT, median(started_ms), [inline_node]), metrics, results


# ----------------------------------------------------------------------
# predict workloads
# ----------------------------------------------------------------------
def _schema_metrics(bench: Bench, ops: list[Op], results_per_op: list) -> dict:
    """Encode/decode cost and size of the wire bodies, both directions."""
    trace, workload = bench.trace, bench.workload
    bodies, request_encode = trace.run(
        "api.schemas.request_encode", HTTP, ops, lambda op: workloads.wire_bytes(workload, op)
    )
    _, request_decode = trace.run(
        "api.schemas.request_decode", HTTP, bodies,
        lambda body: PredictRequest.from_json_dict(json.loads(body)),
    )
    replies, response_encode = trace.run(
        "api.schemas.response_encode", HTTP, results_per_op,
        lambda results: json.dumps(
            PredictResponse.from_results(MODEL_NAME, results).to_json_dict()
        ).encode("utf-8"),
    )
    _, response_decode = trace.run(
        "api.schemas.response_decode", HTTP, replies,
        lambda body: PredictResponse.from_json_dict(json.loads(body)).to_results(),
    )
    measured = {
        "request_encode_ms": request_encode,
        "request_decode_ms": request_decode,
        "response_encode_ms": response_encode,
        "response_decode_ms": response_decode,
        "request_bytes": [len(body) for body in bodies],
        "response_bytes": [len(body) for body in replies],
    }
    return {
        f"api.schemas.{name}": statistics.median(_gated(ops, values))
        for name, values in measured.items()
    }


def _trace_predict(bench: Bench) -> tuple[Node, dict]:
    """In-process rungs of a predict workload: the ``Client.local`` node down."""
    ops = bench.fresh_block()
    with frozen_gc():
        graphs_per_op, build_ms = bench.trace.run("graph.radius.build", LOCAL, ops, _graphs)
    started_node, metrics, results = _service_rungs(
        bench, graphs_per_op, [op.gated for op in ops]
    )
    with frozen_gc():
        metrics.update(_schema_metrics(bench, ops, results))
    metrics["graph.radius.build_ms"] = statistics.median(_gated(ops, build_ms))
    metrics["graph.radius.edges_per_structure"] = statistics.mean(
        graph.edge_index.shape[1] for graphs in graphs_per_op for graph in graphs
    )
    with bench.local() as local:
        local_ms = _client_rung(bench, LOCAL, HTTP, local)
    return Node(LOCAL, statistics.median(local_ms), [started_node]), metrics


# ----------------------------------------------------------------------
# the MD workload
# ----------------------------------------------------------------------
def _trace_md(bench: Bench) -> tuple[Node, dict]:
    """In-process rungs of ``md_stream``: one span per MD step.

    The run goes through ``repro.serving.md.run_md`` on a started
    service's ``predict`` — what ``PredictionService.md`` does, minus its
    lease — with the predict wrapped in a clock, so a step and the force
    evaluation inside it are timed in the same pass.
    """
    op = bench.fresh_block()[0]
    structure = op.structures[0]
    # Every step is a frame here: in process a frame costs nothing to emit.
    settings = dataclasses.replace(
        workloads.wire_request(bench.workload, op).to_settings(DEFAULT_CUTOFF), frame_interval=1
    )
    # What the gateway hands the service: no edges, the skin list owns them.
    bare = AtomGraph(
        atomic_numbers=structure.atomic_numbers,
        positions=structure.positions,
        edge_index=np.zeros((2, 0), dtype=np.int64),
        edge_shift=np.zeros((0, 3)),
        cell=structure.cell,
        pbc=structure.pbc,
        source="api",
    )
    # Its own model: the buckets of ``bench.model`` stay uncompiled for the leaves.
    session = PredictionService(
        HydraModel(get_preset(bench.workload.preset), seed=MODEL_SEED), bench.config
    ).start(workers=2)
    graphs, predict_ms = [], []

    def predict(graph: AtomGraph):
        start = time.perf_counter()
        result = session.predict(graph)
        end = time.perf_counter()
        origin = bench.trace.origin
        bench.trace.spans.append((WAIT, len(graphs), start - origin, end - origin, MD))
        graphs.append(graph)
        predict_ms.append((end - start) * 1000.0)
        return result

    try:
        for _ in run_md(session.predict, bare, dataclasses.replace(settings, n_steps=20)):
            pass  # compiles the bucket
        with frozen_gc():
            events = run_md(predict, bare, settings)
            _, step_ms = bench.trace.run(
                MD, LOCAL, range(settings.n_steps + 1), lambda _: next(events)
            )
    finally:
        session.stop()
    # Evaluation 0 is the run's initial one, not a step.
    graphs, predict_ms, step_ms = graphs[1:], predict_ms[1:], step_ms[1:]

    skin = SkinNeighborList(settings.cutoff, settings.skin, settings.max_neighbors)
    with frozen_gc():
        _, skin_ms = bench.trace.run(
            "graph.radius.skin_update", MD, graphs,
            lambda graph: skin.update(graph.positions, structure.cell, structure.pbc),
        )
    started_node, metrics, _ = _service_rungs(
        bench, [[graph] for graph in graphs], [True] * len(graphs), started_ms=predict_ms
    )
    skin_node = Node("graph.radius.skin_update", statistics.median(skin_ms))
    md_node = Node(MD, statistics.median(step_ms), [skin_node, started_node])
    metrics["graph.radius.skin_update_ms"] = skin_node.total_ms
    metrics["serving.md.step_ms"] = md_node.total_ms
    metrics["graph.radius.edges_per_structure"] = statistics.mean(
        graph.edge_index.shape[1] for graph in graphs
    )
    with bench.local() as local:
        local_ms = _client_rung(bench, LOCAL, HTTP, local)
    return Node(LOCAL, statistics.median(local_ms), [md_node]), metrics


# ----------------------------------------------------------------------
# the open-loop probe (ungated)
# ----------------------------------------------------------------------
def open_loop_probe(url: str, seed: int, seconds: float) -> dict:
    """Seeded Poisson arrivals of lone predicts; latency from each due time."""
    lone = workloads.WORKLOADS["predict_lone"]
    base = workloads.base_ops(lone, seed)
    rng = np.random.default_rng([seed, 9, 0])
    due, at = [], 0.0
    while at < seconds:
        due.append(at)
        at += rng.exponential(1.0 / PROBE_RATE_PER_S)
    ops = [
        op
        for index in range(-(-len(due) // len(base)))
        for op in workloads.replay(lone, base, seed, 900 + index)
    ]
    latencies, lateness, failures = [], [], []
    cursor = itertools.count()
    lock = threading.Lock()
    origin = time.perf_counter() + 0.05

    def sender() -> None:
        client = measure.http_client(url)
        while True:
            with lock:
                index = next(cursor)
            if index >= len(due):
                return
            wait = origin + due[index] - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            try:
                client.predict(list(ops[index].structures))
            except ApiError as error:
                failures.append(f"{type(error).__name__}: {error}")
                continue
            done = time.perf_counter()
            lateness.append((sent - origin - due[index]) * 1000.0)
            latencies.append((done - origin - due[index]) * 1000.0)

    threads = [threading.Thread(target=sender) for _ in range(PROBE_SENDERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {
        "metrics": {
            "bench.open_probe_p50_ms": statistics.median(latencies),
            "bench.open_probe_p90_ms": blockstats.quantile(latencies, 0.9),
            "bench.open_probe_late_p90_ms": blockstats.quantile(lateness, 0.9),
        },
        "sent": len(due),
        "failures": failures,
        "rate_per_s": PROBE_RATE_PER_S,
        "seconds": seconds,
    }


def admission_check_ms() -> float:
    """One admit + release with a client id, as every identified request pays."""
    controller = AdmissionController()
    start = time.perf_counter()
    for _ in range(ADMISSION_CHECKS):
        controller.admit("bench", "interactive").release()
    return (time.perf_counter() - start) * 1000.0 / ADMISSION_CHECKS


# ----------------------------------------------------------------------
# the traced pass
# ----------------------------------------------------------------------
def _http_rung(bench: Bench, name: str, parent: str | None, server: servers.Server) -> dict:
    """Warm ``server``, then run one untraced and one spanned block through it."""
    workload = bench.workload
    client = measure.http_client(server.url)
    measure.prime_hot_set(client, workload, bench.base)
    for op in bench.fresh_block():
        bench.served(client, op)
    before = measure.stats_counters(client)
    pids = server.pids()
    ticks = host.cpu_ticks(pids)
    with frozen_gc():
        untraced, outcomes = measure.measure_block(client, workload, bench.fresh_block(), [])
    bench.tally.book(outcomes)
    rung_ms = bench.spanned_block(name, parent, client)
    # CPU over both blocks (equal work): twice the ticks, half the quantisation.
    cpu_ms = None if ticks is None else host.ticks_to_ms(host.cpu_ticks(pids) - ticks)
    return {
        "rung_ms": statistics.median(rung_ms),
        "untraced_p50_ms": untraced.summary()["op_p50_ms"],
        "cpu_ms_per_structure": None if cpu_ms is None else cpu_ms / (2 * untraced.structures),
        "peak_rss_mb": host.peak_rss_mb(pids),
        "counters": measure.counter_shares(
            [measure.counters_delta(before, measure.stats_counters(client))]
        ),
    }


def trace_workload(
    workload: Workload, seed: int, seconds: float | None = None, load_wait_s: float = 30.0
) -> dict:
    """One traced pass over ``workload``; returns the JSON-ready trace."""
    quiet = host.wait_for_quiet_host(load_wait_s)
    spin_before = host.spin_ms()
    bench = Bench(workload, seed)
    routed = "--replicas" in workload.server_args
    probe_seconds = (
        PROBE_SECONDS if seconds is None else min(PROBE_SECONDS, max(3.0, 0.4 * seconds))
    )

    local_node, metrics = (_trace_md if workload.kind == "md" else _trace_predict)(bench)
    with servers.Server(workload.preset).start() as direct_server:
        top = _http_rung(bench, HTTP, HOP if routed else None, direct_server)
        boot_s = direct_server.boot_s
    root = Node(HTTP, top["rung_ms"], [local_node])
    # Booted for every workload: the probe goes through the router, and its
    # boot time over the direct server's is what spawning a replica costs.
    with servers.Server(workload.preset, ("--replicas", "1")).start() as routed_server:
        spawn_s = routed_server.boot_s - boot_s
        if routed:
            top = _http_rung(bench, HOP, None, routed_server)
            root = Node(HOP, top["rung_ms"], [root])
        probe = open_loop_probe(routed_server.url, seed, probe_seconds)
    tally = bench.tally
    tally.attempted += probe["sent"]
    tally.failed += len(probe["failures"])
    tally.messages.extend(probe["failures"])
    spin_after = host.spin_ms()
    _, (empty_span_ms,) = bench.trace.run("bench.empty_span", None, [None], lambda _: None)

    layer_self = self_times(root)
    metrics.update(probe["metrics"])
    metrics.update(top["counters"])
    metrics.update(
        {
            "server_cpu_ms_per_structure": top["cpu_ms_per_structure"],
            "server_peak_rss_mb": top["peak_rss_mb"],
            "serving.service.self_ms": layer_self[SERVICE],
            "serving.batcher.queue_wait_ms": layer_self[WAIT],
            "api.client.local_tax_ms": layer_self[LOCAL],
            "api.server.http_tax_ms": layer_self[HTTP],
            "serving.router.hop_ms": layer_self.get(HOP),
            "serving.md.integrator_self_ms": layer_self.get(MD),
            "serving.admission.check_ms": admission_check_ms(),
            "cli.boot_s": boot_s,
            "serving.replicas.spawn_s": spawn_s,
            "bench.host_spin_ms": (spin_before + spin_after) / 2.0,
            "bench.trace_overhead_share": (root.total_ms - top["untraced_p50_ms"])
            / top["untraced_p50_ms"],
        }
    )
    return {
        "workload": workload.name,
        "seed": seed,
        "metrics": metrics,
        "ladder": [{"layer": name, "self_ms": value} for name, value in layer_self.items()],
        "top_rung_ms": root.total_ms,
        "untraced_op_p50_ms": top["untraced_p50_ms"],
        "empty_span_ms": empty_span_ms,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.messages[:10],
        "probe": {key: probe[key] for key in ("sent", "rate_per_s", "seconds")},
        "spans": bench.trace.spans,
        "host": dict(quiet, spin_ms_before=spin_before, spin_ms_after=spin_after),
    }
