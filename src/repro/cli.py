"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiments``
    List the registered paper artifacts and their bench targets.
``run <id>``
    Run one experiment (``table1``, ``fig1`` ... ``table2``) at a light
    budget and print its regenerated artifact.
``model <preset|params>``
    Describe a model preset (``tiny`` ... ``foundation``) or solve the
    width for a parameter target like ``50M`` / ``2B``.
``corpus <graphs>``
    Generate a corpus and print its source mixture and statistics.
``predict``
    Score structures through a model (preset or checkpoint) on the
    inference fast path.  Reads user structures from ``--input
    structures.json`` (the v1 wire schema) or generates a synthetic
    corpus; prints a table or, with ``--json``, a v1 ``PredictResponse``.
``serve``
    With ``--http PORT``: run the real HTTP prediction API
    (``POST /v1/predict``, ``POST /v1/relax``, ``POST /v1/md``,
    ``GET /v1/models``/``healthz``/``stats``)
    over a :class:`~repro.serving.service.PredictionService`, shutting
    down gracefully on SIGTERM/Ctrl-C.  Adding ``--replicas N`` scales
    past the GIL: N replica worker processes (one engine each) behind
    the replica router, with health-checked restarts, SIGHUP rolling
    restarts, and aggregated ``/v1/stats``.  With ``--selftest``:
    replay the synthetic closed-loop serving session and print its
    telemetry.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.experiments.registry import EXPERIMENTS, run_experiment


def _parse_params(text: str) -> int:
    """'50M' -> 50_000_000, '2B' -> 2_000_000_000, plain ints pass.

    Raises :class:`argparse.ArgumentTypeError` on junk like ``"50X"`` so
    argparse (or a caller) can report a clean error instead of an
    unhandled ``ValueError`` traceback.
    """
    suffixes = {"K": 1e3, "M": 1e6, "B": 1e9}
    cleaned = text.strip().upper()
    try:
        if cleaned and cleaned[-1] in suffixes:
            return int(float(cleaned[:-1]) * suffixes[cleaned[-1]])
        return int(cleaned)
    except (ValueError, OverflowError):  # OverflowError: "infM" -> int(inf)
        raise argparse.ArgumentTypeError(
            f"invalid parameter count {text!r} (expected an integer or a "
            "K/M/B-suffixed value like 50M or 2B)"
        ) from None


def _cmd_experiments(_args: argparse.Namespace) -> int:
    from repro.experiments.report import ascii_table

    rows = [
        [spec.id, spec.paper_artifact, spec.description, spec.bench_target]
        for spec in EXPERIMENTS.values()
    ]
    print(ascii_table(["id", "artifact", "description", "bench"], rows))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    kwargs = {}
    if args.experiment in ("fig3", "fig4"):
        from repro.scaling import LadderSpec

        if args.fast:
            kwargs["spec"] = LadderSpec(
                corpus_graphs=160,
                widths=(4, 8, 16),
                dataset_fractions=(0.25, 1.0),
                epochs=3,
            )
    result = run_experiment(args.experiment, **kwargs)
    print(result.to_text())
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    from repro.models import describe, get_preset, preset_names, solve_width

    try:
        config = get_preset(args.target)
    except KeyError:
        try:
            config = solve_width(_parse_params(args.target), num_layers=args.depth)
        except (ValueError, argparse.ArgumentTypeError) as error:
            print(f"error: {error}", file=sys.stderr)
            print(f"known presets: {preset_names()}", file=sys.stderr)
            return 2
    print(describe(config))
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    from repro.data import generate_corpus
    from repro.experiments.report import ascii_table
    from repro.graph.stats import corpus_stats

    corpus = generate_corpus(args.graphs, seed=args.seed)
    labels = corpus.source_labels()
    rows = []
    for source in corpus.source_order:
        graphs = [g for g, label in zip(corpus.graphs, labels) if label == source]
        stats = corpus_stats(graphs)
        rows.append(
            [
                source,
                str(stats.num_graphs),
                f"{stats.nodes_per_graph:.1f}",
                f"{stats.edges_per_graph:.1f}",
                f"{stats.num_bytes / 1e6:.2f} MB",
            ]
        )
    print(ascii_table(["source", "#graphs", "atoms/graph", "edges/graph", "bytes"], rows))
    print(
        f"total: {corpus.num_graphs} graphs, {corpus.total_bytes / 1e6:.1f} MB "
        f"(represents {corpus.paper_tb():.2f} TB at paper scale)"
    )
    return 0


def _load_serving_model(args: argparse.Namespace):
    """(model, normalizer) for ``predict``/``serve``.

    Checkpoints saved with a fitted :class:`Normalizer` serve
    physical-unit outputs; presets (no training run, no normalizer)
    serve normalized outputs.
    """
    if getattr(args, "checkpoint", None):
        from repro.train import load_inference_bundle

        return load_inference_bundle(args.checkpoint)
    from repro.models import HydraModel, get_preset

    return HydraModel(get_preset(args.preset), seed=args.seed), None


def _add_serving_model_args(parser: argparse.ArgumentParser) -> None:
    from repro.tensor.kernels import BACKEND

    parser.add_argument(
        "--checkpoint", help="path to a training checkpoint (.npz) to serve"
    )
    parser.add_argument(
        "--preset",
        default="tiny",
        help="model preset when no checkpoint is given (default: tiny)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--backend",
        choices=[BACKEND],
        help="kernel backend for model forwards (default: numpy)",
    )
    parser.add_argument(
        "--no-plan",
        action="store_true",
        help="disable traced execution plans (run every forward on the "
        "op-by-op fast path instead of compiled per-bucket replays)",
    )


def _load_input_graphs(args: argparse.Namespace) -> list:
    """Graphs from ``--input`` (wire schema) — neighbor search included."""
    from repro.api import structures_from_json

    payload = json.loads(Path(args.input).read_text())
    structures = structures_from_json(payload)
    return [structure.to_graph(args.cutoff) for structure in structures]


def _cmd_predict(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.api import PredictResponse, SchemaError
    from repro.experiments.report import ascii_table
    from repro.serving import PredictionService, ServiceConfig

    try:
        model, normalizer = _load_serving_model(args)
        service = PredictionService(
            model,
            ServiceConfig(
                max_atoms=args.max_atoms,
                max_graphs=args.max_graphs,
                backend=args.backend,
                plan=not args.no_plan,
            ),
            normalizer=normalizer,
        )
        if args.input:
            graphs = _load_input_graphs(args)
        else:
            from repro.data import generate_corpus

            graphs = generate_corpus(args.graphs, seed=args.seed).graphs
    except (KeyError, OSError, ValueError, SchemaError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    results = service.predict_many(graphs)
    if args.json:
        response = PredictResponse.from_results(
            args.checkpoint or args.preset, results
        )
        print(json.dumps(response.to_json_dict(), indent=2))
        return 0
    rows = []
    for graph, result in zip(graphs, results):
        rows.append(
            [
                graph.source,
                str(result.n_atoms),
                f"{result.energy:+.4f}",
                f"{float(np.abs(result.forces).mean()):.4f}",
                str(result.batch_graphs),
            ]
        )
    energy_label = "energy (phys)" if normalizer is not None else "energy/atom (norm)"
    print(ascii_table(["source", "atoms", energy_label, "mean |force|", "batch"], rows))
    summary = service.summary()
    print(
        f"served {summary.requests} structures in {summary.batches} micro-batches "
        f"(mean {summary.mean_batch_graphs:.1f} graphs/batch)"
    )
    return 0


def _service_config(args: argparse.Namespace):
    from repro.serving import ServiceConfig

    return ServiceConfig(
        max_atoms=args.max_atoms,
        max_graphs=args.max_graphs,
        flush_interval_s=args.flush_interval,
        max_pending=args.max_pending,
        backend=args.backend,
        plan=not args.no_plan,
        client_rate=args.client_rate,
        client_burst=args.client_burst,
        client_concurrency=args.client_concurrency,
        brownout_enter_s=args.brownout_enter,
        brownout_exit_s=args.brownout_exit,
        brownout_dwell_s=args.brownout_dwell,
        lane_aging_s=args.lane_aging,
    )


def _serve_http(args: argparse.Namespace) -> int:
    """Run the real HTTP prediction API until SIGTERM/SIGINT.

    Both signals take the same graceful path: stop accepting
    connections, drain queued requests, exit 0.  The listener runs on a
    daemon thread so the main thread can sit in an interruptible wait
    and still own the shutdown sequence.
    """
    import signal
    import threading

    from repro.api import ApiServer
    from repro.serving import ModelRegistry
    from repro.serving.faults import FAULT_SPEC_ENV, FaultPlan

    try:
        # --fault-spec takes precedence over REPRO_FAULT_SPEC; routing it
        # through the environment keeps the replica-id lookup in one
        # place (fleet children get the spec as an argument here but
        # their slot number from REPRO_REPLICA_ID).
        if getattr(args, "fault_spec", None):
            os.environ[FAULT_SPEC_ENV] = args.fault_spec
        faults = FaultPlan.from_env()
        model, normalizer = _load_serving_model(args)
        registry = ModelRegistry()
        registry.register_model(args.model_name, model, normalizer=normalizer)
        server = ApiServer(
            registry,
            host=args.host,
            port=args.http,
            config=_service_config(args),
            workers=args.workers,
            default_model=args.model_name,
            faults=faults,
        )
        # Eagerly start the served model's service: a bad model or
        # service config must fail the process here, not 500 every
        # request after a healthy-looking startup.
        server.gateway.warm()
    except (KeyError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    stop = threading.Event()

    def _request_shutdown(signum, _frame) -> None:
        print(f"received {signal.Signals(signum).name}", flush=True)
        stop.set()

    previous = {
        signum: signal.signal(signum, _request_shutdown)
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    server.start()
    # Machine-readable port line for --http 0: the CI smoke, the replica
    # supervisor's startup handshake, and any orchestrator parse this
    # instead of scraping the human banner below.
    print(f"bound_port={server.bound_port}", flush=True)
    print(
        f"serving model {args.model_name!r} on {server.url} "
        f"({args.workers} worker(s), budget {args.max_atoms} atoms / "
        f"{args.max_graphs} graphs, max_pending "
        f"{args.max_pending or 'unbounded'})",
        flush=True,
    )
    print(
        "endpoints: POST /v1/predict · POST /v1/relax · POST /v1/md · GET /v1/models · "
        "GET /v1/healthz · GET /v1/stats",
        flush=True,
    )
    if faults is not None:
        print(f"fault injection armed: {json.dumps(faults.describe())}", flush=True)
    try:
        stop.wait()
        print("shutting down: draining queued requests", flush=True)
    finally:
        server.close()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    print("server stopped cleanly", flush=True)
    return 0


def _replica_args(args: argparse.Namespace) -> tuple[str, ...]:
    """The per-replica ``repro serve`` argument list (fleet-uniform)."""
    replica_args = [
        "--workers",
        str(args.workers),
        "--max-atoms",
        str(args.max_atoms),
        "--max-graphs",
        str(args.max_graphs),
        "--max-pending",
        str(args.max_pending),
        "--flush-interval",
        str(args.flush_interval),
        "--model-name",
        args.model_name,
        "--seed",
        str(args.seed),
        "--client-rate",
        str(args.client_rate),
        "--client-burst",
        str(args.client_burst),
        "--client-concurrency",
        str(args.client_concurrency),
        "--brownout-enter",
        str(args.brownout_enter),
        "--brownout-exit",
        str(args.brownout_exit),
        "--brownout-dwell",
        str(args.brownout_dwell),
    ]
    if args.lane_aging is not None:
        replica_args += ["--lane-aging", str(args.lane_aging)]
    if args.checkpoint:
        replica_args += ["--checkpoint", args.checkpoint]
    else:
        replica_args += ["--preset", args.preset]
    if args.backend:
        replica_args += ["--backend", args.backend]
    if args.no_plan:
        replica_args += ["--no-plan"]
    if args.fault_spec:
        # Each replica re-parses the spec against its own REPRO_REPLICA_ID
        # (set by the supervisor), so replica-targeted clauses land on
        # exactly the slot they name.
        replica_args += ["--fault-spec", args.fault_spec]
    return tuple(replica_args)


def _serve_replicas(args: argparse.Namespace) -> int:
    """Run the replica fleet: N worker processes behind the replica router.

    SIGTERM/SIGINT drain gracefully (router stops admitting, in-flight
    requests finish, replicas exit 0); SIGHUP triggers a rolling restart
    — each replica is drained, restarted, and re-admitted in turn, so a
    new checkpoint or code deploy rolls out with zero dropped requests.
    """
    import signal
    import threading

    from repro.serving.faults import FaultPlan
    from repro.serving.replicas import ReplicaSpec, ReplicaStartupError, ReplicaSupervisor

    supervisor = None
    try:
        if args.fault_spec:
            # Fail a typo'd spec here, before spawning N processes that
            # would each die on it.
            FaultPlan.parse(args.fault_spec)
        supervisor = ReplicaSupervisor(
            count=args.replicas,
            spec=ReplicaSpec(args=_replica_args(args)),
            host=args.host,
            port=args.http,
            max_request_age_s=args.max_request_age,
        )
        supervisor.start()
    except (OSError, ValueError, ReplicaStartupError) as error:
        print(f"error: {error}", file=sys.stderr)
        if supervisor is not None:
            supervisor.close(drain_timeout_s=0.0)
        return 2

    stop = threading.Event()
    rolling = threading.Event()

    def _request_shutdown(signum, _frame) -> None:
        print(f"received {signal.Signals(signum).name}", flush=True)
        stop.set()

    def _request_rolling_restart(_signum, _frame) -> None:
        rolling.set()

    handled = {signal.SIGINT: _request_shutdown, signal.SIGTERM: _request_shutdown}
    if hasattr(signal, "SIGHUP"):
        handled[signal.SIGHUP] = _request_rolling_restart
    previous = {signum: signal.signal(signum, handler) for signum, handler in handled.items()}
    print(f"bound_port={supervisor.bound_port}", flush=True)
    pids = " ".join(str(pid) for pid in supervisor.pids().values())
    print(
        f"routing model {args.model_name!r} on {supervisor.url} across "
        f"{args.replicas} replica(s) (pids: {pids}); SIGHUP = rolling restart",
        flush=True,
    )
    print(
        "endpoints: POST /v1/predict · POST /v1/relax · POST /v1/md · GET /v1/models · "
        "GET /v1/healthz · GET /v1/stats",
        flush=True,
    )
    try:
        while not stop.wait(timeout=0.2):
            if rolling.is_set():
                rolling.clear()
                print("rolling restart: draining and replacing replicas", flush=True)
                new_pids = supervisor.rolling_restart()
                print(
                    "rolling restart complete (pids: "
                    + " ".join(str(pid) for pid in new_pids.values())
                    + ")",
                    flush=True,
                )
        print(
            "shutting down: draining in-flight requests, stopping replicas", flush=True
        )
    finally:
        supervisor.close()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    print("supervisor stopped cleanly", flush=True)
    return 0


def _serve_selftest(args: argparse.Namespace) -> int:
    """The synthetic closed-loop serving session (pre-HTTP behavior)."""
    import numpy as np

    from repro.data import generate_corpus
    from repro.serving import PredictionService, ServiceOverloaded

    try:
        model, normalizer = _load_serving_model(args)
        config = _service_config(args)
        service = PredictionService(model, config, normalizer=normalizer)
    except (KeyError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    corpus = generate_corpus(args.graphs, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    # A synthetic request stream with repeats: screening traffic re-scores
    # known structures, which is what the result cache is for.
    indices = rng.integers(0, len(corpus.graphs), size=args.requests)
    print(
        f"serving {args.requests} requests over {len(corpus.graphs)} unique "
        f"structures with {args.workers} worker(s) "
        f"(budget: {config.max_atoms} atoms / {config.max_graphs} graphs, "
        f"backend {config.backend or 'default'}, "
        f"plans {'on' if config.plan else 'off'}, "
        f"units {'physical' if normalizer is not None else 'normalized'})"
    )
    service.start(workers=args.workers)
    try:
        # Closed-loop clients: at most --concurrency requests in flight.
        # Later waves re-request structures earlier waves computed, which
        # is what turns repeats into cache hits.
        for start in range(0, len(indices), args.concurrency):
            wave = indices[start : start + args.concurrency]
            pending = [service.submit(corpus.graphs[i]) for i in wave]
            for request in pending:
                request.wait(config.request_timeout_s)
    except ServiceOverloaded as error:
        print(f"error: server overloaded: {error}", file=sys.stderr)
        print(
            "hint: raise --max-pending (or 0 to disable admission control), "
            "or lower --concurrency",
            file=sys.stderr,
        )
        return 2
    finally:
        service.stop()
    print(service.summary().to_text())
    cache = service.cache.stats
    pool = service.pool.snapshot()
    plans = service.telemetry()["plans"]
    plan_line = (
        f"execution plans : {plans.get('plans_compiled', 0)} compiled, "
        f"{plans.get('plan_hits', 0)} hits / {plans.get('plan_misses', 0)} misses "
        f"({plans.get('plan_hit_rate', 0.0):.1%} replayed)"
        if plans["enabled"]
        else "execution plans : disabled (--no-plan)"
    )
    print(
        f"result cache    : {cache.hits} hits / {cache.misses} misses "
        f"({cache.hit_rate:.1%})\n"
        f"buffer pool     : {pool['hit_rate']:.1%} reuse, "
        f"{pool['reserved_bytes'] / 1e6:.2f} MB reserved\n"
        + plan_line
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.http is not None and args.selftest:
        print("error: --http and --selftest are mutually exclusive", file=sys.stderr)
        return 2
    if args.replicas < 0:
        print("error: --replicas must be >= 0", file=sys.stderr)
        return 2
    if args.replicas > 0 and args.http is None:
        print("error: --replicas requires --http PORT", file=sys.stderr)
        return 2
    if args.http is not None:
        if args.replicas > 0:
            return _serve_replicas(args)
        return _serve_http(args)
    if args.selftest:
        return _serve_selftest(args)
    print(
        "error: serve requires a mode: --http PORT (real API server) "
        "or --selftest (synthetic session)",
        file=sys.stderr,
    )
    return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for 'Scaling Laws of GNNs for "
        "Atomistic Materials Modeling' (DAC 2025)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("experiments", help="list registered paper artifacts").set_defaults(
        func=_cmd_experiments
    )

    run_parser = commands.add_parser("run", help="run one experiment and print its artifact")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run_parser.add_argument(
        "--fast", action="store_true", help="reduced budget for the scaling studies"
    )
    run_parser.set_defaults(func=_cmd_run)

    model_parser = commands.add_parser("model", help="describe a preset or parameter target")
    model_parser.add_argument("target", help="preset name or target like 50M / 2B")
    model_parser.add_argument("--depth", type=int, default=3)
    model_parser.set_defaults(func=_cmd_model)

    corpus_parser = commands.add_parser("corpus", help="generate and summarize a corpus")
    corpus_parser.add_argument("graphs", type=int)
    corpus_parser.add_argument("--seed", type=int, default=0)
    corpus_parser.set_defaults(func=_cmd_corpus)

    predict_parser = commands.add_parser(
        "predict", help="score structures (--input or synthetic) through a model"
    )
    _add_serving_model_args(predict_parser)
    predict_parser.add_argument(
        "--input",
        help="JSON file of structures (v1 wire schema: a predict request, "
        "a list of structures, or one structure)",
    )
    predict_parser.add_argument(
        "--json",
        action="store_true",
        help="emit a v1 PredictResponse JSON document instead of a table",
    )
    predict_parser.add_argument(
        "--cutoff",
        type=float,
        default=5.0,
        help="neighbor-search cutoff for --input structures (angstrom)",
    )
    predict_parser.add_argument(
        "--graphs", type=int, default=8, help="synthetic structures when no --input"
    )
    predict_parser.add_argument("--max-atoms", type=int, default=512)
    predict_parser.add_argument("--max-graphs", type=int, default=64)
    predict_parser.set_defaults(func=_cmd_predict)

    serve_parser = commands.add_parser(
        "serve", help="run the HTTP prediction API (--http) or a synthetic session (--selftest)"
    )
    _add_serving_model_args(serve_parser)
    serve_parser.add_argument(
        "--http",
        type=int,
        metavar="PORT",
        help="run the real HTTP API server on PORT (0 picks an ephemeral port)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address for --http (default: loopback)"
    )
    serve_parser.add_argument(
        "--replicas",
        type=int,
        default=0,
        metavar="N",
        help="with --http: route across N replica worker processes "
        "(one engine per process, GIL-free scaling); 0 = serve in-process "
        "(default)",
    )
    serve_parser.add_argument(
        "--model-name",
        default="default",
        help="name the served model is registered under (default: 'default')",
    )
    serve_parser.add_argument(
        "--selftest",
        action="store_true",
        help="replay the synthetic closed-loop serving session instead",
    )
    serve_parser.add_argument(
        "--graphs", type=int, default=24, help="unique structures (selftest)"
    )
    serve_parser.add_argument(
        "--requests", type=int, default=96, help="total requests (selftest)"
    )
    serve_parser.add_argument("--workers", type=int, default=2)
    serve_parser.add_argument(
        "--concurrency", type=int, default=16, help="in-flight requests per wave (selftest)"
    )
    serve_parser.add_argument("--max-atoms", type=int, default=512)
    serve_parser.add_argument("--max-graphs", type=int, default=64)
    serve_parser.add_argument(
        "--max-pending",
        type=int,
        default=0,
        help="admission control: reject once this many structures are queued "
        "(0 = unbounded)",
    )
    serve_parser.add_argument(
        "--flush-interval",
        type=float,
        default=0.005,
        help="no longer delays a batch (a free worker takes queued work at once); "
        "still reported in /v1/stats and seeds the default --lane-aging",
    )
    serve_parser.add_argument(
        "--client-rate",
        type=float,
        default=0.0,
        metavar="PER_S",
        help="per-client token-bucket refill in structures/s, keyed on the "
        "request's client_id (0 = no rate quotas, the default; anonymous "
        "requests are exempt)",
    )
    serve_parser.add_argument(
        "--client-burst",
        type=float,
        default=0.0,
        metavar="N",
        help="per-client bucket capacity (0 derives 2x --client-rate)",
    )
    serve_parser.add_argument(
        "--client-concurrency",
        type=int,
        default=0,
        metavar="N",
        help="per-client in-flight structure bound (0 = unbounded)",
    )
    serve_parser.add_argument(
        "--brownout-enter",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="queue-age p95 that enters brownout shedding — background lane "
        "first, then bulk, never interactive (0 = disabled, the default)",
    )
    serve_parser.add_argument(
        "--brownout-exit",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="queue-age p95 that exits brownout (0 derives half of "
        "--brownout-enter)",
    )
    serve_parser.add_argument(
        "--brownout-dwell",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="minimum seconds between brownout level transitions (hysteresis)",
    )
    serve_parser.add_argument(
        "--lane-aging",
        type=float,
        default=None,
        metavar="SECONDS",
        help="anti-starvation bound for the weighted-fair lanes: a queued "
        "request older than this is served next regardless of lane "
        "(default: 10 x --flush-interval, floored at 50 ms)",
    )
    serve_parser.add_argument(
        "--fault-spec",
        default=None,
        metavar="SPEC",
        help="fault injection for chaos testing, e.g. "
        "'delay:ms=50:prob=0.1,crash:after=20:replica=1' "
        "(kinds: delay, wedge, crash, corrupt; see repro.serving.faults)",
    )
    serve_parser.add_argument(
        "--max-request-age",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="with --replicas: watchdog restarts a replica whose oldest "
        "in-flight request exceeds this age (0 = disabled, the default — "
        "long relax descents legitimately hold a request)",
    )
    serve_parser.set_defaults(func=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
