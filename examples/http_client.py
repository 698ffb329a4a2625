"""HTTP serving walkthrough: one Client, in-process and over the wire.

Covers the deployment story of `repro.api` end to end:

1. register a model in a `ModelRegistry` and start a real `ApiServer`
   on an ephemeral port (the same server `repro serve --http PORT` runs),
2. drive it with `Client.http(...)` — POST structures, read energies
   and forces, inspect `/v1/models` and `/v1/stats`,
3. drive the *same* registry with `Client.local(...)` and verify the
   two transports return bit-identical numbers,
4. trip admission control (HTTP 429 as a typed `OverloadedError`).

Run:  python examples/http_client.py
"""

import numpy as np

from repro.api import ApiServer, Client, OverloadedError, StructurePayload
from repro.data import generate_corpus
from repro.models import HydraModel, ModelConfig
from repro.serving import ModelRegistry, ServiceConfig


def main() -> None:
    # 1. A registry with one resident model, served over HTTP.  Real
    # deployments would register_checkpoint(...) trained artifacts.
    registry = ModelRegistry()
    registry.register_model("demo", HydraModel(ModelConfig(hidden_dim=16, num_layers=2), seed=0))
    corpus = generate_corpus(total_graphs=6, seed=0)

    with ApiServer(registry, port=0, workers=2) as server:
        print(f"server listening on {server.url}")

        # 2. Remote client: the wire format is versioned JSON, so this is
        # exactly what a curl / non-Python client would see.
        remote = Client.http(server.url)
        print(f"health: {remote.healthz()['status']}")
        print(f"models: {[m['name'] for m in remote.server_info().models]}")

        results = remote.predict(corpus.graphs)
        print("\nper-structure predictions (HTTP):")
        for graph, result in zip(corpus.graphs, results):
            print(
                f"  {graph.source:8s} {result.n_atoms:3d} atoms  "
                f"energy {result.energy:+9.4f}  "
                f"mean|F| {float(np.abs(result.forces).mean()):.4f}  "
                f"cached={result.cached}"
            )

        telemetry = remote.stats().models["demo"]
        print(
            f"\nserver stats: {telemetry['serving']['requests']} requests, "
            f"{telemetry['serving']['batches']} micro-batches, "
            f"cache hit rate {telemetry['serving']['cache_hit_rate']:.0%}"
        )

        # 3. Local client over the same registry: same code path, no
        # sockets.  The wire format round-trips float64 bit-exactly, so a
        # structure sent alone comes back identical to the last bit; a
        # multi-structure call is split between the slots free when it
        # is taken, so its forwards may be composed differently and agree
        # to float32 round-off.
        local = Client.local(registry)
        local_results = local.predict(corpus.graphs)
        close = all(
            np.isclose(http.energy, inproc.energy, rtol=1e-5, atol=1e-6)
            and np.allclose(http.forces, inproc.forces, rtol=1e-5, atol=1e-6)
            for http, inproc in zip(results, local_results)
        )
        print(f"HTTP == in-process, to round-off: {close}")
        fresh = generate_corpus(total_graphs=1, seed=1).graphs[0]  # not in either cache
        lone_http = remote.predict(fresh)[0]
        lone_local = local.predict(fresh)[0]
        identical = lone_http.energy == lone_local.energy and np.array_equal(
            lone_http.forces, lone_local.forces
        )
        print(f"single structure, bit-exact: {identical}")
        local.close()

    # 4. Admission control: a queue bound of 1 rejects a burst (a call is
    # enqueued whole, so its second structure finds the first still
    # queued) — clients see a typed, retryable error (HTTP 429).
    overload_config = ServiceConfig(max_pending=1)
    with ApiServer(registry, config=overload_config, workers=1) as server:
        client = Client.http(server.url)
        payloads = [StructurePayload.from_graph(g) for g in corpus.graphs]
        try:
            client.predict(payloads)
        except OverloadedError as error:
            print(f"burst of {len(payloads)} rejected as expected: {error}")


if __name__ == "__main__":
    main()
