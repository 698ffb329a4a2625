"""Engine micro-benchmarks: training-step throughput of the substrate.

These are conventional pytest-benchmark timings (multiple rounds) of the
numpy engine itself — useful for tracking substrate regressions, and the
denominators behind the "measured compute" column of Table II.

Two comparisons guard the fused kernels:

- ``bench_fused_vs_composed_width128`` asserts the fused message-passing
  kernels + buffer pool deliver ≥1.5x the throughput of the composed
  primitive ops at width 128 (and that both agree numerically).  The
  composed side is the test suite's oracle, ``tests.reference``, so run
  this file from the repository root;
- ``bench_inference_vs_train_width128`` asserts the ``no_grad`` fast path
  constructs zero autograd ``Function`` nodes.
"""

import os
import time
from contextlib import nullcontext

import numpy as np

from _shared import write_result
from repro.data import Normalizer, generate_corpus
from repro.graph.batch import collate
from repro.models import HydraModel, ModelConfig
from repro.optim import Adam
from repro.tensor import function_nodes_created, no_grad
from repro.tensor.allocator import BufferPool, use_pool
from tests.reference import composed_ops

_corpus = None


def _graphs():
    global _corpus
    if _corpus is None:
        _corpus = generate_corpus(48, seed=75)
    return _corpus


def _workload(width: int, checkpoint: bool = False, fused: bool = True, pool: bool = True):
    corpus = _graphs()
    normalizer = Normalizer.fit(corpus.graphs)
    graphs = [g for g in corpus.graphs if g.source in ("ani1x", "qm7x")][:16]
    batch = collate(graphs)
    config = ModelConfig(hidden_dim=width, num_layers=3, checkpoint_activations=checkpoint)
    model = HydraModel(config, seed=0)
    optimizer = Adam(model.parameters(), lr=1e-3)
    energy = normalizer.normalized_energy(batch)
    forces = normalizer.normalized_forces(batch)
    buffer_pool = BufferPool() if pool else None

    def step() -> float:
        model.zero_grad()
        loss = model.loss(model(batch), energy, forces)
        loss.backward()
        optimizer.step()
        return loss.item()

    def run() -> float:
        ops = nullcontext() if fused else composed_ops()
        if buffer_pool is not None:
            with ops, use_pool(buffer_pool):
                return step()
        with ops:
            return step()

    return run


def _best_of(fn, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _best_of_interleaved(fn_a, fn_b, rounds: int = 3) -> tuple[float, float]:
    """Best-of timings with a/b alternating each round.

    Interleaving means a sustained load spike on a shared machine hits
    both sides instead of biasing whichever ran second.
    """
    best_a = best_b = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b


def bench_train_step_width64(benchmark):
    step = _workload(64)
    step()  # warm-up (allocates Adam state)
    loss = benchmark(step)
    assert np.isfinite(loss)


def bench_train_step_width128(benchmark):
    step = _workload(128)
    step()
    loss = benchmark(step)
    assert np.isfinite(loss)


def bench_train_step_width128_composed(benchmark):
    """The composed primitive-op baseline the fused kernels replace."""
    step = _workload(128, fused=False, pool=False)
    step()
    loss = benchmark(step)
    assert np.isfinite(loss)


def bench_train_step_checkpointed_width64(benchmark):
    step = _workload(64, checkpoint=True)
    step()
    loss = benchmark(step)
    assert np.isfinite(loss)


#: Required fused-over-composed speedup.  The 1.5x acceptance bar assumes a
#: quiet machine; noisy shared CI runners can override via the env var
#: (the CI workflow smoke uses a lower floor so load spikes on a neighbor
#: tenant do not fail unrelated PRs).
_SPEEDUP_FLOOR = float(os.environ.get("ENGINE_SPEEDUP_FLOOR", "1.5"))


def bench_fused_vs_composed_width128(benchmark):
    """Fused kernels must be ≥1.5x the composed-op train step (width 128)."""
    fused = _workload(128, fused=True)
    composed = _workload(128, fused=False, pool=False)
    fused_loss = fused()  # warm-up: Adam state, pool population, caches
    composed_loss = composed()
    assert abs(fused_loss - composed_loss) < 1e-5, "fused and composed steps diverged"
    t_composed, t_fused = _best_of_interleaved(composed, fused)
    speedup = t_composed / t_fused
    text = (
        "engine_fused_vs_composed_width128\n"
        f"composed train step : {t_composed * 1e3:8.1f} ms\n"
        f"fused train step    : {t_fused * 1e3:8.1f} ms\n"
        f"speedup             : {speedup:8.2f}x (required >= {_SPEEDUP_FLOOR}x)"
    )
    write_result("engine_fused_vs_composed", text)
    assert speedup >= _SPEEDUP_FLOOR, f"fused path only {speedup:.2f}x faster"
    loss = benchmark(fused)
    assert np.isfinite(loss)


def bench_inference_vs_train_width128(benchmark):
    """The no_grad fast path: zero Function nodes, measured vs train step."""
    corpus = _graphs()
    graphs = [g for g in corpus.graphs if g.source in ("ani1x", "qm7x")][:16]
    batch = collate(graphs)
    model = HydraModel(ModelConfig(hidden_dim=128, num_layers=3), seed=0)
    pool = BufferPool()

    def forward() -> float:
        with use_pool(pool):
            return float(model.predict(batch)["energy"].numpy().sum())

    forward()  # warm-up
    before = function_nodes_created()
    forward()
    assert function_nodes_created() == before, "inference fast path built autograd nodes"

    train = _workload(128)
    train()
    t_train = _best_of(train)
    t_infer = _best_of(forward)
    text = (
        "engine_train_vs_inference_width128\n"
        f"train step (fwd+bwd+opt) : {t_train * 1e3:8.1f} ms\n"
        f"inference forward        : {t_infer * 1e3:8.1f} ms\n"
        f"ratio                    : {t_train / t_infer:8.2f}x"
    )
    write_result("engine_train_vs_inference", text)
    value = benchmark(forward)
    assert np.isfinite(value)


def bench_forward_only_width128(benchmark):
    corpus = _graphs()
    graphs = [g for g in corpus.graphs if g.source in ("ani1x", "qm7x")][:16]
    batch = collate(graphs)
    model = HydraModel(ModelConfig(hidden_dim=128, num_layers=3), seed=0)

    def forward() -> float:
        with no_grad():
            return float(model(batch)["energy"].numpy().sum())

    value = benchmark(forward)
    assert np.isfinite(value)
