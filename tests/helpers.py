"""Shared test utilities."""

from __future__ import annotations

import numpy as np

from repro.tensor.core import Tensor


def numeric_gradient(f, arrays: list[np.ndarray], index: int, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar ``f(*arrays)`` w.r.t. one arg."""
    base = arrays[index]
    grad = np.zeros_like(base)
    iterator = np.nditer(base, flags=["multi_index"])
    for _ in iterator:
        position = iterator.multi_index
        plus = [a.copy() for a in arrays]
        minus = [a.copy() for a in arrays]
        plus[index][position] += eps
        minus[index][position] -= eps
        grad[position] = (f(*plus) - f(*minus)) / (2.0 * eps)
    return grad


def gradcheck(f_tensor, shapes: list[tuple[int, ...]], seed: int = 0, tol: float = 1e-6) -> None:
    """Assert analytic gradients match central differences for all args.

    ``f_tensor`` maps Tensors to a scalar Tensor; everything runs in
    float64 so the comparison tolerance can be tight.
    """
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=shape) for shape in shapes]
    tensors = [Tensor(a.copy(), requires_grad=True, dtype=np.float64) for a in arrays]
    out = f_tensor(*tensors)
    out.backward()

    def scalar(*raw: np.ndarray) -> float:
        wrapped = [Tensor(r, dtype=np.float64) for r in raw]
        return f_tensor(*wrapped).item()

    for index, tensor in enumerate(tensors):
        numeric = numeric_gradient(scalar, arrays, index)
        analytic = tensor.grad
        assert analytic is not None, f"missing gradient for argument {index}"
        error = np.abs(numeric - analytic).max()
        assert error < tol, f"gradcheck failed for arg {index}: max err {error:.3e}"


def make_molecule_graphs(count: int = 4, seed: int = 0):
    """Small labeled molecular graphs for model tests."""
    from repro.data.sources import ANI1xSource

    return ANI1xSource().sample(count, seed)


def make_periodic_graphs(count: int = 2, seed: int = 0):
    """Small labeled periodic graphs for model tests."""
    from repro.data.sources import MPTrjSource

    return MPTrjSource().sample(count, seed)


class GatedModel:
    """Wraps a model so every forward waits at a gate: keeps workers busy on cue."""

    def __init__(self, model) -> None:
        import threading

        self._model = model
        self.entered = threading.Event()
        self.gate = threading.Event()

    def __getattr__(self, name):
        return getattr(self._model, name)

    def serve(self, batch, plan=True):
        self.entered.set()
        assert self.gate.wait(10.0)
        return self._model.serve(batch, plan=plan)


def wait_for_free_workers(batcher, count: int) -> None:
    """Return once ``count`` consumers are parked inside ``batcher.next_batch()``."""
    import time

    give_up = time.monotonic() + 5.0
    while batcher._free_workers < count and time.monotonic() < give_up:
        time.sleep(0.001)
    assert batcher._free_workers == count


def predicted_split(group, free: int, max_atoms: int, max_graphs: int):
    """How ``free`` idle workers share ``group``: the batcher's rule, spelled out.

    Each take's atom budget is its share of what is still pending,
    capped by ``max_atoms``, handed to ``first_chunk_size``.
    """
    from repro.serving.batcher import first_chunk_size

    chunks, rest = [], list(group)
    while rest and free:
        share = -(-sum(request.n_atoms for request in rest) // free)
        count = first_chunk_size(rest, min(max_atoms, share), max_graphs)
        chunks.append(rest[:count])
        rest, free = rest[count:], free - 1
    return chunks
