"""Shared test utilities."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.tensor import kernels
from repro.tensor.core import Tensor


@contextmanager
def registered_backend(name: str, **impls):
    """Register ``impls`` (kernel name → implementation) as backend ``name`` for the block."""
    for kernel, impl in impls.items():
        kernels.register_kernel(kernel, backend=name)(impl)
    try:
        yield name
    finally:
        for kernel in impls:
            kernels._REGISTRY.pop((kernel, name), None)


@contextmanager
def delegating_backend(name: str = "delegate"):
    """Register backend ``name`` for every numpy kernel, forwarding to numpy.

    Yields a counter of ``(kernel, method)`` calls, so a test can tell the
    backend really ran, on whichever thread dispatched to it.
    """
    import threading
    from collections import Counter

    calls: Counter = Counter()
    lock = threading.Lock()

    def counted(kernel, method, target):
        def call(*args, **kwargs):
            with lock:
                calls[(kernel, method)] += 1
            return target(*args, **kwargs)

        return staticmethod(call)

    impls = {}
    for kernel in kernels.available_kernels("numpy"):
        reference = kernels.get_kernel(kernel, backend="numpy")
        methods = {
            method: counted(kernel, method, getattr(reference, method))
            for method in ("forward", "backward", "geometry")
            if hasattr(reference, method)
        }
        impls[kernel] = type(f"Delegate_{kernel}", (), methods)
    with registered_backend(name, **impls):
        yield calls


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


def raw_post(url: str, headers: list[tuple[str, str]], body: bytes) -> tuple[int, dict]:
    """POST ``body`` with exactly ``headers`` (repeats allowed) on a raw socket.

    Reads until the server closes the connection and asserts it sent
    exactly one response; returns its status and JSON body.  A server
    that keeps the connection open fails the read with a timeout.
    """
    import json
    import socket
    from urllib.parse import urlsplit

    parts = urlsplit(url)
    head = f"POST {parts.path} HTTP/1.1\r\nHost: {parts.netloc}\r\n"
    head += "".join(f"{name}: {value}\r\n" for name, value in headers) + "\r\n"
    received = b""
    with socket.create_connection((parts.hostname, parts.port), timeout=10) as sock:
        sock.sendall(head.encode("latin-1") + body)
        while chunk := sock.recv(65536):
            received += chunk
    response_head, _, payload = received.partition(b"\r\n\r\n")
    lines = response_head.decode("latin-1").split("\r\n")
    framed = [
        int(line.partition(":")[2]) for line in lines if line.lower().startswith("content-length:")
    ]
    assert framed == [len(payload)], f"not exactly one response: {received!r}"
    return int(lines[0].split()[1]), json.loads(payload)


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
