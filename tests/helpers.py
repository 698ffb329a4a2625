"""Shared test utilities."""

from __future__ import annotations

import threading
from collections import Counter

import numpy as np

from repro.tensor.core import Tensor


def count_calls(monkeypatch, owner, *names: str) -> Counter:
    """Swap each ``owner.<name>`` for a pass-through that counts its calls.

    Used on the kernel implementations (``kernels.LinearKernel`` ...) to
    show which code a forward, backward or plan replay really ran.  The
    counter is locked, so the substitutes may run on serving workers.
    """
    calls: Counter = Counter()
    lock = threading.Lock()
    for name in names:

        def call(*args, _name=name, _target=getattr(owner, name), **kwargs):
            with lock:
                calls[_name] += 1
            return _target(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)
    return calls


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


def raw_exchange(url: str, data: bytes, half_close: bool = False, timeout: float = 10.0) -> bytes:
    """Send ``data`` verbatim on a fresh socket; return every byte until the server closes.

    ``half_close`` shuts the write side after sending, as a client that
    gives up mid-body does.  A reset counts as the close.  A server that
    keeps the connection open past ``timeout`` fails the read.
    """
    import socket
    from urllib.parse import urlsplit

    parts = urlsplit(url)
    received = b""
    with socket.create_connection((parts.hostname, parts.port), timeout=timeout) as sock:
        sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        try:
            while chunk := sock.recv(65536):
                received += chunk
        except ConnectionResetError:
            pass
    return received


def parse_responses(received: bytes) -> list[tuple[int, dict]]:
    """Split raw response bytes into ``(status, JSON body)`` pairs.

    Every response must frame its body with exactly one ``Content-Length``.
    """
    import json

    responses = []
    while received:
        head, _, rest = received.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        lengths = [
            int(line.partition(":")[2])
            for line in lines
            if line.lower().startswith("content-length:")
        ]
        assert len(lengths) == 1 and len(rest) >= lengths[0], f"not framed: {received!r}"
        responses.append((int(lines[0].split()[1]), json.loads(rest[: lengths[0]])))
        received = rest[lengths[0] :]
    return responses


def raw_post(url: str, headers: list[tuple[str, str]], body: bytes) -> tuple[int, dict]:
    """POST ``body`` with exactly ``headers`` (repeats allowed) on a raw socket.

    Reads until the server closes the connection and asserts it sent
    exactly one response; returns its status and JSON body.  A server
    that keeps the connection open fails the read with a timeout.
    """
    from urllib.parse import urlsplit

    parts = urlsplit(url)
    head = f"POST {parts.path} HTTP/1.1\r\nHost: {parts.netloc}\r\n"
    head += "".join(f"{name}: {value}\r\n" for name, value in headers) + "\r\n"
    (response,) = parse_responses(raw_exchange(url, head.encode("latin-1") + body))
    return response


#: Requests stdlib's parser rejects, with the typed answer both servers
#: give: (raw request, status, error code, message).
FRAMING_FAULTS = [
    (b"GARBAGE\r\n\r\n", 400, "invalid_request", "Bad request syntax ('GARBAGE')"),
    (b"GET /v1/healthz HTTP/2.0\r\n\r\n", 505, "invalid_request", "Invalid HTTP version (2.0)"),
    (
        b"GET /" + b"x" * 70_000 + b" HTTP/1.1\r\n\r\n",
        414,
        "invalid_request",
        "Request-URI Too Long",
    ),
    (
        b"GET /v1/healthz HTTP/1.1\r\n" + b"X-Pad: 1\r\n" * 101 + b"\r\n",
        431,
        "invalid_request",
        "Too many headers",
    ),
    (
        b"PUT /v1/predict HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
        404,
        "not_found",
        "no such endpoint: PUT /v1/predict",
    ),
]


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
