"""Reverse-mode automatic differentiation over numpy arrays.

This module is the substrate that stands in for PyTorch in the paper's
stack.  It deliberately mirrors the lifetime semantics that make the
paper's memory observations (Fig. 6) true:

- every op that needs intermediate values for its backward pass keeps them
  alive on the op node (``Function``), so *activations accumulate through
  the forward pass and peak at the start of backward*;
- the graph is freed as backward consumes it, so activation memory falls
  during the backward pass;
- gradients materialize during backward and are charged to the
  ``gradients`` category of the active :class:`~repro.tensor.allocator.MemoryTracker`.

The op set is the minimum closed set needed by an E(n)-equivariant GNN
with energy/force heads: broadcast elementwise arithmetic, matmul,
reductions, row gather / segment-sum (message passing), concat/slice, and
pointwise nonlinearities.
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import deque
from contextlib import contextmanager

import numpy as np

from repro.tensor import allocator
from repro.tensor.allocator import GRADIENTS, track_array

DEFAULT_DTYPE = np.float32


class _NodeCounter:
    """Per-thread count of autograd nodes, summable across threads."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


class _CounterHandle:
    """Weakref-able sentinel that dies with its owning thread's locals."""

    __slots__ = ("__weakref__",)


_live_counters: list[_NodeCounter] = []
_retired_counters: deque[_NodeCounter] = deque()
_retired_nodes = 0
_counters_lock = threading.Lock()


def _retire_counter(counter: _NodeCounter) -> None:
    """Queue a dead thread's counter for folding into the retired total.

    Runs as a ``weakref.finalize`` callback, which cyclic GC may fire on
    *any* thread at *any* allocation — including one currently holding
    ``_counters_lock``.  It must therefore be lock-free: a plain
    (atomic) deque append.  :func:`_drain_retired` does the actual
    folding under the lock.  This keeps the process-wide node total
    monotone without retaining one counter per thread ever created — a
    long-lived server cycling worker threads holds O(live threads)
    counters, not O(threads ever).
    """
    _retired_counters.append(counter)


def _drain_retired() -> None:
    """Fold queued dead-thread counters (caller holds ``_counters_lock``)."""
    global _retired_nodes
    while True:
        try:
            counter = _retired_counters.popleft()
        except IndexError:
            break
        _retired_nodes += counter.count
        try:
            _live_counters.remove(counter)
        except ValueError:
            pass


class _GradState(threading.local):
    """Thread-local grad mode + node counter + plan tracer.

    ``threading.local`` re-runs ``__init__`` in every thread that touches
    the instance, so each thread starts with recording *enabled* (the
    same default the process-global flag used to give the main thread)
    and its own node counter.  Concurrent model forwards — the serving
    workers — therefore cannot leak
    ``no_grad`` state into each other.  ``tracer`` is the execution-plan
    recorder (:mod:`repro.tensor.plan`), also per-thread so one worker's
    plan compilation never captures another worker's ops.
    """

    def __init__(self) -> None:
        self.enabled = True
        self.tracer = None
        self.counter = _NodeCounter()
        # The handle lives only in this thread's local dict; when the
        # thread dies the finalizer folds the counter into the retired
        # total and drops it from the live list.
        self._handle = _CounterHandle()
        with _counters_lock:
            _drain_retired()
            _live_counters.append(self.counter)
        weakref.finalize(self._handle, _retire_counter, self.counter)


_state = _GradState()


def function_nodes_created() -> int:
    """Total autograd ``Function`` nodes constructed so far in this process.

    The inference fast path must keep this flat under ``no_grad``
    (asserted in the test suite and the engine benchmarks).  The total is
    the retired count of dead threads plus the live per-thread counters,
    so concurrent serving workers never race on one shared integer and
    the value stays monotone across thread churn.
    """
    with _counters_lock:
        _drain_retired()
        return _retired_nodes + sum(counter.count for counter in _live_counters)


def _count_node() -> None:
    _state.counter.count += 1


def grad_enabled() -> bool:
    """Return whether ops on *this thread* record the autograd graph."""
    return _state.enabled


@contextmanager
def no_grad():
    """Disable graph recording on this thread inside the block."""
    previous = _state.enabled
    _state.enabled = False
    try:
        yield
    finally:
        _state.enabled = previous


@contextmanager
def enable_grad():
    """Force graph recording inside the block (used by checkpointing)."""
    previous = _state.enabled
    _state.enabled = True
    try:
        yield
    finally:
        _state.enabled = previous


@contextmanager
def tracing(tracer):
    """Route this thread's no-grad op stream through ``tracer``.

    While active, every ``Function.apply`` on the inference fast path
    calls ``tracer.record(cls, arrays, kwargs)`` instead of
    ``cls.infer`` directly — that is how the execution-plan compiler
    (:mod:`repro.tensor.plan`) captures the resolved kernel sequence of
    one forward.  Tracing composes with (and requires) ``no_grad``:
    grad-recording ops are never traced.
    """
    previous = _state.tracer
    _state.tracer = tracer
    try:
        yield tracer
    finally:
        _state.tracer = previous


def active_tracer():
    """The plan tracer capturing this thread's ops, or ``None``."""
    return _state.tracer


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum away prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Function:
    """One node of the autograd graph.

    Subclasses implement ``forward`` (numpy in, numpy out) and ``backward``
    (output grad in, one grad per parent out, ``None`` for non-differentiable
    parents).  Instances store whatever ``forward`` saved on ``self``; those
    references are what keep activation memory alive until backward.
    """

    parents: tuple["Tensor", ...] = ()

    def forward(self, *arrays: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> tuple[np.ndarray | None, ...]:
        raise NotImplementedError

    @classmethod
    def infer(cls, *arrays: np.ndarray, **kwargs) -> np.ndarray:
        """Graph-free forward used when no gradient will be needed.

        Subclasses override this with an implementation that neither saves
        intermediates nor copies defensively.  The fallback instantiates a
        throwaway node (and counts it, so the no-node invariant of the
        inference fast path stays observable).
        """
        _count_node()
        return cls(**kwargs).forward(*arrays)

    @classmethod
    def apply(cls, *tensors: "Tensor", **kwargs) -> "Tensor":
        arrays = tuple(t.data for t in tensors)
        if _state.enabled and any(t.requires_grad for t in tensors):
            _count_node()
            fn = cls(**kwargs)
            out = Tensor._from_data(fn.forward(*arrays), requires_grad=True)
            fn.parents = tensors
            out._ctx = fn
            return out
        # Inference fast path: no Function node, no saved intermediates,
        # no defensive copies -- just the numpy compute.
        tracer = _state.tracer
        if tracer is not None:
            return Tensor._from_data(tracer.record(cls, arrays, kwargs), requires_grad=False)
        return Tensor._from_data(cls.infer(*arrays, **kwargs), requires_grad=False)


class Tensor:
    """A numpy array with an optional autograd history."""

    __slots__ = ("data", "grad", "requires_grad", "_ctx", "_retain_grad", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, dtype=None) -> None:
        if isinstance(data, Tensor):
            data = data.data
        if dtype is not None:
            array = np.asarray(data, dtype=dtype)
        elif isinstance(data, (np.ndarray, np.floating)) and np.issubdtype(
            np.asarray(data).dtype, np.floating
        ):
            # Preserve the dtype of float arrays and numpy float scalars
            # (reduction outputs) so float64 computations are never
            # silently quantized to the float32 default.
            array = np.asarray(data)
        else:
            array = np.asarray(data, dtype=DEFAULT_DTYPE)
        self.data = array
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._ctx: Function | None = None
        self._retain_grad = False
        track_array(array)

    @classmethod
    def _from_data(cls, data: np.ndarray, requires_grad: bool) -> "Tensor":
        """Wrap an op output without the constructor's coercion checks.

        Op outputs are already arrays of the right dtype; skipping
        ``np.asarray`` dtype logic keeps the hot path cheap.  Views are
        accepted (the tracker ignores non-base-owning arrays).
        """
        if not isinstance(data, np.ndarray):
            data = np.asarray(data)
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out.requires_grad = requires_grad
        out._ctx = None
        out._retain_grad = False
        track_array(data)
        return out

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def is_leaf(self) -> bool:
        return self._ctx is None

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}{grad_note})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # graph management
    # ------------------------------------------------------------------
    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut off from the graph."""
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.grad = None
        out.requires_grad = False
        out._ctx = None
        out._retain_grad = False
        return out

    def retain_grad(self) -> "Tensor":
        """Keep this non-leaf tensor's gradient after backward."""
        self._retain_grad = True
        return self

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        The graph is consumed: op nodes release their saved activations as
        soon as their backward has run, which is what makes measured
        activation memory fall during the backward pass.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(f"grad shape {grad.shape} != tensor shape {self.data.shape}")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            if node._ctx is not None:
                for parent in node._ctx.parents:
                    if parent.requires_grad and id(parent) not in visited:
                        stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        track_array(grad, GRADIENTS)
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._retain_grad or node._ctx is None:
                if node.grad is None:
                    node.grad = node_grad
                else:
                    node.grad = track_array(node.grad + node_grad, GRADIENTS)
            ctx = node._ctx
            if ctx is None:
                continue
            parent_grads = ctx.backward(node_grad)
            for parent, parent_grad in zip(ctx.parents, parent_grads):
                if parent_grad is None or not parent.requires_grad:
                    continue
                parent_grad = np.asarray(parent_grad, dtype=parent.data.dtype)
                track_array(parent_grad, GRADIENTS)
                key = id(parent)
                if key in grads:
                    # Accumulation allocates a fresh buffer; track it too so
                    # gradient memory stays visible to the profiler.
                    grads[key] = track_array(grads[key] + parent_grad, GRADIENTS)
                else:
                    grads[key] = parent_grad
            # Release saved activations for this node.
            node._ctx = None

    # ------------------------------------------------------------------
    # operator sugar (implementations below)
    # ------------------------------------------------------------------
    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other):
        return Add.apply(self, self._coerce(other))

    def __radd__(self, other):
        return Add.apply(self._coerce(other), self)

    def __sub__(self, other):
        return Sub.apply(self, self._coerce(other))

    def __rsub__(self, other):
        return Sub.apply(self._coerce(other), self)

    def __mul__(self, other):
        return Mul.apply(self, self._coerce(other))

    def __rmul__(self, other):
        return Mul.apply(self._coerce(other), self)

    def __truediv__(self, other):
        return Div.apply(self, self._coerce(other))

    def __rtruediv__(self, other):
        return Div.apply(self._coerce(other), self)

    def __neg__(self):
        return Neg.apply(self)

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        return Pow.apply(self, exponent=float(exponent))

    def __matmul__(self, other):
        return MatMul.apply(self, self._coerce(other))

    def __getitem__(self, index):
        return GetItem.apply(self, index=index)

    # reductions / shape
    def sum(self, axis=None, keepdims: bool = False):
        return Sum.apply(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            count = self.data.size
        elif isinstance(axis, int):
            count = self.data.shape[axis]
        else:
            count = int(np.prod([self.data.shape[a] for a in axis]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Reshape.apply(self, shape=shape)

    def transpose(self):
        return Transpose.apply(self)

    @property
    def T(self):
        return self.transpose()

    # pointwise
    def exp(self):
        return Exp.apply(self)

    def log(self):
        return Log.apply(self)

    def sqrt(self):
        return Sqrt.apply(self)

    def tanh(self):
        return Tanh.apply(self)

    def sigmoid(self):
        return Sigmoid.apply(self)

    def relu(self):
        return ReLU.apply(self)

    def abs(self):
        return Abs.apply(self)


# ----------------------------------------------------------------------
# Primitive ops
# ----------------------------------------------------------------------
class Add(Function):
    def forward(self, a, b):
        self.shapes = (a.shape, b.shape)
        return a + b

    @staticmethod
    def infer(a, b):
        return a + b

    def backward(self, grad):
        sa, sb = self.shapes
        return _unbroadcast(grad, sa), _unbroadcast(grad, sb)


class Sub(Function):
    def forward(self, a, b):
        self.shapes = (a.shape, b.shape)
        return a - b

    @staticmethod
    def infer(a, b):
        return a - b

    def backward(self, grad):
        sa, sb = self.shapes
        return _unbroadcast(grad, sa), _unbroadcast(-grad, sb)


class Mul(Function):
    def forward(self, a, b):
        self.a, self.b = a, b
        return a * b

    @staticmethod
    def infer(a, b):
        return a * b

    def backward(self, grad):
        return (
            _unbroadcast(grad * self.b, self.a.shape),
            _unbroadcast(grad * self.a, self.b.shape),
        )


class Div(Function):
    def forward(self, a, b):
        self.a, self.b = a, b
        return a / b

    @staticmethod
    def infer(a, b):
        return a / b

    def backward(self, grad):
        grad_a = _unbroadcast(grad / self.b, self.a.shape)
        grad_b = _unbroadcast(-grad * self.a / (self.b * self.b), self.b.shape)
        return grad_a, grad_b


class Neg(Function):
    def forward(self, a):
        return -a

    @staticmethod
    def infer(a):
        return -a

    def backward(self, grad):
        return (-grad,)


class Pow(Function):
    def __init__(self, exponent: float) -> None:
        self.exponent = exponent

    def forward(self, a):
        self.a = a
        return a**self.exponent

    @staticmethod
    def infer(a, exponent):
        return a**exponent

    def backward(self, grad):
        return (grad * self.exponent * self.a ** (self.exponent - 1.0),)


class Exp(Function):
    def forward(self, a):
        self.out = np.exp(a)
        return self.out

    @staticmethod
    def infer(a):
        return np.exp(a)

    def backward(self, grad):
        return (grad * self.out,)


class Log(Function):
    def forward(self, a):
        self.a = a
        return np.log(a)

    @staticmethod
    def infer(a):
        return np.log(a)

    def backward(self, grad):
        return (grad / self.a,)


class Sqrt(Function):
    def forward(self, a):
        self.out = np.sqrt(a)
        return self.out

    @staticmethod
    def infer(a):
        return np.sqrt(a)

    def backward(self, grad):
        return (grad * 0.5 / self.out,)


class Tanh(Function):
    def forward(self, a):
        self.out = np.tanh(a)
        return self.out

    @staticmethod
    def infer(a):
        return np.tanh(a)

    def backward(self, grad):
        return (grad * (1.0 - self.out * self.out),)


class Sigmoid(Function):
    def forward(self, a):
        self.out = 1.0 / (1.0 + np.exp(-a))
        return self.out

    @staticmethod
    def infer(a):
        return 1.0 / (1.0 + np.exp(-a))

    def backward(self, grad):
        return (grad * self.out * (1.0 - self.out),)


class ReLU(Function):
    def forward(self, a):
        self.mask = a > 0
        return a * self.mask

    @staticmethod
    def infer(a):
        return np.maximum(a, 0)

    def backward(self, grad):
        return (grad * self.mask,)


class Abs(Function):
    def forward(self, a):
        self.sign = np.sign(a)
        return np.abs(a)

    @staticmethod
    def infer(a):
        return np.abs(a)

    def backward(self, grad):
        return (grad * self.sign,)


class MatMul(Function):
    def forward(self, a, b):
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
        self.a, self.b = a, b
        return a @ b

    @staticmethod
    def infer(a, b):
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
        return a @ b

    def backward(self, grad):
        return grad @ self.b.T, self.a.T @ grad


class Transpose(Function):
    def forward(self, a):
        if a.ndim != 2:
            raise ValueError("transpose expects a 2-D tensor")
        return np.ascontiguousarray(a.T)

    @staticmethod
    def infer(a):
        if a.ndim != 2:
            raise ValueError("transpose expects a 2-D tensor")
        return a.T  # view: inference never mutates, so aliasing is safe

    def backward(self, grad):
        return (np.ascontiguousarray(grad.T),)


class Reshape(Function):
    def __init__(self, shape) -> None:
        self.shape = tuple(shape)

    def forward(self, a):
        self.original = a.shape
        # Copy so the output owns its buffer; keeps memory accounting exact.
        return a.reshape(self.shape).copy()

    @staticmethod
    def infer(a, shape):
        return a.reshape(tuple(shape))

    def backward(self, grad):
        return (grad.reshape(self.original),)


class Sum(Function):
    def __init__(self, axis=None, keepdims: bool = False) -> None:
        self.axis = axis
        self.keepdims = keepdims

    def forward(self, a):
        self.shape = a.shape
        return a.sum(axis=self.axis, keepdims=self.keepdims)

    @staticmethod
    def infer(a, axis=None, keepdims=False):
        return a.sum(axis=axis, keepdims=keepdims)

    def backward(self, grad):
        if self.axis is None:
            return (np.broadcast_to(grad, self.shape).copy(),)
        axes = self.axis if isinstance(self.axis, tuple) else (self.axis,)
        if not self.keepdims:
            grad = np.expand_dims(grad, axes)
        return (np.broadcast_to(grad, self.shape).copy(),)


def _is_advanced_index(index) -> bool:
    """True when ``index`` uses integer-array (possibly repeating) indexing."""

    def advanced(part) -> bool:
        if isinstance(part, (list, np.ndarray)):
            return not (isinstance(part, np.ndarray) and part.dtype == bool)
        return False

    if isinstance(index, tuple):
        return any(advanced(part) for part in index)
    return advanced(index)


class GetItem(Function):
    def __init__(self, index) -> None:
        self.index = index

    def forward(self, a):
        self.shape = a.shape
        out = a[self.index]
        return out.copy() if isinstance(out, np.ndarray) else np.asarray(out)

    @staticmethod
    def infer(a, index):
        # Basic indexing returns a view; inference never mutates, so the
        # copy the training path makes for accounting exactness is skipped.
        out = a[index]
        return out if isinstance(out, np.ndarray) else np.asarray(out)

    def backward(self, grad):
        full = allocator.pool_zeros(self.shape, grad.dtype)
        if _is_advanced_index(self.index):
            # Integer-array indices may repeat rows; accumulate unbuffered.
            np.add.at(full, self.index, grad)
        else:
            # Basic indexing never aliases, so in-place add is exact.
            full[self.index] += grad
        return (full,)


class Concat(Function):
    def __init__(self, axis: int = 0) -> None:
        self.axis = axis

    def forward(self, *arrays):
        self.sizes = [a.shape[self.axis] for a in arrays]
        return np.concatenate(arrays, axis=self.axis)

    @staticmethod
    def infer(*arrays, axis=0):
        return np.concatenate(arrays, axis=axis)

    def backward(self, grad):
        splits = np.cumsum(self.sizes)[:-1]
        pieces = np.split(grad, splits, axis=self.axis)
        return tuple(np.ascontiguousarray(p) for p in pieces)


class Gather(Function):
    """Row gather ``out[i] = a[index[i]]`` along axis 0.

    Used for edge-endpoint lookups in message passing (``h[src]``).
    """

    def __init__(self, index: np.ndarray) -> None:
        self.index = np.asarray(index, dtype=np.int64)

    def forward(self, a):
        self.num_rows = a.shape[0]
        return a[self.index]

    @staticmethod
    def infer(a, index):
        return a[np.asarray(index, dtype=np.int64)]

    def backward(self, grad):
        full = allocator.pool_zeros((self.num_rows,) + grad.shape[1:], grad.dtype)
        np.add.at(full, self.index, grad)
        return (full,)


#: CSR incidence matrices keyed on the segment array's identity.  A
#: batch's ``src``/``dst``/``node_graph`` are reduced over once per layer
#: per step; the matrix depends only on the index array, so it is built
#: once and evicted when the array is garbage collected.  Each entry keeps
#: a copy of the index it was built from, and a hit whose array no longer
#: equals that copy (it was written into) rebuilds the matrix.
_incidence_cache: dict[tuple[int, int, str], tuple[np.ndarray, object]] = {}


def _incidence(segments: np.ndarray, num_segments: int, dtype: np.dtype):
    from scipy import sparse

    key = (id(segments), int(num_segments), np.dtype(dtype).str)
    cached = _incidence_cache.get(key)
    if cached is not None and np.array_equal(cached[0], segments):
        return cached[1]
    n = segments.shape[0]
    matrix = sparse.csr_matrix(
        (np.ones(n, dtype=dtype), (segments, np.arange(n))),
        shape=(int(num_segments), n),
    )
    if cached is None:
        weakref.finalize(segments, _incidence_cache.pop, key, None)
    _incidence_cache[key] = (segments.copy(), matrix)
    return matrix


def _segment_sum(values: np.ndarray, segments: np.ndarray, num_segments: int) -> np.ndarray:
    """Numpy-level segment sum over axis 0 via the cached incidence matrix."""
    n = segments.shape[0]
    if values.shape[0] != n:
        raise ValueError(f"segment ids ({n}) do not match rows ({values.shape[0]})")
    # An explicit width, not -1: a batch with no edges has zero rows.
    flat = values.reshape(n, math.prod(values.shape[1:]))
    out = _incidence(segments, num_segments, values.dtype) @ flat
    return np.ascontiguousarray(out.reshape((int(num_segments),) + values.shape[1:]))


class SegmentSum(Function):
    """Segment sum ``out[s] = sum_i a[i] * [segments[i] == s]``.

    This is the message-aggregation primitive of the GNN: summing edge
    messages onto destination nodes, and summing node energies onto graphs.
    Implemented with a sparse incidence matrix, which is far faster than
    ``np.add.at`` for the edge counts realistic batches produce.
    ``segments`` arrives as an int64 array (:func:`segment_sum` converts).
    """

    def __init__(self, segments: np.ndarray, num_segments: int) -> None:
        self.segments, self.num_segments = segments, num_segments

    def forward(self, a):
        return _segment_sum(a, self.segments, self.num_segments)

    @staticmethod
    def infer(a, segments, num_segments):
        return _segment_sum(a, segments, num_segments)

    def backward(self, grad):
        return (np.ascontiguousarray(grad[self.segments]),)


class Where(Function):
    """Select ``a`` where ``condition`` else ``b`` (condition is constant)."""

    def __init__(self, condition: np.ndarray) -> None:
        self.condition = np.asarray(condition, dtype=bool)

    def forward(self, a, b):
        self.shapes = (a.shape, b.shape)
        return np.where(self.condition, a, b)

    @staticmethod
    def infer(a, b, condition):
        return np.where(np.asarray(condition, dtype=bool), a, b)

    def backward(self, grad):
        sa, sb = self.shapes
        grad_a = _unbroadcast(np.where(self.condition, grad, 0.0), sa)
        grad_b = _unbroadcast(np.where(self.condition, 0.0, grad), sb)
        return grad_a, grad_b


# ----------------------------------------------------------------------
# Free-function API for ops whose arity or arguments do not fit methods.
# ----------------------------------------------------------------------
def concat(tensors, axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat of an empty sequence")
    return Concat.apply(*tensors, axis=axis)


def gather(tensor: Tensor, index: np.ndarray) -> Tensor:
    """Gather rows of ``tensor`` at ``index`` (axis 0)."""
    return Gather.apply(tensor, index=index)


def segment_sum(tensor: Tensor, segments: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``tensor`` into ``num_segments`` buckets given by ``segments``.

    The incidence matrix is cached on the identity of the int64
    ``segments`` array and rebuilt if the array was written into since.
    """
    segments = np.asarray(segments, dtype=np.int64)
    return SegmentSum.apply(tensor, segments=segments, num_segments=num_segments)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select with a constant boolean mask."""
    return Where.apply(a, b, condition=condition)


def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    """Construct a :class:`Tensor` (convenience mirror of the constructor)."""
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def zeros(shape, requires_grad: bool = False, dtype=None) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype or DEFAULT_DTYPE), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False, dtype=None) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype or DEFAULT_DTYPE), requires_grad=requires_grad)
