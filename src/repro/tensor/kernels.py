"""Kernel-dispatch layer: named compound ops -> backend implementations.

The generic autograd engine in :mod:`repro.tensor.core` composes GNN
message passing from primitive ops (``gather``, ``concat``, ``matmul``,
``segment_sum``), each of which allocates fresh arrays and an autograd
node.  This module is the seam that replaces those chains with *fused
kernels*: hand-written forward/backward pairs that do the same math with
far fewer passes over memory.

Design:

- A **registry** maps ``(kernel name, backend name)`` to an
  implementation object exposing static ``forward``/``backward``
  functions over raw numpy arrays.  One backend ships: ``numpy``.  The
  registry is the dispatch point further backends (compiled extensions,
  accelerators) plug into without touching model code.
- **Autograd wrappers** (subclasses of :class:`~repro.tensor.core.Function`)
  look their compute up in the registry, so a backend swap changes what
  executes without changing what differentiates.
- Backend and fusion selection are **thread-local**, so concurrent
  serving workers can run forwards under different dispatch modes
  without interfering.
- A **fusion switch** (:func:`fusion`) lets callers fall
  back to the composed primitive-op path -- the reference implementation
  fused kernels are validated against, and the baseline the engine
  benchmarks compare to.

Kernels:

``linear``
    ``y = x @ W + b`` in one node (bias folded into the matmul output
    buffer, which comes from the allocator's buffer pool when active).
``silu``
    Fused ``x * sigmoid(x)`` -- one node and one saved array instead of
    two of each.
``edge_message_linear``
    The fused ``gather -> concat -> linear`` entry of EGNN message
    passing: ``out = (h @ W_src)[src] + (h @ W_dst)[dst] + feat @ W_feat
    + b``.  The node-sized projections replace the edge-sized gather and
    concat buffers, and the backward reduces edge gradients back to
    nodes with a (cached) sparse incidence matrix.
``concat_linear``
    ``concat(parts, axis=1) @ W + b`` without materializing the concat
    (used by the EGNN node-update MLP entry).
``mul_segment_sum``
    ``segment_sum(a * b)`` without retaining the product (EGNN's
    equivariant coordinate update).
``gather_diff``
    The edge-geometry kernel ``v = pos[dst] - (pos[src] + shift)``, with
    a fused variant that also returns distances for
    :class:`~repro.models.egnn.EdgeGeometry`.
"""

from __future__ import annotations

import math
import threading
import weakref
from contextlib import contextmanager

import numpy as np

from repro.tensor import allocator
from repro.tensor.core import Function, Tensor, _unbroadcast
from repro.tensor.core import SegmentSum as _CoreSegmentSum

# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[tuple[str, str], object] = {}

#: Backend every thread starts on (overridden per-thread by
#: :func:`use_backend`).
_DEFAULT_BACKEND = "numpy"


class _DispatchState(threading.local):
    """Per-thread backend/fusion override stacks.

    Thread-locality is what makes concurrent serving sound: a worker
    inside ``use_backend(...)`` or ``fusion(False)`` cannot flip another
    worker's (or the training loop's) dispatch mid-forward.  Fresh
    threads start with empty stacks, i.e. the numpy backend and fusion
    on.
    """

    def __init__(self) -> None:
        self.backends: list[str] = []
        self.fusion: list[bool] = []


_dispatch = _DispatchState()


def register_kernel(name: str, backend: str = "numpy"):
    """Class decorator registering an implementation for ``name``."""

    def decorate(impl):
        key = (name, backend)
        if key in _REGISTRY:
            raise ValueError(f"kernel {name!r} already registered for backend {backend!r}")
        _REGISTRY[key] = impl
        return impl

    return decorate


def get_kernel(name: str, backend: str | None = None):
    """Resolve ``name`` for ``backend`` (default: the active backend).

    Backends may implement a subset of kernels; unresolved names fall
    back to the reference ``numpy`` implementations.
    """
    backend = backend or active_backend()
    impl = _REGISTRY.get((name, backend))
    if impl is None and backend != "numpy":
        impl = _REGISTRY.get((name, "numpy"))
    if impl is None:
        raise KeyError(f"no kernel {name!r} for backend {backend!r}")
    return impl


def available_kernels(backend: str | None = None) -> list[str]:
    """Sorted kernel names registered for ``backend`` (default: all)."""
    names = {
        name
        for name, impl_backend in _REGISTRY
        if backend is None or impl_backend == backend
    }
    return sorted(names)


def available_backends() -> list[str]:
    """Sorted backend names with at least one registered kernel.

    ``get_kernel`` silently falls back to numpy for unknown backend
    names (forward compatibility for partial backends); callers taking a
    backend name from *configuration* should validate against this list
    so a typo fails loudly instead of silently serving numpy.
    """
    return sorted({impl_backend for _, impl_backend in _REGISTRY})


def active_backend() -> str:
    """The backend this thread currently dispatches to."""
    if _dispatch.backends:
        return _dispatch.backends[-1]
    return _DEFAULT_BACKEND


@contextmanager
def use_backend(name: str):
    """Dispatch this thread's kernels to ``name`` inside the block."""
    _dispatch.backends.append(name)
    try:
        yield
    finally:
        _dispatch.backends.pop()


def fusion_enabled() -> bool:
    """Whether fused kernels are active on this thread (vs primitive ops)."""
    if _dispatch.fusion:
        return _dispatch.fusion[-1]
    return True


@contextmanager
def fusion(enabled: bool):
    """Force fused kernels on or off on this thread inside the block.

    ``fusion(False)`` routes every kernel entry point through the
    composed primitive-op implementation -- the reference path used by
    equivalence tests and as the benchmark baseline.
    """
    _dispatch.fusion.append(bool(enabled))
    try:
        yield
    finally:
        _dispatch.fusion.pop()


# ----------------------------------------------------------------------
# Cached sparse incidence matrices.
#
# Segment reductions over a fixed index array (a batch's ``src``/``dst``)
# recur once per layer per step; the CSR incidence matrix depends only on
# the index array, so it is memoized keyed on the array's identity and
# evicted when the array is garbage collected.
# ----------------------------------------------------------------------
_incidence_cache: dict[tuple[int, int, str], object] = {}


def _incidence(segments: np.ndarray, num_segments: int, dtype: np.dtype):
    from scipy import sparse

    key = (id(segments), int(num_segments), np.dtype(dtype).str)
    cached = _incidence_cache.get(key)
    if cached is not None:
        return cached
    n = segments.shape[0]
    matrix = sparse.csr_matrix(
        (np.ones(n, dtype=dtype), (segments, np.arange(n))),
        shape=(int(num_segments), n),
    )
    _incidence_cache[key] = matrix
    weakref.finalize(segments, _incidence_cache.pop, key, None)
    return matrix


def _segment_sum(values: np.ndarray, segments: np.ndarray, num_segments: int) -> np.ndarray:
    """Segment sum over axis 0 using the cached incidence matrix."""
    # An explicit width, not -1: a batch with no edges has zero rows.
    flat = values.reshape(segments.shape[0], math.prod(values.shape[1:]))
    out = _incidence(segments, num_segments, values.dtype) @ flat
    return np.ascontiguousarray(out.reshape((int(num_segments),) + values.shape[1:]))


# ----------------------------------------------------------------------
# numpy backend implementations
# ----------------------------------------------------------------------
def _common_dtype(*arrays):
    """The numpy promotion dtype of the given arrays (Nones skipped).

    Fused kernels write into preallocated buffers with in-place adds, so
    the buffer must already be the *promoted* dtype or a float64 operand
    would be silently quantized — something the composed reference path
    (and the engine's Tensor dtype policy) never does.
    """
    return np.result_type(*[a for a in arrays if a is not None])


@register_kernel("linear")
class _LinearNumpy:
    @staticmethod
    def forward(x, weight, bias=None):
        dtype = _common_dtype(x, weight, bias)
        if x.dtype != dtype or weight.dtype != dtype:
            # Mixed dtypes (e.g. float64 bias on float32 weights): take
            # the plain promoting expression instead of the out= path.
            out = x @ weight
            return out + bias if bias is not None else out
        out = allocator.pool_empty((x.shape[0], weight.shape[1]), dtype)
        np.matmul(x, weight, out=out)
        if bias is not None:
            out += bias
        return out

    @staticmethod
    def backward(grad, x, weight, bias_shape, needs=(True, True, True)):
        need_x, need_w, need_b = needs
        grad_x = grad @ weight.T if need_x else None
        grad_w = x.T @ grad if need_w else None
        grad_b = _unbroadcast(grad, bias_shape) if need_b else None
        return grad_x, grad_w, grad_b


@register_kernel("silu")
class _SiLUNumpy:
    @staticmethod
    def forward(x):
        # sig = 1 / (1 + exp(-x)), built in place: no temporaries beyond
        # the two buffers the op keeps anyway (output and saved sigmoid).
        sig = allocator.pool_empty(x.shape, np.result_type(x, np.float32))
        np.negative(x, out=sig)
        np.exp(sig, out=sig)
        sig += 1.0
        np.reciprocal(sig, out=sig)
        out = allocator.pool_empty(x.shape, sig.dtype)
        np.multiply(x, sig, out=out)
        return out, sig

    @staticmethod
    def backward(grad, x, sig):
        # d/dx [x * sig(x)] = sig * (1 + x * (1 - sig)), chained in place.
        out = np.subtract(1.0, sig)
        out *= x
        out += 1.0
        out *= sig
        out *= grad
        return out


@register_kernel("edge_message_linear")
class _EdgeMessageLinearNumpy:
    """Fused ``concat([h[src], h[dst], feat], 1) @ W + b``.

    The node-feature blocks of ``W`` are applied *before* the gather, so
    the two big matmuls run over N node rows instead of E edge rows and
    the (E, 2F+R) concat buffer never exists.
    """

    @staticmethod
    def forward(h, feat, weight, bias, src, dst):
        width = h.shape[1]
        w_src = weight[:width]
        w_dst = weight[width : 2 * width]
        w_feat = weight[2 * width :]
        proj_src = h @ w_src
        proj_dst = h @ w_dst
        dtype = _common_dtype(proj_src, feat, bias)
        if proj_src.dtype != dtype:
            # Mixed dtypes: promote instead of accumulating in place.
            out = proj_src[src] + proj_dst[dst] + feat @ w_feat
            return out + bias if bias is not None else out
        out = allocator.pool_empty((src.shape[0], weight.shape[1]), dtype)
        np.take(proj_src, src, axis=0, out=out)
        out += proj_dst[dst]
        out += feat @ w_feat
        if bias is not None:
            out += bias
        return out

    @staticmethod
    def backward(grad, h, feat, weight, src, dst, bias_shape, needs=(True, True, True, True)):
        need_h, need_feat, need_w, need_b = needs
        width = h.shape[1]
        num_nodes = h.shape[0]
        w_src = weight[:width]
        w_dst = weight[width : 2 * width]
        w_feat = weight[2 * width :]
        grad_h = grad_feat = grad_w = grad_b = None
        if need_h or need_w:
            # Reduce edge gradients onto nodes once; both grad_h and the
            # node blocks of grad_w are N-sized matmuls against them.
            sum_src = _segment_sum(grad, src, num_nodes)
            sum_dst = _segment_sum(grad, dst, num_nodes)
        if need_h:
            grad_h = sum_src @ w_src.T
            grad_h += sum_dst @ w_dst.T
        if need_feat:
            grad_feat = grad @ w_feat.T
        if need_w:
            grad_w = np.concatenate([h.T @ sum_src, h.T @ sum_dst, feat.T @ grad])
        if need_b:
            grad_b = _unbroadcast(grad, bias_shape)
        return grad_h, grad_feat, grad_w, grad_b


@register_kernel("concat_linear")
class _ConcatLinearNumpy:
    """Fused ``concat(parts, axis=1) @ W + b`` without the concat buffer."""

    @staticmethod
    def forward(parts, weight, bias=None):
        dtype = _common_dtype(*parts, weight, bias)
        if any(part.dtype != dtype for part in parts) or weight.dtype != dtype:
            # Mixed dtypes: promote instead of accumulating in place.
            offset = 0
            out = None
            for part in parts:
                width = part.shape[1]
                term = part @ weight[offset : offset + width]
                out = term if out is None else out + term
                offset += width
            return out + bias if bias is not None else out
        out = allocator.pool_empty((parts[0].shape[0], weight.shape[1]), dtype)
        offset = parts[0].shape[1]
        np.matmul(parts[0], weight[:offset], out=out)
        for part in parts[1:]:
            width = part.shape[1]
            out += part @ weight[offset : offset + width]
            offset += width
        if bias is not None:
            out += bias
        return out

    @staticmethod
    def backward(grad, parts, weight, bias_shape, needs):
        need_parts, need_w, need_b = needs
        grad_parts = []
        offset = 0
        for part, need in zip(parts, need_parts):
            width = part.shape[1]
            block = weight[offset : offset + width]
            grad_parts.append(grad @ block.T if need else None)
            offset += width
        grad_w = np.concatenate([part.T @ grad for part in parts]) if need_w else None
        grad_b = _unbroadcast(grad, bias_shape) if need_b else None
        return grad_parts, grad_w, grad_b


@register_kernel("segment_sum")
class _SegmentSumNumpy:
    """Plain segment sum through the cached incidence matrix."""

    @staticmethod
    def forward(a, segments, num_segments):
        return _segment_sum(a, segments, num_segments)

    @staticmethod
    def backward(grad, segments):
        return np.ascontiguousarray(grad[segments])


@register_kernel("mul_segment_sum")
class _MulSegmentSumNumpy:
    """Fused ``segment_sum(a * b, segments)`` (b may broadcast over columns)."""

    @staticmethod
    def forward(a, b, segments, num_segments):
        return _segment_sum(np.multiply(a, b), segments, num_segments)

    @staticmethod
    def backward(grad, a, b, segments, needs=(True, True)):
        need_a, need_b = needs
        expanded = grad[segments]
        grad_a = _unbroadcast(expanded * b, a.shape) if need_a else None
        grad_b = _unbroadcast(expanded * a, b.shape) if need_b else None
        return grad_a, grad_b


@register_kernel("gather_diff")
class _GatherDiffNumpy:
    """Edge-geometry kernel ``v = pos[dst] - (pos[src] + shift)``."""

    @staticmethod
    def forward(positions, shift, src, dst):
        dtype = _common_dtype(positions, shift)
        if positions.dtype != dtype:
            # Mixed dtypes: promote instead of accumulating in place.
            return positions[dst] - (positions[src] + shift)
        out = allocator.pool_empty((src.shape[0],) + positions.shape[1:], dtype)
        np.take(positions, dst, axis=0, out=out)
        out -= positions[src]
        if shift is not None:
            out -= shift
        return out

    @staticmethod
    def geometry(positions, shift, src, dst, eps: float = 1e-9):
        """Fused vectors + distances pass used by ``EdgeGeometry``."""
        vectors = _GatherDiffNumpy.forward(positions, shift, src, dst)
        distances = np.sqrt(np.einsum("ij,ij->i", vectors, vectors))
        np.maximum(distances, eps, out=distances)
        return vectors, distances

    @staticmethod
    def backward(grad, src, dst, num_nodes, shift_shape, needs=(True, True)):
        need_pos, need_shift = needs
        grad_pos = grad_shift = None
        if need_pos:
            grad_pos = allocator.pool_zeros((num_nodes,) + grad.shape[1:], grad.dtype)
            np.add.at(grad_pos, dst, grad)
            np.subtract.at(grad_pos, src, grad)
        if need_shift:
            grad_shift = _unbroadcast(-grad, shift_shape)
        return grad_pos, grad_shift


# ----------------------------------------------------------------------
# Autograd wrappers.
#
# Besides ``forward``/``backward``/``infer``, each wrapper implements the
# execution-plan protocol: ``kernel_name`` identifies the registry entry
# the tracer freezes, and ``infer_with(impl, ...)`` is ``infer`` with the
# registry lookup already done — the form plan replay calls in its tight
# loop.
# ----------------------------------------------------------------------
class FusedLinear(Function):
    """One-node ``x @ W (+ b)``."""

    kernel_name = "linear"

    def forward(self, x, weight, bias=None):
        self.x, self.weight = x, weight
        self.bias_shape = None if bias is None else bias.shape
        return get_kernel("linear").forward(x, weight, bias)

    @staticmethod
    def infer(x, weight, bias=None):
        return get_kernel("linear").forward(x, weight, bias)

    @staticmethod
    def infer_with(impl, x, weight, bias=None):
        return impl.forward(x, weight, bias)

    def backward(self, grad):
        needs = tuple(p.requires_grad for p in self.parents) + (False,) * (3 - len(self.parents))
        grads = get_kernel("linear").backward(grad, self.x, self.weight, self.bias_shape, needs)
        return grads[: len(self.parents)]


class FusedSiLU(Function):
    """One-node ``x * sigmoid(x)``."""

    kernel_name = "silu"

    def forward(self, x):
        out, sig = get_kernel("silu").forward(x)
        self.x, self.sig = x, sig
        return out

    @staticmethod
    def infer(x):
        out, _ = get_kernel("silu").forward(x)
        return out

    @staticmethod
    def infer_with(impl, x):
        out, _ = impl.forward(x)
        return out

    def backward(self, grad):
        return (get_kernel("silu").backward(grad, self.x, self.sig),)


class EdgeMessageLinear(Function):
    """Fused ``gather -> concat -> linear`` over edges."""

    kernel_name = "edge_message_linear"

    @staticmethod
    def infer_with(impl, h, feat, weight, bias=None, src=None, dst=None):
        return impl.forward(h, feat, weight, bias, src, dst)

    def __init__(self, src: np.ndarray, dst: np.ndarray) -> None:
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)

    def forward(self, h, feat, weight, bias=None):
        self.h, self.feat, self.weight = h, feat, weight
        self.bias_shape = None if bias is None else bias.shape
        return get_kernel("edge_message_linear").forward(
            h, feat, weight, bias, self.src, self.dst
        )

    @classmethod
    def infer(cls, h, feat, weight, bias=None, src=None, dst=None):
        return get_kernel("edge_message_linear").forward(
            h, feat, weight, bias, np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
        )

    def backward(self, grad):
        needs = tuple(p.requires_grad for p in self.parents) + (False,) * (4 - len(self.parents))
        grads = get_kernel("edge_message_linear").backward(
            grad, self.h, self.feat, self.weight, self.src, self.dst, self.bias_shape, needs
        )
        return grads[: len(self.parents)]


class ConcatLinear(Function):
    """Fused ``concat(parts, axis=1) @ W (+ b)``."""

    kernel_name = "concat_linear"

    @staticmethod
    def infer_with(impl, *arrays, num_parts, has_bias):
        bias = arrays[num_parts + 1] if has_bias else None
        return impl.forward(arrays[:num_parts], arrays[num_parts], bias)

    def __init__(self, num_parts: int, has_bias: bool) -> None:
        self.num_parts = num_parts
        self.has_bias = has_bias

    def forward(self, *arrays):
        self.parts = arrays[: self.num_parts]
        self.weight = arrays[self.num_parts]
        bias = arrays[self.num_parts + 1] if self.has_bias else None
        self.bias_shape = None if bias is None else bias.shape
        return get_kernel("concat_linear").forward(self.parts, self.weight, bias)

    @classmethod
    def infer(cls, *arrays, num_parts, has_bias):
        bias = arrays[num_parts + 1] if has_bias else None
        return get_kernel("concat_linear").forward(arrays[:num_parts], arrays[num_parts], bias)

    def backward(self, grad):
        flags = [p.requires_grad for p in self.parents]
        needs = (flags[: self.num_parts], flags[self.num_parts], self.has_bias and flags[-1])
        grad_parts, grad_w, grad_b = get_kernel("concat_linear").backward(
            grad, self.parts, self.weight, self.bias_shape, needs
        )
        out = tuple(grad_parts) + (grad_w,)
        if self.has_bias:
            out += (grad_b,)
        return out


class CachedSegmentSum(Function):
    """Segment sum reusing the per-batch cached incidence matrix.

    Same math as :class:`repro.tensor.core.SegmentSum`, but the CSR
    incidence build is memoized on the index array instead of being
    reconstructed every layer every step.
    """

    # Plan protocol shared with core.SegmentSum — both ops freeze to the
    # same registry kernel, so the replay signature lives in one place.
    kernel_name = "segment_sum"
    infer_with = staticmethod(_CoreSegmentSum.infer_with)

    def __init__(self, segments: np.ndarray, num_segments: int) -> None:
        self.segments = np.asarray(segments, dtype=np.int64)
        self.num_segments = int(num_segments)

    def forward(self, a):
        return get_kernel("segment_sum").forward(a, self.segments, self.num_segments)

    @classmethod
    def infer(cls, a, segments, num_segments):
        return get_kernel("segment_sum").forward(
            a, np.asarray(segments, dtype=np.int64), int(num_segments)
        )

    def backward(self, grad):
        return (get_kernel("segment_sum").backward(grad, self.segments),)


class MulSegmentSum(Function):
    """Fused ``segment_sum(a * b, segments, num_segments)``."""

    kernel_name = "mul_segment_sum"

    @staticmethod
    def infer_with(impl, a, b, segments=None, num_segments=None):
        return impl.forward(a, b, segments, num_segments)

    def __init__(self, segments: np.ndarray, num_segments: int) -> None:
        self.segments = np.asarray(segments, dtype=np.int64)
        self.num_segments = int(num_segments)

    def forward(self, a, b):
        self.a, self.b = a, b
        return get_kernel("mul_segment_sum").forward(a, b, self.segments, self.num_segments)

    @classmethod
    def infer(cls, a, b, segments, num_segments):
        return get_kernel("mul_segment_sum").forward(
            a, b, np.asarray(segments, dtype=np.int64), int(num_segments)
        )

    def backward(self, grad):
        needs = tuple(p.requires_grad for p in self.parents)
        return get_kernel("mul_segment_sum").backward(
            grad, self.a, self.b, self.segments, needs
        )


class GatherDiff(Function):
    """Fused ``pos[dst] - (pos[src] + shift)`` with hand-written backward."""

    kernel_name = "gather_diff"

    @staticmethod
    def infer_with(impl, positions, shift=None, src=None, dst=None):
        return impl.forward(positions, shift, src, dst)

    def __init__(self, src: np.ndarray, dst: np.ndarray) -> None:
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)

    def forward(self, positions, shift=None):
        self.num_nodes = positions.shape[0]
        self.shift_shape = None if shift is None else shift.shape
        return get_kernel("gather_diff").forward(positions, shift, self.src, self.dst)

    @classmethod
    def infer(cls, positions, shift=None, src=None, dst=None):
        return get_kernel("gather_diff").forward(
            positions, shift, np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
        )

    def backward(self, grad):
        needs = tuple(p.requires_grad for p in self.parents) + (False,) * (2 - len(self.parents))
        grads = get_kernel("gather_diff").backward(
            grad, self.src, self.dst, self.num_nodes, self.shift_shape, needs
        )
        return grads[: len(self.parents)]


# ----------------------------------------------------------------------
# Public entry points (fusion-aware)
# ----------------------------------------------------------------------
def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map through the dispatch layer.

    With fusion disabled this decomposes into the primitive op chain
    (``matmul`` + ``add``), the reference the fused kernel is verified
    against.
    """
    if not fusion_enabled():
        out = x @ weight
        return out if bias is None else out + bias
    if bias is None:
        return FusedLinear.apply(x, weight)
    return FusedLinear.apply(x, weight, bias)


def silu(x: Tensor) -> Tensor:
    """Fused SiLU (falls back to ``x * sigmoid(x)`` with fusion off)."""
    if not fusion_enabled():
        return x * x.sigmoid()
    return FusedSiLU.apply(x)


def edge_message_linear(
    h: Tensor,
    feat: Tensor,
    weight: Tensor,
    bias: Tensor | None,
    src: np.ndarray,
    dst: np.ndarray,
) -> Tensor:
    """Fused message-passing entry: ``concat([h[src], h[dst], feat]) @ W + b``."""
    from repro.tensor.core import concat, gather

    if not fusion_enabled():
        edge_input = concat([gather(h, src), gather(h, dst), feat], axis=1)
        out = edge_input @ weight
        return out if bias is None else out + bias
    if bias is None:
        return EdgeMessageLinear.apply(h, feat, weight, src=src, dst=dst)
    return EdgeMessageLinear.apply(h, feat, weight, bias, src=src, dst=dst)


def concat_linear(parts: list[Tensor], weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Fused ``concat(parts, axis=1) @ W + b``."""
    from repro.tensor.core import concat

    if not fusion_enabled():
        out = concat(list(parts), axis=1) @ weight
        return out if bias is None else out + bias
    tensors = tuple(parts) + (weight,)
    if bias is not None:
        tensors += (bias,)
    return ConcatLinear.apply(*tensors, num_parts=len(parts), has_bias=bias is not None)


def segment_sum(a: Tensor, segments: np.ndarray, num_segments: int) -> Tensor:
    """Segment sum with the incidence matrix cached per index array."""
    from repro.tensor.core import segment_sum as core_segment_sum

    if not fusion_enabled():
        return core_segment_sum(a, segments, num_segments)
    return CachedSegmentSum.apply(a, segments=segments, num_segments=num_segments)


def mul_segment_sum(a: Tensor, b: Tensor, segments: np.ndarray, num_segments: int) -> Tensor:
    """Fused ``segment_sum(a * b)``."""
    from repro.tensor.core import segment_sum

    if not fusion_enabled():
        return segment_sum(a * b, segments, num_segments)
    return MulSegmentSum.apply(a, b, segments=segments, num_segments=num_segments)


def gather_diff(positions: Tensor, shift: Tensor | None, src: np.ndarray, dst: np.ndarray) -> Tensor:
    """Edge displacement vectors ``pos[dst] - (pos[src] + shift)``."""
    from repro.tensor.core import gather

    if not fusion_enabled():
        out = gather(positions, dst) - gather(positions, src)
        return out if shift is None else out - shift
    if shift is None:
        return GatherDiff.apply(positions, src=src, dst=dst)
    return GatherDiff.apply(positions, shift, src=src, dst=dst)


def edge_geometry_arrays(
    positions: np.ndarray,
    shift: np.ndarray | None,
    src: np.ndarray,
    dst: np.ndarray,
    eps: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray]:
    """Raw (vectors, clamped distances) pass for batch preprocessing."""
    return get_kernel("gather_diff").geometry(positions, shift, src, dst, eps)
