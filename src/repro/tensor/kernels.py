"""Fused kernels: one hand-written numpy implementation per compound op.

The generic autograd engine in :mod:`repro.tensor.core` composes GNN
message passing from primitive ops (``gather``, ``concat``, ``matmul``,
``segment_sum``), each of which allocates fresh arrays and an autograd
node.  This module replaces those chains with *fused kernels*:
hand-written forward/backward pairs that do the same math with far fewer
passes over memory.

Each op has one implementation, a class of static ``forward``/``backward``
functions over raw numpy arrays, and one autograd wrapper (a
:class:`~repro.tensor.core.Function` subclass) that calls it directly.
The wrapper's ``infer`` is also what an execution plan replays, so the
unplanned forward, backward and plan replay all run the same code.

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
``edge_geometry_arrays``
    Edge vectors ``pos[dst] - (pos[src] + shift)`` and their clamped
    lengths in one pass, for :class:`~repro.models.egnn.EdgeGeometry`.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.tensor import allocator
from repro.tensor.core import Function, Tensor, _segment_sum, _unbroadcast

#: The one kernel backend.  ``use_backend`` and ``ServiceConfig.backend``
#: accept this name and nothing else.
BACKEND = "numpy"


@contextmanager
def use_backend(name: str):
    """Run the block on kernel backend ``name``, which must be :data:`BACKEND`."""
    if name != BACKEND:
        raise ValueError(f"unknown kernel backend {name!r}; the only one is {BACKEND!r}")
    yield


# ----------------------------------------------------------------------
# Implementations
# ----------------------------------------------------------------------
def _common_dtype(*arrays):
    """The numpy promotion dtype of the given arrays (Nones skipped).

    Fused kernels write into preallocated buffers with in-place adds, so
    the buffer must already be the *promoted* dtype or a float64 operand
    would be silently quantized — something the composed primitive ops
    (and the engine's Tensor dtype policy) never do.
    """
    return np.result_type(*[a for a in arrays if a is not None])


class LinearKernel:
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


class SiLUKernel:
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


class EdgeMessageLinearKernel:
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
        # Fancy indexing, not ``np.take(..., out=)``: under the default
        # ``mode="raise"`` numpy buffers ``out``, which costs a copy.
        np.add(proj_src[src], proj_dst[dst], out=out)
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


class ConcatLinearKernel:
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


class MulSegmentSumKernel:
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


def edge_geometry_arrays(
    positions: np.ndarray,
    shift: np.ndarray | None,
    src: np.ndarray,
    dst: np.ndarray,
    eps: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray]:
    """Edge vectors ``pos[dst] - (pos[src] + shift)`` and their lengths, clamped to ``eps``."""
    dtype = _common_dtype(positions, shift)
    if positions.dtype != dtype:
        # Mixed dtypes: promote instead of accumulating in place.
        vectors = positions[dst] - (positions[src] + shift)
    else:
        vectors = allocator.pool_empty((src.shape[0],) + positions.shape[1:], dtype)
        np.subtract(positions[dst], positions[src], out=vectors)
        if shift is not None:
            vectors -= shift
    distances = np.sqrt(np.einsum("ij,ij->i", vectors, vectors))
    np.maximum(distances, eps, out=distances)
    return vectors, distances


# ----------------------------------------------------------------------
# Autograd wrappers.  ``infer`` takes index arrays already converted by
# the entry points below; it is the callable an execution plan replays.
# ----------------------------------------------------------------------
class FusedLinear(Function):
    """One-node ``x @ W (+ b)``."""

    def forward(self, x, weight, bias=None):
        self.x, self.weight = x, weight
        self.bias_shape = None if bias is None else bias.shape
        return LinearKernel.forward(x, weight, bias)

    @staticmethod
    def infer(x, weight, bias=None):
        return LinearKernel.forward(x, weight, bias)

    def backward(self, grad):
        needs = tuple(p.requires_grad for p in self.parents) + (False,) * (3 - len(self.parents))
        grads = LinearKernel.backward(grad, self.x, self.weight, self.bias_shape, needs)
        return grads[: len(self.parents)]


class FusedSiLU(Function):
    """One-node ``x * sigmoid(x)``."""

    def forward(self, x):
        out, sig = SiLUKernel.forward(x)
        self.x, self.sig = x, sig
        return out

    @staticmethod
    def infer(x):
        out, _ = SiLUKernel.forward(x)
        return out

    def backward(self, grad):
        return (SiLUKernel.backward(grad, self.x, self.sig),)


class EdgeMessageLinear(Function):
    """Fused ``gather -> concat -> linear`` over edges."""

    def __init__(self, src: np.ndarray, dst: np.ndarray) -> None:
        self.src, self.dst = src, dst

    def forward(self, h, feat, weight, bias=None):
        self.h, self.feat, self.weight = h, feat, weight
        self.bias_shape = None if bias is None else bias.shape
        return EdgeMessageLinearKernel.forward(h, feat, weight, bias, self.src, self.dst)

    @staticmethod
    def infer(h, feat, weight, bias=None, src=None, dst=None):
        return EdgeMessageLinearKernel.forward(h, feat, weight, bias, src, dst)

    def backward(self, grad):
        needs = tuple(p.requires_grad for p in self.parents) + (False,) * (4 - len(self.parents))
        grads = EdgeMessageLinearKernel.backward(
            grad, self.h, self.feat, self.weight, self.src, self.dst, self.bias_shape, needs
        )
        return grads[: len(self.parents)]


class ConcatLinear(Function):
    """Fused ``concat(parts, axis=1) @ W (+ b)``."""

    def __init__(self, num_parts: int, has_bias: bool) -> None:
        self.num_parts = num_parts
        self.has_bias = has_bias

    def forward(self, *arrays):
        self.parts = arrays[: self.num_parts]
        self.weight = arrays[self.num_parts]
        bias = arrays[self.num_parts + 1] if self.has_bias else None
        self.bias_shape = None if bias is None else bias.shape
        return ConcatLinearKernel.forward(self.parts, self.weight, bias)

    @staticmethod
    def infer(*arrays, num_parts, has_bias):
        bias = arrays[num_parts + 1] if has_bias else None
        return ConcatLinearKernel.forward(arrays[:num_parts], arrays[num_parts], bias)

    def backward(self, grad):
        flags = [p.requires_grad for p in self.parents]
        needs = (flags[: self.num_parts], flags[self.num_parts], self.has_bias and flags[-1])
        grad_parts, grad_w, grad_b = ConcatLinearKernel.backward(
            grad, self.parts, self.weight, self.bias_shape, needs
        )
        out = tuple(grad_parts) + (grad_w,)
        if self.has_bias:
            out += (grad_b,)
        return out


class MulSegmentSum(Function):
    """Fused ``segment_sum(a * b, segments, num_segments)``."""

    def __init__(self, segments: np.ndarray, num_segments: int) -> None:
        self.segments, self.num_segments = segments, num_segments

    def forward(self, a, b):
        self.a, self.b = a, b
        return MulSegmentSumKernel.forward(a, b, self.segments, self.num_segments)

    @staticmethod
    def infer(a, b, segments, num_segments):
        return MulSegmentSumKernel.forward(a, b, segments, num_segments)

    def backward(self, grad):
        needs = tuple(p.requires_grad for p in self.parents)
        return MulSegmentSumKernel.backward(grad, self.a, self.b, self.segments, needs)


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ W (+ b)`` as one node."""
    if bias is None:
        return FusedLinear.apply(x, weight)
    return FusedLinear.apply(x, weight, bias)


def silu(x: Tensor) -> Tensor:
    """SiLU ``x * sigmoid(x)`` as one node."""
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
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if bias is None:
        return EdgeMessageLinear.apply(h, feat, weight, src=src, dst=dst)
    return EdgeMessageLinear.apply(h, feat, weight, bias, src=src, dst=dst)


def concat_linear(parts: list[Tensor], weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Fused ``concat(parts, axis=1) @ W + b``."""
    tensors = tuple(parts) + (weight,)
    if bias is not None:
        tensors += (bias,)
    return ConcatLinear.apply(*tensors, num_parts=len(parts), has_bias=bias is not None)


def mul_segment_sum(a: Tensor, b: Tensor, segments: np.ndarray, num_segments: int) -> Tensor:
    """Fused ``segment_sum(a * b)``."""
    segments = np.asarray(segments, dtype=np.int64)
    return MulSegmentSum.apply(a, b, segments=segments, num_segments=num_segments)
