"""Fused kernels: one hand-written numpy implementation per compound op.

The generic autograd engine in :mod:`repro.tensor.core` composes GNN
message passing from primitive ops (``gather``, ``concat``, ``matmul``,
``segment_sum``), each of which allocates fresh arrays and an autograd
node.  This module replaces those chains with *fused kernels*:
hand-written forward/backward pairs that do the same math with far fewer
passes over memory.

Each op is one :class:`~repro.tensor.core.Function` subclass.  Its
static ``infer`` holds the forward math: the no-grad fast path calls
it, an execution plan replays it, and ``forward`` saves what
``backward`` needs and then calls it too.  Patching an op's ``infer``
(or ``backward``) therefore substitutes it everywhere at once.

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
# Fused ops
# ----------------------------------------------------------------------
def _common_dtype(*arrays):
    """The numpy promotion dtype of the given arrays (Nones skipped).

    Fused kernels write into preallocated buffers with in-place adds, so
    the buffer must already be the *promoted* dtype or a float64 operand
    would be silently quantized — something the composed primitive ops
    (and the engine's Tensor dtype policy) never do.
    """
    return np.result_type(*[a for a in arrays if a is not None])


class FusedLinear(Function):
    """One-node ``x @ W (+ b)``."""

    def forward(self, x, weight, bias=None):
        self.x, self.weight = x, weight
        self.bias_shape = None if bias is None else bias.shape
        return FusedLinear.infer(x, weight, bias)

    @staticmethod
    def infer(x, weight, bias=None):
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

    def backward(self, grad):
        need_x, need_w, *need_b = (p.requires_grad for p in self.parents)
        grad_x = grad @ self.weight.T if need_x else None
        grad_w = self.x.T @ grad if need_w else None
        if not need_b:
            return grad_x, grad_w
        return grad_x, grad_w, _unbroadcast(grad, self.bias_shape) if need_b[0] else None


def _silu(x):
    """``(x * sig, sig)`` with ``sig = 1 / (1 + exp(-x))`` built in place:
    no temporaries beyond the output and the sigmoid training saves."""
    sig = allocator.pool_empty(x.shape, np.result_type(x, np.float32))
    np.negative(x, out=sig)
    np.exp(sig, out=sig)
    sig += 1.0
    np.reciprocal(sig, out=sig)
    out = allocator.pool_empty(x.shape, sig.dtype)
    np.multiply(x, sig, out=out)
    return out, sig


class FusedSiLU(Function):
    """One-node ``x * sigmoid(x)``."""

    def forward(self, x):
        out, self.sig = _silu(x)
        self.x = x
        return out

    @staticmethod
    def infer(x):
        return _silu(x)[0]

    def backward(self, grad):
        # d/dx [x * sig(x)] = sig * (1 + x * (1 - sig)), chained in place.
        out = np.subtract(1.0, self.sig)
        out *= self.x
        out += 1.0
        out *= self.sig
        out *= grad
        return (out,)


class EdgeMessageLinear(Function):
    """Fused ``concat([h[src], h[dst], feat], 1) @ W + b``.

    The node-feature blocks of ``W`` are applied *before* the gather, so
    the two big matmuls run over N node rows instead of E edge rows and
    the (E, 2F+R) concat buffer never exists.
    """

    def __init__(self, src: np.ndarray, dst: np.ndarray) -> None:
        self.src, self.dst = src, dst

    def forward(self, h, feat, weight, bias=None):
        self.h, self.feat, self.weight = h, feat, weight
        self.bias_shape = None if bias is None else bias.shape
        return EdgeMessageLinear.infer(h, feat, weight, bias, src=self.src, dst=self.dst)

    @staticmethod
    def infer(h, feat, weight, bias=None, *, src, dst):
        width = h.shape[1]
        proj_src = h @ weight[:width]
        proj_dst = h @ weight[width : 2 * width]
        w_feat = weight[2 * width :]
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

    def backward(self, grad):
        need_h, need_feat, need_w, *need_b = (p.requires_grad for p in self.parents)
        h, feat, weight = self.h, self.feat, self.weight
        width = h.shape[1]
        w_src = weight[:width]
        w_dst = weight[width : 2 * width]
        grad_h = grad_feat = grad_w = None
        if need_h or need_w:
            # Reduce edge gradients onto nodes once; both grad_h and the
            # node blocks of grad_w are N-sized matmuls against them.
            sum_src = _segment_sum(grad, self.src, h.shape[0])
            sum_dst = _segment_sum(grad, self.dst, h.shape[0])
        if need_h:
            grad_h = sum_src @ w_src.T
            grad_h += sum_dst @ w_dst.T
        if need_feat:
            grad_feat = grad @ weight[2 * width :].T
        if need_w:
            grad_w = np.concatenate([h.T @ sum_src, h.T @ sum_dst, feat.T @ grad])
        if not need_b:
            return grad_h, grad_feat, grad_w
        grad_b = _unbroadcast(grad, self.bias_shape) if need_b[0] else None
        return grad_h, grad_feat, grad_w, grad_b


class ConcatLinear(Function):
    """Fused ``concat(parts, axis=1) @ W (+ b)`` without the concat buffer."""

    def __init__(self, num_parts: int, has_bias: bool) -> None:
        self.num_parts = num_parts
        self.has_bias = has_bias

    def forward(self, *arrays):
        self.parts = arrays[: self.num_parts]
        self.weight = arrays[self.num_parts]
        self.bias_shape = arrays[-1].shape if self.has_bias else None
        return ConcatLinear.infer(*arrays, num_parts=self.num_parts, has_bias=self.has_bias)

    @staticmethod
    def infer(*arrays, num_parts, has_bias):
        parts, weight = arrays[:num_parts], arrays[num_parts]
        bias = arrays[num_parts + 1] if has_bias else None
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

    def backward(self, grad):
        needs = [p.requires_grad for p in self.parents]
        grads = []
        offset = 0
        for part, need in zip(self.parts, needs):
            width = part.shape[1]
            grads.append(grad @ self.weight[offset : offset + width].T if need else None)
            offset += width
        if needs[self.num_parts]:
            grads.append(np.concatenate([part.T @ grad for part in self.parts]))
        else:
            grads.append(None)
        if self.has_bias:
            grads.append(_unbroadcast(grad, self.bias_shape) if needs[-1] else None)
        return tuple(grads)


class MulSegmentSum(Function):
    """Fused ``segment_sum(a * b, segments, num_segments)`` without
    retaining the product (``b`` may broadcast over columns)."""

    def __init__(self, segments: np.ndarray, num_segments: int) -> None:
        self.segments, self.num_segments = segments, num_segments

    def forward(self, a, b):
        self.a, self.b = a, b
        return MulSegmentSum.infer(a, b, segments=self.segments, num_segments=self.num_segments)

    @staticmethod
    def infer(a, b, segments, num_segments):
        return _segment_sum(np.multiply(a, b), segments, num_segments)

    def backward(self, grad):
        need_a, need_b = (p.requires_grad for p in self.parents)
        expanded = grad[self.segments]
        grad_a = _unbroadcast(expanded * self.b, self.a.shape) if need_a else None
        grad_b = _unbroadcast(expanded * self.a, self.b.shape) if need_b else None
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
