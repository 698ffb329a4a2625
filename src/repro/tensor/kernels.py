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
``edge_messages``
    EGNN's whole edge chain: ``silu(silu(h W_src [src] + h W_dst [dst]
    + rbf W_rbf + b0) W1 + b1) * envelope``.  The node-sized projections
    replace the edge-sized gather and concat buffers, the edge rows run
    the chain in row tiles sized to stay in L2 (:func:`row_tiles`), and
    the backward reduces edge gradients back to nodes with a (cached)
    sparse incidence matrix.
``edge_coord_weights``
    EGNN's coordinate MLP ``silu(m W0 + b0) W1 + b1``, in the same
    row tiles.
``concat_linear``
    ``concat(parts, axis=1) @ W + b`` without materializing the concat
    (used by the EGNN node-update MLP entry).
``mul_segment_sum``
    ``segment_sum(a * b)`` without retaining the product (EGNN's
    equivariant coordinate update).
``edge_geometry_arrays``
    Edge vectors ``pos[dst] - (pos[src] + shift)`` and their clamped
    lengths in one pass, for the EGNN prologue's edge geometry.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.tensor import allocator
from repro.tensor.allocator import GRADIENTS, track_array
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


def _silu_into(x, sig, out):
    """``out = x * sig`` with ``sig = 1 / (1 + exp(-x))`` built in ``sig``:
    SiLU's one formula, which every op that applies it shares (``out``
    may be ``x``)."""
    np.negative(x, out=sig)
    np.exp(sig, out=sig)
    sig += 1.0
    np.reciprocal(sig, out=sig)
    np.multiply(x, sig, out=out)
    return out


def _silu_backward(grad, x, sig):
    """``grad * d/dx [x * sig(x)] = grad * sig * (1 + x * (1 - sig))``, chained in place."""
    out = np.subtract(1.0, sig)
    out *= x
    out += 1.0
    out *= sig
    out *= grad
    return out


def _silu(x):
    """``(x * sig, sig)`` with ``sig = 1 / (1 + exp(-x))``: no temporaries
    beyond the output and the sigmoid training saves."""
    sig = allocator.pool_empty(x.shape, np.result_type(x, np.float32))
    out = allocator.pool_empty(x.shape, sig.dtype)
    return _silu_into(x, sig, out), sig


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
        return (_silu_backward(grad, self.x, self.sig),)


# ----------------------------------------------------------------------
# Row tiles
# ----------------------------------------------------------------------
#: Bytes of one tile's ``(rows, width)`` float32 block.  A tiled op runs
#: its whole chain on one tile before the next, so the tile's gathers,
#: pre-activations and sigmoids stay in a vCPU's 2 MB L2 from one pass
#: to the next, where ``(E, width)`` arrays would stream through memory
#: once per pass.
TILE_BYTES = 256 * 2**10

#: Tiles start at multiples of this many rows, and a tail shorter than
#: it joins the tile before.  OpenBLAS rounds a width-1 GEMM row by its
#: offset mod 4, and an M = 1 GEMM takes another kernel; aligned tiles
#: with no short tail give every row the kernel and the bits of one
#: untiled call.
TILE_ALIGN = 64


def tile_rows(width: int) -> int:
    """Rows per tile at ``width``: the largest multiple of :data:`TILE_ALIGN`
    whose float32 ``(rows, width)`` block fits :data:`TILE_BYTES`, and at
    least one :data:`TILE_ALIGN` (1024 rows at width 64, 4096 at 16)."""
    return max(TILE_ALIGN, TILE_BYTES // (4 * width) // TILE_ALIGN * TILE_ALIGN)


def row_tiles(num_rows: int, width: int) -> list[slice]:
    """The row slices a tiled op walks over ``num_rows`` rows at ``width``.

    ``num_rows <= tile_rows(width)`` is one tile; no rows is no tile.
    """
    starts = list(range(0, num_rows, tile_rows(width)))
    if len(starts) > 1 and num_rows - starts[-1] < TILE_ALIGN:
        starts.pop()
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [num_rows])]


def _check_gather(index: np.ndarray, size: int) -> None:
    """Raise ``IndexError`` unless every entry indexes ``size`` rows, so
    a ``take(mode="clip")`` over ``index`` never clips."""
    if index.size and (index.min() < 0 or index.max() >= size):
        raise IndexError(
            f"gather index out of range [0, {size}): min={index.min()}, max={index.max()}"
        )


class EdgeMessages(Function):
    """EGNN's edge chain in row tiles:
    ``silu(silu(h[src] W_src + h[dst] W_dst + rbf W_rbf + b0) W1 + b1) * envelope``.

    ``w0`` stacks ``W_src``, ``W_dst`` and ``W_rbf``: it is the edge MLP's
    entry over ``concat([h[src], h[dst], rbf], 1)``.  ``w1`` is square.
    The node blocks of ``w0`` are applied once per call *before* the
    gather, so those matmuls run over N node rows and no ``(E, 2F+R)``
    concat exists.  Then each row tile (:func:`row_tiles`) runs the whole
    chain, gather included, in three tile-sized scratch buffers.  The
    training ``forward`` keeps the six ``(E, width)`` intermediates the
    backward reads; the backward reduces edge gradients onto nodes with
    the cached incidence matrix.
    """

    def __init__(self, src: np.ndarray, dst: np.ndarray) -> None:
        self.src, self.dst = src, dst

    def forward(self, h, rbf, envelope, w0, b0, w1, b1):
        self.h, self.rbf, self.envelope, self.w0, self.w1 = h, rbf, envelope, w0, w1
        self.bias_shapes = b0.shape, b1.shape
        shape = (self.src.shape[0], w0.shape[1])
        dtype = _common_dtype(h, rbf, envelope, w0, b0, w1, b1)
        self.saved = [allocator.pool_empty(shape, dtype) for _ in range(6)]
        out = EdgeMessages.infer(
            h, rbf, envelope, w0, b0, w1, b1, src=self.src, dst=self.dst, keep=self.saved
        )
        # The pre-activations and activations were op outputs of the
        # composed chain; the profiler counts them as activations.
        for index in (0, 2, 3, 5):
            track_array(self.saved[index])
        return out

    @staticmethod
    def infer(h, rbf, envelope, w0, b0, w1, b1, *, src, dst, keep=None):
        """The output; ``keep`` is ``None`` or the six ``(E, width)``
        arrays the training ``forward`` has the intermediates written to."""
        num_nodes, node_width = h.shape
        _check_gather(src, num_nodes)
        _check_gather(dst, num_nodes)
        dtype = _common_dtype(h, rbf, envelope, w0, b0, w1, b1)
        proj_src = FusedLinear.infer(h, w0[:node_width]).astype(dtype, copy=False)
        proj_dst = FusedLinear.infer(h, w0[node_width : 2 * node_width]).astype(dtype, copy=False)
        w_rbf = w0[2 * node_width :]
        num_edges, width = src.shape[0], w0.shape[1]
        out = allocator.pool_empty((num_edges, width), dtype)
        tiles = row_tiles(num_edges, width)
        rows = max((tile.stop - tile.start for tile in tiles), default=0)
        scratch = allocator.pool_empty((rows, width), dtype)
        if keep is None:
            pre, sig = (allocator.pool_empty((rows, width), dtype) for _ in range(2))
        for tile in tiles:
            size = tile.stop - tile.start
            part = scratch[:size]
            if keep is None:
                # One pre-activation, one sigmoid and one scratch buffer
                # carry both layers: each value dies before its slot is reused.
                pre0 = pre1 = pre[:size]
                sig0 = sig1 = sig[:size]
                act0 = act1 = part
            else:
                pre0, sig0, act0, pre1, sig1, act1 = (array[tile] for array in keep)
            np.take(proj_src, src[tile], axis=0, out=pre0, mode="clip")
            np.take(proj_dst, dst[tile], axis=0, out=part, mode="clip")
            pre0 += part
            np.matmul(rbf[tile], w_rbf, out=part)
            pre0 += part
            pre0 += b0
            _silu_into(pre0, sig0, act0)
            np.matmul(act0, w1, out=pre1)
            pre1 += b1
            _silu_into(pre1, sig1, act1)
            np.multiply(act1, envelope[tile], out=out[tile])
        return out

    def backward(self, grad):
        need_h, need_rbf, need_env, need_w0, need_b0, need_w1, need_b1 = (
            p.requires_grad for p in self.parents
        )
        pre0, sig0, act0, pre1, sig1, act1 = self.saved
        h, rbf, w0, w1 = self.h, self.rbf, self.w0, self.w1
        width = h.shape[1]
        grad_env = _unbroadcast(grad * act1, self.envelope.shape) if need_env else None
        # The chain's inner gradients were op gradients of the composed
        # chain; the profiler counts them as gradients.
        grad_pre1 = _silu_backward(track_array(grad * self.envelope, GRADIENTS), pre1, sig1)
        track_array(grad_pre1, GRADIENTS)
        grad_w1 = act0.T @ grad_pre1 if need_w1 else None
        grad_b1 = _unbroadcast(grad_pre1, self.bias_shapes[1]) if need_b1 else None
        grad_h = grad_rbf = grad_w0 = grad_b0 = None
        if need_h or need_rbf or need_w0 or need_b0:
            grad_pre0 = _silu_backward(track_array(grad_pre1 @ w1.T, GRADIENTS), pre0, sig0)
            track_array(grad_pre0, GRADIENTS)
            if need_h or need_w0:
                # Reduce edge gradients onto nodes once; both grad_h and
                # the node blocks of grad_w0 are N-sized matmuls on them.
                sum_src = _segment_sum(grad_pre0, self.src, h.shape[0])
                sum_dst = _segment_sum(grad_pre0, self.dst, h.shape[0])
            if need_h:
                grad_h = sum_src @ w0[:width].T
                grad_h += sum_dst @ w0[width : 2 * width].T
            if need_rbf:
                grad_rbf = grad_pre0 @ w0[2 * width :].T
            if need_w0:
                grad_w0 = np.concatenate([h.T @ sum_src, h.T @ sum_dst, rbf.T @ grad_pre0])
            if need_b0:
                grad_b0 = _unbroadcast(grad_pre0, self.bias_shapes[0])
        return grad_h, grad_rbf, grad_env, grad_w0, grad_b0, grad_w1, grad_b1


class EdgeCoordWeights(Function):
    """EGNN's coordinate MLP in row tiles: ``silu(m W0 + b0) W1 + b1``.

    Per-edge scalar weights of the equivariant coordinate update.  Each
    row tile (:func:`row_tiles`, at ``w0``'s output width) runs the whole
    chain in two tile-sized scratch buffers; the training ``forward``
    keeps the three ``(E, width)`` intermediates the backward reads.
    """

    def forward(self, m, w0, b0, w1, b1):
        self.m, self.w0, self.w1 = m, w0, w1
        self.bias_shapes = b0.shape, b1.shape
        shape = (m.shape[0], w0.shape[1])
        dtype = _common_dtype(m, w0, b0, w1, b1)
        self.saved = [allocator.pool_empty(shape, dtype) for _ in range(3)]
        out = EdgeCoordWeights.infer(m, w0, b0, w1, b1, keep=self.saved)
        for index in (0, 2):
            track_array(self.saved[index])
        return out

    @staticmethod
    def infer(m, w0, b0, w1, b1, *, keep=None):
        """The output; ``keep`` is ``None`` or the three ``(E, width)``
        arrays the training ``forward`` has the intermediates written to."""
        dtype = _common_dtype(m, w0, b0, w1, b1)
        num_edges, width = m.shape[0], w0.shape[1]
        out = allocator.pool_empty((num_edges, w1.shape[1]), dtype)
        tiles = row_tiles(num_edges, width)
        if keep is None:
            rows = max((tile.stop - tile.start for tile in tiles), default=0)
            pre, sig = (allocator.pool_empty((rows, width), dtype) for _ in range(2))
        for tile in tiles:
            size = tile.stop - tile.start
            if keep is None:
                pre_t, sig_t = pre[:size], sig[:size]
                act_t = pre_t
            else:
                pre_t, sig_t, act_t = (array[tile] for array in keep)
            np.matmul(m[tile], w0, out=pre_t)
            pre_t += b0
            _silu_into(pre_t, sig_t, act_t)
            np.matmul(act_t, w1, out=out[tile])
            out[tile] += b1
        return out

    def backward(self, grad):
        need_m, need_w0, need_b0, need_w1, need_b1 = (p.requires_grad for p in self.parents)
        pre, sig, act = self.saved
        grad_w1 = act.T @ grad if need_w1 else None
        grad_b1 = _unbroadcast(grad, self.bias_shapes[1]) if need_b1 else None
        grad_m = grad_w0 = grad_b0 = None
        if need_m or need_w0 or need_b0:
            grad_pre = _silu_backward(track_array(grad @ self.w1.T, GRADIENTS), pre, sig)
            track_array(grad_pre, GRADIENTS)
            grad_m = grad_pre @ self.w0.T if need_m else None
            grad_w0 = self.m.T @ grad_pre if need_w0 else None
            grad_b0 = _unbroadcast(grad_pre, self.bias_shapes[0]) if need_b0 else None
        return grad_m, grad_w0, grad_b0, grad_w1, grad_b1


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


def edge_messages(
    h: Tensor,
    rbf: Tensor,
    envelope: Tensor,
    w0: Tensor,
    b0: Tensor,
    w1: Tensor,
    b1: Tensor,
    src: np.ndarray,
    dst: np.ndarray,
) -> Tensor:
    """EGNN's edge MLP and envelope, tiled: ``silu(silu(concat([h[src], h[dst], rbf]) @ w0
    + b0) @ w1 + b1) * envelope``."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    return EdgeMessages.apply(h, rbf, envelope, w0, b0, w1, b1, src=src, dst=dst)


def edge_coord_weights(m: Tensor, w0: Tensor, b0: Tensor, w1: Tensor, b1: Tensor) -> Tensor:
    """EGNN's coordinate MLP, tiled: ``silu(m @ w0 + b0) @ w1 + b1``."""
    return EdgeCoordWeights.apply(m, w0, b0, w1, b1)


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
