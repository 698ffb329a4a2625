"""The composed primitive-op oracle the fused kernels are checked against.

Each function below is the plain autograd-op composition one fused kernel
replaces.  :func:`composed_ops` swaps them in for ``kernels.linear``,
``kernels.silu`` and ``EGNNLayer.forward``, so a whole model runs on
primitive ops with the same parameters.  The swap is process-wide, not
per-thread: use it around single-threaded code only.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.models.egnn import EGNNLayer
from repro.tensor import kernels
from repro.tensor.core import concat, gather, segment_sum


def linear(x, weight, bias=None):
    out = x @ weight
    return out if bias is None else out + bias


def silu(x):
    return x * x.sigmoid()


def edge_messages(h, rbf, envelope, w0, b0, w1, b1, src, dst):
    edge_input = concat([gather(h, src), gather(h, dst), rbf], axis=1)
    return silu(linear(silu(linear(edge_input, w0, b0)), w1, b1)) * envelope


def edge_coord_weights(m, w0, b0, w1, b1):
    return linear(silu(linear(m, w0, b0)), w1, b1)


def untiled_edge_messages(h, rbf, envelope, w0, b0, w1, b1, src, dst):
    """``EdgeMessages.infer``'s math in one pass over all rows, on arrays:
    the fused linear and SiLU kernels plus numpy gathers, whose bits the
    tiled op must reproduce."""
    width = h.shape[1]
    pre = (h @ w0[:width])[src] + (h @ w0[width : 2 * width])[dst]
    pre += rbf @ w0[2 * width :]
    pre += b0
    act = kernels.FusedSiLU.infer(pre)
    act = kernels.FusedSiLU.infer(kernels.FusedLinear.infer(act, w1, b1))
    return act * envelope


def untiled_edge_coord_weights(m, w0, b0, w1, b1):
    """``EdgeCoordWeights.infer``'s math in one pass over all rows, on arrays."""
    act = kernels.FusedSiLU.infer(kernels.FusedLinear.infer(m, w0, b0))
    return kernels.FusedLinear.infer(act, w1, b1)


def egnn_layer_forward(layer, h, x, geometry):
    """``EGNNLayer.forward`` without its fused entries and aggregations."""
    edge_input = concat([gather(h, geometry.src), gather(h, geometry.dst), geometry.rbf], axis=1)
    messages = layer.edge_mlp(edge_input) * geometry.envelope
    if layer.attention_mlp is not None:
        messages = messages * layer.attention_mlp(messages).sigmoid()

    coord_weights = layer.coord_mlp(messages)
    coord_updates = segment_sum(
        geometry.unit_vectors * coord_weights, geometry.dst, geometry.num_nodes
    )
    x = x + coord_updates * geometry.inv_degree

    aggregated = segment_sum(messages, geometry.dst, geometry.num_nodes)
    h = h + layer.node_mlp(concat([h, aggregated], axis=1))
    if layer.norm is not None:
        h = layer.norm(h)
    return h, x


@contextmanager
def composed_ops():
    """Run the block on the composed primitive ops instead of the fused kernels."""
    saved = kernels.linear, kernels.silu, EGNNLayer.forward
    kernels.linear, kernels.silu, EGNNLayer.forward = linear, silu, egnn_layer_forward
    try:
        yield
    finally:
        kernels.linear, kernels.silu, EGNNLayer.forward = saved
