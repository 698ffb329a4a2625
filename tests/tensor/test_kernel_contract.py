"""The raw-array contract of each fused kernel.

Each test runs one op's forward and backward through a node, directly
on numpy arrays, and checks them against the plain numpy expression the
op fuses; ``infer`` is checked wherever it is called alone.  Cases run
in float32 and float64 (a kernel keeps its input dtype) and on empty
inputs (a batch of isolated atoms has no edges).
"""

import numpy as np
import pytest

from repro.tensor import kernels
from repro.tensor.core import SegmentSum, Tensor

DTYPES = [np.float32, np.float64]
TOLERANCE = {np.float32: 1e-4, np.float64: 1e-10}


@pytest.fixture(params=DTYPES, ids=lambda dtype: np.dtype(dtype).name)
def dtype(request):
    return request.param


@pytest.fixture(params=[True, False], ids=["populated", "empty"])
def populated(request):
    return request.param


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def normal(rng, shape, dtype):
    return rng.standard_normal(shape).astype(dtype)


def scatter_add(values, segments, num_segments):
    out = np.zeros((num_segments,) + values.shape[1:], dtype=values.dtype)
    np.add.at(out, segments, values)
    return out


def through_node(node, arrays, grad):
    """``node.forward(*arrays)`` then ``node.backward(grad)``, with every
    input differentiable; returns the node's output and gradients."""
    node.parents = tuple(Tensor(array, requires_grad=True) for array in arrays)
    return node.forward(*arrays), node.backward(grad)


def check(got, expected, dtype, tol=None):
    assert got.dtype == dtype
    assert got.shape == expected.shape
    tol = TOLERANCE[dtype] if tol is None else tol
    np.testing.assert_allclose(got, expected, rtol=tol, atol=tol)


def test_linear(dtype, populated, rng):
    rows = 300 if populated else 0
    x, w, b = normal(rng, (rows, 24), dtype), normal(rng, (24, 16), dtype), normal(rng, (16,), dtype)
    grad = normal(rng, (rows, 16), dtype)
    out, (grad_x, grad_w, grad_b) = through_node(kernels.FusedLinear(), (x, w, b), grad)
    check(out, x @ w + b, dtype)
    check(grad_x, grad @ w.T, dtype)
    check(grad_w, x.T @ grad, dtype)
    check(grad_b, grad.sum(axis=0), dtype)


def test_silu(dtype, populated, rng):
    x = normal(rng, (257 if populated else 0, 33), dtype)
    node = kernels.FusedSiLU()
    grad = normal(rng, x.shape, dtype)
    out, (grad_x,) = through_node(node, (x,), grad)
    expected_sig = 1.0 / (1.0 + np.exp(-x))
    check(node.sig, expected_sig, dtype)
    check(out, x * expected_sig, dtype)
    check(kernels.FusedSiLU.infer(x), x * expected_sig, dtype)
    check(grad_x, grad * expected_sig * (1.0 + x * (1.0 - expected_sig)), dtype)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def silu_grad(grad, x):
    sig = sigmoid(x)
    return grad * sig * (1.0 + x * (1.0 - sig))


def test_edge_messages(dtype, populated, rng):
    nodes, edges, width, rbf_width = 60, 400 if populated else 0, 16, 8
    h = normal(rng, (nodes, width), dtype)
    rbf = normal(rng, (edges, rbf_width), dtype)
    envelope = rng.random((edges, 1)).astype(dtype)
    w0 = (0.3 * normal(rng, (2 * width + rbf_width, width), dtype)).astype(dtype)
    w1 = (0.3 * normal(rng, (width, width), dtype)).astype(dtype)
    b0, b1 = normal(rng, (width,), dtype), normal(rng, (width,), dtype)
    src = rng.integers(0, nodes, edges).astype(np.int64)
    dst = rng.integers(0, nodes, edges).astype(np.int64)
    edge_input = np.concatenate([h[src], h[dst], rbf], axis=1)
    pre0 = edge_input @ w0 + b0
    act0 = pre0 * sigmoid(pre0)
    pre1 = act0 @ w1 + b1
    act1 = pre1 * sigmoid(pre1)
    grad = normal(rng, (edges, width), dtype)
    node = kernels.EdgeMessages(src, dst)
    out, grads = through_node(node, (h, rbf, envelope, w0, b0, w1, b1), grad)
    grad_h, grad_rbf, grad_env, grad_w0, grad_b0, grad_w1, grad_b1 = grads
    check(out, act1 * envelope, dtype)
    args = (h, rbf, envelope, w0, b0, w1, b1)
    check(kernels.EdgeMessages.infer(*args, src=src, dst=dst), act1 * envelope, dtype)

    check(grad_env, (grad * act1).sum(axis=1, keepdims=True), dtype)
    grad_pre1 = silu_grad(grad * envelope, pre1)
    check(grad_w1, act0.T @ grad_pre1, dtype)
    check(grad_b1, grad_pre1.sum(axis=0), dtype)
    grad_pre0 = silu_grad(grad_pre1 @ w1.T, pre0)
    grad_input = grad_pre0 @ w0.T
    expected_h = scatter_add(grad_input[:, :width], src, nodes)
    expected_h += scatter_add(grad_input[:, width : 2 * width], dst, nodes)
    check(grad_h, expected_h, dtype)
    check(grad_rbf, grad_input[:, 2 * width :], dtype)
    check(grad_w0, edge_input.T @ grad_pre0, dtype)
    check(grad_b0, grad_pre0.sum(axis=0), dtype)


def test_edge_coord_weights(dtype, populated, rng):
    rows, width = 300 if populated else 0, 16
    m = normal(rng, (rows, width), dtype)
    w0, b0 = normal(rng, (width, width), dtype), normal(rng, (width,), dtype)
    w1, b1 = normal(rng, (width, 1), dtype), normal(rng, (1,), dtype)
    pre = m @ w0 + b0
    act = pre * sigmoid(pre)
    grad = normal(rng, (rows, 1), dtype)
    node = kernels.EdgeCoordWeights()
    out, (grad_m, grad_w0, grad_b0, grad_w1, grad_b1) = through_node(
        node, (m, w0, b0, w1, b1), grad
    )
    check(out, act @ w1 + b1, dtype)
    check(kernels.EdgeCoordWeights.infer(m, w0, b0, w1, b1), act @ w1 + b1, dtype)
    check(grad_w1, act.T @ grad, dtype)
    check(grad_b1, grad.sum(axis=0), dtype)
    grad_pre = silu_grad(grad @ w1.T, pre)
    check(grad_m, grad_pre @ w0.T, dtype)
    check(grad_w0, m.T @ grad_pre, dtype)
    check(grad_b0, grad_pre.sum(axis=0), dtype)


def test_concat_linear(dtype, populated, rng):
    rows = 220 if populated else 0
    parts = [normal(rng, (rows, width), dtype) for width in (8, 16, 4)]
    weight, bias = normal(rng, (28, 10), dtype), normal(rng, (10,), dtype)
    joined = np.concatenate(parts, axis=1)
    grad = normal(rng, (rows, 10), dtype)
    node = kernels.ConcatLinear(num_parts=3, has_bias=True)
    out, (*grad_parts, grad_w, grad_b) = through_node(node, (*parts, weight, bias), grad)
    check(out, joined @ weight + bias, dtype)
    grad_joined = grad @ weight.T
    for got, (start, stop) in zip(grad_parts, [(0, 8), (8, 24), (24, 28)]):
        check(got, grad_joined[:, start:stop], dtype)
    check(grad_w, joined.T @ grad, dtype)
    check(grad_b, grad.sum(axis=0), dtype)


def test_segment_sum(dtype, populated, rng):
    rows = 500 if populated else 0
    values = normal(rng, (rows, 7), dtype)
    segments = np.sort(rng.integers(0, 40, rows)).astype(np.int64)
    check(SegmentSum.infer(values, segments, 40), scatter_add(values, segments, 40), dtype)
    grad = normal(rng, (40, 7), dtype)
    (grad_values,) = SegmentSum(segments, 40).backward(grad)
    check(grad_values, grad[segments], dtype)


def test_mul_segment_sum(dtype, populated, rng):
    rows = 480 if populated else 0
    a, b = normal(rng, (rows, 3), dtype), normal(rng, (rows, 1), dtype)
    segments = np.sort(rng.integers(0, 33, rows)).astype(np.int64)
    grad = normal(rng, (33, 3), dtype)
    out, (grad_a, grad_b) = through_node(kernels.MulSegmentSum(segments, 33), (a, b), grad)
    check(out, scatter_add(a * b, segments, 33), dtype)
    check(grad_a, grad[segments] * b, dtype)
    check(grad_b, (grad[segments] * a).sum(axis=1, keepdims=True), dtype)


def test_edge_geometry(dtype, populated, rng):
    nodes, edges = 90, 600 if populated else 0
    positions, shift = normal(rng, (nodes, 3), dtype), normal(rng, (edges, 3), dtype)
    src = rng.integers(0, nodes, edges).astype(np.int64)
    dst = rng.integers(0, nodes, edges).astype(np.int64)
    expected = positions[dst] - (positions[src] + shift)
    vectors, distances = kernels.edge_geometry_arrays(positions, shift, src, dst)
    check(vectors, expected, dtype)
    check(distances, np.maximum(np.linalg.norm(expected, axis=1), 1e-9), dtype)


def _mixed_dtype_case(kernel, rng):
    """float32 data with one float64 operand, and the promoted reference."""
    x32 = normal(rng, (50, 8), np.float32)
    if kernel == "linear":
        w, b = normal(rng, (8, 4), np.float32), normal(rng, (4,), np.float64)
        return (x32, w, b), x32 @ w + b
    if kernel == "edge_messages":
        rbf = normal(rng, (30, 3), np.float64)
        envelope = rng.random((30, 1)).astype(np.float32)
        w0, b0 = normal(rng, (19, 8), np.float32), normal(rng, (8,), np.float32)
        w1, b1 = normal(rng, (8, 8), np.float32), normal(rng, (8,), np.float32)
        src, dst = rng.integers(0, 50, 30), rng.integers(0, 50, 30)
        pre0 = np.concatenate([x32[src], x32[dst], rbf], axis=1) @ w0 + b0
        pre1 = pre0 * sigmoid(pre0) @ w1 + b1
        expected = pre1 * sigmoid(pre1) * envelope
        return (x32, rbf, envelope, w0, b0, w1, b1, src, dst), expected
    if kernel == "edge_coord_weights":
        w0, b0 = normal(rng, (8, 8), np.float32), normal(rng, (8,), np.float64)
        w1, b1 = normal(rng, (8, 1), np.float32), normal(rng, (1,), np.float32)
        pre = x32 @ w0 + b0
        return (x32, w0, b0, w1, b1), pre * sigmoid(pre) @ w1 + b1
    if kernel == "concat_linear":
        parts = [x32, normal(rng, (50, 2), np.float64)]
        w = normal(rng, (10, 4), np.float32)
        return (parts, w), np.concatenate(parts, axis=1) @ w
    positions = x32[:, :3]
    shift = normal(rng, (30, 3), np.float64)
    src, dst = rng.integers(0, 50, 30), rng.integers(0, 50, 30)
    return (positions, shift, src, dst), positions[dst] - (positions[src] + shift)


IMPLEMENTATIONS = {
    "linear": kernels.FusedLinear.infer,
    "edge_messages": lambda *args: kernels.EdgeMessages.infer(
        *args[:-2], src=args[-2], dst=args[-1]
    ),
    "edge_coord_weights": kernels.EdgeCoordWeights.infer,
    "concat_linear": lambda parts, weight: kernels.ConcatLinear.infer(
        *parts, weight, num_parts=len(parts), has_bias=False
    ),
    "edge_geometry": lambda *args: kernels.edge_geometry_arrays(*args)[0],
}


@pytest.mark.parametrize("kernel", sorted(IMPLEMENTATIONS))
def test_mixed_dtypes_promote_instead_of_quantizing(kernel, rng):
    """A float64 operand promotes the result; it is never rounded to float32.

    Products of float32 blocks may be formed in float32 before the
    promotion, so values agree to float32 accuracy.
    """
    args, expected = _mixed_dtype_case(kernel, rng)
    assert expected.dtype == np.float64
    out = IMPLEMENTATIONS[kernel](*args)
    check(out, expected, np.float64, tol=TOLERANCE[np.float32])


@pytest.mark.parametrize("bad", ["src", "dst"])
@pytest.mark.parametrize("kernel", ["edge_messages", "edge_geometry"])
def test_gathers_bounds_check(kernel, bad, rng):
    """An out-of-range edge endpoint raises; it is never clipped or wrapped."""
    nodes, edges = 20, 30
    index = {name: rng.integers(0, nodes, edges).astype(np.int64) for name in ("src", "dst")}
    index[bad][7] = nodes
    if kernel == "edge_messages":
        h = normal(rng, (nodes, 4), np.float32)
        rbf = normal(rng, (edges, 2), np.float32)
        envelope = normal(rng, (edges, 1), np.float32)
        w0, b0 = normal(rng, (10, 3), np.float32), normal(rng, (3,), np.float32)
        w1, b1 = normal(rng, (3, 3), np.float32), normal(rng, (3,), np.float32)
        args = (h, rbf, envelope, w0, b0, w1, b1)
    else:
        args = (normal(rng, (nodes, 3), np.float32), normal(rng, (edges, 3), np.float32))
    with pytest.raises(IndexError):
        IMPLEMENTATIONS[kernel](*args, index["src"], index["dst"])


SEGMENT_SUMS = {
    "segment_sum": lambda values, segments: SegmentSum.infer(values, segments, 10),
    "mul_segment_sum": lambda values, segments: kernels.MulSegmentSum.infer(
        values, np.ones((values.shape[0], 1), values.dtype), segments, 10
    ),
}


@pytest.mark.parametrize("bad", ["high", "negative", "written"])
@pytest.mark.parametrize("kernel", sorted(SEGMENT_SUMS))
def test_segment_sums_bounds_check(kernel, bad, rng):
    """An out-of-range segment id raises; it is never dropped or wrapped.

    ``written`` reduces over a valid index first, so the incidence matrix
    is cached, then writes the bad id into that same array.
    """
    values = normal(rng, (30, 4), np.float32)
    segments = rng.integers(0, 10, 30).astype(np.int64)
    if bad == "written":
        SEGMENT_SUMS[kernel](values, segments)
    segments[7] = -1 if bad == "negative" else 10
    with pytest.raises(ValueError):
        SEGMENT_SUMS[kernel](values, segments)
