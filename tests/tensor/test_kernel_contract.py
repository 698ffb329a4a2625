"""The raw-array contract of each fused kernel.

Each test calls one kernel's ``forward``/``backward`` directly on numpy
arrays and checks it against the plain numpy expression the kernel
fuses.  Cases run in float32 and float64 (a kernel keeps its input
dtype) and on empty inputs (a batch of isolated atoms has no edges).
"""

import numpy as np
import pytest

from repro.tensor import kernels
from repro.tensor.core import SegmentSum

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


def check(got, expected, dtype, tol=None):
    assert got.dtype == dtype
    assert got.shape == expected.shape
    tol = TOLERANCE[dtype] if tol is None else tol
    np.testing.assert_allclose(got, expected, rtol=tol, atol=tol)


def test_linear(dtype, populated, rng):
    rows = 300 if populated else 0
    x, w, b = normal(rng, (rows, 24), dtype), normal(rng, (24, 16), dtype), normal(rng, (16,), dtype)
    impl = kernels.LinearKernel
    check(impl.forward(x, w, b), x @ w + b, dtype)
    grad = normal(rng, (rows, 16), dtype)
    grad_x, grad_w, grad_b = impl.backward(grad, x, w, b.shape)
    check(grad_x, grad @ w.T, dtype)
    check(grad_w, x.T @ grad, dtype)
    check(grad_b, grad.sum(axis=0), dtype)


def test_silu(dtype, populated, rng):
    x = normal(rng, (257 if populated else 0, 33), dtype)
    impl = kernels.SiLUKernel
    out, sig = impl.forward(x)
    expected_sig = 1.0 / (1.0 + np.exp(-x))
    check(sig, expected_sig, dtype)
    check(out, x * expected_sig, dtype)
    grad = normal(rng, x.shape, dtype)
    check(impl.backward(grad, x, sig), grad * expected_sig * (1.0 + x * (1.0 - expected_sig)), dtype)


def test_edge_message_linear(dtype, populated, rng):
    nodes, edges, width, feat_width, out_width = 60, 400 if populated else 0, 16, 8, 12
    h = normal(rng, (nodes, width), dtype)
    feat = normal(rng, (edges, feat_width), dtype)
    weight = normal(rng, (2 * width + feat_width, out_width), dtype)
    bias = normal(rng, (out_width,), dtype)
    src = rng.integers(0, nodes, edges).astype(np.int64)
    dst = rng.integers(0, nodes, edges).astype(np.int64)
    impl = kernels.EdgeMessageLinearKernel
    edge_input = np.concatenate([h[src], h[dst], feat], axis=1)
    check(impl.forward(h, feat, weight, bias, src, dst), edge_input @ weight + bias, dtype)

    grad = normal(rng, (edges, out_width), dtype)
    grad_h, grad_feat, grad_w, grad_b = impl.backward(grad, h, feat, weight, src, dst, bias.shape)
    grad_input = grad @ weight.T
    expected_h = scatter_add(grad_input[:, :width], src, nodes)
    expected_h += scatter_add(grad_input[:, width : 2 * width], dst, nodes)
    check(grad_h, expected_h, dtype)
    check(grad_feat, grad_input[:, 2 * width :], dtype)
    check(grad_w, edge_input.T @ grad, dtype)
    check(grad_b, grad.sum(axis=0), dtype)


def test_concat_linear(dtype, populated, rng):
    rows = 220 if populated else 0
    parts = [normal(rng, (rows, width), dtype) for width in (8, 16, 4)]
    weight, bias = normal(rng, (28, 10), dtype), normal(rng, (10,), dtype)
    impl = kernels.ConcatLinearKernel
    joined = np.concatenate(parts, axis=1)
    check(impl.forward(parts, weight, bias), joined @ weight + bias, dtype)

    grad = normal(rng, (rows, 10), dtype)
    grad_parts, grad_w, grad_b = impl.backward(grad, parts, weight, bias.shape, ([True] * 3, True, True))
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
    impl = kernels.MulSegmentSumKernel
    check(impl.forward(a, b, segments, 33), scatter_add(a * b, segments, 33), dtype)
    grad = normal(rng, (33, 3), dtype)
    grad_a, grad_b = impl.backward(grad, a, b, segments)
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
    if kernel == "edge_message_linear":
        feat = normal(rng, (30, 3), np.float64)
        w, b = normal(rng, (19, 4), np.float32), normal(rng, (4,), np.float32)
        src, dst = rng.integers(0, 50, 30), rng.integers(0, 50, 30)
        edge_input = np.concatenate([x32[src], x32[dst], feat], axis=1)
        return (x32, feat, w, b, src, dst), edge_input @ w + b
    if kernel == "concat_linear":
        parts = [x32, normal(rng, (50, 2), np.float64)]
        w = normal(rng, (10, 4), np.float32)
        return (parts, w, None), np.concatenate(parts, axis=1) @ w
    positions = x32[:, :3]
    shift = normal(rng, (30, 3), np.float64)
    src, dst = rng.integers(0, 50, 30), rng.integers(0, 50, 30)
    return (positions, shift, src, dst), positions[dst] - (positions[src] + shift)


IMPLEMENTATIONS = {
    "linear": kernels.LinearKernel.forward,
    "edge_message_linear": kernels.EdgeMessageLinearKernel.forward,
    "concat_linear": kernels.ConcatLinearKernel.forward,
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
@pytest.mark.parametrize("kernel", ["edge_message_linear", "edge_geometry"])
def test_gathers_bounds_check(kernel, bad, rng):
    """An out-of-range edge endpoint raises; it is never clipped or wrapped."""
    nodes, edges = 20, 30
    index = {name: rng.integers(0, nodes, edges).astype(np.int64) for name in ("src", "dst")}
    index[bad][7] = nodes
    if kernel == "edge_message_linear":
        h = normal(rng, (nodes, 4), np.float32)
        feat = normal(rng, (edges, 2), np.float32)
        args = (h, feat, normal(rng, (10, 3), np.float32), None)
    else:
        args = (normal(rng, (nodes, 3), np.float32), normal(rng, (edges, 3), np.float32))
    with pytest.raises(IndexError):
        IMPLEMENTATIONS[kernel](*args, index["src"], index["dst"])


SEGMENT_SUMS = {
    "segment_sum": lambda values, segments: SegmentSum.infer(values, segments, 10),
    "mul_segment_sum": lambda values, segments: kernels.MulSegmentSumKernel.forward(
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
