"""Gradient checks and semantics for every engine primitive."""

import numpy as np
import pytest

from repro.tensor import Tensor, concat, gather, kernels, segment_sum, where
from tests import reference
from tests.helpers import gradcheck


class TestArithmetic:
    def test_add(self):
        gradcheck(lambda a, b: (a + b).sum(), [(3, 4), (3, 4)])

    def test_add_broadcast_row(self):
        gradcheck(lambda a, b: ((a + b) ** 2).sum(), [(3, 4), (1, 4)])

    def test_add_broadcast_scalar_shape(self):
        gradcheck(lambda a, b: ((a + b) ** 2).sum(), [(3, 4), ()])

    def test_sub(self):
        gradcheck(lambda a, b: ((a - b) ** 2).sum(), [(2, 5), (2, 5)])

    def test_mul(self):
        gradcheck(lambda a, b: (a * b).sum(), [(3, 3), (3, 3)])

    def test_mul_broadcast_column(self):
        gradcheck(lambda a, b: (a * b).sum(), [(4, 3), (4, 1)])

    def test_self_mul(self):
        gradcheck(lambda a: (a * a * a).sum(), [(3, 3)])

    def test_div(self):
        gradcheck(lambda a, b: (a / (b * b + 2.0)).sum(), [(3, 3), (3, 3)])

    def test_neg(self):
        gradcheck(lambda a: (-a * a).sum(), [(4,)])

    def test_pow(self):
        gradcheck(lambda a: ((a * a + 1.0) ** 1.5).sum(), [(3, 2)])

    def test_pow_rejects_tensor_exponent(self):
        t = Tensor(np.ones(3))
        with pytest.raises(TypeError):
            t ** t  # noqa: B018

    def test_radd_rsub_rmul_rdiv(self):
        gradcheck(lambda a: (2.0 + a).sum() + (3.0 - a).sum(), [(3,)])
        gradcheck(lambda a: (2.0 * a).sum() + (3.0 / (a * a + 1.0)).sum(), [(3,)])


class TestPointwise:
    def test_exp(self):
        gradcheck(lambda a: a.exp().sum(), [(3, 3)])

    def test_log(self):
        gradcheck(lambda a: (a * a + 1.0).log().sum(), [(3, 3)])

    def test_sqrt(self):
        gradcheck(lambda a: (a * a + 1.0).sqrt().sum(), [(3, 3)])

    def test_tanh(self):
        gradcheck(lambda a: a.tanh().sum(), [(4, 2)])

    def test_sigmoid(self):
        gradcheck(lambda a: a.sigmoid().sum(), [(4, 2)])

    def test_relu_gradient_masks_negatives(self):
        t = Tensor(np.array([-2.0, -0.5, 0.5, 2.0]), requires_grad=True, dtype=np.float64)
        t.relu().sum().backward()
        assert np.array_equal(t.grad, [0.0, 0.0, 1.0, 1.0])

    def test_abs(self):
        # Stay away from the kink at zero.
        gradcheck(lambda a: (a + 3.0).abs().sum(), [(3,)])


class TestMatmulShape:
    def test_matmul(self):
        gradcheck(lambda a, b: (a @ b).sum(), [(4, 3), (3, 5)])

    def test_matmul_chain(self):
        gradcheck(lambda a, b, c: ((a @ b) @ c).sum(), [(2, 3), (3, 4), (4, 2)])

    def test_matmul_rejects_1d(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(3)) @ Tensor(np.ones((3, 2)))

    def test_transpose(self):
        gradcheck(lambda a: (a.T @ a).sum(), [(4, 3)])

    def test_reshape(self):
        gradcheck(lambda a: (a.reshape(6) ** 2).sum(), [(2, 3)])

    def test_reshape_roundtrip_values(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert np.array_equal(t.reshape(3, 2).numpy().ravel(), np.arange(6.0))


class TestReductions:
    def test_sum_all(self):
        gradcheck(lambda a: (a.sum() ** 2), [(3, 4)])

    def test_sum_axis0(self):
        gradcheck(lambda a: (a.sum(axis=0) ** 2).sum(), [(3, 4)])

    def test_sum_axis1_keepdims(self):
        gradcheck(lambda a: (a.sum(axis=1, keepdims=True) * a).sum(), [(3, 4)])

    def test_mean_matches_manual(self):
        t = Tensor(np.arange(12.0).reshape(3, 4))
        assert t.mean().item() == pytest.approx(5.5)
        assert np.allclose(t.mean(axis=0).numpy(), np.arange(12.0).reshape(3, 4).mean(0))

    def test_mean_gradient(self):
        gradcheck(lambda a: (a.mean(axis=1) ** 2).sum(), [(3, 4)])


class TestIndexing:
    def test_slice_gradient(self):
        gradcheck(lambda a: (a[1:3, :2] ** 2).sum(), [(4, 3)])

    def test_integer_row(self):
        gradcheck(lambda a: (a[2] ** 2).sum(), [(4, 3)])

    def test_fancy_index_with_duplicates(self):
        idx = np.array([0, 0, 2])
        t = Tensor(np.ones((3, 2)), requires_grad=True, dtype=np.float64)
        t[idx].sum().backward()
        assert np.array_equal(t.grad[:, 0], [2.0, 0.0, 1.0])

    def test_ellipsis_slice(self):
        gradcheck(lambda a: (a[..., 1:] ** 2).sum(), [(3, 4)])


class TestGatherScatter:
    def test_gather_gradient(self):
        idx = np.array([0, 2, 2, 1])
        gradcheck(lambda a: (gather(a, idx) ** 2).sum(), [(3, 2)])

    def test_segment_sum_forward(self):
        data = Tensor(np.arange(8.0).reshape(4, 2))
        out = segment_sum(data, np.array([0, 1, 0, 1]), 2)
        assert np.array_equal(out.numpy(), [[4.0, 6.0], [8.0, 10.0]])

    def test_segment_sum_gradient(self):
        seg = np.array([0, 1, 1, 2, 0])
        gradcheck(lambda a: (segment_sum(a, seg, 3) ** 2).sum(), [(5, 3)])

    def test_segment_sum_empty_segment(self):
        data = Tensor(np.ones((2, 2)))
        out = segment_sum(data, np.array([0, 2]), 4)
        assert out.shape == (4, 2)
        assert np.array_equal(out.numpy()[1], [0.0, 0.0])

    def test_segment_sum_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            segment_sum(Tensor(np.ones((3, 2))), np.array([0, 1]), 2)

    def test_message_passing_composite(self):
        # gather -> transform -> scatter: the exact GNN pattern.
        src = np.array([0, 1, 2, 0])
        dst = np.array([1, 2, 0, 2])
        gradcheck(
            lambda h: (segment_sum(gather(h, src).tanh(), dst, 3) ** 2).sum(),
            [(3, 4)],
        )


class TestConcatWhere:
    def test_concat_axis0(self):
        gradcheck(lambda a, b: (concat([a, b], axis=0) ** 2).sum(), [(2, 3), (4, 3)])

    def test_concat_axis1(self):
        gradcheck(lambda a, b: (concat([a, b], axis=1) ** 2).sum(), [(3, 2), (3, 5)])

    def test_concat_empty_raises(self):
        with pytest.raises(ValueError):
            concat([])

    def test_where_gradient_routes_by_mask(self):
        mask = np.array([True, False, True])
        a = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
        b = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
        where(mask, a, b).sum().backward()
        assert np.array_equal(a.grad, [1.0, 0.0, 1.0])
        assert np.array_equal(b.grad, [0.0, 1.0, 0.0])


class TestFusedKernels:
    """Finite-difference checks for the hand-written kernel backwards."""

    SRC = np.array([0, 1, 2, 0, 2, 1])
    DST = np.array([1, 2, 0, 2, 1, 0])

    def test_linear_gradient(self):
        gradcheck(lambda x, w, b: (kernels.linear(x, w, b) ** 2).sum(), [(5, 3), (3, 4), (4,)])

    def test_linear_no_bias_gradient(self):
        gradcheck(lambda x, w: (kernels.linear(x, w) ** 2).sum(), [(5, 3), (3, 4)])

    def test_linear_broadcast_bias_gradient(self):
        # A (1, out) bias must receive a (1, out) gradient, like the
        # composed reference path's unbroadcast.
        gradcheck(lambda x, w, b: (kernels.linear(x, w, b) ** 2).sum(), [(5, 3), (3, 4), (1, 4)])

    def test_silu_gradient(self):
        gradcheck(lambda x: kernels.silu(x).sum(), [(4, 3)])

    def test_edge_messages_gradient(self):
        # The fused edge chain: gradients flow to node features, RBF
        # features, the envelope and both layers' weights and biases.
        gradcheck(
            lambda h, f, e, w0, b0, w1, b1: (
                kernels.edge_messages(h, f, e, w0, b0, w1, b1, self.SRC, self.DST) ** 2
            ).sum(),
            [(3, 2), (6, 3), (6, 1), (7, 4), (4,), (4, 4), (4,)],
        )

    def test_edge_coord_weights_gradient(self):
        gradcheck(
            lambda m, w0, b0, w1, b1: (kernels.edge_coord_weights(m, w0, b0, w1, b1) ** 2).sum(),
            [(6, 4), (4, 4), (4,), (4, 1), (1,)],
        )

    def test_concat_linear_gradient(self):
        gradcheck(
            lambda a, b, w, bias: (kernels.concat_linear([a, b], w, bias) ** 2).sum(),
            [(4, 2), (4, 3), (5, 2), (2,)],
        )

    def test_mul_segment_sum_gradient(self):
        gradcheck(
            lambda a, b: (kernels.mul_segment_sum(a, b, self.DST, 3) ** 2).sum(),
            [(6, 3), (6, 1)],
        )

    def test_cached_segment_sum_gradient(self):
        gradcheck(
            lambda a: (segment_sum(a, self.DST, 3) ** 2).sum(),
            [(6, 4)],
        )

    def test_mixed_dtype_promotes_like_reference(self):
        # A float64 operand must promote the fused result exactly as the
        # composed primitive path would, never be quantized to float32.
        x = Tensor(np.ones((3, 2), dtype=np.float32))
        w = Tensor(np.ones((2, 2), dtype=np.float32))
        b64 = Tensor(np.full((2,), 0.5, dtype=np.float64), dtype=np.float64)
        fused = kernels.linear(x, w, b64)
        composed = reference.linear(x, w, b64)
        assert fused.dtype == composed.dtype == np.float64
        np.testing.assert_array_equal(fused.numpy(), composed.numpy())

    def test_fused_matches_unfused_edge_chains(self):
        rng = np.random.default_rng(7)
        h, f, e = (Tensor(rng.normal(size=shape)) for shape in [(3, 2), (6, 3), (6, 1)])
        w0, b0, w1, b1 = (Tensor(rng.normal(size=shape)) for shape in [(7, 4), (4,), (4, 4), (4,)])
        args = (h, f, e, w0, b0, w1, b1, self.SRC, self.DST)
        fused = kernels.edge_messages(*args)
        composed = reference.edge_messages(*args)
        np.testing.assert_allclose(fused.numpy(), composed.numpy(), atol=1e-5)
        c1 = Tensor(rng.normal(size=(4, 1)))
        fused = kernels.edge_coord_weights(fused, w1, b1, c1, b0[:1])
        composed = reference.edge_coord_weights(composed, w1, b1, c1, b0[:1])
        np.testing.assert_allclose(fused.numpy(), composed.numpy(), atol=1e-5)


class TestIncidenceCache:
    """Segment sums cache the CSR incidence matrix of their index array."""

    SUMS = {
        "segment_sum": lambda x, seg, n: segment_sum(x, seg, n),
        "mul_segment_sum": lambda x, seg, n: kernels.mul_segment_sum(
            x, Tensor(np.ones((x.shape[0], 1))), seg, n
        ),
    }

    @pytest.mark.parametrize("op", sorted(SUMS))
    def test_writes_into_the_index_are_seen(self, op):
        seg = np.array([0, 0, 1], dtype=np.int64)
        x = Tensor(np.ones((3, 1)))
        np.testing.assert_array_equal(self.SUMS[op](x, seg, 2).numpy().ravel(), [2.0, 1.0])
        seg[:] = 1
        np.testing.assert_array_equal(self.SUMS[op](x, seg, 2).numpy().ravel(), [0.0, 3.0])

    def test_one_index_serves_several_counts_and_dtypes(self):
        seg = np.array([0, 2, 2, 1], dtype=np.int64)
        values = np.arange(8.0).reshape(4, 2)
        for num_segments in (3, 5):
            for dtype in (np.float32, np.float64):
                got = segment_sum(Tensor(values.astype(dtype), dtype=dtype), seg, num_segments)
                expected = np.zeros((num_segments, 2), dtype=dtype)
                np.add.at(expected, seg, values.astype(dtype))
                assert got.dtype == dtype
                np.testing.assert_array_equal(got.numpy(), expected)

    def test_entry_dies_with_its_index(self):
        from repro.tensor import core

        seg = np.array([1, 0, 1], dtype=np.int64)
        segment_sum(Tensor(np.ones((3, 2))), seg, 2)
        key = id(seg)
        assert any(k[0] == key for k in core._incidence_cache)
        del seg
        assert not any(k[0] == key for k in core._incidence_cache)

    def test_converted_index_leaves_no_entry(self):
        from repro.tensor import core

        seg32 = np.array([2, 0, 2, 1], dtype=np.int32)
        before = len(core._incidence_cache)
        for _ in range(3):
            got = segment_sum(Tensor(np.ones((4, 1))), seg32, 3)
            np.testing.assert_array_equal(got.numpy().ravel(), [1.0, 1.0, 2.0])
        assert len(core._incidence_cache) == before
