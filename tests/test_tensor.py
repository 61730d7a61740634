"""Tensor core: op semantics, graph behavior, and gradient checking."""
import ast
import tracemalloc
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

from gmsrfnet import tensor as T
from gmsrfnet.errors import NumericsError, ShapeError, StateError, UsageError
from gmsrfnet.gradchecks import max_grad_error
from gmsrfnet.network import ModelConfig, build_model
from gmsrfnet.tensor import Tensor, backward

import reference


def t(data, **kw):
    arr = np.asarray(data, dtype=np.float32)
    while arr.ndim < 4:
        arr = arr[None]
    return Tensor(arr, **kw)


def count_calls(monkeypatch, name):
    """Record every call of the tensor module's private helper ``name``."""
    calls = []
    fn = getattr(T, name)
    monkeypatch.setattr(T, name, lambda *a: calls.append(a) or fn(*a))
    return calls


class TestTensorType:
    def test_rejects_non_4d(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((3, 4)))

    def test_data_length_matches_shape(self):
        x = Tensor(np.zeros((2, 3, 4, 5)))
        assert x.size == 2 * 3 * 4 * 5

    def test_vector_helper(self):
        v = T.vector([1.0, 2.0, 3.0])
        assert v.shape == (1, 3, 1, 1)

    def test_default_dtype_is_float32(self):
        assert Tensor(np.zeros((1, 1, 1, 1), np.int64)).dtype == np.float32

    def test_float64_preserved(self):
        assert Tensor(np.zeros((1, 1, 1, 1), np.float64)).dtype == np.float64


class TestConv2d:
    def test_scalar_kernel_scaling(self):
        x = t([[1, 2], [3, 4]])
        w = Tensor(np.full((1, 1, 1, 1), 2.0, np.float32))
        b = T.vector([0.0])
        y = T.conv2d(x, w, b)
        assert np.array_equal(y.data[0, 0], [[2, 4], [6, 8]])

    def test_ones_3x3_valid(self):
        x = t(np.ones((3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3), np.float32))
        y = T.conv2d(x, w)
        expected = reference.conv2d_loops(x.data, w.data)
        assert y.shape == (1, 1, 1, 1)
        assert y.item() == expected[0, 0, 0, 0] == 9.0

    def test_ones_3x3_padded(self):
        x = t(np.ones((3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3), np.float32))
        y = T.conv2d(x, w, padding=1)
        expected = reference.conv2d_loops(x.data, w.data, padding=1)
        assert np.array_equal(y.data, expected)
        assert np.array_equal(y.data[0, 0], [[4, 6, 4], [6, 9, 6], [4, 6, 4]])

    @pytest.mark.parametrize("stride,padding,dilation", [
        (1, 0, 1), (1, 1, 1), (2, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 1),
    ])
    def test_matches_nested_loop_oracle(self, stride, padding, dilation):
        rng = np.random.default_rng(42 + stride + 10 * padding + 100 * dilation)
        x = Tensor(rng.normal(size=(2, 3, 9, 8)).astype(np.float32))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32))
        b = T.vector(rng.normal(size=4).astype(np.float32))
        y = T.conv2d(x, w, b, stride, padding, dilation)
        expected = reference.conv2d_loops(x.data, w.data, b.data.ravel(), stride, padding, dilation)
        np.testing.assert_allclose(y.data, expected, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("kernel,stride,padding,dilation,size", [
        ((1, 1), 1, 0, 1, 6),   # 1x1 channel matmul
        ((3, 3), 1, 1, 1, 6),   # stride-1 gather
        ((3, 3), 1, 3, 3, 7),
        ((3, 3), 1, 5, 5, 7),
        ((3, 3), 2, 1, 1, 7),   # zeros spread between the gradient's pixels, odd input
        ((1, 1), 2, 0, 1, 7),
        ((3, 3), 1, 3, 1, 5),   # padding beyond d*(K-1): the gradient is cropped
        ((4, 4), 2, 1, 1, 8),   # the decoder's transposed-conv geometry
        ((1, 1), 1, 0, 1, 1),   # squeeze-excitation projection on a pooled map
        ((3, 3), 2, 2, 2, 9),   # stride with dilation
        ((3, 3), 3, 1, 1, 8),   # rows left over after the last window
    ])
    def test_input_gradient_matches_loop_adjoint(self, kernel, stride, padding, dilation, size):
        rng = np.random.default_rng(sum(kernel) + 10 * stride + 100 * padding + 1000 * dilation)
        x = Tensor(rng.normal(size=(2, 3, size, size)), requires_grad=True, dtype=np.float64)
        w = Tensor(rng.normal(size=(4, 3) + kernel), dtype=np.float64)
        y = T.conv2d(x, w, stride=stride, padding=padding, dilation=dilation)
        g = rng.normal(size=y.shape)
        backward(reference.sum_loss(y, g))
        expected = reference.conv2d_input_grad_loops(g, w.data, x.shape, stride, padding, dilation)
        np.testing.assert_allclose(x.grad, expected, rtol=1e-12, atol=1e-12)

    def test_input_without_grad_runs_no_adjoint(self, monkeypatch):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 3, 7, 7)), dtype=np.float64)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True, dtype=np.float64)
        y = T.conv2d(x, w, stride=2, padding=1)
        g = rng.normal(size=y.shape)
        loss = reference.sum_loss(y, g)
        calls = count_calls(monkeypatch, "_correlate")
        backward(loss)
        assert calls == [] and x.grad is None
        expected = reference.conv2d_weight_grad_loops(x.data, g, w.shape, 2, 1)
        np.testing.assert_allclose(w.grad, expected, rtol=1e-12, atol=1e-12)

    def test_strided_1x1_is_a_channel_matmul(self, monkeypatch):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(2, 3, 7, 7)), dtype=np.float64)
        w = Tensor(rng.normal(size=(5, 3, 1, 1)), requires_grad=True, dtype=np.float64)
        placed, cols = count_calls(monkeypatch, "_place"), count_calls(monkeypatch, "_im2col")
        y = T.conv2d(x, w, stride=2)
        np.testing.assert_allclose(y.data, reference.conv2d_loops(x.data, w.data, stride=2),
                                   rtol=1e-12, atol=1e-12)
        g = rng.normal(size=y.shape)
        backward(reference.sum_loss(y, g))
        expected = reference.conv2d_weight_grad_loops(x.data, g, w.shape, 2, 0)
        np.testing.assert_allclose(w.grad, expected, rtol=1e-12, atol=1e-12)
        assert placed == [] and cols == []

    @pytest.mark.parametrize("kernel,stride,padding", [(3, 1, 1), (1, 1, 0), (3, 2, 1)])
    def test_bias_gradient_is_channel_sum_of_g(self, kernel, stride, padding):
        rng = np.random.default_rng(10 * kernel + stride)
        x = Tensor(rng.normal(size=(3, 2, 5, 7)), dtype=np.float64)
        w = Tensor(rng.normal(size=(4, 2, kernel, kernel)), dtype=np.float64)
        b = Tensor(rng.normal(size=(1, 4, 1, 1)), requires_grad=True, dtype=np.float64)
        y = T.conv2d(x, w, b, stride=stride, padding=padding)
        g = rng.normal(size=y.shape)
        backward(reference.sum_loss(y, g))
        np.testing.assert_allclose(b.grad, g.sum(axis=(0, 2, 3), keepdims=True),
                                   rtol=1e-12, atol=1e-12)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            T.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))

    def test_non_square_kernel_raises(self):
        x = Tensor(np.zeros((1, 1, 6, 6)))
        with pytest.raises(ShapeError, match="not square"):
            T.conv2d(x, Tensor(np.zeros((1, 1, 1, 3))))
        with pytest.raises(ShapeError, match="not square"):
            T.conv_transpose2d(x, Tensor(np.zeros((1, 1, 1, 3))))

    def test_non_positive_output_raises(self):
        with pytest.raises(ShapeError):
            T.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 3, 3))))

    def test_bad_stride_raises(self):
        with pytest.raises(UsageError):
            T.conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 3, 3))), stride=0)


# Stride-1 geometries for the flat-buffer shift kernel: (N, H, W, K, padding,
# dilation, wide, narrow). The forward runs wide -> narrow channels and the
# input gradient narrow -> wide, the directions in which that kernel, not
# im2col, computes them.
SHIFT_GEOMETRIES = {
    "batch3_h_ne_w": (3, 9, 7, 3, 1, 1, 4, 2),  # the flat axis crosses images
    "dilation3": (2, 10, 8, 3, 3, 3, 6, 2),
    "dilation5": (2, 12, 11, 3, 5, 5, 8, 2),
    "no_padding": (2, 7, 6, 3, 0, 1, 5, 2),  # the grid is only cropped
    "single_row": (2, 1, 10, 3, 1, 1, 8, 2),
}


class TestShiftKernel:
    @pytest.mark.parametrize("name", sorted(SHIFT_GEOMETRIES))
    def test_forward_matches_nested_loop_oracle(self, name, monkeypatch):
        n, h, w, k, padding, dilation, wide, narrow = SHIFT_GEOMETRIES[name]
        rng = np.random.default_rng(sorted(SHIFT_GEOMETRIES).index(name))
        x = Tensor(rng.normal(size=(n, wide, h, w)).astype(np.float32))
        wt = Tensor(rng.normal(size=(narrow, wide, k, k)).astype(np.float32))
        calls = count_calls(monkeypatch, "_im2col")
        y = T.conv2d(x, wt, padding=padding, dilation=dilation)
        assert calls == []
        expected = reference.conv2d_loops(x.data, wt.data, padding=padding, dilation=dilation)
        np.testing.assert_allclose(y.data, expected, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("name", sorted(SHIFT_GEOMETRIES))
    def test_gradients_match_loop_oracles(self, name, monkeypatch):
        n, h, w, k, padding, dilation, wide, narrow = SHIFT_GEOMETRIES[name]
        rng = np.random.default_rng(10 + sorted(SHIFT_GEOMETRIES).index(name))
        x = Tensor(rng.normal(size=(n, narrow, h, w)), requires_grad=True, dtype=np.float64)
        wt = Tensor(rng.normal(size=(wide, narrow, k, k)), requires_grad=True, dtype=np.float64)
        y = T.conv2d(x, wt, padding=padding, dilation=dilation)
        g = rng.normal(size=y.shape)
        loss = reference.sum_loss(y, g)
        calls = count_calls(monkeypatch, "_im2col")
        backward(loss)
        assert calls == []
        expected = reference.conv2d_input_grad_loops(g, wt.data, x.shape, 1, padding, dilation)
        np.testing.assert_allclose(x.grad, expected, rtol=1e-12, atol=1e-12)
        expected = reference.conv2d_weight_grad_loops(x.data, g, wt.shape, 1, padding, dilation)
        np.testing.assert_allclose(wt.grad, expected, rtol=1e-12, atol=1e-12)

    def test_stride2_transposed_conv_adjoint(self, monkeypatch):
        rng = np.random.default_rng(20)
        x = Tensor(rng.normal(size=(3, 4, 5, 6)).astype(np.float32))
        w = Tensor(rng.normal(size=(4, 2, 4, 4)).astype(np.float32))
        calls = count_calls(monkeypatch, "_im2col")
        y = T.conv_transpose2d(x, w, stride=2, padding=1)
        assert calls == []
        expected = reference.conv_transpose2d_loops(x.data, w.data, stride=2, padding=1)
        np.testing.assert_allclose(y.data, expected, rtol=1e-5, atol=1e-5)

    def test_grad_mode_forward_keeps_no_columns(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(8, 16, 32, 32)).astype(np.float32))
        w = Tensor(rng.normal(size=(8, 16, 3, 3)).astype(np.float32), requires_grad=True)
        padded = x.size // (32 * 32) * 34 * 34 * x.data.itemsize
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y = T.conv2d(x, w, padding=1)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert y._backward_fn is not None
        assert kept <= padded + y.data.nbytes  # im2col columns would be 9x the input


class TestConvTranspose2d:
    def test_single_pixel_spreads_kernel(self):
        x = t([[1.0]])
        w = Tensor(np.ones((1, 1, 3, 3), np.float32))
        y = T.conv_transpose2d(x, w, stride=2)
        assert y.shape == (1, 1, 3, 3)
        assert np.array_equal(y.data[0, 0], np.ones((3, 3)))

    def test_identity_kernel(self):
        x = Tensor(np.random.default_rng(0).normal(size=(1, 1, 5, 5)).astype(np.float32))
        w = Tensor(np.ones((1, 1, 1, 1), np.float32))
        y = T.conv_transpose2d(x, w)
        assert np.array_equal(y.data, x.data)

    def test_size_formula(self):
        x = Tensor(np.zeros((1, 2, 8, 8), np.float32))
        w = Tensor(np.zeros((2, 3, 4, 4), np.float32))
        y = T.conv_transpose2d(x, w, stride=2, padding=1)
        assert y.shape == (1, 3, 16, 16)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 0), (2, 1), (3, 1)])
    def test_matches_scatter_oracle(self, stride, padding):
        rng = np.random.default_rng(7 + stride + 10 * padding)
        x = Tensor(rng.normal(size=(2, 3, 4, 5)).astype(np.float32))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)).astype(np.float32))
        b = T.vector(rng.normal(size=2).astype(np.float32))
        y = T.conv_transpose2d(x, w, b, stride, padding)
        expected = reference.conv_transpose2d_loops(x.data, w.data, b.data.ravel(), stride, padding)
        np.testing.assert_allclose(y.data, expected, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 0), (2, 1), (3, 1)])
    def test_input_gradient_is_conv2d(self, stride, padding):
        rng = np.random.default_rng(17 + stride + 10 * padding)
        x = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True, dtype=np.float64)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), dtype=np.float64)
        y = T.conv_transpose2d(x, w, stride=stride, padding=padding)
        g = rng.normal(size=y.shape)
        backward(reference.sum_loss(y, g))
        expected = reference.conv2d_loops(g, w.data, stride=stride, padding=padding)
        np.testing.assert_allclose(x.grad, expected, rtol=1e-12, atol=1e-12)

    def test_adjoint_identity_float32(self):
        # geometry where (H + 2p - K) divides the stride, so sizes round-trip
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
        w = Tensor(rng.normal(size=(4, 3, 4, 4)).astype(np.float32))
        y = Tensor(rng.normal(size=(2, 4, 4, 4)).astype(np.float32))
        lhs = float((T.conv2d(x, w, stride=2, padding=1).data * y.data).sum())
        rhs = float((x.data * T.conv_transpose2d(y, w, stride=2, padding=1).data).sum())
        assert abs(lhs - rhs) / max(1.0, abs(rhs)) < 1e-4

    def test_adjoint_identity_float64(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(2, 3, 9, 9)), dtype=np.float64)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), dtype=np.float64)
        y = Tensor(rng.normal(size=(2, 4, 4, 4)), dtype=np.float64)
        lhs = float((T.conv2d(x, w, stride=2, padding=0).data * y.data).sum())
        rhs = float((x.data * T.conv_transpose2d(y, w, stride=2, padding=0).data).sum())
        assert abs(lhs - rhs) / max(1.0, abs(rhs)) < 1e-10


class TestConcat:
    def test_channel_addition(self):
        a = Tensor(np.zeros((1, 2, 4, 4)))
        b = Tensor(np.zeros((1, 3, 4, 4)))
        assert T.concat_channels([a, b]).shape == (1, 5, 4, 4)

    def test_single_part_identity_values(self):
        a = Tensor(np.random.default_rng(1).normal(size=(1, 2, 3, 3)).astype(np.float32))
        assert np.array_equal(T.concat_channels([a]).data, a.data)

    def test_offsets_and_bitexact_slice_roundtrip(self):
        rng = np.random.default_rng(2)
        parts = [Tensor(rng.normal(size=(2, c, 3, 3)).astype(np.float32)) for c in (1, 3, 2)]
        cat = T.concat_channels(parts)
        offset = 0
        for p in parts:
            assert np.array_equal(cat.data[:, offset : offset + p.shape[1]], p.data)
            offset += p.shape[1]

    def test_spatial_mismatch_raises(self):
        with pytest.raises(ShapeError):
            T.concat_channels([Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 5, 4)))])

    def test_empty_list_raises(self):
        with pytest.raises(ShapeError):
            T.concat_channels([])


class TestElementwise:
    def test_mul_identity(self):
        x = t([[1, 2], [3, 4]])
        ones = Tensor(np.ones_like(x.data))
        assert np.array_equal(T.mul(x, ones).data, x.data)

    def test_add_identity(self):
        x = t([[1, 2], [3, 4]])
        zeros = Tensor(np.zeros_like(x.data))
        assert np.array_equal(T.add(x, zeros).data, x.data)

    def test_mul_example(self):
        x = t([[1, 2], [3, 4]])
        y = Tensor(np.full_like(x.data, 2.0))
        assert np.array_equal(T.mul(x, y).data[0, 0], [[2, 4], [6, 8]])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 2, 3))))

    def test_mul_per_channel_factor_matches_numpy(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(2, 3, 4, 5)).astype(np.float32), requires_grad=True)
        y = Tensor(rng.normal(size=(2, 3, 1, 1)).astype(np.float32), requires_grad=True)
        g = rng.normal(size=(2, 3, 4, 5)).astype(np.float32)
        z = T.mul(x, y)
        assert np.array_equal(z.data, x.data * y.data)
        backward(reference.sum_loss(z, g))
        assert np.array_equal(x.grad, g * y.data)
        assert np.array_equal(y.grad, (g * x.data).sum(axis=(2, 3), keepdims=True))

    @pytest.mark.parametrize("x_shape, y_shape", [
        ((2, 3, 4, 5), (2, 3, 4, 1)), ((2, 3, 4, 5), (2, 3, 1, 5)),
        ((2, 3, 4, 5), (1, 3, 1, 1)), ((2, 3, 4, 5), (2, 1, 1, 1)),
        ((2, 3, 4, 5), (2, 4, 1, 1)), ((2, 3, 4, 5), (1, 1, 1, 1)),
        ((2, 3, 1, 1), (2, 3, 4, 5)),  # the per-channel factor goes second
    ])
    def test_mul_rejects_other_shapes(self, x_shape, y_shape):
        with pytest.raises(ShapeError):
            T.mul(Tensor(np.zeros(x_shape)), Tensor(np.zeros(y_shape)))


class TestActivations:
    def test_sigmoid_zero(self):
        assert T.sigmoid(t([[0.0]])).item() == 0.5

    def test_relu(self):
        y = T.relu(t([[-1.0, 3.0]]))
        assert np.array_equal(y.data.ravel(), [0.0, 3.0])

    def test_sigmoid_open_interval_extremes(self):
        x = t([[-500.0, -100.0, 0.0, 100.0, 500.0]])
        y = T.sigmoid(x).data
        assert np.all(y > 0.0) and np.all(y < 1.0)

    def test_sigmoid_open_interval_float64(self):
        x = Tensor(np.array([[[[ -800.0, 800.0]]]]), dtype=np.float64)
        y = T.sigmoid(x).data
        assert np.all(y > 0.0) and np.all(y < 1.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_bitwise_equals_two_branch_formula(self, dtype):
        info = np.finfo(dtype)
        z = np.concatenate([
            np.random.default_rng(14).normal(0.0, 30.0, 2000),
            [0.0, -0.0, 1e4, -1e4, 88.7, -88.7, -745.0, 745.0, info.max, -info.max,
             info.tiny, -info.tiny],
        ]).astype(dtype)
        pos = z >= 0
        expected = np.empty_like(z)
        expected[pos] = 1 / (1 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        expected[~pos] = ez / (1 + ez)
        np.clip(expected, info.tiny, 1 - info.epsneg, out=expected)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = T.sigmoid(Tensor(z.reshape(1, 1, 1, -1))).data.ravel()
        assert y.dtype == dtype
        assert y.tobytes() == expected.tobytes()


class TestBatchNorm:
    def test_two_value_normalization(self):
        x = Tensor(np.array([1.0, 3.0], np.float32).reshape(2, 1, 1, 1))
        y = T.batch_norm(x, reference.norm([1.0], [0.0]))
        expected = reference.batchnorm_loops(x.data, [1.0], [0.0])
        np.testing.assert_allclose(y.data, expected, rtol=1e-6)
        np.testing.assert_allclose(y.data.ravel(), [-0.99999, 0.99999], atol=1e-4)

    def test_standardized_input_near_identity(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(4, 2, 8, 8)).astype(np.float32)
        raw -= raw.mean(axis=(0, 2, 3), keepdims=True)
        raw /= raw.std(axis=(0, 2, 3), keepdims=True)
        x = Tensor(raw)
        y = T.batch_norm(x, reference.norm([1, 1], [0, 0]))
        np.testing.assert_allclose(y.data, raw, atol=1e-4)

    def test_beta_shift(self):
        x = Tensor(np.random.default_rng(6).normal(size=(2, 1, 3, 3)).astype(np.float32))
        y = T.batch_norm(x, reference.norm([0.0], [5.0]))
        np.testing.assert_allclose(y.data, 5.0, rtol=1e-6)

    def test_eval_before_train_raises(self):
        x = Tensor(np.zeros((1, 1, 2, 2)))
        with pytest.raises(StateError):
            T.batch_norm(x, reference.norm([1.0], [0.0], training=False))

    def test_eval_uses_running_stats(self):
        rng = np.random.default_rng(7)
        bn = reference.norm([1.0], [0.0])
        for _ in range(200):
            x = Tensor(rng.normal(2.0, 3.0, size=(8, 1, 4, 4)).astype(np.float32))
            T.batch_norm(x, bn)
        probe = Tensor(np.full((1, 1, 1, 1), 2.0, np.float32))
        bn.training = False
        y = T.batch_norm(probe, bn)
        assert abs(y.item()) < 0.2  # mean input maps near zero

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            T.batch_norm(Tensor(np.zeros((1, 2, 2, 2))), reference.norm([1.0], [0.0]))

    def test_leaky_output_is_hand_norm_then_leaky_relu(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(1.0, 2.0, size=(3, 2, 4, 5)).astype(np.float32))
        gamma, beta = [0.7, 1.3], [0.2, -0.4]
        y = T.batch_norm(x, reference.norm(gamma, beta), act="leaky_relu")
        z = reference.batchnorm_loops(x.data, gamma, beta)
        assert (z < 0).any() and (z > 0).any()
        np.testing.assert_allclose(y.data, np.where(z > 0, z, 0.01 * z), rtol=1e-5, atol=1e-6)

    def test_large_offset_matches_float64_oracle(self):
        # 1e4 + N(0, 1) in float32: E[x^2] - mean^2 cancels to garbage (even a
        # negative variance) here, the centred two-pass variance does not
        rng = np.random.default_rng(10)
        raw = (1e4 + rng.normal(size=(8, 4, 16, 16))).astype(np.float32)
        gamma, beta = [1.0, 0.5, 2.0, 1.0], [0.0, 0.1, -0.2, 0.3]
        y = T.batch_norm(Tensor(raw), reference.norm(gamma, beta))
        oracle = reference.batchnorm_loops(raw.astype(np.float64), gamma, beta)
        assert np.abs(y.data - oracle).max() < 1e-2

    def test_single_value_per_channel_gives_act_beta_and_zero_gradient(self):
        # M = N*H*W = 1: the value is its own mean, so it normalizes to zero
        x = Tensor(np.array([3.0, -2.0], np.float32).reshape(1, 2, 1, 1), requires_grad=True)
        state = reference.norm([2.0, 3.0], [0.5, -0.5])
        y = T.batch_norm(x, state, act="leaky_relu")
        np.testing.assert_array_equal(y.data.ravel(), np.float32([0.5, -0.005]))
        backward(reference.sum_loss(y))
        np.testing.assert_array_equal(x.grad, 0)
        np.testing.assert_array_equal(state.beta.grad.ravel(), np.float32([1.0, 0.01]))
        for buffer in (state.running_mean, state.running_var):
            assert np.all(np.isfinite(buffer))
        np.testing.assert_allclose(state.running_var.ravel(), 0.9)

    @pytest.mark.parametrize("act", ["relu", "sigmoid"])
    def test_unsupported_activation_raises(self, act):
        x = Tensor(np.zeros((2, 1, 2, 2), np.float32))
        with pytest.raises(UsageError):
            T.batch_norm(x, reference.norm([1.0], [0.0]), act=act)

    @pytest.mark.parametrize("shape,act", [
        ((1, 2, 3, 5), "linear"), ((3, 2, 4, 3), "linear"),
        ((1, 2, 3, 5), "leaky_relu"), ((3, 2, 4, 3), "leaky_relu"),
    ], ids=["shape0", "shape1", "leaky_shape0", "leaky_shape1"])
    def test_float64_output_and_gradients_match_loop_oracle(self, shape, act):
        # the oracle's gradients are its central differences, probed like
        # max_grad_error: step 1e-6*max(1, |v|), error relative to max(1, |numeric|)
        rng = np.random.default_rng(sum(shape))
        c = shape[1]
        x = Tensor(rng.normal(1.0, 2.0, shape), dtype=np.float64, requires_grad=True)
        bn = reference.norm(rng.uniform(0.5, 1.5, (1, c, 1, 1)), rng.normal(0, 0.3, (1, c, 1, 1)),
                            dtype=np.float64)
        gamma, beta = bn.gamma, bn.beta
        w = rng.normal(size=shape)
        y = T.batch_norm(x, bn, act=act)
        slope = 1.0 if act == "linear" else 0.01

        def oracle(a, g, b):
            z = reference.batchnorm_loops(a, g.ravel(), b.ravel())
            return np.where(z > 0, z, slope * z)

        np.testing.assert_allclose(y.data, oracle(x.data, gamma.data, beta.data),
                                   rtol=1e-12, atol=1e-12)
        backward(reference.sum_loss(y, w))
        arrays = [x.data.copy(), gamma.data.copy(), beta.data.copy()]
        for i, analytic in enumerate([x.grad, gamma.grad, beta.grad]):
            for j in np.ndindex(arrays[i].shape):
                orig = arrays[i][j]
                h = 1e-6 * max(1.0, abs(orig))
                arrays[i][j] = orig + h
                f_plus = float((oracle(*arrays) * w).sum())
                arrays[i][j] = orig - h
                f_minus = float((oracle(*arrays) * w).sum())
                arrays[i][j] = orig
                numeric = (f_plus - f_minus) / (2 * h)
                assert abs(analytic[j] - numeric) / max(1.0, abs(numeric)) < 1e-5

    @pytest.mark.parametrize("shape,act", [
        ((1, 3, 4, 6), "linear"), ((3, 2, 5, 3), "linear"),
        ((1, 3, 4, 6), "leaky_relu"), ((3, 2, 5, 3), "leaky_relu"),
    ], ids=["batch1", "batch3", "leaky_batch1", "leaky_batch3"])
    def test_eval_float64_output_and_gradients_match_loop_oracle(self, shape, act):
        rng = np.random.default_rng(sum(shape) + 40)
        c = shape[1]
        mean = rng.normal(0.5, 1.0, (1, c, 1, 1))
        var = rng.uniform(0.3, 3.0, (1, c, 1, 1))
        x = Tensor(rng.normal(1.0, 2.0, shape), dtype=np.float64, requires_grad=True)
        state = reference.norm(rng.uniform(0.5, 1.5, (1, c, 1, 1)), rng.normal(0, 0.3, (1, c, 1, 1)),
                               training=False, dtype=np.float64)
        state.running_mean[...] = mean
        state.running_var[...] = var
        state.num_updates[...] = 4
        gamma, beta = state.gamma, state.beta
        g = rng.normal(size=shape)
        y = T.batch_norm(x, state, act=act)
        backward(reference.sum_loss(y, g))
        expected = reference.batchnorm_eval_loops(
            x.data, gamma.data.ravel(), beta.data.ravel(), state.running_mean.ravel(),
            state.running_var.ravel(), g, slope=1.0 if act == "linear" else 0.01)
        for got, want in zip((y.data, x.grad, gamma.grad.ravel(), beta.grad.ravel()), expected):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_eval_large_running_mean_matches_float64_oracle(self):
        # x - running_mean is exact near 1e4 in float32; scaling first would
        # round x * gamma / std (~4e5 here) to ~0.03
        rng = np.random.default_rng(12)
        c = 4
        gamma, beta = [1.0, 0.5, 2.0, 1.5], [0.0, 0.1, -0.2, 0.3]
        state = reference.norm(gamma, beta, training=False)
        state.running_mean[...] = 1e4 + rng.normal(0, 0.5, (1, c, 1, 1))
        state.running_var[...] = rng.uniform(2e-3, 4e-3, (1, c, 1, 1))
        state.num_updates[...] = 1
        raw = (1e4 + rng.normal(size=(2, c, 8, 8))).astype(np.float32)
        y = T.batch_norm(Tensor(raw), state, act="leaky_relu")
        oracle = reference.batchnorm_eval_loops(
            raw, gamma, beta, state.running_mean.ravel().astype(np.float64),
            state.running_var.ravel().astype(np.float64), np.ones(raw.shape), slope=0.01)[0]
        assert y.data.dtype == np.float32
        assert np.abs(y.data - oracle).max() < 1e-2


class TestPoolLinearResize:
    def test_gap_mean(self):
        assert T.global_avg_pool(t([[1, 2], [3, 4]])).item() == 2.5

    def test_gap_constant(self):
        x = Tensor(np.full((2, 3, 5, 5), 7.25, np.float32))
        np.testing.assert_array_equal(T.global_avg_pool(x).data.ravel(), 7.25)

    def test_gap_gradient_distributes(self):
        x = Tensor(np.random.default_rng(8).normal(size=(1, 1, 4, 4)).astype(np.float32),
                   requires_grad=True)
        backward(reference.sum_loss(T.global_avg_pool(x)))
        np.testing.assert_allclose(x.grad, 1.0 / 16.0, rtol=1e-6)

    def test_resize_same_size_identity(self):
        x = Tensor(np.random.default_rng(11).normal(size=(1, 2, 5, 7)).astype(np.float32))
        assert np.array_equal(T.resize_bilinear(x, 5, 7).data, x.data)

    def test_resize_2x2_to_1x1(self):
        x = t([[0.0, 1.0], [1.0, 0.0]])
        assert T.resize_bilinear(x, 1, 1).item() == 0.5

    def test_resize_constant_stays_constant(self):
        x = Tensor(np.full((1, 1, 3, 3), 0.625, np.float32))
        for oh, ow in ((1, 1), (5, 5), (9, 2)):
            np.testing.assert_allclose(T.resize_bilinear(x, oh, ow).data, 0.625, rtol=1e-6)

    @pytest.mark.parametrize("oh,ow", [(7, 9), (2, 3), (4, 4), (11, 3)])
    def test_resize_matches_loop_oracle(self, oh, ow):
        x = Tensor(np.random.default_rng(12).normal(size=(2, 2, 4, 5)).astype(np.float32))
        expected = reference.bilinear_loops(x.data, oh, ow)
        np.testing.assert_allclose(T.resize_bilinear(x, oh, ow).data, expected, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("oh,ow", [(9, 4), (3, 11), (10, 14), (2, 3)])
    def test_resize_float64_matches_loop_oracle(self, oh, ow):
        x = Tensor(np.random.default_rng(15).normal(size=(2, 3, 5, 7)), dtype=np.float64)
        expected = reference.bilinear_loops(x.data, oh, ow)
        assert np.abs(T.resize_bilinear(x, oh, ow).data - expected).max() < 1e-12

    @pytest.mark.parametrize("oh,ow", [(9, 4), (3, 11)])
    def test_resize_gradient_matches_finite_differences(self, oh, ow):
        rng = np.random.default_rng(16)
        x = Tensor(rng.normal(size=(2, 3, 5, 7)), dtype=np.float64, requires_grad=True)
        w = rng.normal(size=(2, 3, oh, ow))
        f = lambda: reference.sum_loss(T.resize_bilinear(x, oh, ow), w)
        assert max_grad_error(f, [x]) < 1e-5

    def test_interp_matrix_is_cached_read_only(self):
        m = T.interp_matrix(9, 4, np.float32)
        assert T.interp_matrix(9, 4, np.float32) is m
        with pytest.raises(ValueError):
            m[0, 0] = 2.0
        assert T.interp_matrix.cache_info().maxsize is not None


class TestBackward:
    def test_product_gradient(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(1, 2, 3, 3)).astype(np.float32), requires_grad=True)
        y = Tensor(rng.normal(size=(1, 2, 3, 3)).astype(np.float32))
        backward(reference.sum_loss(T.mul(x, y)))
        np.testing.assert_allclose(x.grad, y.data, rtol=1e-6)

    def test_sigmoid_at_zero_grad_quarter(self):
        w = Tensor(np.zeros((1, 1, 1, 1), np.float32), requires_grad=True)
        backward(reference.sum_loss(T.sigmoid(w)))
        assert abs(w.grad.item() - 0.25) < 1e-7

    def test_non_scalar_loss_raises(self):
        x = Tensor(np.zeros((1, 1, 2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            backward(T.mul(x, x))

    def test_double_backward_raises(self):
        x = Tensor(np.zeros((1, 1, 1, 1)), requires_grad=True)
        loss = reference.sum_loss(T.mul(x, x))
        backward(loss)
        with pytest.raises(StateError):
            backward(loss)

    def test_unreachable_leaf_keeps_its_grad(self):
        x = Tensor(np.ones((1, 1, 1, 1)), requires_grad=True)
        z = Tensor(np.ones((1, 1, 1, 1)), requires_grad=True)
        T.mul(z, z)  # recorded but unreachable from the loss below
        loss = reference.sum_loss(T.mul(x, x))
        backward(loss)
        assert z.grad is None
        assert np.all(x.grad == 2.0)
        z.grad = np.full_like(z.data, 5.0)
        T.mul(z, z)
        backward(reference.sum_loss(T.mul(x, x)))
        assert np.all(z.grad == 5.0)

    def test_no_grad_for_requires_grad_false(self):
        x = Tensor(np.ones((1, 1, 1, 1)), requires_grad=True)
        y = Tensor(np.ones((1, 1, 1, 1)))
        backward(reference.sum_loss(T.mul(x, y)))
        assert y.grad is None

    def test_no_grad_context_suppresses_recording(self):
        x = Tensor(np.ones((1, 1, 1, 1)), requires_grad=True)
        with T.no_grad():
            y = T.mul(x, x)
            assert not y.requires_grad
            with pytest.raises(StateError):
                backward(reference.sum_loss(y))

    def test_fanout_accumulation(self):
        x = Tensor(np.full((1, 1, 1, 1), 3.0, np.float32), requires_grad=True)
        y = T.add(T.mul(x, x), T.mul(x, x))
        backward(reference.sum_loss(y))
        assert abs(x.grad.item() - 12.0) < 1e-6  # d/dx 2x^2 = 4x

    def test_loss_without_graph_raises(self):
        with pytest.raises(StateError):
            backward(Tensor(np.zeros((1, 1, 1, 1))))

    def test_composite_conv_sigmoid_matches_finite_diff(self):
        rng = np.random.default_rng(14)
        w = Tensor(rng.normal(size=(2, 3, 3, 3)), dtype=np.float64)

        def f(x):
            return reference.sum_loss(T.sigmoid(T.conv2d(x, Tensor(w.data), padding=1)))

        x0 = Tensor(rng.normal(size=(1, 3, 5, 5)), requires_grad=True, dtype=np.float64)
        assert max_grad_error(lambda: f(x0), [x0]) < 1e-5


class TestGraphLifetime:
    def test_forwards_without_backward_keep_memory_flat(self):
        cfg = ModelConfig(input_size=64, encoder_widths=(8, 16, 24, 32), rfb_channels=8,
                          growth=4, layers_per_module=2, num_modules=1, seed=3)
        model = build_model(cfg)
        x = Tensor(np.random.default_rng(19).uniform(0, 1, (2, 3, 64, 64)).astype(np.float32))
        model(x)  # first call settles one-time allocations
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(5):
                model(x)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 1 << 20

    def test_loss_sharing_a_consumed_node_raises_before_touching_grads(self):
        rng = np.random.default_rng(20)
        x = Tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)
        h = T.mul(x, w)
        backward(reference.sum_loss(h))
        grads = (x.grad.copy(), w.grad.copy())
        y = Tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)
        with pytest.raises(StateError):
            backward(reference.sum_loss(T.add(h, y)))
        assert y.grad is None
        assert np.array_equal(x.grad, grads[0]) and np.array_equal(w.grad, grads[1])

    def test_independent_losses_each_backpropagate(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)
        y = Tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)
        c = Tensor(rng.normal(size=(1, 2, 3, 3)))
        loss_x = reference.sum_loss(T.mul(x, x))
        loss_y = reference.sum_loss(T.mul(y, c))
        backward(loss_y)
        backward(loss_x)
        np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-6)
        np.testing.assert_allclose(y.grad, c.data, rtol=1e-6)


class TestThreadIsolation:
    def test_independent_graphs_per_thread(self):
        # two threads run forward+backward on their own leaves; each graph is
        # owned by its tensors, so gradients match the single-threaded result
        import threading

        results = {}

        def work(tag, seed):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.normal(size=(1, 2, 4, 4)).astype(np.float32), requires_grad=True)
            y = Tensor(rng.normal(size=(1, 2, 4, 4)).astype(np.float32))
            backward(reference.sum_loss(T.mul(x, y)))
            results[tag] = (x.grad.copy(), y.data.copy())

        threads = [threading.Thread(target=work, args=(i, 40 + i)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for tag in results:
            grad, expected = results[tag]
            np.testing.assert_allclose(grad, expected, rtol=1e-6)


class TestDeterminism:
    def test_forward_bitwise_repeatable(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32))
        b = T.vector(rng.normal(size=4).astype(np.float32))
        y1 = T.sigmoid(T.conv2d(x, w, b, 1, 1))
        y2 = T.sigmoid(T.conv2d(x, w, b, 1, 1))
        assert np.array_equal(y1.data, y2.data)


class TestGradcheckHarness:
    def test_affine_function_near_exact(self):
        # central differences are exact for affine maps at any step size, so a
        # larger step leaves only negligible float64 roundoff
        x = Tensor(np.random.default_rng(16).normal(size=(1, 2, 3, 3)), requires_grad=True,
                   dtype=np.float64)
        err = max_grad_error(lambda: reference.sum_loss(T.scale_shift(x, 3.0, 1.0)), [x], h_scale=1e-3)
        assert err < 1e-10

    def test_conv_bn_sigmoid_pipeline(self):
        rng = np.random.default_rng(17)
        w = Tensor(rng.normal(size=(2, 2, 3, 3)), dtype=np.float64, requires_grad=True)
        bn = reference.norm(rng.uniform(0.5, 1.5, (1, 2, 1, 1)), rng.normal(size=(1, 2, 1, 1)),
                            dtype=np.float64)
        x = Tensor(rng.normal(size=(2, 2, 5, 5)), dtype=np.float64, requires_grad=True)

        def f():
            y = T.conv2d(x, w, padding=1)
            y = T.batch_norm(y, bn)
            return T.reduce_mean(T.sigmoid(y))

        assert max_grad_error(f, [x, w, bn.gamma, bn.beta]) < 1e-5

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(18)
        vals = rng.normal(size=(1, 2, 4, 4))
        vals = np.where(np.abs(vals) < 1e-2, 0.5, vals)
        x = Tensor(vals, requires_grad=True, dtype=np.float64)
        assert max_grad_error(lambda: reference.sum_loss(T.relu(x)), [x]) < 1e-5

    def test_requires_float64(self):
        x = Tensor(np.zeros((1, 1, 2, 2), np.float32), requires_grad=True)
        with pytest.raises(UsageError):
            max_grad_error(lambda: reference.sum_loss(x), [x])

    def test_nan_produces_numerics_error(self):
        x = Tensor(np.full((1, 1, 1, 1), -1.0), requires_grad=True, dtype=np.float64)
        with pytest.raises(NumericsError):
            max_grad_error(lambda: T.log(x), [x])

    @pytest.mark.parametrize("name", ["conv2d", "conv_transpose", "gap", "resize", "sigmoid"])
    def test_random_small_inputs_under_1e5(self, name):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        if name == "conv2d":
            w = Tensor(rng.normal(size=(3, 4, 3, 3)), dtype=np.float64)
            f = lambda x: T.reduce_mean(T.mul(T.conv2d(x, w, padding=1), T.conv2d(x, w, padding=1)))
            x = Tensor(rng.normal(size=(2, 4, 6, 6)), dtype=np.float64)
        elif name == "conv_transpose":
            w = Tensor(rng.normal(size=(4, 2, 4, 4)), dtype=np.float64)
            f = lambda x: T.reduce_mean(T.mul(T.conv_transpose2d(x, w, stride=2, padding=1),
                                              T.conv_transpose2d(x, w, stride=2, padding=1)))
            x = Tensor(rng.normal(size=(1, 4, 5, 5)), dtype=np.float64)
        elif name == "gap":
            f = lambda x: T.reduce_mean(T.mul(T.global_avg_pool(x), T.global_avg_pool(x)))
            x = Tensor(rng.normal(size=(2, 4, 6, 6)), dtype=np.float64)
        elif name == "resize":
            f = lambda x: T.reduce_mean(T.mul(T.resize_bilinear(x, 9, 5), T.resize_bilinear(x, 9, 5)))
            x = Tensor(rng.normal(size=(2, 2, 6, 6)), dtype=np.float64)
        else:
            f = lambda x: T.reduce_mean(T.mul(T.sigmoid(x), x))
            x = Tensor(rng.normal(size=(2, 4, 6, 6)), dtype=np.float64)
        probe = Tensor(x.data, requires_grad=True)
        assert max_grad_error(lambda: f(probe), [probe]) < 1e-5


class TestPublicSurface:
    def test_every_public_function_has_a_caller_in_the_package(self):
        # tensor.py holds the tape and the ops the program runs; a function
        # only the gradient checks or the tests call belongs with them
        source = Path(T.__file__)
        public = {node.name for node in ast.parse(source.read_text()).body
                  if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
        called = set()
        for path in source.parent.glob("*.py"):
            if path.name in ("tensor.py", "gradchecks.py"):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    called.add(getattr(node.func, "id", getattr(node.func, "attr", None)))
        assert sorted(public - called) == []
