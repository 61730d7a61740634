"""Tensor core: op semantics, tape behavior, and gradient checking."""
import numpy as np
import pytest

from gmsrfnet import tensor as T
from gmsrfnet.errors import NumericsError, ShapeError, StateError, UsageError
from gmsrfnet.tensor import Tensor, backward, finite_diff_gradcheck, max_grad_error

import reference


def t(data, **kw):
    arr = np.asarray(data, dtype=np.float32)
    while arr.ndim < 4:
        arr = arr[None]
    return Tensor(arr, **kw)


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
        ((3, 3), 2, 1, 1, 7),   # strided scatter, odd input
        ((1, 1), 2, 0, 1, 7),
        ((3, 3), 1, 3, 1, 5),   # padding beyond d*(K-1): the gradient is cropped
        ((1, 3), 1, 1, 1, 6),   # rows cropped, columns padded
    ])
    def test_input_gradient_matches_loop_adjoint(self, kernel, stride, padding, dilation, size):
        rng = np.random.default_rng(sum(kernel) + 10 * stride + 100 * padding + 1000 * dilation)
        x = Tensor(rng.normal(size=(2, 3, size, size)), requires_grad=True, dtype=np.float64)
        w = Tensor(rng.normal(size=(4, 3) + kernel), dtype=np.float64)
        y = T.conv2d(x, w, stride=stride, padding=padding, dilation=dilation)
        g = rng.normal(size=y.shape)
        backward(T.reduce_sum(T.mul(y, Tensor(g))))
        expected = reference.conv2d_input_grad_loops(g, w.data, x.shape, stride, padding, dilation)
        np.testing.assert_allclose(x.grad, expected, rtol=1e-12, atol=1e-12)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            T.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))

    def test_non_positive_output_raises(self):
        with pytest.raises(ShapeError):
            T.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 3, 3))))

    def test_bad_stride_raises(self):
        with pytest.raises(UsageError):
            T.conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 3, 3))), stride=0)


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
            sliced = T.slice_channels(cat, offset, offset + p.shape[1])
            assert np.array_equal(sliced.data, p.data)
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

    def test_elementwise_dispatch(self):
        x = t([[2.0]])
        y = t([[4.0]])
        assert T.elementwise(x, y, "add").item() == 6.0
        assert T.elementwise(x, y, "mul").item() == 8.0
        with pytest.raises(UsageError):
            T.elementwise(x, y, "pow")


class TestActivations:
    def test_sigmoid_zero(self):
        assert T.sigmoid(t([[0.0]])).item() == 0.5

    def test_relu(self):
        y = T.relu(t([[-1.0, 3.0]]))
        assert np.array_equal(y.data.ravel(), [0.0, 3.0])

    def test_leaky(self):
        y = T.leaky_relu(t([[-2.0]]), alpha=0.1)
        assert abs(y.item() + 0.2) < 1e-7

    def test_sigmoid_open_interval_extremes(self):
        x = t([[-500.0, -100.0, 0.0, 100.0, 500.0]])
        y = T.sigmoid(x).data
        assert np.all(y > 0.0) and np.all(y < 1.0)

    def test_sigmoid_open_interval_float64(self):
        x = Tensor(np.array([[[[ -800.0, 800.0]]]]), dtype=np.float64)
        y = T.sigmoid(x).data
        assert np.all(y > 0.0) and np.all(y < 1.0)

    def test_activation_dispatch_linear(self):
        x = t([[1.5]])
        assert T.activation(x, "linear") is x


class TestBatchNorm:
    def test_two_value_normalization(self):
        x = Tensor(np.array([1.0, 3.0], np.float32).reshape(2, 1, 1, 1))
        gamma, beta = T.vector([1.0]), T.vector([0.0])
        state = T.BatchNormState(1)
        y = T.batch_norm(x, gamma, beta, state, training=True)
        expected = reference.batchnorm_loops(x.data, [1.0], [0.0])
        np.testing.assert_allclose(y.data, expected, rtol=1e-6)
        np.testing.assert_allclose(y.data.ravel(), [-0.99999, 0.99999], atol=1e-4)

    def test_standardized_input_near_identity(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(4, 2, 8, 8)).astype(np.float32)
        raw -= raw.mean(axis=(0, 2, 3), keepdims=True)
        raw /= raw.std(axis=(0, 2, 3), keepdims=True)
        x = Tensor(raw)
        y = T.batch_norm(x, T.vector([1, 1]), T.vector([0, 0]), T.BatchNormState(2), True)
        np.testing.assert_allclose(y.data, raw, atol=1e-4)

    def test_beta_shift(self):
        x = Tensor(np.random.default_rng(6).normal(size=(2, 1, 3, 3)).astype(np.float32))
        y = T.batch_norm(x, T.vector([0.0]), T.vector([5.0]), T.BatchNormState(1), True)
        np.testing.assert_allclose(y.data, 5.0, rtol=1e-6)

    def test_eval_before_train_raises(self):
        x = Tensor(np.zeros((1, 1, 2, 2)))
        with pytest.raises(StateError):
            T.batch_norm(x, T.vector([1.0]), T.vector([0.0]), T.BatchNormState(1), False)

    def test_eval_uses_running_stats(self):
        rng = np.random.default_rng(7)
        state = T.BatchNormState(1)
        gamma, beta = T.vector([1.0]), T.vector([0.0])
        for _ in range(200):
            x = Tensor(rng.normal(2.0, 3.0, size=(8, 1, 4, 4)).astype(np.float32))
            T.batch_norm(x, gamma, beta, state, True)
        probe = Tensor(np.full((1, 1, 1, 1), 2.0, np.float32))
        y = T.batch_norm(probe, gamma, beta, state, False)
        assert abs(y.item()) < 0.2  # mean input maps near zero

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            T.batch_norm(Tensor(np.zeros((1, 2, 2, 2))), T.vector([1.0]), T.vector([0.0]),
                         T.BatchNormState(2), True)


class TestPoolLinearResize:
    def test_gap_mean(self):
        assert T.global_avg_pool(t([[1, 2], [3, 4]])).item() == 2.5

    def test_gap_constant(self):
        x = Tensor(np.full((2, 3, 5, 5), 7.25, np.float32))
        np.testing.assert_array_equal(T.global_avg_pool(x).data.ravel(), 7.25)

    def test_gap_gradient_distributes(self):
        x = Tensor(np.random.default_rng(8).normal(size=(1, 1, 4, 4)).astype(np.float32),
                   requires_grad=True)
        backward(T.reduce_sum(T.global_avg_pool(x)))
        np.testing.assert_allclose(x.grad, 1.0 / 16.0, rtol=1e-6)

    def test_linear_identity(self):
        x = Tensor(np.random.default_rng(9).normal(size=(2, 3, 1, 1)).astype(np.float32))
        w = Tensor(np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1))
        np.testing.assert_allclose(T.linear(x, w).data, x.data, rtol=1e-6)

    def test_linear_sum_row(self):
        x = Tensor(np.array([2.0, 3.0], np.float32).reshape(1, 2, 1, 1))
        w = Tensor(np.ones((1, 2, 1, 1), np.float32))
        assert T.linear(x, w).item() == 5.0

    def test_linear_bias_only(self):
        x = Tensor(np.random.default_rng(10).normal(size=(2, 3, 1, 1)).astype(np.float32))
        w = Tensor(np.zeros((2, 3, 1, 1), np.float32))
        b = T.vector([1.5, -2.5])
        y = T.linear(x, w, b)
        np.testing.assert_array_equal(y.data[:, 0], 1.5)
        np.testing.assert_array_equal(y.data[:, 1], -2.5)

    def test_linear_requires_1x1(self):
        with pytest.raises(ShapeError):
            T.linear(Tensor(np.zeros((1, 2, 2, 2))), Tensor(np.zeros((2, 2, 1, 1))))

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


class TestBackward:
    def test_product_gradient(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(1, 2, 3, 3)).astype(np.float32), requires_grad=True)
        y = Tensor(rng.normal(size=(1, 2, 3, 3)).astype(np.float32))
        backward(T.reduce_sum(T.mul(x, y)))
        np.testing.assert_allclose(x.grad, y.data, rtol=1e-6)

    def test_sigmoid_at_zero_grad_quarter(self):
        w = Tensor(np.zeros((1, 1, 1, 1), np.float32), requires_grad=True)
        backward(T.reduce_sum(T.sigmoid(w)))
        assert abs(w.grad.item() - 0.25) < 1e-7

    def test_non_scalar_loss_raises(self):
        x = Tensor(np.zeros((1, 1, 2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            backward(T.mul(x, x))

    def test_double_backward_raises(self):
        x = Tensor(np.zeros((1, 1, 1, 1)), requires_grad=True)
        loss = T.reduce_sum(T.mul(x, x))
        backward(loss)
        with pytest.raises(StateError):
            backward(loss)

    def test_unreachable_leaf_gets_zero_grad(self):
        x = Tensor(np.ones((1, 1, 1, 1)), requires_grad=True)
        z = Tensor(np.ones((1, 1, 1, 1)), requires_grad=True)
        T.mul(z, z)  # recorded but unreachable from the loss below
        loss = T.reduce_sum(T.mul(x, x))
        backward(loss)
        assert z.grad is not None and np.all(z.grad == 0.0)
        assert np.all(x.grad == 2.0)

    def test_no_grad_for_requires_grad_false(self):
        x = Tensor(np.ones((1, 1, 1, 1)), requires_grad=True)
        y = Tensor(np.ones((1, 1, 1, 1)))
        backward(T.reduce_sum(T.mul(x, y)))
        assert y.grad is None

    def test_no_grad_context_suppresses_recording(self):
        x = Tensor(np.ones((1, 1, 1, 1)), requires_grad=True)
        with T.no_grad():
            y = T.mul(x, x)
        assert y.graph is None and not y.requires_grad

    def test_fanout_accumulation(self):
        x = Tensor(np.full((1, 1, 1, 1), 3.0, np.float32), requires_grad=True)
        y = T.add(T.mul(x, x), T.mul(x, x))
        backward(T.reduce_sum(y))
        assert abs(x.grad.item() - 12.0) < 1e-6  # d/dx 2x^2 = 4x

    def test_loss_without_graph_raises(self):
        with pytest.raises(StateError):
            backward(Tensor(np.zeros((1, 1, 1, 1))))

    def test_composite_conv_sigmoid_matches_finite_diff(self):
        rng = np.random.default_rng(14)
        w = Tensor(rng.normal(size=(2, 3, 3, 3)), dtype=np.float64)

        def f(x):
            return T.reduce_sum(T.sigmoid(T.conv2d(x, Tensor(w.data), padding=1)))

        x0 = Tensor(rng.normal(size=(1, 3, 5, 5)), dtype=np.float64)
        assert finite_diff_gradcheck(f, x0) < 1e-5


class TestThreadIsolation:
    def test_independent_graphs_per_thread(self):
        # two threads run forward+backward on their own leaves; tapes are
        # thread-local so gradients match the single-threaded result
        import threading

        results = {}

        def work(tag, seed):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.normal(size=(1, 2, 4, 4)).astype(np.float32), requires_grad=True)
            y = Tensor(rng.normal(size=(1, 2, 4, 4)).astype(np.float32))
            backward(T.reduce_sum(T.mul(x, y)))
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
        x = Tensor(np.random.default_rng(16).normal(size=(1, 2, 3, 3)), dtype=np.float64)
        err = finite_diff_gradcheck(lambda v: T.reduce_sum(T.scale_shift(v, 3.0, 1.0)), x,
                                    h_scale=1e-3)
        assert err < 1e-10

    def test_conv_bn_sigmoid_pipeline(self):
        rng = np.random.default_rng(17)
        w = Tensor(rng.normal(size=(2, 2, 3, 3)), dtype=np.float64, requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, (1, 2, 1, 1)), dtype=np.float64, requires_grad=True)
        beta = Tensor(rng.normal(size=(1, 2, 1, 1)), dtype=np.float64, requires_grad=True)
        state = T.BatchNormState(2, np.float64)
        x = Tensor(rng.normal(size=(2, 2, 5, 5)), dtype=np.float64, requires_grad=True)

        def f():
            y = T.conv2d(x, w, padding=1)
            y = T.batch_norm(y, gamma, beta, state, True)
            return T.reduce_mean(T.sigmoid(y))

        assert max_grad_error(f, [x, w, gamma, beta]) < 1e-5

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(18)
        vals = rng.normal(size=(1, 2, 4, 4))
        vals = np.where(np.abs(vals) < 1e-2, 0.5, vals)
        x = Tensor(vals, dtype=np.float64)
        assert finite_diff_gradcheck(lambda v: T.reduce_sum(T.relu(v)), x) < 1e-5

    def test_requires_float64(self):
        x = Tensor(np.zeros((1, 1, 2, 2), np.float32))
        with pytest.raises(UsageError):
            finite_diff_gradcheck(lambda v: T.reduce_sum(v), x)

    def test_nan_produces_numerics_error(self):
        x = Tensor(np.full((1, 1, 1, 1), -1.0), dtype=np.float64)
        with pytest.raises(NumericsError):
            finite_diff_gradcheck(lambda v: T.log(v), x)

    @pytest.mark.parametrize("name", ["conv2d", "conv_transpose", "gap", "resize", "sigmoid"])
    def test_random_small_inputs_under_1e5(self, name):
        rng = np.random.default_rng(abs(hash(name)) % 2**31)
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
        assert finite_diff_gradcheck(f, x) < 1e-5
