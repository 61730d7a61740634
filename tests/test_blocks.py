"""Composite blocks: conv blocks, squeeze-excitation, resamplers, receptive
field reduction, residual stages."""
import numpy as np
import pytest

from gmsrfnet import tensor as T
from gmsrfnet.blocks import BatchNorm2d, ConvBlock, Resampler, ResidualStage, RfbBlock, SqueezeExcite
from gmsrfnet.errors import ShapeError, UsageError
from gmsrfnet.gradchecks import max_grad_error
from gmsrfnet.tensor import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(100)


class TestConvBlock:
    def test_same_padding_contract(self, rng):
        block = ConvBlock(rng, 8, 5, 3, padding=1)
        y = block(Tensor(rng.normal(size=(1, 8, 16, 16)).astype(np.float32)))
        assert y.shape == (1, 5, 16, 16)

    def test_identity_configuration(self, rng):
        # 1x1 identity kernel, frozen identity-like BN, linear activation
        block = ConvBlock(rng, 3, 3, 1, act="linear")
        block.weight.data[:] = np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1)
        block.bn.running_mean[:] = 0
        block.bn.running_var[:] = 1
        block.bn.num_updates[:] = 1
        block.set_training(False)
        x = Tensor(rng.normal(size=(2, 3, 5, 5)).astype(np.float32))
        np.testing.assert_allclose(block(x).data, x.data, atol=1e-4)

    def test_bias_only_without_norm(self, rng):
        arena = ConvBlock(rng, 2, 3, 3).arena
        assert arena.names[: len(arena.tensors)] == ["weight", "bn.gamma", "bn.beta"]
        arena = ConvBlock(rng, 2, 3, 1, act="linear", norm=False).arena
        assert arena.names[: len(arena.tensors)] == ["weight", "bias"]

    def test_normalized_block_rejects_other_activations(self, rng):
        block = ConvBlock(rng, 2, 3, 3, act="sigmoid")
        with pytest.raises(UsageError):
            block(Tensor(rng.normal(size=(1, 2, 5, 5)).astype(np.float32)))
        # an un-normalized block has no activation at all
        with pytest.raises(UsageError):
            ConvBlock(rng, 2, 3, 1, act="sigmoid", norm=False)

    def test_stride_two_halves(self, rng):
        block = ConvBlock(rng, 4, 4, 3, stride=2, padding=1)
        y = block(Tensor(rng.normal(size=(1, 4, 16, 16)).astype(np.float32)))
        assert y.shape[2:] == (8, 8)

    def test_gradcheck(self, rng):
        block = ConvBlock(rng, 2, 3, 3, padding=1).astype(np.float64)
        x = Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True, dtype=np.float64)
        err = max_grad_error(lambda: T.reduce_mean(T.mul(block(x), block(x))),
                             [x] + block.parameters())
        assert err < 1e-5


class TestSqueezeExcite:
    def test_saturated_gate_is_identity(self, rng):
        se = SqueezeExcite(rng, 4, reduction=2)
        se.w2.data[:] = 0
        se.b2.data[:] = 100.0  # gate logits saturate toward 1
        x = Tensor(rng.normal(size=(2, 4, 5, 5)).astype(np.float32))
        np.testing.assert_allclose(se(x).data, x.data, atol=1e-5)

    def test_zero_weights_halve(self, rng):
        se = SqueezeExcite(rng, 4, reduction=2)
        for p in se.parameters():
            p.data[:] = 0
        x = Tensor(rng.normal(size=(2, 4, 5, 5)).astype(np.float32))
        np.testing.assert_allclose(se(x).data, x.data / 2.0, rtol=1e-6)

    @pytest.mark.parametrize("shape", [(1, 3, 4, 4), (2, 8, 2, 6), (3, 1, 1, 1)])
    def test_shape_preserved(self, rng, shape):
        se = SqueezeExcite(rng, shape[1])
        x = Tensor(rng.normal(size=shape).astype(np.float32))
        assert se(x).shape == x.shape

    def test_gate_never_amplifies(self, rng):
        se = SqueezeExcite(rng, 6)
        x = Tensor(rng.normal(size=(2, 6, 8, 8)).astype(np.float32))
        y = se(x)
        assert np.all(np.abs(y.data) <= np.abs(x.data) + 1e-7)

    def test_hidden_width_floor(self, rng):
        se = SqueezeExcite(rng, 2, reduction=8)
        assert se.w1.shape[0] == 1  # max(1, 2 // 8)


class TestResampler:
    def test_up_one_scale(self, rng):
        r = Resampler(rng, 4, 2, 1)
        y = r(Tensor(rng.normal(size=(1, 4, 8, 8)).astype(np.float32)))
        assert y.shape == (1, 4, 16, 16)
        assert len(r.stages) == 1

    def test_down_two_scales(self, rng):
        r = Resampler(rng, 4, 1, 3)
        y = r(Tensor(rng.normal(size=(1, 4, 16, 16)).astype(np.float32)))
        assert y.shape == (1, 4, 4, 4)
        assert len(r.stages) == 2

    def test_same_scale_passthrough(self, rng):
        r = Resampler(rng, 4, 2, 2)
        x = Tensor(rng.normal(size=(1, 4, 8, 8)).astype(np.float32))
        assert r(x) is x

    def test_odd_size_down_raises(self, rng):
        r = Resampler(rng, 2, 1, 2)
        with pytest.raises(ShapeError):
            r(Tensor(np.zeros((1, 2, 7, 8), np.float32)))

    @pytest.mark.parametrize("a,b", [(1, 3), (4, 2), (2, 1)])
    def test_round_trip_restores_size(self, rng, a, b):
        fwd = Resampler(rng, 3, a, b)
        back = Resampler(rng, 3, b, a)
        size = 16 // (2 ** (a - 1))
        x = Tensor(rng.normal(size=(1, 3, size, size)).astype(np.float32))
        assert back(fwd(x)).shape == x.shape


def branch_widths(rfb):
    return tuple(b.weight.shape[0] for b in (rfb.branch0, rfb.branch1, rfb.branch2, rfb.branch3))


class TestRfb:
    def test_reduces_channels(self, rng):
        rfb = RfbBlock(rng, 256, 32)
        y = rfb(Tensor(rng.normal(size=(1, 256, 16, 16)).astype(np.float32)))
        assert y.shape == (1, 32, 16, 16)

    def test_branch_split_for_32(self, rng):
        assert branch_widths(RfbBlock(rng, 8, 32)) == (8, 8, 8, 8)

    def test_branch_split_remainder_to_first(self, rng):
        assert branch_widths(RfbBlock(rng, 8, 10)) == (4, 2, 2, 2)

    @pytest.mark.parametrize("cout", [1, 2, 3, 5, 9, 32])
    def test_out_channels_always_requested(self, rng, cout):
        rfb = RfbBlock(rng, 6, cout)
        y = rfb(Tensor(rng.normal(size=(1, 6, 12, 12)).astype(np.float32)))
        assert y.shape[1] == cout

    def test_spatial_preserved_all_dilations(self, rng):
        rfb = RfbBlock(rng, 4, 8)
        for size in (11, 12, 16):
            y = rfb(Tensor(rng.normal(size=(1, 4, size, size)).astype(np.float32)))
            assert y.shape[2:] == (size, size)


class TestResidualStage:
    def test_downsample_halves(self, rng):
        stage = ResidualStage(rng, 4, 8)
        y = stage(Tensor(rng.normal(size=(1, 4, 16, 16)).astype(np.float32)))
        assert y.shape == (1, 8, 8, 8)

    def test_gradcheck(self, rng):
        stage = ResidualStage(rng, 2, 3).astype(np.float64)
        x = Tensor(rng.normal(size=(1, 2, 6, 6)), requires_grad=True, dtype=np.float64)
        err = max_grad_error(lambda: T.reduce_mean(T.mul(stage(x), stage(x))),
                             [x] + stage.parameters(), max_coords=80, rng=rng)
        assert err < 1e-5


class TestBatchNorm2d:
    def test_fresh_state(self):
        bn = BatchNorm2d(5)
        for array, value in ((bn.gamma.data, 1), (bn.beta.data, 0), (bn.running_mean, 0),
                             (bn.running_var, 1)):
            assert array.shape == (1, 5, 1, 1) and array.dtype == np.float32
            assert np.array_equal(array, np.full((1, 5, 1, 1), value, np.float32))
        assert bn.num_updates.shape == (1, 1, 1, 1) and bn.num_updates.item() == 0
        assert bn.training and bn.gamma.requires_grad and bn.beta.requires_grad

    @pytest.mark.parametrize("bound", [False, True])
    def test_a_write_to_one_array_leaves_the_others(self, rng, bound):
        block = ConvBlock(rng, 2, 3, 3)
        if bound:
            block.arena  # every parameter and buffer becomes a view of the arena
        bn = block.bn
        arrays = lambda: [bn.gamma.data, bn.beta.data, bn.running_mean, bn.running_var]
        for i in range(4):
            before = [a.copy() for a in arrays()]
            arrays()[i][...] = 7.0 + i
            for j, (a, b) in enumerate(zip(arrays(), before)):
                assert np.all(a == 7.0 + i) if j == i else np.array_equal(a, b)


class TestRegistry:
    def test_names_unique_and_complete(self, rng):
        stage = ResidualStage(rng, 3, 5)
        names = stage.arena.names[: len(stage.arena.tensors)]
        assert len(names) == len(set(names))
        # conv1 w + bn, conv2 w + bn, shortcut w + bn: normalized, so no conv bias
        assert len(names) == 3 * 3

    def test_buffers_enumerated(self, rng):
        block = ConvBlock(rng, 2, 2, 3, padding=1)
        buffers = {name for name, _, _ in block.arena.slots}
        assert buffers == {"bn.running_mean", "bn.running_var", "bn.num_updates"}

    def test_set_training_recurses(self, rng):
        stage = ResidualStage(rng, 2, 2)
        stage.set_training(False)
        norms = [stage.conv1.bn, stage.conv2.bn, stage.shortcut.bn]
        assert not any(bn.training for bn in norms)
        # the mode belongs to the batch norms alone
        assert not any(hasattr(layer, "training") for layer in (stage, stage.conv1))

    def test_nested_layer_queries_go_through_the_root(self, rng):
        stage = ResidualStage(rng, 2, 3)
        params = stage.arena.params
        with pytest.raises(UsageError):
            stage.conv1.arena
        assert stage.conv1.weight.data.base is params
