"""Fusion module: attention maps, dense fusion widths, channel selection,
residual identity, stacking."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmsrfnet import tensor as T
from gmsrfnet.errors import ShapeError
from gmsrfnet.gmsrf import SCALES, CrossScaleAttention, GmsrfModule
from gmsrfnet.gradchecks import max_grad_error
from gmsrfnet.tensor import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(200)


def make_bundle(rng, c0, base=16, batch=1, dtype=np.float32):
    return tuple(
        Tensor(rng.normal(size=(batch, c0, base >> i, base >> i)).astype(dtype))
        for i in range(4)
    )


def zero_module_branches(module):
    """Zero every fusion/attention/transition branch so only the residual
    path remains; transition BN gamma is zeroed to silence eval-mode stats."""
    for blocks in (module.initial, module.transition):
        for b in blocks:
            b.weight.data[:] = 0
    for per_scale in module.fusion:
        for b in per_scale:
            b.weight.data[:] = 0
    for per_scale in module.attention:
        for att in per_scale:
            for p in att.parameters():
                p.data[:] = 0
    for b in module.transition:
        b.bn.gamma.data[:] = 0


class TestCmsa:
    def test_zero_inputs_give_half(self, rng):
        att = CrossScaleAttention(rng, growth=4, target_scale=1)
        others = [Tensor(np.zeros((1, 4, 8 >> i, 8 >> i), np.float32)) for i in range(3)]
        out = att(att.resample(others))
        np.testing.assert_array_equal(out.data, 0.5)

    def test_output_shape(self, rng):
        att = CrossScaleAttention(rng, growth=8, target_scale=1)
        others = [Tensor(rng.normal(size=(1, 8, 8, 8)).astype(np.float32)),
                  Tensor(rng.normal(size=(1, 8, 4, 4)).astype(np.float32)),
                  Tensor(rng.normal(size=(1, 8, 2, 2)).astype(np.float32))]
        assert att(att.resample(others)).shape == (1, 8, 16, 16)

    def test_values_strictly_in_unit_interval(self, rng):
        att = CrossScaleAttention(rng, growth=4, target_scale=2)
        others = [Tensor(rng.normal(size=(1, 4, 16, 16)).astype(np.float32)),
                  Tensor(rng.normal(size=(1, 4, 4, 4)).astype(np.float32)),
                  Tensor(rng.normal(size=(1, 4, 2, 2)).astype(np.float32))]
        out = att(att.resample(others)).data
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_wrong_arity_raises(self, rng):
        att = CrossScaleAttention(rng, growth=4, target_scale=1)
        with pytest.raises(ShapeError):
            att.resample([Tensor(np.zeros((1, 4, 8, 8), np.float32))])


class TestFusionLayer:
    def test_channel_arithmetic_l2(self, rng):
        c0, k = 32, 8
        module = GmsrfModule(rng, channels=c0, growth=k, num_layers=2)
        module(make_bundle(rng, c0, base=8))
        for s in SCALES:
            assert module.fusion[s - 1][0].weight.shape[1] == 64
        y = module.fusion[0][0](Tensor(rng.normal(size=(1, 64, 8, 8)).astype(np.float32)))
        assert y.shape == (1, k, 8, 8)


class TestInitialLayer:
    def test_maps_c0_to_growth_and_preserves_space(self, rng):
        module = GmsrfModule(rng, channels=32, growth=8, num_layers=2)
        x = Tensor(rng.normal(size=(1, 32, 16, 16)).astype(np.float32))
        y = module.initial[0](x)
        assert y.shape == (1, 8, 16, 16)

    def test_deterministic_given_fixed_params(self, rng):
        module = GmsrfModule(rng, channels=4, growth=2, num_layers=2)
        x = Tensor(rng.normal(size=(1, 4, 8, 8)).astype(np.float32))
        assert np.array_equal(module.initial[0](x).data, module.initial[0](x).data)

    def test_no_cross_scale_input_at_first_layer(self, rng):
        module = GmsrfModule(rng, channels=4, growth=2, num_layers=3)
        # the initial conv consumes exactly the module input width
        for block in module.initial:
            assert block.weight.shape[1] == 4


class TestApplyAttention:
    # the module gates each fusion output by T.mul with its attention map
    def test_ones_identity(self, rng):
        x = Tensor(rng.normal(size=(1, 4, 6, 6)).astype(np.float32))
        ones = Tensor(np.ones_like(x.data))
        np.testing.assert_array_equal(T.mul(x, ones).data, x.data)

    def test_zeros_blank(self, rng):
        x = Tensor(rng.normal(size=(1, 4, 6, 6)).astype(np.float32))
        zeros = Tensor(np.zeros_like(x.data))
        assert np.all(T.mul(x, zeros).data == 0)

    def test_half_halves(self, rng):
        x = Tensor(rng.normal(size=(1, 4, 6, 6)).astype(np.float32))
        half = Tensor(np.full_like(x.data, 0.5))
        np.testing.assert_allclose(T.mul(x, half).data, x.data / 2)

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            T.mul(Tensor(np.zeros((1, 4, 6, 6))), Tensor(np.zeros((1, 4, 3, 3))))


class TestModuleForward:
    def test_shapes_preserved(self, rng):
        module = GmsrfModule(rng, channels=8, growth=4, num_layers=3)
        bundle = make_bundle(rng, 8)
        out = module(bundle)
        for a, b in zip(out, bundle):
            assert a.shape == b.shape

    def test_degenerate_single_layer(self, rng):
        module = GmsrfModule(rng, channels=8, growth=4, num_layers=1)
        out = module(make_bundle(rng, 8))
        assert sum(map(len, module.fusion)) == 0
        assert sum(map(len, module.attention)) == 0
        # selection runs over C0 + k channels
        assert module.select[0].w1.shape[1] == 8 + 4
        assert out[0].shape[1] == 8

    def test_stacking_composes(self, rng):
        m1 = GmsrfModule(rng, channels=6, growth=3, num_layers=2)
        m2 = GmsrfModule(rng, channels=6, growth=3, num_layers=2)
        out = m2(m1(make_bundle(rng, 6)))
        assert out[0].shape == (1, 6, 16, 16)

    def test_counters_match_4_lminus1(self, rng):
        for layers in (1, 2, 3, 4):
            module = GmsrfModule(rng, channels=4, growth=2, num_layers=layers)
            module(make_bundle(rng, 4, base=8))
            assert sum(map(len, module.fusion)) == 4 * (layers - 1)
            assert sum(map(len, module.attention)) == 4 * (layers - 1)

    def test_msfs_channel_arithmetic(self, rng):
        module = GmsrfModule(rng, channels=32, growth=8, num_layers=3)
        assert module.select[0].w1.shape[1] == 32 + 3 * 8  # fused width 56
        assert module.transition[0].weight.shape == (32, 56, 1, 1)

    def test_transition_zeroed_keeps_residual_exact(self, rng):
        module = GmsrfModule(rng, channels=4, growth=2, num_layers=2)
        for b in module.transition:
            b.weight.data[:] = 0
            b.bn.gamma.data[:] = 0
        bundle = make_bundle(rng, 4, base=8)
        out = module(bundle)
        for a, b in zip(out, bundle):
            np.testing.assert_array_equal(a.data, b.data)

    def test_residual_identity_with_all_branches_zeroed(self, rng):
        module = GmsrfModule(rng, channels=8, growth=4, num_layers=3)
        zero_module_branches(module)
        bundle = make_bundle(rng, 8, batch=2)
        out = module(bundle)
        for a, b in zip(out, bundle):
            assert np.array_equal(a.data, b.data)

    def test_wrong_channels_raises(self, rng):
        module = GmsrfModule(rng, channels=8, growth=4)
        bundle = make_bundle(rng, 6)
        with pytest.raises(ShapeError):
            module(bundle)

    def test_bad_halving_raises(self, rng):
        module = GmsrfModule(rng, channels=4, growth=2)
        bundle = list(make_bundle(rng, 4))
        bundle[1] = Tensor(np.zeros((1, 4, 6, 6), np.float32))
        with pytest.raises(ShapeError):
            module(tuple(bundle))

    def test_gradcheck_micro_module(self, rng):
        from gmsrfnet.gradchecks import jitter_parameters

        module = GmsrfModule(rng, channels=4, growth=2, num_layers=2).astype(np.float64)
        jitter_parameters(module, rng)
        bundle = [
            Tensor(rng.normal(size=(1, 4, 8, 8)), requires_grad=True, dtype=np.float64),
            Tensor(rng.normal(size=(1, 4, 4, 4)), requires_grad=True, dtype=np.float64),
            Tensor(rng.normal(size=(1, 4, 2, 2)), requires_grad=True, dtype=np.float64),
            Tensor(rng.normal(size=(1, 4, 1, 1)), requires_grad=True, dtype=np.float64),
        ]

        def f():
            outs = module(tuple(bundle))
            up = [T.resize_bilinear(o, 8, 8) for o in outs]
            return T.reduce_mean(T.mul(T.concat_channels(up), T.concat_channels(up)))

        err = max_grad_error(f, bundle + module.parameters(), max_coords=12, rng=rng)
        assert err < 1e-4


class TestChannelLaw:
    @settings(max_examples=20, deadline=None)
    @given(c0=st.integers(1, 12), k=st.integers(1, 6), layers=st.integers(2, 4))
    def test_fusion_width_formula(self, c0, k, layers):
        rng = np.random.default_rng(c0 * 100 + k * 10 + layers)
        module = GmsrfModule(rng, channels=c0, growth=k, num_layers=layers)
        module(make_bundle(rng, c0, base=8))  # runs only if every width fits
        for per_scale in module.fusion:
            for idx, conv in enumerate(per_scale):
                l = idx + 2
                assert conv.weight.shape[1] == c0 + (l - 1) * k + 3 * k
