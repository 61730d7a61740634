"""Finite-difference verification suite over primitive ops, composite blocks,
and a micro end-to-end model. Everything runs in float64."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .blocks import ConvBlock, Resampler, ResidualStage, RfbBlock, SqueezeExcite
from .gmsrf import GmsrfModule
from .losses import total_loss
from .network import ModelConfig, SegmentationModel
from .tensor import Tensor, max_grad_error, reduce_mean

OP_TOL = 1e-5
MODEL_TOL = 1e-4

MICRO_CONFIG = ModelConfig(
    input_size=32,
    encoder_widths=(4, 8, 8, 8),
    rfb_channels=4,
    growth=2,
    layers_per_module=2,
    num_modules=1,
    seed=7,
)


@dataclass
class CheckResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self):
        return self.max_error < self.tolerance


def _rand(rng, shape):
    return Tensor(rng.normal(0.0, 1.0, shape), requires_grad=True, dtype=np.float64)


def _away_from_kink(rng, shape, margin=1e-2):
    """Random values kept at least `margin` from zero (relu/leaky probing)."""
    x = rng.normal(0.0, 1.0, shape)
    x = np.where(np.abs(x) < margin, np.sign(x) * 2 * margin + margin, x)
    return Tensor(x, requires_grad=True, dtype=np.float64)


def _sq_mean(y):
    """Nonlinear scalar readout so gradcheck exercises the chain rule."""
    return reduce_mean(T.mul(y, y))


def jitter_parameters(layer, rng, scale=0.05):
    """Randomize parameters in place; zero-initialized biases and norm shifts
    would otherwise park activations exactly on the leaky-relu kink, where
    finite differences are meaningless."""
    for _, p in layer.named_parameters():
        p.data += rng.normal(0.0, scale, p.shape)


def _check(name, f, inputs, tol=OP_TOL, max_coords=None, rng=None):
    err = max_grad_error(f, inputs, max_coords=max_coords, rng=rng)
    return CheckResult(name, err, tol)


def op_checks(rng):
    results = []
    x = _rand(rng, (2, 3, 6, 6))
    w = _rand(rng, (4, 3, 3, 3))
    b = _rand(rng, (1, 4, 1, 1))
    results.append(_check("conv2d_3x3_p1", lambda: _sq_mean(T.conv2d(x, w, b, 1, 1)), [x, w, b]))
    results.append(_check("conv2d_stride2", lambda: _sq_mean(T.conv2d(x, w, b, 2, 1)), [x, w, b]))
    results.append(_check("conv2d_dilated", lambda: _sq_mean(T.conv2d(x, w, b, 1, 2, 2)), [x, w, b]))
    results.append(_check("conv2d_dilated_d3", lambda: _sq_mean(T.conv2d(x, w, b, 1, 3, 3)), [x, w, b]))
    w1 = _rand(rng, (4, 3, 1, 1))
    results.append(_check("conv2d_1x1", lambda: _sq_mean(T.conv2d(x, w1, b)), [x, w1, b]))

    xt = _rand(rng, (2, 3, 4, 4))
    wt = _rand(rng, (3, 4, 4, 4))
    bt = _rand(rng, (1, 4, 1, 1))
    results.append(_check(
        "conv_transpose2d_s2_p1",
        lambda: _sq_mean(T.conv_transpose2d(xt, wt, bt, 2, 1)), [xt, wt, bt]))

    a = _rand(rng, (2, 2, 4, 4))
    c = _rand(rng, (2, 3, 4, 4))
    results.append(_check("concat_channels", lambda: _sq_mean(T.concat_channels([a, c])), [a, c]))

    y2 = _rand(rng, (2, 2, 4, 4))
    results.append(_check("add", lambda: _sq_mean(T.add(a, y2)), [a, y2]))
    results.append(_check("mul", lambda: reduce_mean(T.mul(a, y2)), [a, y2]))
    d = Tensor(rng.uniform(0.5, 2.0, (2, 2, 4, 4)), requires_grad=True, dtype=np.float64)
    results.append(_check("divide", lambda: reduce_mean(T.divide(a, d)), [a, d]))

    k = _away_from_kink(rng, (2, 3, 5, 5))
    results.append(_check("relu", lambda: _sq_mean(T.relu(k)), [k]))
    results.append(_check("leaky_relu", lambda: _sq_mean(T.leaky_relu(k)), [k]))
    s = _rand(rng, (2, 3, 5, 5))
    results.append(_check("sigmoid", lambda: _sq_mean(T.sigmoid(s)), [s]))

    bx = _rand(rng, (3, 4, 5, 5))
    gamma = Tensor(rng.uniform(0.5, 1.5, (1, 4, 1, 1)), requires_grad=True, dtype=np.float64)
    beta = Tensor(rng.normal(0, 0.2, (1, 4, 1, 1)), requires_grad=True, dtype=np.float64)
    state = T.BatchNormState(4, np.float64)
    results.append(_check(
        "batch_norm_train",
        lambda: _sq_mean(T.batch_norm(bx, gamma, beta, state, True)),
        [bx, gamma, beta]))
    results.append(_check(
        "batch_norm_eval",
        lambda: _sq_mean(T.batch_norm(bx, gamma, beta, state, False)),
        [bx, gamma, beta]))

    g = _rand(rng, (2, 3, 4, 6))
    results.append(_check("global_avg_pool", lambda: _sq_mean(T.global_avg_pool(g)), [g]))

    lx = _rand(rng, (3, 5, 1, 1))
    lw = _rand(rng, (2, 5, 1, 1))
    lb = _rand(rng, (1, 2, 1, 1))
    results.append(_check("linear", lambda: _sq_mean(T.linear(lx, lw, lb)), [lx, lw, lb]))

    r = _rand(rng, (2, 2, 4, 4))
    results.append(_check("resize_bilinear_up", lambda: _sq_mean(T.resize_bilinear(r, 7, 9)), [r]))
    results.append(_check("resize_bilinear_down", lambda: _sq_mean(T.resize_bilinear(r, 2, 3)), [r]))

    p = Tensor(rng.uniform(0.1, 0.9, (2, 1, 4, 4)), requires_grad=True, dtype=np.float64)
    results.append(_check("log", lambda: reduce_mean(T.log(p)), [p]))
    results.append(_check("clamp_interior", lambda: _sq_mean(T.clamp(p, 0.0, 1.0)), [p]))
    results.append(_check("scale_shift", lambda: _sq_mean(T.scale_shift(p, 2.5, -0.5)), [p]))
    results.append(_check("reduce_sum", lambda: T.scale_shift(T.reduce_sum(T.mul(p, p)), 0.5, 0.0), [p]))
    results.append(_check("reduce_sum_per_image", lambda: _sq_mean(T.reduce_sum_per_image(p)), [p]))
    bb = _rand(rng, (2, 3, 1, 1))
    results.append(_check("broadcast_spatial", lambda: _sq_mean(T.broadcast_spatial(bb, 4, 5)), [bb]))
    return results


def block_checks(rng):
    results = []
    f64 = np.float64

    cb = ConvBlock(rng, 3, 4, 3, padding=1, dtype=f64)
    jitter_parameters(cb, rng)
    x = _rand(rng, (2, 3, 6, 6))
    results.append(_check("conv_block", lambda: _sq_mean(cb(x)), [x] + cb.parameters(),
                          max_coords=60, rng=rng))

    se = SqueezeExcite(rng, 6, reduction=3, dtype=f64)
    jitter_parameters(se, rng)
    xs = _rand(rng, (2, 6, 4, 4))
    results.append(_check("squeeze_excite", lambda: _sq_mean(se(xs)), [xs] + se.parameters(),
                          max_coords=60, rng=rng))

    up = Resampler(rng, 3, 3, 1, dtype=f64)
    jitter_parameters(up, rng)
    xu = _rand(rng, (1, 3, 2, 2))
    results.append(_check("resampler_up2", lambda: _sq_mean(up(xu)), [xu] + up.parameters(),
                          max_coords=60, rng=rng))

    down = Resampler(rng, 3, 1, 3, dtype=f64)
    jitter_parameters(down, rng)
    xd = _rand(rng, (1, 3, 8, 8))
    results.append(_check("resampler_down2", lambda: _sq_mean(down(xd)), [xd] + down.parameters(),
                          max_coords=60, rng=rng))

    rfb = RfbBlock(rng, 6, 4, dtype=f64)
    jitter_parameters(rfb, rng)
    xr = _rand(rng, (1, 6, 12, 12))
    results.append(_check("rfb_reduce", lambda: _sq_mean(rfb(xr)), [xr] + rfb.parameters(),
                          max_coords=40, rng=rng))

    stage = ResidualStage(rng, 3, 5, downsample=True, dtype=f64)
    jitter_parameters(stage, rng)
    xst = _rand(rng, (1, 3, 8, 8))
    results.append(_check("residual_stage", lambda: _sq_mean(stage(xst)), [xst] + stage.parameters(),
                          max_coords=40, rng=rng))

    module = GmsrfModule(rng, channels=4, growth=2, num_layers=2, dtype=f64)
    jitter_parameters(module, rng)
    bundle = [_rand(rng, (1, 4, 8, 8)), _rand(rng, (1, 4, 4, 4)),
              _rand(rng, (1, 4, 2, 2)), _rand(rng, (1, 4, 1, 1))]

    def module_loss():
        outs = module(tuple(bundle))
        return _sq_mean(T.concat_channels([T.resize_bilinear(o, 8, 8) for o in outs]))

    results.append(_check("gmsrf_module", module_loss, bundle + module.parameters(),
                          tol=MODEL_TOL, max_coords=10, rng=rng))
    return results


def model_checks(rng):
    model = SegmentationModel(MICRO_CONFIG, dtype=np.float64)
    jitter_parameters(model, rng)
    model.set_training(True)
    data_rng = np.random.default_rng(11)
    image = Tensor(data_rng.uniform(0.0, 1.0, (1, 3, 32, 32)),
                   requires_grad=True, dtype=np.float64)
    target = (data_rng.uniform(0, 1, (1, 1, 32, 32)) > 0.7).astype(np.float64)

    def f():
        return total_loss(model(image), target)

    err = max_grad_error(f, [image] + model.parameters(), max_coords=6, rng=rng)
    return [CheckResult("micro_model_end_to_end", err, MODEL_TOL)]


def run_suite(scope="op", seed=0):
    """Run the requested scope; returns CheckResult rows."""
    rng = np.random.default_rng(seed)
    if scope == "op":
        return op_checks(rng)
    if scope == "block":
        return block_checks(rng)
    if scope == "model":
        return model_checks(rng)
    raise ValueError(f"unknown gradcheck scope {scope!r}")
