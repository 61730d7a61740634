"""Finite-difference verification suite over primitive ops, composite blocks,
and a micro end-to-end model, with its checker ``max_grad_error``. Everything
runs in float64."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .blocks import BatchNorm2d, ConvBlock, Resampler, ResidualStage, RfbBlock, SqueezeExcite
from .errors import NumericsError, UsageError
from .gmsrf import GmsrfModule
from .losses import total_loss
from .network import ModelConfig, SegmentationModel
from .tensor import Tensor, backward, no_grad, reduce_mean

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


def max_grad_error(f, inputs, h_scale=1e-6, max_coords=None, rng=None):
    """Worst relative error between backward gradients of scalar ``f()`` and
    central finite differences over the given input tensors.

    Coordinates are probed exhaustively unless max_coords caps them, in which
    case a deterministic random subset per tensor is used. Inputs must be
    float64; the step per coordinate is h_scale * max(1, |x_j|) and the error
    is |analytic - numeric| / max(1, |numeric|).
    """
    for t in inputs:
        if t.data.dtype != np.float64:
            raise UsageError("gradient checking requires float64 tensors")
        if t.grad is not None:
            t.grad[...] = 0  # in place: a parameter's grad is a view of its arena
    out = f()
    if out.shape != (1, 1, 1, 1):
        raise UsageError(f"gradcheck function must return a scalar, got {out.shape}")
    backward(out)
    analytic = [
        t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in inputs
    ]
    if rng is None:
        rng = np.random.default_rng(0)

    worst = 0.0
    with no_grad():
        for t, ga in zip(inputs, analytic):
            if not np.all(np.isfinite(ga)):
                raise NumericsError("non-finite analytic gradient")
            flat = t.data.reshape(-1)
            ga_flat = ga.reshape(-1)
            if max_coords is not None and flat.size > max_coords:
                coords = rng.choice(flat.size, size=max_coords, replace=False)
            else:
                coords = range(flat.size)
            for j in coords:
                orig = flat[j]
                h = h_scale * max(1.0, abs(orig))
                flat[j] = orig + h
                f_plus = f().item()
                flat[j] = orig - h
                f_minus = f().item()
                flat[j] = orig
                if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                    raise NumericsError("non-finite value during finite differencing")
                numeric = (f_plus - f_minus) / (2.0 * h)
                err = abs(ga_flat[j] - numeric) / max(1.0, abs(numeric))
                if err > worst:
                    worst = err
    return worst


def _rand(rng, shape):
    return Tensor(rng.normal(0.0, 1.0, shape), requires_grad=True, dtype=np.float64)


def _away_from_kink(rng, shape):
    """Random values kept at least 0.01 from zero (relu probing)."""
    x = rng.normal(0.0, 1.0, shape)
    x = np.where(np.abs(x) < 1e-2, np.sign(x) * 2e-2 + 1e-2, x)
    return Tensor(x, requires_grad=True, dtype=np.float64)


def _sq_mean(y):
    """Nonlinear scalar readout so gradcheck exercises the chain rule."""
    return reduce_mean(T.mul(y, y))


def jitter_parameters(layer, rng):
    """Randomize parameters in place by N(0, 0.05); zero-initialized biases
    and norm shifts would otherwise park activations exactly on the
    leaky-relu kink, where finite differences are meaningless."""
    params = layer.arena.params
    params += rng.normal(0.0, 0.05, params.size)


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
    s = _rand(rng, (2, 3, 5, 5))
    results.append(_check("sigmoid", lambda: _sq_mean(T.sigmoid(s)), [s]))

    bx = _rand(rng, (3, 4, 5, 5))
    bn = BatchNorm2d(4).astype(np.float64)
    bn.gamma.data[...] = rng.uniform(0.5, 1.5, (1, 4, 1, 1))
    bn.beta.data[...] = rng.normal(0, 0.2, (1, 4, 1, 1))
    # each eval row reads the running statistics that the train row before it left
    for name, act in (("batch_norm", "linear"), ("batch_norm_leaky", "leaky_relu")):
        for mode, training in (("train", True), ("eval", False)):
            bn.set_training(training)
            results.append(_check(f"{name}_{mode}", lambda: _sq_mean(T.batch_norm(bx, bn, act)),
                                  [bx, bn.gamma, bn.beta]))

    g = _rand(rng, (2, 3, 4, 6))
    results.append(_check("global_avg_pool", lambda: _sq_mean(T.global_avg_pool(g)), [g]))

    r = _rand(rng, (2, 2, 4, 4))
    results.append(_check("resize_bilinear_up", lambda: _sq_mean(T.resize_bilinear(r, 7, 9)), [r]))
    results.append(_check("resize_bilinear_down", lambda: _sq_mean(T.resize_bilinear(r, 2, 3)), [r]))

    p = Tensor(rng.uniform(0.1, 0.9, (2, 1, 4, 4)), requires_grad=True, dtype=np.float64)
    results.append(_check("log", lambda: reduce_mean(T.log(p)), [p]))
    results.append(_check("clamp_interior", lambda: _sq_mean(T.clamp(p, 0.0, 1.0)), [p]))
    results.append(_check("scale_shift", lambda: _sq_mean(T.scale_shift(p, 2.5, -0.5)), [p]))
    results.append(_check("reduce_sum_per_image", lambda: _sq_mean(T.reduce_sum_per_image(p)), [p]))
    bb = _rand(rng, (2, 3, 1, 1))
    wide = _rand(rng, (2, 3, 4, 5))
    results.append(_check("mul_per_channel", lambda: _sq_mean(T.mul(wide, bb)), [wide, bb]))
    return results


def block_checks(rng):
    results = []
    blocks = [
        ("conv_block", lambda: ConvBlock(rng, 3, 4, 3, padding=1), (2, 3, 6, 6), 60),
        ("squeeze_excite", lambda: SqueezeExcite(rng, 6, reduction=3), (2, 6, 4, 4), 60),
        ("resampler_up2", lambda: Resampler(rng, 3, 3, 1), (1, 3, 2, 2), 60),
        ("resampler_down2", lambda: Resampler(rng, 3, 1, 3), (1, 3, 8, 8), 60),
        ("rfb_reduce", lambda: RfbBlock(rng, 6, 4), (1, 6, 12, 12), 40),
        ("residual_stage", lambda: ResidualStage(rng, 3, 5), (1, 3, 8, 8), 40),
    ]
    # each block is built, jittered, probed and checked before the next one
    # is built, which fixes the draws every check sees
    for name, make, shape, coords in blocks:
        block = make().astype(np.float64)
        jitter_parameters(block, rng)
        x = _rand(rng, shape)
        results.append(_check(name, lambda: _sq_mean(block(x)), [x] + block.parameters(),
                              max_coords=coords, rng=rng))

    module = GmsrfModule(rng, channels=4, growth=2, num_layers=2).astype(np.float64)
    jitter_parameters(module, rng)
    bundle = [_rand(rng, (1, 4, 8, 8)), _rand(rng, (1, 4, 4, 4)),
              _rand(rng, (1, 4, 2, 2)), _rand(rng, (1, 4, 1, 1))]

    def module_loss():
        outs = module(tuple(bundle))
        return _sq_mean(T.concat_channels([T.resize_bilinear(o, 8, 8) for o in outs]))

    results.append(_check("gmsrf_module", module_loss, bundle + module.parameters(),
                          tol=MODEL_TOL, max_coords=10, rng=rng))
    return results


def model_error(model, rng):
    """Worst relative gradient error of a float64 MICRO_CONFIG model, its
    parameters jittered, on a fixed image and target in training mode."""
    jitter_parameters(model, rng)
    model.set_training(True)
    data_rng = np.random.default_rng(11)
    image = Tensor(data_rng.uniform(0.0, 1.0, (1, 3, 32, 32)),
                   requires_grad=True, dtype=np.float64)
    target = (data_rng.uniform(0, 1, (1, 1, 32, 32)) > 0.7).astype(np.float64)

    def f():
        return total_loss(model(image), target)

    return max_grad_error(f, [image] + model.parameters(), max_coords=6, rng=rng)


def model_checks(rng):
    err = model_error(SegmentationModel(MICRO_CONFIG).astype(np.float64), rng)
    return [CheckResult("micro_model_end_to_end", err, MODEL_TOL)]


def run_suite(scope="op", seed=0):
    """Run the requested scope; returns CheckResult rows."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise UsageError(f"gradcheck seed must be a non-negative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    if scope == "op":
        return op_checks(rng)
    if scope == "block":
        return block_checks(rng)
    if scope == "model":
        return model_checks(rng)
    raise UsageError(f"unknown gradcheck scope {scope!r}")
