"""Reusable composite layers: conv blocks, squeeze-excitation, scale
resamplers, dilated receptive-field reduction, and residual encoder stages."""
from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError, UsageError
from .tensor import (
    DEFAULT_DTYPE,
    Tensor,
    activation,
    add,
    batch_norm,
    broadcast_spatial,
    concat_channels,
    conv2d,
    conv_transpose2d,
    global_avg_pool,
    linear,
    mul,
    relu,
    sigmoid,
    vector,
)

LEAKY_ALPHA = 0.01

_GAINS = {
    "leaky_relu": math.sqrt(2.0 / (1.0 + LEAKY_ALPHA**2)),
    "relu": math.sqrt(2.0),
    "sigmoid": 1.0,
    "linear": 1.0,
}


def he_weight(rng, shape, fan_in, act="leaky_relu"):
    std = _GAINS[act] / math.sqrt(fan_in)
    return Tensor(rng.normal(0.0, std, shape).astype(DEFAULT_DTYPE), requires_grad=True)


class Layer:
    """Base for parameterized blocks.

    Child layers and parameter tensors are discovered from instance
    attributes in definition order, so registry names are stable. Layers
    inside (nested) lists and tuples are named by their indices, as in
    ``attention.0.1``.
    """

    _buffers = ()

    def __init__(self):
        self.training = True

    def _children(self):
        def walk(name, value):
            if isinstance(value, Layer):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    yield from walk(f"{name}.{i}", item)

        for name, value in vars(self).items():
            yield from walk(name, value)

    def named_parameters(self, prefix=""):
        for name, value in vars(self).items():
            if isinstance(value, Tensor) and value.requires_grad:
                yield prefix + name, value
        for cname, child in self._children():
            yield from child.named_parameters(prefix + cname + ".")

    def named_buffers(self, prefix=""):
        for name in self._buffers:
            yield prefix + name, getattr(self, name)
        for cname, child in self._children():
            yield from child.named_buffers(prefix + cname + ".")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    def astype(self, dtype):
        """Cast every parameter and buffer to ``dtype`` in place and return
        self. Layers build float32; ``model.astype(np.float64)`` turns a
        model into the float64 one that gradient checking needs.

        Call it before creating an optimizer: Adam rebinds each parameter's
        data to a view of its flat buffer, which a later cast would detach.
        """
        for value in vars(self).values():
            if isinstance(value, Tensor) and value.requires_grad:
                value.data = value.data.astype(dtype)
        for name in self._buffers:
            setattr(self, name, getattr(self, name).astype(dtype))
        for _, child in self._children():
            child.astype(dtype)
        return self

    def set_training(self, flag):
        self.training = bool(flag)
        for _, child in self._children():
            child.set_training(flag)

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class BatchNorm2d(Layer):
    _buffers = ("running_mean", "running_var", "num_updates")

    def __init__(self, channels, eps=1e-5, momentum=0.1):
        super().__init__()
        self.gamma = vector(np.ones(channels), requires_grad=True)
        self.beta = vector(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros((1, channels, 1, 1), DEFAULT_DTYPE)
        self.running_var = np.ones((1, channels, 1, 1), DEFAULT_DTYPE)
        self.num_updates = np.zeros((1, 1, 1, 1), DEFAULT_DTYPE)
        self.eps = eps
        self.momentum = momentum

    def forward(self, x):
        return batch_norm(
            x, self.gamma, self.beta, self, self.training,
            eps=self.eps, momentum=self.momentum,
        )


class ConvBlock(Layer):
    """conv -> batch norm -> activation; the unit block of the network.

    Attention/supervision heads drop the normalization and switch the
    activation, which callers select via ``norm`` and ``act``.
    """

    def __init__(self, rng, cin, cout, kernel, stride=1, padding=0, dilation=1,
                 act="leaky_relu", norm=True, transpose=False):
        super().__init__()
        shape = (cin, cout, kernel, kernel) if transpose else (cout, cin, kernel, kernel)
        self.weight = he_weight(rng, shape, cin * kernel * kernel, act)
        self.bias = vector(np.zeros(cout), requires_grad=True)
        self.bn = BatchNorm2d(cout) if norm else None
        self.stride = stride
        self.padding = padding
        self.dilation = dilation
        self.act = act
        self.transpose = transpose

    def forward(self, x):
        if self.transpose:
            y = conv_transpose2d(x, self.weight, self.bias, self.stride, self.padding)
        else:
            y = conv2d(x, self.weight, self.bias, self.stride, self.padding, self.dilation)
        if self.bn is not None:
            y = self.bn(y)
        return activation(y, self.act, LEAKY_ALPHA)


class SqueezeExcite(Layer):
    """Channel gate: x * sigmoid(W2 relu(W1 gap(x)))."""

    def __init__(self, rng, channels, reduction=4):
        super().__init__()
        hidden = max(1, channels // reduction)
        self.w1 = he_weight(rng, (hidden, channels, 1, 1), channels, "relu")
        self.b1 = vector(np.zeros(hidden), requires_grad=True)
        self.w2 = he_weight(rng, (channels, hidden, 1, 1), hidden, "sigmoid")
        self.b2 = vector(np.zeros(channels), requires_grad=True)

    def forward(self, x):
        s = global_avg_pool(x)
        s = relu(linear(s, self.w1, self.b1))
        gate = sigmoid(linear(s, self.w2, self.b2))
        return mul(x, broadcast_spatial(gate, x.shape[2], x.shape[3]))


class Resampler(Layer):
    """Moves a feature map between scale levels via stride-2 stages.

    Down stages are 3x3/s2 conv blocks, up stages 4x4/s2 transposed conv
    blocks; each changes spatial size by exactly 2x and channels are
    preserved end to end. from == to is a pass-through.
    """

    def __init__(self, rng, channels, from_scale, to_scale):
        super().__init__()
        if not (1 <= from_scale <= 4 and 1 <= to_scale <= 4):
            raise UsageError(f"resampler scales must be in 1..4, got {from_scale}->{to_scale}")
        self.from_scale = from_scale
        self.to_scale = to_scale
        self.down = to_scale > from_scale
        kernel = 3 if self.down else 4
        self.stages = [
            ConvBlock(rng, channels, channels, kernel, stride=2, padding=1, transpose=not self.down)
            for _ in range(abs(to_scale - from_scale))
        ]

    def forward(self, x):
        if self.from_scale == self.to_scale:
            return x
        for stage in self.stages:
            if self.down and (x.shape[2] % 2 or x.shape[3] % 2):
                raise ShapeError(
                    f"resampler: odd spatial size {x.shape[2]}x{x.shape[3]} cannot halve exactly"
                )
            x = stage(x)
        return x


class RfbBlock(Layer):
    """Channel reduction through parallel dilated 3x3 branches plus a 1x1
    branch, fused by a 1x1 conv, with a projected residual of the input.

    Branch widths are out/4 rounded down, remainder on the 1x1 branch.
    """

    def __init__(self, rng, cin, cout):
        super().__init__()
        if cout < 1:
            raise UsageError(f"rfb: out_channels must be >= 1, got {cout}")
        quarter = cout // 4
        first = cout - 3 * quarter
        self.branch_widths = (first, quarter, quarter, quarter)
        self.branch0 = ConvBlock(rng, cin, first, 1)
        self.branch1 = ConvBlock(rng, cin, quarter, 3, padding=1, dilation=1) if quarter else None
        self.branch2 = ConvBlock(rng, cin, quarter, 3, padding=3, dilation=3) if quarter else None
        self.branch3 = ConvBlock(rng, cin, quarter, 3, padding=5, dilation=5) if quarter else None
        self.fuse = ConvBlock(rng, cout, cout, 1)
        # shortcut projection: normalized but not activated
        self.project = ConvBlock(rng, cin, cout, 1, act="linear")

    def forward(self, x):
        parts = [self.branch0(x)]
        for b in (self.branch1, self.branch2, self.branch3):
            if b is not None:
                parts.append(b(x))
        y = self.fuse(concat_channels(parts))
        return add(y, self.project(x))


class ResidualStage(Layer):
    """Two conv blocks plus an identity or projected shortcut.

    downsample=True halves the spatial size (stride-2 first conv and
    stride-2 1x1 projection); the projection also absorbs channel changes.
    """

    def __init__(self, rng, cin, cout, downsample=False):
        super().__init__()
        stride = 2 if downsample else 1
        self.conv1 = ConvBlock(rng, cin, cout, 3, stride=stride, padding=1)
        self.conv2 = ConvBlock(rng, cout, cout, 3, padding=1)
        if downsample or cin != cout:
            self.shortcut = ConvBlock(rng, cin, cout, 1, stride=stride, act="linear")
        else:
            self.shortcut = None

    def forward(self, x):
        y = self.conv2(self.conv1(x))
        s = x if self.shortcut is None else self.shortcut(x)
        return add(y, s)
