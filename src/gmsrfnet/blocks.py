"""Reusable composite layers: conv blocks, squeeze-excitation, scale
resamplers, dilated receptive-field reduction, and residual encoder stages."""
from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ShapeError, UsageError
from .tensor import (
    DEFAULT_DTYPE,
    LEAKY_ALPHA,
    Tensor,
    add,
    batch_norm,
    concat_channels,
    conv2d,
    conv_transpose2d,
    global_avg_pool,
    mul,
    relu,
    sigmoid,
    vector,
)

_GAINS = {
    "leaky_relu": math.sqrt(2.0 / (1.0 + LEAKY_ALPHA**2)),
    "relu": math.sqrt(2.0),
    "sigmoid": 1.0,
    "linear": 1.0,
}


def he_weight(rng, shape, fan_in, act="leaky_relu"):
    std = _GAINS[act] / math.sqrt(fan_in)
    return Tensor(rng.normal(0.0, std, shape).astype(DEFAULT_DTYPE, copy=False), requires_grad=True)


# attribute types that hold no parameter and no layer: most of a layer's
# attributes are these, and a set lookup skips them faster than isinstance
_LEAVES = frozenset({bool, int, float, str, type(None), np.ndarray})


class Arena:
    """A layer tree's state in flat arrays, built by one walk of its registry.

    Every parameter's ``data`` is a view of ``params`` and every batch-norm
    running buffer a view of ``buffers``. ``grads`` is allocated on first
    read; from then on every parameter's ``grad`` is a view of it.
    ``names``, ``shapes`` and element ``offsets`` list the parameters, then
    the buffers, in registry order, which is the checkpoint payload order.
    ``slots`` lists each buffer as (name, layer, attribute).

    ``check(names, shapes)``, when given, runs after the walk and before the
    flat arrays are allocated, so it can refuse a tree without paying for
    its state. It may return every value in payload order, such as a
    checkpoint's payload; ``params`` and ``buffers`` are then one copy each
    of its two blocks instead of the layers' own values.
    """

    def __init__(self, root, check=None):
        self.names, self.tensors, self.slots = [], [], []
        self._visit("", root)
        self.names += [name for name, _, _ in self.slots]
        arrays = [t.data for t in self.tensors] + [getattr(l, attr) for _, l, attr in self.slots]
        dtypes = {a.dtype for a in arrays} or {np.dtype(DEFAULT_DTYPE)}
        if len(dtypes) > 1:
            raise UsageError(f"layer state mixes dtypes {sorted(d.name for d in dtypes)}")
        dtype = dtypes.pop()
        self.shapes = [a.shape for a in arrays]
        values = None if check is None else check(self.names, self.shapes)
        self.offsets = list(itertools.accumulate((a.size for a in arrays), initial=0))
        n = len(self.tensors)
        if values is None:
            empty = np.empty(0, dtype)
            self.params, self.buffers = (np.concatenate([a.reshape(-1) for a in part] + [empty])
                                         for part in (arrays[:n], arrays[n:]))
        else:
            split = self.offsets[n]
            self.params, self.buffers = values[:split].astype(dtype), values[split:].astype(dtype)
        self._grads = None
        self.bind()

    def _visit(self, prefix, value):
        """Append a layer, or each layer of a (nested) list or tuple named by
        index, and everything below it."""
        if isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                self._visit(f"{prefix}{i}.", item)
            return
        if not isinstance(value, Layer):
            return
        if prefix:  # below the root, whose arena this one becomes
            value._arena = False
        children = []
        for name, attr in vars(value).items():
            kind = type(attr)
            if kind is Tensor:
                if attr.requires_grad:
                    self.names.append(prefix + name)
                    self.tensors.append(attr)
            elif kind not in _LEAVES and isinstance(attr, (Layer, list, tuple)):
                children.append((prefix + name + ".", attr))
        for name in value._buffers:
            self.slots.append((prefix + name, value, name))
        for child_prefix, child in children:
            self._visit(child_prefix, child)

    @property
    def grads(self):
        """The flat gradient of ``params``, allocated on first read. A
        gradient that a backward pass left on a parameter before then is
        kept: it moves into its slice."""
        if self._grads is None:
            self._grads = grads = np.zeros_like(self.params)
            for t, a, b in zip(self.tensors, self.offsets, self.offsets[1:]):
                if t.grad is not None:
                    grads[a:b] = t.grad.reshape(-1)
            self.bind()
        return self._grads

    def bind(self):
        """Point every parameter, allocated gradient and buffer at its slice."""
        spans = zip(self.shapes, self.offsets, self.offsets[1:])  # parameters, then buffers
        params, grads = self.params, self._grads
        for t, (shape, a, b) in zip(self.tensors, spans):
            t.data = params[a:b].reshape(shape)
            if grads is not None:
                t.grad = grads[a:b].reshape(shape)
        base = params.size
        for (_, layer, name), (shape, a, b) in zip(self.slots, spans):
            setattr(layer, name, self.buffers[a - base : b - base].reshape(shape))


class Layer:
    """Base for parameterized blocks.

    Child layers and parameter tensors are discovered from instance
    attributes in definition order, so registry names are stable. Layers
    inside (nested) lists and tuples are named by their indices, as in
    ``attention.0.1``. The first registry query walks the tree into its Arena.
    """

    _buffers = ()

    def __init__(self):
        self._arena = None  # built on first use; False inside another layer's arena

    @property
    def arena(self):
        """The Arena of the layer tree rooted here. A layer inside another
        layer's tree has none: its state lives in the root's arrays."""
        if self._arena is None:
            self._arena = Arena(self)
        elif self._arena is False:
            raise UsageError(f"{type(self).__name__} is part of a larger layer tree; use its root")
        return self._arena

    def parameters(self):
        return list(self.arena.tensors)

    def astype(self, dtype):
        """Recast the arena to ``dtype``, rebinding every view, and return
        self. Layers build float32; gradient checks use ``astype(np.float64)``.
        Make the optimizer after the cast."""
        arena = self.arena
        arena.params, arena._grads, arena.buffers = (
            a.astype(dtype) for a in (arena.params, arena.grads, arena.buffers))
        arena.bind()
        return self

    def set_training(self, flag):
        """Put every batch norm in the tree into train or eval mode."""
        for _, layer, _ in self.arena.slots:
            layer.training = bool(flag)

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


_NORM_INIT = np.array([1.0, 0.0, 0.0, 1.0], DEFAULT_DTYPE)  # gamma, beta, mean, variance


class BatchNorm2d(Layer):
    """A normalization's gamma and beta, its running statistics and its
    train/eval mode, the one mode flag in a layer tree; ``tensor.batch_norm``
    reads them all."""

    _buffers = ("running_mean", "running_var", "num_updates")

    def __init__(self, channels):
        super().__init__()
        self.training = True
        # gamma, beta and the running statistics are slices of one allocation
        gamma, beta, mean, var = _NORM_INIT.repeat(channels).reshape(4, 1, channels, 1, 1)
        self.gamma = Tensor(gamma, requires_grad=True)
        self.beta = Tensor(beta, requires_grad=True)
        self.running_mean, self.running_var = mean, var
        self.num_updates = np.zeros((1, 1, 1, 1), DEFAULT_DTYPE)


class ConvBlock(Layer):
    """conv -> batch norm -> activation; the unit block of the network.

    A normalized block has no conv bias, because the batch mean cancels it,
    and runs batch norm and its activation ``act`` as one op. With
    ``norm=False`` (attention and supervision heads) the block is a biased
    conv with no activation, so ``act`` must be "linear".
    """

    def __init__(self, rng, cin, cout, kernel, stride=1, padding=0, dilation=1,
                 act="leaky_relu", norm=True, transpose=False):
        super().__init__()
        if not norm and act != "linear":
            raise UsageError(f"conv block without normalization takes no activation, got {act!r}")
        shape = (cin, cout, kernel, kernel) if transpose else (cout, cin, kernel, kernel)
        self.weight = he_weight(rng, shape, cin * kernel * kernel, act)
        self.bias = None if norm else vector(np.zeros(cout), requires_grad=True)
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
        if self.bn is None:
            return y
        return batch_norm(y, self.bn, self.act)


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
        s = relu(conv2d(s, self.w1, self.b1))
        gate = sigmoid(conv2d(s, self.w2, self.b2))
        return mul(x, gate)


class Resampler(Layer):
    """Moves a feature map between scale levels via stride-2 stages.

    Down stages are 3x3/s2 conv blocks, up stages 4x4/s2 transposed conv
    blocks; each changes spatial size by exactly 2x and channels are
    preserved end to end. from == to has no stages and passes x through.
    """

    def __init__(self, rng, channels, from_scale, to_scale):
        super().__init__()
        if not (1 <= from_scale <= 4 and 1 <= to_scale <= 4):
            raise UsageError(f"resampler scales must be in 1..4, got {from_scale}->{to_scale}")
        self.down = to_scale > from_scale
        kernel = 3 if self.down else 4
        self.stages = [
            ConvBlock(rng, channels, channels, kernel, stride=2, padding=1, transpose=not self.down)
            for _ in range(abs(to_scale - from_scale))
        ]

    def forward(self, x):
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
    """Two conv blocks plus a projected shortcut, halving the spatial size:
    the first conv and the 1x1 projection have stride 2, and the projection
    also absorbs the channel change."""

    def __init__(self, rng, cin, cout):
        super().__init__()
        self.conv1 = ConvBlock(rng, cin, cout, 3, stride=2, padding=1)
        self.conv2 = ConvBlock(rng, cout, cout, 3, padding=1)
        self.shortcut = ConvBlock(rng, cin, cout, 1, stride=2, act="linear")

    def forward(self, x):
        return add(self.conv2(self.conv1(x)), self.shortcut(x))
