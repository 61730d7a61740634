"""Minimal reverse-mode autodiff over dense 4-D (N, C, H, W) tensors.

Every op whose inputs require grad returns a tensor that holds its own piece
of the graph: the op's inputs, a backward closure and a creation number.
``backward`` walks what is reachable from the loss and runs those nodes in
reverse creation order, depositing gradients on the leaf tensors that
requested them. A graph nobody back-propagates is freed with its tensors.
float32 is the working precision; float64 is supported end to end for
finite-difference gradient checking (``gradchecks``; ``Layer.astype`` casts
a model).

Vectors (biases) and matrices (projection weights) are represented as 4-D
tensors of shape (1, C, 1, 1) and (Cout, Cin, 1, 1) so that every learnable
array shares one type.
"""
from __future__ import annotations

import functools
import itertools
import threading

import numpy as np

from .errors import NumericsError, ShapeError, StateError, UsageError

DEFAULT_DTYPE = np.float32

_tls = threading.local()
_creation = itertools.count()


class no_grad:
    """Context manager that suspends graph recording (inference mode)."""

    def __enter__(self):
        self._prev = getattr(_tls, "no_grad", False)
        _tls.no_grad = True
        return self

    def __exit__(self, *exc):
        _tls.no_grad = self._prev
        return False


def _grad_enabled():
    return not getattr(_tls, "no_grad", False)


class Tensor:
    """Dense (N, C, H, W) array, optionally a node of a recorded graph.

    A recorded op output keeps its inputs, its backward closure and its
    creation number until a backward pass consumes it; a tensor with no
    creation number is a leaf.
    """

    __slots__ = ("data", "grad", "requires_grad", "_inputs", "_backward_fn", "_seq")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        if arr.ndim != 4:
            raise ShapeError(
                f"tensor data must be 4-D (N, C, H, W), got shape {arr.shape}"
            )
        self.data = np.ascontiguousarray(arr)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._inputs = None
        self._backward_fn = None
        self._seq = None

    # -- basic introspection --------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


def vector(values, requires_grad=False):
    """Length-C vector as a (1, C, 1, 1) tensor (bias convention)."""
    arr = np.asarray(values, DEFAULT_DTYPE)
    if arr.ndim != 1:
        raise ShapeError(f"vector expects 1-D values, got shape {arr.shape}")
    return Tensor(arr.reshape(1, -1, 1, 1), requires_grad=requires_grad)


# -- recording ----------------------------------------------------------------


def _record(out_data, inputs, backward_fn):
    out = Tensor(out_data)
    if _grad_enabled() and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._inputs = inputs
        out._backward_fn = backward_fn
        out._seq = next(_creation)
    return out


def _reachable(loss):
    """Recorded nodes reachable from loss in ascending creation order, and
    the requires_grad leaves they reach. Raises before anything is touched
    if the walk meets a node an earlier backward pass consumed."""
    nodes, leaves, seen, stack = [], [], {loss}, [loss]
    while stack:
        t = stack.pop()
        if t._seq is None:
            leaves.append(t)
            continue
        if t._backward_fn is None:
            raise StateError("graph already consumed by a backward pass")
        nodes.append(t)
        for x in t._inputs:
            if x.requires_grad and x not in seen:
                seen.add(x)
                stack.append(x)
    nodes.sort(key=lambda t: t._seq)
    return nodes, leaves


def backward(loss):
    """Propagate gradients from a scalar loss through the graph it reaches.

    Every requires_grad leaf reachable from the loss receives a gradient;
    other leaves keep theirs. The reached nodes are consumed and release
    their saved arrays as the pass goes, so they cannot be replayed.
    """
    if loss.shape != (1, 1, 1, 1):
        raise ShapeError(f"backward expects a scalar (1,1,1,1) loss, got {loss.shape}")
    if loss._seq is None:
        raise StateError("loss does not belong to a recorded graph")
    nodes, leaves = _reachable(loss)
    for leaf in leaves:
        if leaf.grad is None:
            leaf.grad = np.zeros_like(leaf.data)

    # buffers: node -> [grad array, owned]; "owned" marks arrays allocated
    # here that are safe to accumulate into in place
    buffers = {loss: [np.ones((1, 1, 1, 1), loss.data.dtype), True]}
    while nodes:
        node = nodes.pop()
        entry = buffers.pop(node, None)
        inputs, backward_fn = node._inputs, node._backward_fn
        node._inputs = node._backward_fn = None
        if entry is None:
            continue
        for t, gi in zip(inputs, backward_fn(entry[0])):
            if gi is None or not t.requires_grad:
                continue
            if t._seq is None:
                t.grad += gi
                continue
            slot = buffers.get(t)
            if slot is None:
                buffers[t] = [gi, False]
            elif slot[1]:
                slot[0] += gi
            else:
                buffers[t] = [slot[0] + gi, True]


# -- shape utilities ----------------------------------------------------------


def _check_same_shape(op, x, y):
    if x.data.shape != y.data.shape:
        raise ShapeError(f"{op}: shapes {x.shape} and {y.shape} differ")


# -- convolution --------------------------------------------------------------
#
# _correlate computes every forward and input gradient of a square kernel
# (Cout, Cin, K, K), _conv_weight_grad every weight gradient. An input
# gradient, and so a transposed conv, correlates g placed s apart in a zero
# buffer padded by d*(K-1) - p with _flip(w) (Dumoulin & Visin 2016,
# arXiv:1603.07285, sec. 4): conv2d's backward runs _correlate(g, _flip(w),
# d*(K-1) - p, s, 1, d), and conv_transpose2d swaps its two correlations.
#
# A 1x1 kernel without padding is a channel matmul over the input read s
# apart. Otherwise the input is placed in a channel-major zero buffer
# (Cin, N, hp, wp). At stride 1, tap (u, v) reads the flat buffer's slice at
# (u*wp + v)*d: the output is the sum over taps of W[:, :, u, v] @ slice on
# the padded-width grid, cropped once, and the weight gradient multiplies the
# same slices by g laid on that grid (kn2row; Anderson, Vasileiadis & Gregg
# 2017, arXiv:1709.03395), each one matmul over a strided view. im2col
# serves strided correlations and those whose K*K partial products
# (Cout x N*hp*wp each) outweigh its columns (Cin x N*out_h*out_w each).
# A conv node keeps neither columns nor buffer.


def _place(a, hp, wp, offset=0, step=1):
    """Zero buffer (C, N, hp, wp) holding pixel (i, j) of the (N, C, H, W)
    array a at (offset + i*step, offset + j*step). Pixels that land outside
    are dropped, so a negative offset crops."""
    n, c, h, w = a.shape
    out = np.zeros((c, n, hp, wp), a.dtype)
    first = max(0, -(offset // step))
    start = offset + first * step
    rows = max(0, min(h, (hp - 1 - offset) // step + 1) - first)
    cols = max(0, min(w, (wp - 1 - offset) // step + 1) - first)
    out[:, :, start : start + rows * step : step, start : start + cols * step : step] = (
        a[:, :, first : first + rows, first : first + cols].transpose(1, 0, 2, 3))
    return out


def _shift_taps(xp, k, dilation):
    """Read-only (K, K, C, width) view of a buffer whose [u, v] entry is the
    flat slice tap (u, v) reads, width being the length of the padded-width
    output grid at stride 1."""
    c, n, hp, wp = xp.shape
    width = n * hp * wp - dilation * (k - 1) * (wp + 1)
    sc, _, sh, sw = xp.strides
    return _view(xp, (k, k, c, width), (sh * dilation, sw * dilation, sc, sw))


def _im2col(xp, k, stride, dilation, out_h, out_w):
    """Copy a buffer's sliding windows into (C*K*K, N*out_h*out_w) columns."""
    c, n = xp.shape[:2]
    sc, sn, sh, sw = xp.strides
    windows = _view(xp, (c, k, k, n, out_h, out_w),
                    (sc, sh * dilation, sw * dilation, sn, sh * stride, sw * stride))
    return windows.reshape(c * k * k, n * out_h * out_w)


def _view(buf, shape, strides):
    """Read-only strided view of the contiguous array buf; the ndarray
    constructor checks that it stays inside buf."""
    v = np.ndarray(shape, buf.dtype, buf, 0, strides)
    v.flags.writeable = False
    return v


def _flip(w):
    """The spatially flipped, channel-transposed kernel of the adjoint."""
    return w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)


def _correlate(a, w, offset, step, stride, dilation, out_h, out_w):
    """Correlate w (Cout, Cin, K, K) over the (N, Cin, H, W) array a, its
    pixels placed step apart from offset in a zero buffer (_place), into
    (N, Cout, out_h, out_w)."""
    n = a.shape[0]
    cout, cin, k, _ = w.shape
    if k == 1 and offset == 0 and step == 1:
        a = a[:, :, ::stride, ::stride].reshape(n, cin, -1)
        return np.matmul(w.reshape(cout, cin), a).reshape(n, cout, out_h, out_w)
    span = dilation * (k - 1)
    hp, wp = (out_h - 1) * stride + span + 1, (out_w - 1) * stride + span + 1
    xp = _place(a, hp, wp, offset, step)
    if stride > 1 or cout * hp * wp > cin * out_h * out_w:
        y = np.matmul(w.reshape(cout, -1), _im2col(xp, k, stride, dilation, out_h, out_w))
        y = y.reshape(cout, n, out_h, out_w)
    else:
        taps = _shift_taps(xp, k, dilation)
        y = np.empty((cout, n * hp * wp), xp.dtype)
        np.matmul(w.transpose(2, 3, 0, 1), taps).sum(axis=(0, 1), out=y[:, : taps.shape[3]])
        y = y.reshape(cout, n, hp, wp)[:, :, :out_h, :out_w]
    return np.ascontiguousarray(y.transpose(1, 0, 2, 3))


def _conv_weight_grad(g, x, stride, padding, dilation, w_shape):
    """Weight gradient of the correlation of x from an output-shaped g."""
    n, cin, h, wd = x.shape
    cout, _, k, _ = w_shape
    if k == 1 and padding == 0:
        x = x[:, :, ::stride, ::stride].reshape(n, cin, -1)
        g_w = np.matmul(g.reshape(n, cout, -1), x.transpose(0, 2, 1))
        return g_w.sum(axis=0).reshape(w_shape)
    xp = _place(x, h + 2 * padding, wd + 2 * padding, padding)
    if stride > 1:
        cols = _im2col(xp, k, stride, dilation, *g.shape[2:])
        return np.matmul(g.transpose(1, 0, 2, 3).reshape(cout, -1), cols.T).reshape(w_shape)
    taps = _shift_taps(xp, k, dilation)
    g_grid = _place(g, *xp.shape[2:]).reshape(cout, -1)[:, : taps.shape[3]]
    g_w = np.matmul(g_grid, taps.transpose(0, 1, 3, 2))
    return np.ascontiguousarray(g_w.transpose(2, 3, 0, 1))


def _check_conv(op, x, weight, bias, cker, cout, out_h, out_w, stride, padding):
    """Shape checks shared by both convolution ops; cker and cout are the
    kernel's input and output channel counts."""
    _, cin, h, w = x.shape
    kh, kw = weight.shape[2:]
    if kh != kw:
        raise ShapeError(f"{op}: kernel {kh}x{kw} is not square")
    if cker != cin:
        raise ShapeError(f"{op}: input has {cin} channels but kernel expects {cker}")
    if out_h < 1 or out_w < 1:
        raise ShapeError(
            f"{op}: non-positive output size {out_h}x{out_w} "
            f"for input {h}x{w}, kernel {kh}x{kw}, stride {stride}, padding {padding}"
        )
    if bias is not None and bias.shape != (1, cout, 1, 1):
        raise ShapeError(f"{op}: bias shape {bias.shape} does not match {cout} output channels")


def _record_conv(y, x, weight, bias, grads):
    """Add the bias and record a convolution whose grads(g) returns
    (g_x, g_w); the bias gradient is appended when there is a bias."""
    if bias is None:
        return _record(y, [x, weight], grads)
    y += bias.data

    def backward_fn(g):
        return grads(g) + (_channel_sum(g),)

    return _record(y, [x, weight, bias], backward_fn)


def conv2d(x, weight, bias=None, stride=1, padding=0, dilation=1):
    """2-D convolution (cross-correlation) with zero padding.

    weight is (Cout, Cin, K, K), a square kernel; bias, when given, is a (1, Cout, 1, 1)
    tensor. Output spatial size is floor((H + 2p - d*(K-1) - 1)/s) + 1.
    """
    if stride < 1 or padding < 0 or dilation < 1:
        raise UsageError(f"conv2d: bad stride/padding/dilation ({stride}, {padding}, {dilation})")
    h, w = x.shape[2:]
    cout, cin, kh, kw = weight.shape
    out_h = (h + 2 * padding - dilation * (kh - 1) - 1) // stride + 1
    out_w = (w + 2 * padding - dilation * (kw - 1) - 1) // stride + 1
    _check_conv("conv2d", x, weight, bias, cin, cout, out_h, out_w, stride, padding)
    wd = weight.data
    y = _correlate(x.data, wd, padding, 1, stride, dilation, out_h, out_w)

    def grads(g):
        g_x = (_correlate(g, _flip(wd), dilation * (kh - 1) - padding, stride, 1, dilation, h, w)
               if x.requires_grad else None)
        return g_x, _conv_weight_grad(g, x.data, stride, padding, dilation, wd.shape)

    return _record_conv(y, x, weight, bias, grads)


def conv_transpose2d(x, weight, bias=None, stride=1, padding=0):
    """Transposed 2-D convolution: the adjoint of conv2d with the same
    geometry, so its input gradient is that conv2d's forward.

    weight is (Cin, Cout, K, K), a square kernel; output spatial size is (H-1)*s - 2p + K.
    """
    if stride < 1 or padding < 0:
        raise UsageError(f"conv_transpose2d: bad stride/padding ({stride}, {padding})")
    h, w = x.shape[2:]
    cin, cout, kh, kw = weight.shape
    out_h = (h - 1) * stride - 2 * padding + kh
    out_w = (w - 1) * stride - 2 * padding + kw
    _check_conv("conv_transpose2d", x, weight, bias, cin, cout, out_h, out_w, stride, padding)
    wd = weight.data
    y = _correlate(x.data, _flip(wd), kh - 1 - padding, stride, 1, 1, out_h, out_w)

    def grads(g):
        g_x = _correlate(g, wd, padding, 1, stride, 1, h, w)
        return g_x, _conv_weight_grad(x.data, g, stride, padding, 1, wd.shape)

    return _record_conv(y, x, weight, bias, grads)


# -- structural ops -----------------------------------------------------------


def concat_channels(parts):
    """Concatenate tensors along the channel axis, preserving list order."""
    if not parts:
        raise ShapeError("concat_channels: empty part list")
    n, _, h, w = parts[0].shape
    for p in parts[1:]:
        pn, _, ph, pw = p.shape
        if (pn, ph, pw) != (n, h, w):
            raise ShapeError(
                f"concat_channels: part shape {p.shape} incompatible with {parts[0].shape}"
            )
    y = np.concatenate([p.data for p in parts], axis=1)
    offsets = np.cumsum([0] + [p.shape[1] for p in parts])

    def backward_fn(g):
        return [g[:, offsets[i] : offsets[i + 1]] for i in range(len(parts))]

    return _record(y, list(parts), backward_fn)


# -- elementwise ops ----------------------------------------------------------


def add(x, y):
    _check_same_shape("add", x, y)

    def backward_fn(g):
        return g, g

    return _record(x.data + y.data, [x, y], backward_fn)


def mul(x, y):
    """Elementwise product. y may also be a per-channel factor of shape
    (N, C, 1, 1) with x's N and C; its gradient sums over H and W."""
    if y.shape != x.shape[:2] + (1, 1):
        _check_same_shape("mul", x, y)

    def backward_fn(g):
        g_y = g * x.data
        if g_y.shape != y.shape:
            g_y = g_y.sum(axis=(2, 3), keepdims=True)
        return g * y.data, g_y

    return _record(x.data * y.data, [x, y], backward_fn)


def divide(x, y):
    _check_same_shape("divide", x, y)

    def backward_fn(g):
        inv = 1.0 / y.data
        return g * inv, -g * x.data * inv * inv

    return _record(x.data / y.data, [x, y], backward_fn)


def scale_shift(x, a, b):
    """Affine map a*x + b with python-float constants."""
    a = x.data.dtype.type(a)
    b = x.data.dtype.type(b)

    def backward_fn(g):
        return (g * a,)

    return _record(x.data * a + b, [x], backward_fn)


def clamp(x, lo, hi):
    y = np.clip(x.data, lo, hi)
    passthrough = (x.data >= lo) & (x.data <= hi)

    def backward_fn(g):
        return (g * passthrough,)

    return _record(y, [x], backward_fn)


def log(x):
    if np.any(x.data <= 0):
        raise NumericsError("log: non-positive input")
    y = np.log(x.data)

    def backward_fn(g):
        return (g / x.data,)

    return _record(y, [x], backward_fn)


# -- activations --------------------------------------------------------------


def relu(x):
    y = np.maximum(x.data, 0)

    def backward_fn(g):
        return (g * (x.data > 0),)

    return _record(y, [x], backward_fn)


def sigmoid(x):
    """Numerically stable logistic; outputs clamped into the open (0, 1).
    With e = exp(-|z|), 1/(1+e) for z >= 0 and e/(1+e) below: exp never
    overflows."""
    z = x.data
    e = np.exp(-np.abs(z))
    y = np.where(z >= 0, 1, e)
    y /= 1 + e
    info = np.finfo(z.dtype)
    np.clip(y, info.tiny, 1.0 - info.epsneg, out=y)

    def backward_fn(g):
        return (g * y * (1.0 - y),)

    return _record(y, [x], backward_fn)


# -- normalization ------------------------------------------------------------


BN_EPS = 1e-5
BN_MOMENTUM = 0.1
LEAKY_ALPHA = 0.01


def _channel_sum(a, b=None):
    """Per-channel sum over N, H and W of a, or of a*b, as (1, C, 1, 1)."""
    n, c = a.shape[:2]
    if b is None:
        s = np.einsum("nci->c", a.reshape(n, c, -1))
    else:
        s = np.einsum("nci,nci->c", a.reshape(n, c, -1), b.reshape(n, c, -1))
    return s.reshape(1, c, 1, 1)


def batch_norm(x, bn, act="linear"):
    """Per-channel batch normalization with running statistics, followed by
    the activation ``act`` ("linear" or "leaky_relu" with slope
    ``LEAKY_ALPHA``), recorded as one op.

    ``bn`` is a ``blocks.BatchNorm2d``: the (1, C, 1, 1) parameters
    ``gamma`` and ``beta``, the (1, C, 1, 1) arrays ``running_mean`` and
    ``running_var``, the (1, 1, 1, 1) update count ``num_updates`` and the
    mode flag ``training``. Train mode updates the statistics in place. It
    normalizes by the batch mean and the centred two-pass variance over the
    M = N*H*W values of each channel, and blends the running statistics by
    ``BN_MOMENTUM``; at M = 1 the output is act(beta) and the input
    gradient zero. Eval mode normalizes by the running statistics and
    requires at least one prior training update. It computes
    (x - running_mean) * (gamma / std) + beta, subtracting first so that a
    large running mean costs no float32 precision, and its backward
    rebuilds xhat from x.

    The closed-form backward reads the leaky mask from the output's sign,
    which a positive slope keeps equal to the pre-activation's.
    """
    if act not in ("linear", "leaky_relu"):
        raise UsageError(f"batch_norm: unsupported activation {act!r}")
    n, c, h, w = x.shape
    gamma, beta, training = bn.gamma, bn.beta, bn.training
    if gamma.shape != (1, c, 1, 1):
        raise ShapeError(f"batch_norm: a {gamma.shape[1]}-channel norm, input has {c} channels")
    dt = x.data.dtype.type
    count = n * h * w
    if training:
        mean = _channel_sum(x.data) / count
        xhat = x.data - mean
        var = _channel_sum(xhat, xhat) / count
        unbiased = var * (count / (count - 1)) if count > 1 else var
        m = dt(BN_MOMENTUM)
        bn.running_mean *= 1 - m
        bn.running_mean += m * mean
        bn.running_var *= 1 - m
        bn.running_var += m * unbiased
        bn.num_updates += 1
        inv_std = 1.0 / np.sqrt(var + dt(BN_EPS))
        xhat *= inv_std
        y = xhat * gamma.data
    else:
        if not bn.num_updates.item() > 0:
            raise StateError("batch_norm: eval mode before any training update")
        mean = bn.running_mean.copy()  # the backward rebuilds xhat from it
        std = np.sqrt(bn.running_var + dt(BN_EPS))
        y = x.data - mean
        y *= gamma.data / std
    y += beta.data
    leaky = act == "leaky_relu"
    if leaky:
        slope = dt(LEAKY_ALPHA)
        np.maximum(y, y * slope, out=y)

    def backward_fn(g):
        g_z = np.where(y > 0, g, g * slope) if leaky else g
        g_beta = _channel_sum(g_z)
        if not training:
            return g_z * (gamma.data / std), _channel_sum(g_z, x.data - mean) / std, g_beta
        g_gamma = _channel_sum(g_z, xhat)
        k = gamma.data * inv_std
        g_x = g_z * k
        g_x -= xhat * (k * g_gamma / count)
        g_x -= k * g_beta / count
        return g_x, g_gamma, g_beta

    return _record(y, [x, gamma, beta], backward_fn)


# -- pooling / resize ---------------------------------------------------------


def global_avg_pool(x):
    """Per-channel spatial mean, output (N, C, 1, 1)."""
    n, c, h, w = x.shape
    y = x.data.mean(axis=(2, 3), keepdims=True)

    def backward_fn(g):
        return (np.broadcast_to(g * (1.0 / (h * w)), x.shape),)

    return _record(y, [x], backward_fn)


@functools.lru_cache(maxsize=64)
def interp_matrix(n_out, n_in, dtype=np.float64):
    """Half-pixel-center bilinear interpolation weights as a read-only
    (n_out, n_in) array, cached per size and dtype."""
    m = np.zeros((n_out, n_in), dtype)
    if n_in == 1:
        m[:, 0] = 1
    else:
        pos = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
        pos = np.clip(pos, 0.0, n_in - 1.0)
        i0 = np.minimum(pos.astype(np.int64), n_in - 2)
        t = (pos - i0).astype(dtype)
        rows = np.arange(n_out)
        m[rows, i0] += 1 - t
        m[rows, i0 + 1] += t
    m.flags.writeable = False
    return m


def resize_bilinear(x, out_h, out_w):
    """Half-pixel-center bilinear resize, differentiable through the weights."""
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"resize_bilinear: bad output size {out_h}x{out_w}")
    n, c, h, w = x.shape
    rm = interp_matrix(out_h, h, x.data.dtype)
    cm = interp_matrix(out_w, w, x.data.dtype)
    y = rm @ x.data @ cm.T

    def backward_fn(g):
        return (rm.T @ g @ cm,)

    return _record(y, [x], backward_fn)


# -- reductions ---------------------------------------------------------------


def reduce_mean(x):
    """Mean of all elements as a (1, 1, 1, 1) tensor."""
    y = x.data.mean(dtype=x.data.dtype).reshape(1, 1, 1, 1)
    inv = 1.0 / x.data.size

    def backward_fn(g):
        return (np.broadcast_to(g * inv, x.shape),)

    return _record(y, [x], backward_fn)


def reduce_sum_per_image(x):
    """Sum over (C, H, W) per batch element, output (N, 1, 1, 1)."""
    y = x.data.sum(axis=(1, 2, 3), keepdims=True, dtype=x.data.dtype)

    def backward_fn(g):
        return (np.broadcast_to(g, x.shape),)

    return _record(y, [x], backward_fn)
