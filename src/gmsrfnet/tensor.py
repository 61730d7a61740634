"""Minimal reverse-mode autodiff over dense 4-D (N, C, H, W) tensors.

Operations record onto a thread-local tape; ``backward`` replays the tape in
exact reverse recording order and deposits gradients on the leaf tensors that
requested them. float32 is the working precision; float64 is supported end to
end for finite-difference gradient checking.

Vectors (biases) and matrices (projection weights) are represented as 4-D
tensors of shape (1, C, 1, 1) and (Cout, Cin, 1, 1) so that every learnable
array shares one type.
"""
from __future__ import annotations

import threading

import numpy as np

from .errors import NumericsError, ShapeError, StateError, UsageError

DEFAULT_DTYPE = np.float32


class Graph:
    """Recorded operation tape. Node order is recording order, which is a
    valid topological order; a graph may be consumed by exactly one backward
    pass."""

    __slots__ = ("nodes", "leaves", "_leaf_ids", "consumed")

    def __init__(self):
        self.nodes = []
        self.leaves = []
        self._leaf_ids = set()
        self.consumed = False

    def register_leaf(self, t):
        if id(t) not in self._leaf_ids:
            self._leaf_ids.add(id(t))
            self.leaves.append(t)


class _Node:
    __slots__ = ("inputs", "backward_fn")

    def __init__(self, inputs, backward_fn):
        self.inputs = inputs
        self.backward_fn = backward_fn


_tls = threading.local()


class no_grad:
    """Context manager that suspends tape recording (inference mode)."""

    def __enter__(self):
        self._prev = getattr(_tls, "no_grad", False)
        _tls.no_grad = True
        return self

    def __exit__(self, *exc):
        _tls.no_grad = self._prev
        return False


def _grad_enabled():
    return not getattr(_tls, "no_grad", False)


def _active_graph():
    g = getattr(_tls, "graph", None)
    if g is None or g.consumed:
        g = Graph()
        _tls.graph = g
    return g


class Tensor:
    """Dense (N, C, H, W) array, optionally tracked on the recording tape."""

    __slots__ = ("data", "grad", "requires_grad", "graph", "node_id")

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
        self.graph = None   # tape this tensor was recorded on, if any
        self.node_id = None  # opaque handle: position on the tape

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zeros(shape, requires_grad=False, dtype=DEFAULT_DTYPE):
        return Tensor(np.zeros(shape, dtype), requires_grad=requires_grad)

    @staticmethod
    def full(shape, value, requires_grad=False, dtype=DEFAULT_DTYPE):
        return Tensor(np.full(shape, value, dtype), requires_grad=requires_grad)

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

    def numpy(self):
        """The raw data array (shared, do not mutate while on a live tape)."""
        return self.data

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    # -- operator sugar -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return scale_shift(self, 1.0, float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return sub(self, other)
        return scale_shift(self, 1.0, -float(other))

    def __rsub__(self, other):
        return scale_shift(self, -1.0, float(other))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale_shift(self, float(other), 0.0)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return divide(self, other)
        return scale_shift(self, 1.0 / float(other), 0.0)

    def __neg__(self):
        return scale_shift(self, -1.0, 0.0)

    def backward(self):
        backward(self)


def vector(values, requires_grad=False, dtype=DEFAULT_DTYPE):
    """Length-C vector as a (1, C, 1, 1) tensor (bias convention)."""
    arr = np.asarray(values, dtype)
    if arr.ndim != 1:
        raise ShapeError(f"vector expects 1-D values, got shape {arr.shape}")
    return Tensor(arr.reshape(1, -1, 1, 1), requires_grad=requires_grad)


def scalar(value, dtype=DEFAULT_DTYPE):
    return Tensor(np.full((1, 1, 1, 1), value, dtype))


# -- recording ----------------------------------------------------------------


def _record(out_data, inputs, backward_fn):
    out = Tensor(out_data)
    if _grad_enabled() and any(t.requires_grad for t in inputs):
        g = _active_graph()
        for t in inputs:
            if t.requires_grad and t.node_id is None:
                g.register_leaf(t)
        out.requires_grad = True
        out.graph = g
        out.node_id = len(g.nodes)
        g.nodes.append(_Node(inputs, backward_fn))
    return out


def backward(loss):
    """Propagate gradients from a scalar loss through its recorded graph.

    Every requires_grad leaf that participated in the recording receives a
    gradient (zeros if unreachable from the loss). The graph is consumed and
    cannot be replayed.
    """
    if loss.shape != (1, 1, 1, 1):
        raise ShapeError(f"backward expects a scalar (1,1,1,1) loss, got {loss.shape}")
    g = loss.graph
    if g is None:
        raise StateError("loss does not belong to a recorded graph")
    if g.consumed:
        raise StateError("graph already consumed by a backward pass")

    for leaf in g.leaves:
        if leaf.grad is None:
            leaf.grad = np.zeros_like(leaf.data)

    # buffers: node_id -> [grad array, owned]; "owned" marks arrays allocated
    # here that are safe to accumulate into in place
    buffers = {loss.node_id: [np.ones((1, 1, 1, 1), loss.data.dtype), True]}
    for nid in range(len(g.nodes) - 1, -1, -1):
        entry = buffers.pop(nid, None)
        if entry is None:
            continue
        node = g.nodes[nid]
        grads_in = node.backward_fn(entry[0])
        for t, gi in zip(node.inputs, grads_in):
            if gi is None:
                continue
            if t.node_id is not None and t.graph is g:
                slot = buffers.get(t.node_id)
                if slot is None:
                    buffers[t.node_id] = [gi, False]
                elif slot[1]:
                    slot[0] += gi
                else:
                    buffers[t.node_id] = [slot[0] + gi, True]
            elif t.requires_grad and t.node_id is None:
                t.grad += gi

    g.consumed = True
    g.nodes.clear()
    if getattr(_tls, "graph", None) is g:
        _tls.graph = None


# -- shape utilities ----------------------------------------------------------


def _check_same_shape(op, x, y):
    if x.data.shape != y.data.shape:
        raise ShapeError(f"{op}: shapes {x.shape} and {y.shape} differ")


def _pad(a, ph, pw):
    """Zero-pad the spatial axes by ph rows and pw columns on each side; a
    negative amount crops that axis instead."""
    n, c, h, w = a.shape
    a = a[:, :, max(-ph, 0) : h - max(-ph, 0), max(-pw, 0) : w - max(-pw, 0)]
    ph, pw = max(ph, 0), max(pw, 0)
    if not (ph or pw):
        return a
    h, w = a.shape[2:]
    out = np.zeros((n, c, h + 2 * ph, w + 2 * pw), a.dtype)
    out[:, :, ph : ph + h, pw : pw + w] = a
    return out


def _im2col(xp, kh, kw, stride, dilation, out_h, out_w):
    """Gather sliding windows of a padded input into (N, C, kh, kw, out_h, out_w)."""
    n, c = xp.shape[:2]
    cols = np.empty((n, c, kh, kw, out_h, out_w), xp.dtype)
    for u in range(kh):
        for v in range(kw):
            cols[:, :, u, v] = xp[
                :, :,
                u * dilation : u * dilation + (out_h - 1) * stride + 1 : stride,
                v * dilation : v * dilation + (out_w - 1) * stride + 1 : stride,
            ]
    return cols


def _col2im(cols, out_shape, stride, dilation):
    """Exact adjoint of _im2col: scatter-add windows back into out_shape."""
    kh, kw, out_h, out_w = cols.shape[2:]
    out = np.zeros(out_shape, cols.dtype)
    for u in range(kh):
        for v in range(kw):
            out[
                :, :,
                u * dilation : u * dilation + (out_h - 1) * stride + 1 : stride,
                v * dilation : v * dilation + (out_w - 1) * stride + 1 : stride,
            ] += cols[:, :, u, v]
    return out


# -- convolution --------------------------------------------------------------


def conv2d(x, weight, bias=None, stride=1, padding=0, dilation=1):
    """2-D convolution (cross-correlation) with zero padding.

    weight is (Cout, Cin, Kh, Kw); bias, when given, is a (1, Cout, 1, 1)
    tensor. Output spatial size is floor((H + 2p - d*(K-1) - 1)/s) + 1.

    The geometry picks one of three paths. A 1x1 kernel at stride 1 without
    padding is a plain channel matmul in both directions. Other stride-1
    convolutions gather windows for the forward, and compute the input
    gradient as the correlation of the upstream gradient, padded by
    d*(K-1) - p, with the spatially flipped, channel-transposed kernel.
    Strided convolutions scatter the input gradient back with _col2im.
    """
    if stride < 1 or padding < 0 or dilation < 1:
        raise UsageError(f"conv2d: bad stride/padding/dilation ({stride}, {padding}, {dilation})")
    n, cin, h, w = x.shape
    cout, cker, kh, kw = weight.shape
    if cker != cin:
        raise ShapeError(f"conv2d: input has {cin} channels but kernel expects {cker}")
    out_h = (h + 2 * padding - dilation * (kh - 1) - 1) // stride + 1
    out_w = (w + 2 * padding - dilation * (kw - 1) - 1) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ShapeError(
            f"conv2d: non-positive output size {out_h}x{out_w} "
            f"for input {h}x{w}, kernel {kh}x{kw}, stride {stride}, padding {padding}"
        )
    if bias is not None and bias.shape != (1, cout, 1, 1):
        raise ShapeError(f"conv2d: bias shape {bias.shape} does not match {cout} output channels")

    w_mat = weight.data.reshape(cout, -1)
    pointwise = kh == kw == 1 and stride == 1 and padding == 0
    if pointwise:
        cols_mat = x.data.reshape(n, cin, h * w)
    else:
        cols = _im2col(_pad(x.data, padding, padding), kh, kw, stride, dilation, out_h, out_w)
        cols_mat = cols.reshape(n, cin * kh * kw, out_h * out_w)
    y = np.matmul(w_mat, cols_mat).reshape(n, cout, out_h, out_w)
    if bias is not None:
        y += bias.data

    def input_grad(g, g_mat):
        if pointwise:
            return np.matmul(w_mat.T, g_mat).reshape(x.shape)
        if stride == 1:
            gp = _pad(g, dilation * (kh - 1) - padding, dilation * (kw - 1) - padding)
            g_cols = _im2col(gp, kh, kw, 1, dilation, h, w).reshape(n, cout * kh * kw, h * w)
            w_flip = w_mat.reshape(weight.shape)[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            return np.matmul(w_flip.reshape(cin, -1), g_cols).reshape(x.shape)
        g_cols = np.matmul(w_mat.T, g_mat).reshape(n, cin, kh, kw, out_h, out_w)
        g_xp = _col2im(g_cols, (n, cin, h + 2 * padding, w + 2 * padding), stride, dilation)
        return g_xp[:, :, padding : padding + h, padding : padding + w]

    def backward_fn(g):
        g_mat = g.reshape(n, cout, -1)
        g_w = np.matmul(g_mat, cols_mat.transpose(0, 2, 1)).sum(axis=0).reshape(weight.shape)
        g_x = input_grad(g, g_mat)
        if bias is not None:
            g_b = g.sum(axis=(0, 2, 3)).reshape(1, cout, 1, 1)
            return g_x, g_w, g_b
        return g_x, g_w

    inputs = [x, weight] if bias is None else [x, weight, bias]
    return _record(y, inputs, backward_fn)


def conv_transpose2d(x, weight, bias=None, stride=1, padding=0):
    """Transposed 2-D convolution, the adjoint of conv2d with the same
    geometry.

    weight is (Cin, Cout, Kh, Kw); output spatial size is (H-1)*s - 2p + K.
    The gradient w.r.t. the input is the corresponding forward convolution.
    """
    if stride < 1 or padding < 0:
        raise UsageError(f"conv_transpose2d: bad stride/padding ({stride}, {padding})")
    n, cin, h, w = x.shape
    cker, cout, kh, kw = weight.shape
    if cker != cin:
        raise ShapeError(f"conv_transpose2d: input has {cin} channels but kernel expects {cker}")
    out_h = (h - 1) * stride - 2 * padding + kh
    out_w = (w - 1) * stride - 2 * padding + kw
    if out_h < 1 or out_w < 1:
        raise ShapeError(
            f"conv_transpose2d: non-positive output size {out_h}x{out_w} "
            f"for input {h}x{w}, kernel {kh}x{kw}, stride {stride}, padding {padding}"
        )
    if bias is not None and bias.shape != (1, cout, 1, 1):
        raise ShapeError(f"conv_transpose2d: bias shape {bias.shape} does not match {cout} output channels")

    w_mat = weight.data.reshape(cin, cout * kh * kw)
    x_mat = x.data.reshape(n, cin, h * w)
    cols = np.matmul(w_mat.T, x_mat).reshape(n, cout, kh, kw, h, w)
    y_pad = _col2im(cols, (n, cout, out_h + 2 * padding, out_w + 2 * padding), stride, 1)
    y = y_pad[:, :, padding : padding + out_h, padding : padding + out_w].copy() if padding else y_pad
    if bias is not None:
        y += bias.data

    def backward_fn(g):
        gp = _pad(g, padding, padding)
        g_cols = _im2col(gp, kh, kw, stride, 1, h, w).reshape(n, cout * kh * kw, h * w)
        g_x = np.matmul(w_mat, g_cols).reshape(x.shape)
        g_w = np.matmul(x_mat, g_cols.transpose(0, 2, 1)).sum(axis=0).reshape(weight.shape)
        if bias is not None:
            g_b = g.sum(axis=(0, 2, 3)).reshape(1, cout, 1, 1)
            return g_x, g_w, g_b
        return g_x, g_w

    inputs = [x, weight] if bias is None else [x, weight, bias]
    return _record(y, inputs, backward_fn)


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


def slice_channels(x, start, stop):
    """Channel slice x[:, start:stop]; the inverse view of concat_channels."""
    if not (0 <= start < stop <= x.shape[1]):
        raise ShapeError(f"slice_channels: [{start}:{stop}] out of range for C={x.shape[1]}")
    y = x.data[:, start:stop].copy()

    def backward_fn(g):
        full = np.zeros_like(x.data)
        full[:, start:stop] = g
        return (full,)

    return _record(y, [x], backward_fn)


# -- elementwise ops ----------------------------------------------------------


def add(x, y):
    _check_same_shape("add", x, y)

    def backward_fn(g):
        return g, g

    return _record(x.data + y.data, [x, y], backward_fn)


def sub(x, y):
    _check_same_shape("sub", x, y)

    def backward_fn(g):
        return g, -g

    return _record(x.data - y.data, [x, y], backward_fn)


def mul(x, y):
    _check_same_shape("mul", x, y)

    def backward_fn(g):
        return g * y.data, g * x.data

    return _record(x.data * y.data, [x, y], backward_fn)


def divide(x, y):
    _check_same_shape("divide", x, y)

    def backward_fn(g):
        inv = 1.0 / y.data
        return g * inv, -g * x.data * inv * inv

    return _record(x.data / y.data, [x, y], backward_fn)


def elementwise(x, y, op):
    """Dispatch form of the pointwise binary ops."""
    table = {"add": add, "mul": mul, "sub": sub, "div": divide}
    if op not in table:
        raise UsageError(f"elementwise: unknown op {op!r}")
    return table[op](x, y)


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


def leaky_relu(x, alpha=0.01):
    y = np.where(x.data > 0, x.data, x.data * x.data.dtype.type(alpha))

    def backward_fn(g):
        return (np.where(x.data > 0, g, g * x.data.dtype.type(alpha)),)

    return _record(y, [x], backward_fn)


def sigmoid(x):
    """Numerically stable logistic; outputs clamped into the open (0, 1)."""
    z = x.data
    y = np.empty_like(z)
    pos = z >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    y[~pos] = ez / (1.0 + ez)
    info = np.finfo(z.dtype)
    np.clip(y, info.tiny, 1.0 - info.epsneg, out=y)

    def backward_fn(g):
        return (g * y * (1.0 - y),)

    return _record(y, [x], backward_fn)


def activation(x, kind, alpha=0.01):
    """Apply an activation selected by name; "linear" is the identity."""
    if kind == "relu":
        return relu(x)
    if kind == "leaky_relu":
        return leaky_relu(x, alpha)
    if kind == "sigmoid":
        return sigmoid(x)
    if kind == "linear":
        return x
    raise UsageError(f"activation: unknown kind {kind!r}")


# -- normalization ------------------------------------------------------------


class BatchNormState:
    """Running-statistics buffers for batch normalization."""

    def __init__(self, channels, dtype=DEFAULT_DTYPE):
        self.running_mean = np.zeros((1, channels, 1, 1), dtype)
        self.running_var = np.ones((1, channels, 1, 1), dtype)
        self.num_updates = np.zeros((1, 1, 1, 1), dtype)

    @property
    def initialized(self):
        return float(self.num_updates.reshape(-1)[0]) > 0


def batch_norm(x, gamma, beta, state, training, eps=1e-5, momentum=0.1):
    """Per-channel batch normalization with running statistics.

    Train mode normalizes by batch mean/variance over (N, H, W) and blends
    the running statistics; eval mode normalizes by the running statistics
    and requires at least one prior training update.
    """
    n, c, h, w = x.shape
    if gamma.shape != (1, c, 1, 1) or beta.shape != (1, c, 1, 1):
        raise ShapeError(
            f"batch_norm: gamma {gamma.shape} / beta {beta.shape} do not match {c} channels"
        )
    if state.running_mean.shape[1] != c:
        raise ShapeError(
            f"batch_norm: state holds {state.running_mean.shape[1]} channels, input has {c}"
        )
    dt = x.data.dtype.type
    if training:
        mean = x.data.mean(axis=(0, 2, 3), keepdims=True)
        var = x.data.var(axis=(0, 2, 3), keepdims=True)
        count = n * h * w
        unbiased = var * (count / (count - 1)) if count > 1 else var
        m = dt(momentum)
        state.running_mean *= 1 - m
        state.running_mean += m * mean
        state.running_var *= 1 - m
        state.running_var += m * unbiased
        state.num_updates += 1
    else:
        if not state.initialized:
            raise StateError("batch_norm: eval mode before any training update")
        mean = state.running_mean
        var = state.running_var
    inv_std = 1.0 / np.sqrt(var + dt(eps))
    xhat = (x.data - mean) * inv_std
    y = gamma.data * xhat + beta.data

    def backward_fn(g):
        g_gamma = (g * xhat).sum(axis=(0, 2, 3)).reshape(1, c, 1, 1)
        g_beta = g.sum(axis=(0, 2, 3)).reshape(1, c, 1, 1)
        t = g * gamma.data
        if training:
            g_x = inv_std * (
                t
                - t.mean(axis=(0, 2, 3), keepdims=True)
                - xhat * (t * xhat).mean(axis=(0, 2, 3), keepdims=True)
            )
        else:
            g_x = t * inv_std
        return g_x, g_gamma, g_beta

    return _record(y, [x, gamma, beta], backward_fn)


# -- pooling / projection / resize ---------------------------------------------


def global_avg_pool(x):
    """Per-channel spatial mean, output (N, C, 1, 1)."""
    n, c, h, w = x.shape
    y = x.data.mean(axis=(2, 3), keepdims=True)

    def backward_fn(g):
        return (np.broadcast_to(g * (1.0 / (h * w)), x.shape),)

    return _record(y, [x], backward_fn)


def broadcast_spatial(x, out_h, out_w):
    """Tile a (N, C, 1, 1) tensor over a spatial grid."""
    n, c, h, w = x.shape
    if (h, w) != (1, 1):
        raise ShapeError(f"broadcast_spatial expects (N, C, 1, 1), got {x.shape}")
    y = np.broadcast_to(x.data, (n, c, out_h, out_w)).copy()

    def backward_fn(g):
        return (g.sum(axis=(2, 3), keepdims=True),)

    return _record(y, [x], backward_fn)


def linear(x, weight, bias=None):
    """Affine map over channels of a pooled (N, C, 1, 1) tensor.

    weight is (Cout, Cin, 1, 1), bias (1, Cout, 1, 1).
    """
    n, cin, h, w = x.shape
    if (h, w) != (1, 1):
        raise ShapeError(f"linear expects spatial size 1x1, got {x.shape}")
    cout, cker = weight.shape[:2]
    if weight.shape[2:] != (1, 1) or cker != cin:
        raise ShapeError(f"linear: weight {weight.shape} incompatible with input {x.shape}")
    if bias is not None and bias.shape != (1, cout, 1, 1):
        raise ShapeError(f"linear: bias shape {bias.shape} does not match {cout} outputs")
    w_mat = weight.data.reshape(cout, cin)
    x_mat = x.data.reshape(n, cin)
    y = x_mat @ w_mat.T
    if bias is not None:
        y = y + bias.data.reshape(1, cout)

    def backward_fn(g):
        g_mat = g.reshape(n, cout)
        g_x = (g_mat @ w_mat).reshape(x.shape)
        g_w = (g_mat.T @ x_mat).reshape(weight.shape)
        if bias is not None:
            return g_x, g_w, g_mat.sum(axis=0).reshape(1, cout, 1, 1)
        return g_x, g_w

    inputs = [x, weight] if bias is None else [x, weight, bias]
    return _record(y.reshape(n, cout, 1, 1), inputs, backward_fn)


def interp_matrix(n_out, n_in, dtype=np.float64):
    """Half-pixel-center bilinear interpolation weights as (n_out, n_in)."""
    m = np.zeros((n_out, n_in), dtype)
    if n_in == 1:
        m[:, 0] = 1
        return m
    pos = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    pos = np.clip(pos, 0.0, n_in - 1.0)
    i0 = np.minimum(pos.astype(np.int64), n_in - 2)
    t = (pos - i0).astype(dtype)
    rows = np.arange(n_out)
    m[rows, i0] += 1 - t
    m[rows, i0 + 1] += t
    return m


def resize_bilinear(x, out_h, out_w):
    """Half-pixel-center bilinear resize, differentiable through the weights."""
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"resize_bilinear: bad output size {out_h}x{out_w}")
    n, c, h, w = x.shape
    rm = interp_matrix(out_h, h, x.data.dtype)
    cm = interp_matrix(out_w, w, x.data.dtype)
    y = np.einsum("oh,nchw,pw->ncop", rm, x.data, cm, optimize=True)

    def backward_fn(g):
        return (np.einsum("oh,ncop,pw->nchw", rm, g, cm, optimize=True),)

    return _record(y, [x], backward_fn)


# -- reductions ---------------------------------------------------------------


def reduce_sum(x):
    """Sum of all elements as a (1, 1, 1, 1) tensor."""
    y = x.data.sum(dtype=x.data.dtype).reshape(1, 1, 1, 1)

    def backward_fn(g):
        return (np.broadcast_to(g, x.shape),)

    return _record(y, [x], backward_fn)


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


# -- gradient checking ----------------------------------------------------------


def max_grad_error(f, inputs, h_scale=1e-6, max_coords=None, rng=None):
    """Worst relative error between tape gradients of scalar ``f()`` and
    central finite differences over the given input tensors.

    Coordinates are probed exhaustively unless max_coords caps them, in which
    case a deterministic random subset per tensor is used. Inputs must be
    float64; the step per coordinate is h_scale * max(1, |x_j|) and the error
    is |analytic - numeric| / max(1, |numeric|).
    """
    for t in inputs:
        if t.data.dtype != np.float64:
            raise UsageError("gradient checking requires float64 tensors")
        t.grad = None
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


def finite_diff_gradcheck(f, x, h_scale=1e-6):
    """Check the gradient of scalar-valued ``f(x)`` at x (float64 only)."""
    if x.data.dtype != np.float64:
        raise UsageError("finite_diff_gradcheck requires a float64 tensor")
    probe = Tensor(x.data.copy(), requires_grad=True)
    return max_grad_error(lambda: f(probe), [probe], h_scale=h_scale)
