"""Independent brute-force oracles used by the tests, and the scalar loss
that seeds a backward pass with a chosen upstream gradient.

The oracles are written as plain nested loops over definitions, on purpose:
they share no code with the library paths they check.
"""
import numpy as np

from gmsrfnet.tensor import _record


def sum_loss(y, g=None):
    """The scalar sum(g * y), or sum(y) when g is None, recorded as one node
    whose backward hands y exactly g (or ones): backward(sum_loss(y, g))
    propagates the upstream gradient g into y's graph."""
    g = np.ones(y.shape, y.dtype) if g is None else np.array(g, y.dtype)
    return _record((y.data * g).sum().reshape(1, 1, 1, 1), [y], lambda _: (g,))


def conv2d_loops(x, w, b=None, stride=1, padding=0, dilation=1):
    """Direct nested-loop convolution over the definition."""
    n, cin, h, wid = x.shape
    cout, _, kh, kw = w.shape
    out_h = (h + 2 * padding - dilation * (kh - 1) - 1) // stride + 1
    out_w = (wid + 2 * padding - dilation * (kw - 1) - 1) // stride + 1
    y = np.zeros((n, cout, out_h, out_w), np.float64)
    for ni in range(n):
        for co in range(cout):
            for i in range(out_h):
                for j in range(out_w):
                    acc = 0.0
                    for ci in range(cin):
                        for u in range(kh):
                            for v in range(kw):
                                r = i * stride - padding + u * dilation
                                c = j * stride - padding + v * dilation
                                if 0 <= r < h and 0 <= c < wid:
                                    acc += float(x[ni, ci, r, c]) * float(w[co, ci, u, v])
                    if b is not None:
                        acc += float(b[co])
                    y[ni, co, i, j] = acc
    return y


def conv2d_input_grad_loops(g, w, x_shape, stride=1, padding=0, dilation=1):
    """Adjoint of conv2d in its input: each upstream gradient element flows
    back, weighted by the kernel tap, to every input pixel its window read."""
    n, cin, h, wid = x_shape
    cout, _, kh, kw = w.shape
    out_h, out_w = g.shape[2:]
    gx = np.zeros(x_shape, np.float64)
    for ni in range(n):
        for co in range(cout):
            for i in range(out_h):
                for j in range(out_w):
                    for ci in range(cin):
                        for u in range(kh):
                            for v in range(kw):
                                r = i * stride - padding + u * dilation
                                c = j * stride - padding + v * dilation
                                if 0 <= r < h and 0 <= c < wid:
                                    gx[ni, ci, r, c] += float(g[ni, co, i, j]) * float(w[co, ci, u, v])
    return gx


def conv2d_weight_grad_loops(x, g, w_shape, stride=1, padding=0, dilation=1):
    """Gradient of conv2d in its kernel: each tap collects the upstream
    gradient times the input pixel it read, over every window."""
    n, cin, h, wid = x.shape
    cout, _, kh, kw = w_shape
    out_h, out_w = g.shape[2:]
    gw = np.zeros(w_shape, np.float64)
    for ni in range(n):
        for co in range(cout):
            for i in range(out_h):
                for j in range(out_w):
                    for ci in range(cin):
                        for u in range(kh):
                            for v in range(kw):
                                r = i * stride - padding + u * dilation
                                c = j * stride - padding + v * dilation
                                if 0 <= r < h and 0 <= c < wid:
                                    gw[co, ci, u, v] += float(g[ni, co, i, j]) * float(x[ni, ci, r, c])
    return gw


def conv_transpose2d_loops(x, w, b=None, stride=1, padding=0):
    """Scatter-accumulate transposed convolution over the definition."""
    n, cin, h, wid = x.shape
    _, cout, kh, kw = w.shape
    out_h = (h - 1) * stride - 2 * padding + kh
    out_w = (wid - 1) * stride - 2 * padding + kw
    y = np.zeros((n, cout, out_h, out_w), np.float64)
    for ni in range(n):
        for ci in range(cin):
            for i in range(h):
                for j in range(wid):
                    for co in range(cout):
                        for u in range(kh):
                            for v in range(kw):
                                r = i * stride - padding + u
                                c = j * stride - padding + v
                                if 0 <= r < out_h and 0 <= c < out_w:
                                    y[ni, co, r, c] += float(x[ni, ci, i, j]) * float(w[ci, co, u, v])
    if b is not None:
        for co in range(cout):
            y[:, co] += float(b[co])
    return y


def bilinear_loops(x, out_h, out_w):
    """Half-pixel-center bilinear interpolation with edge clamping."""
    n, c, h, w = x.shape
    y = np.zeros((n, c, out_h, out_w), np.float64)

    def axis_weights(o, n_out, n_in):
        if n_in == 1:
            return 0, 0, 0.0
        pos = (o + 0.5) * (n_in / n_out) - 0.5
        pos = min(max(pos, 0.0), n_in - 1.0)
        i0 = min(int(np.floor(pos)), n_in - 2)
        return i0, i0 + 1, pos - i0

    for ni in range(n):
        for ci in range(c):
            for i in range(out_h):
                r0, r1, ty = axis_weights(i, out_h, h)
                for j in range(out_w):
                    c0, c1, tx = axis_weights(j, out_w, w)
                    top = (1 - tx) * float(x[ni, ci, r0, c0]) + tx * float(x[ni, ci, r0, c1])
                    bot = (1 - tx) * float(x[ni, ci, r1, c0]) + tx * float(x[ni, ci, r1, c1])
                    y[ni, ci, i, j] = (1 - ty) * top + ty * bot
    return y


def confusion_loops(pred, target, threshold=0.5):
    """Pixel-by-pixel confusion counts."""
    tp = fp = fn = tn = 0
    p = np.asarray(pred).reshape(-1)
    t = np.asarray(target).reshape(-1)
    for pi, ti in zip(p, t):
        pb = pi >= threshold
        tb = ti >= 0.5
        if pb and tb:
            tp += 1
        elif pb and not tb:
            fp += 1
        elif not pb and tb:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def metrics_loops(tp, fp, fn):
    """Metric definitions straight from the confusion counts."""
    def safe(num, den):
        if den == 0:
            return 1.0 if (tp == 0 and fp == 0 and fn == 0) else 0.0
        return num / den

    dsc = safe(2 * tp, 2 * tp + fp + fn)
    iou = safe(tp, tp + fp + fn)
    recall = safe(tp, tp + fn)
    precision = safe(tp, tp + fp)
    return dsc, iou, recall, precision


def batchnorm_loops(x, gamma, beta, eps=1e-5):
    """Hand batch normalization over (N, H, W) per channel, biased variance."""
    n, c, h, w = x.shape
    y = np.zeros_like(x, dtype=np.float64)
    for ci in range(c):
        vals = x[:, ci].astype(np.float64)
        mu = vals.mean()
        var = ((vals - mu) ** 2).mean()
        y[:, ci] = gamma[ci] * (vals - mu) / np.sqrt(var + eps) + beta[ci]
    return y


def adam_first_step(theta, g, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Closed-form first Adam step from zero moments."""
    m_hat = g                      # m1 / (1 - beta1)
    v_hat = g * g                  # v1 / (1 - beta2)
    return theta - lr * m_hat / (np.sqrt(v_hat) + eps)


def adam_steps_loops(params, grad_steps, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam over per-parameter arrays, one tensor at a time.

    params maps name -> array; grad_steps holds one name -> gradient dict per
    step. Returns the updated parameters and the m and v moments, as dicts.
    """
    params = {name: p.copy() for name, p in params.items()}
    m = {name: np.zeros_like(p) for name, p in params.items()}
    v = {name: np.zeros_like(p) for name, p in params.items()}
    for t, grads in enumerate(grad_steps, start=1):
        bc1 = 1.0 - beta1**t
        bc2 = 1.0 - beta2**t
        for name, p in params.items():
            g = grads[name]
            m[name] *= beta1
            m[name] += (1.0 - beta1) * g
            v[name] *= beta2
            v[name] += (1.0 - beta2) * (g * g)
            p -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
    return params, m, v
