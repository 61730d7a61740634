"""Adam optimizer with bias correction over a named-parameter registry."""
from __future__ import annotations

import numpy as np

from .errors import NumericsError, UsageError
from .tensor import DEFAULT_DTYPE


class Adam:
    """Standard Adam; the step counter increments once per step() call.

    Construction packs every parameter into one contiguous buffer and
    rebinds each ``p.data`` to a view of it, so one step is a handful of
    vectorized expressions over the whole model. ``m`` and ``v`` map each
    name to a view of the flat moment buffers. All parameters must share
    one dtype.

    step() validates every gradient before touching any parameter, so a
    NumericsError leaves the model exactly as it was after the last
    completed step.
    """

    def __init__(self, named_params, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(named_params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        dtypes = {p.data.dtype for _, p in self.params}
        if len(dtypes) > 1:
            raise UsageError(f"Adam: parameters mix dtypes {sorted(d.name for d in dtypes)}")
        dtype = dtypes.pop() if dtypes else np.dtype(DEFAULT_DTYPE)
        total = sum(p.data.size for _, p in self.params)
        self._flat = np.empty(total, dtype)
        self._m = np.zeros(total, dtype)
        self._v = np.zeros(total, dtype)
        self._g = np.empty(total, dtype)
        self.m, self.v, self._g_views = {}, {}, []
        start = 0
        for name, p in self.params:
            stop = start + p.data.size
            view = self._flat[start:stop].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            self.m[name] = self._m[start:stop].reshape(view.shape)
            self.v[name] = self._v[start:stop].reshape(view.shape)
            self._g_views.append(self._g[start:stop].reshape(view.shape))
            start = stop

    def zero_grad(self):
        for _, p in self.params:
            p.grad = None

    def step(self):
        for (_, p), g in zip(self.params, self._g_views):
            g[...] = 0 if p.grad is None else p.grad
        g = self._g
        if not np.isfinite(g).all():
            bad = next(name for (name, _), gv in zip(self.params, self._g_views)
                       if not np.isfinite(gv).all())
            raise NumericsError(f"non-finite gradient for parameter {bad!r}")
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        m, v = self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * (g * g)
        self._flat -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
