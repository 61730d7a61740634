"""Adam optimizer with bias correction over a layer tree's flat arena."""
from __future__ import annotations

import bisect

import numpy as np

from .errors import NumericsError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Standard Adam with BETA1, BETA2 and EPS; the step counter increments
    once per step() call.

    Works on a layer's ``Arena``: one step is a handful of vectorized
    expressions over its flat ``params`` and ``grads``, with flat moments
    ``m`` and ``v`` of the arena's dtype. Make the optimizer after any
    ``Layer.astype``.

    step() validates every gradient before touching any parameter, so a
    NumericsError leaves the model exactly as it was after the last
    completed step.
    """

    def __init__(self, arena, lr=1e-4):
        self.arena = arena
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(arena.params)
        self.v = np.zeros_like(arena.params)
        self._scratch = np.empty((2,) + arena.params.shape, arena.params.dtype)
        self._finite = np.empty(arena.grads.shape, bool)  # reading grads allocates them

    def zero_grad(self):
        self.arena.grads.fill(0)

    def step(self):
        params, g = self.arena.params, self.arena.grads
        finite = np.isfinite(g, out=self._finite)
        if not finite.all():
            bad = bisect.bisect_right(self.arena.offsets, np.argmin(finite)) - 1
            raise NumericsError(f"non-finite gradient for parameter {self.arena.names[bad]!r}")
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        # params -= lr*(m/bc1) / (sqrt(v/bc2) + EPS), evaluated in that order
        # into two preallocated buffers: no step allocates a model-sized array
        m, v, (a, b) = self.m, self.v, self._scratch
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=a)
        v *= BETA2
        v += np.multiply(np.multiply(g, g, out=a), 1.0 - BETA2, out=a)
        np.multiply(np.divide(m, bc1, out=a), self.lr, out=a)
        np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), EPS, out=b)
        params -= np.divide(a, b, out=a)
