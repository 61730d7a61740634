"""Adam optimizer: first-step algebra, determinism, error handling."""
import numpy as np
import pytest

from gmsrfnet.blocks import Layer
from gmsrfnet.errors import NumericsError, UsageError
from gmsrfnet.network import ModelConfig, build_model
from gmsrfnet.optim import Adam
from gmsrfnet.tensor import Tensor

import reference
from test_acceptance import PROTOCOL_MODEL


def scalar_layer(values, dtypes):
    """A layer holding one (1, 1, 1, 1) parameter p<i> per value."""
    layer = Layer()
    for i, (v, dtype) in enumerate(zip(values, dtypes)):
        setattr(layer, f"p{i}", Tensor(np.full((1, 1, 1, 1), v, dtype), requires_grad=True))
    return layer


def params_with_grads(values, grads, dtype=np.float64):
    """Arena and named parameters of a scalar layer, each gradient written
    into its arena view; a None gradient leaves the view at zero."""
    # float64 so the closed-form first-step algebra is checked without
    # float32 quantization noise
    layer = scalar_layer(values, [dtype] * len(values))
    named = list(zip(layer.arena.names, layer.arena.tensors))
    for (_, p), g in zip(named, grads):
        if g is not None:
            p.grad[...] = g
    return layer.arena, named


class TestAdam:
    def test_zero_gradient_leaves_parameter_unchanged(self):
        arena, named = params_with_grads([1.5], [0.0])
        Adam(arena, lr=0.1).step()
        assert named[0][1].data.item() == 1.5

    def test_none_gradient_treated_as_zero(self):
        arena, named = params_with_grads([2.0], [None])
        Adam(arena, lr=0.1).step()
        assert named[0][1].data.item() == 2.0

    @pytest.mark.parametrize("g", [0.5, -0.5, 2.0, -0.03])
    def test_first_step_is_lr_times_sign(self, g):
        lr = 1e-4
        arena, named = params_with_grads([1.0], [g])
        Adam(arena, lr=lr).step()
        moved = named[0][1].data.item() - 1.0
        assert abs(moved - (-lr * np.sign(g))) <= lr * 1e-6

    def test_first_step_matches_closed_form(self):
        lr, g = 3e-3, 0.7
        arena, named = params_with_grads([0.25], [g])
        Adam(arena, lr=lr).step()
        expected = reference.adam_first_step(0.25, g, lr)
        assert abs(named[0][1].data.item() - expected) < 1e-9

    def test_bitwise_deterministic_states(self):
        rng = np.random.default_rng(0)
        runs = []
        for _ in range(2):
            arena, named = params_with_grads([1.0, -2.0], [0.3, 0.9], dtype=np.float32)
            adam = Adam(arena, lr=1e-3)
            for _ in range(5):
                for (_, p), g in zip(named, (0.3, 0.9)):
                    p.grad[...] = g
                adam.step()
            runs.append([p.data.copy() for _, p in named] + [adam.m.copy(), adam.v.copy()])
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    def test_non_finite_gradient_names_parameter(self):
        arena, named = params_with_grads([1.0, 1.0], [0.1, np.nan])
        adam = Adam(arena, lr=0.1)
        with pytest.raises(NumericsError, match="p1"):
            adam.step()
        # validation happens before any update
        assert named[0][1].data.item() == 1.0

    def test_non_finite_gradient_after_a_step_changes_nothing(self):
        arena, named = params_with_grads([1.0, -1.0, 0.5], [0.1, 0.2, 0.3])
        adam = Adam(arena, lr=0.1)
        adam.step()
        before = ([p.data.copy() for _, p in named], [adam.m.copy()], [adam.v.copy()])
        named[2][1].grad[...] = np.inf
        named[1][1].grad[...] = 0
        with pytest.raises(NumericsError, match="'p2'"):
            adam.step()
        after = ([p.data for _, p in named], [adam.m], [adam.v])
        for a, b in zip(sum(before, []), sum(after, [])):
            assert np.array_equal(a, b)
        assert adam.t == 1

    def test_flat_update_bitwise_equals_per_tensor_loop(self):
        model = build_model(ModelConfig(**PROTOCOL_MODEL))
        named = list(zip(model.arena.names, model.arena.tensors))
        assert len(named) == 269 and all(p.data.dtype == np.float32 for _, p in named)
        start = {name: p.data.copy() for name, p in named}
        rng = np.random.default_rng(5)
        grad_steps = [{name: rng.normal(0, 1, p.shape).astype(np.float32) for name, p in named}
                      for _ in range(5)]
        adam = Adam(model.arena, lr=1e-3)
        for grads in grad_steps:
            for name, p in named:
                p.grad[...] = grads[name]
            adam.step()
        params, m, v = reference.adam_steps_loops(start, grad_steps, lr=1e-3)
        for name, p in named:
            assert p.data.tobytes() == params[name].tobytes(), name
        for flat, per_name in ((adam.m, m), (adam.v, v)):
            assert flat.tobytes() == b"".join(per_name[name].tobytes() for name, _ in named)

    def test_parameters_share_one_buffer(self):
        arena, named = params_with_grads([1.0, 2.0], [0.5, -0.5])
        Adam(arena, lr=0.1)
        base = named[0][1].data.base
        assert base is not None and named[1][1].data.base is base
        assert base is arena.params and named[1][1].grad.base is arena.grads

    def test_mixed_dtypes_rejected(self):
        layer = scalar_layer([1.0, 1.0], [np.float64, np.float32])
        with pytest.raises(UsageError, match="dtype"):
            Adam(layer.arena)

    def test_empty_parameter_list(self):
        adam = Adam(Layer().arena)
        adam.step()
        assert adam.t == 1 and adam.m.size == 0 and adam.v.size == 0

    def test_step_counter_once_per_step(self):
        arena, named = params_with_grads([1.0, 2.0, 3.0], [0.1, 0.1, 0.1])
        adam = Adam(arena, lr=0.1)
        adam.step()
        adam.step()
        assert adam.t == 2

    def test_zero_grad_clears(self):
        arena, named = params_with_grads([1.0], [0.5])
        adam = Adam(arena)
        adam.zero_grad()
        assert np.array_equal(named[0][1].grad, np.zeros((1, 1, 1, 1)))
        assert named[0][1].grad.base is arena.grads
