"""Adam optimizer: first-step algebra, determinism, error handling."""
import numpy as np
import pytest

from gmsrfnet.errors import NumericsError, UsageError
from gmsrfnet.network import ModelConfig, build_model
from gmsrfnet.optim import Adam
from gmsrfnet.tensor import Tensor

import reference
from test_acceptance import PROTOCOL_MODEL


def params_with_grads(values, grads, dtype=np.float64):
    # float64 so the closed-form first-step algebra is checked without
    # float32 quantization noise
    out = []
    for i, (v, g) in enumerate(zip(values, grads)):
        p = Tensor(np.full((1, 1, 1, 1), v, dtype), requires_grad=True)
        p.grad = np.full((1, 1, 1, 1), g, dtype) if g is not None else None
        out.append((f"p{i}", p))
    return out


class TestAdam:
    def test_zero_gradient_leaves_parameter_unchanged(self):
        named = params_with_grads([1.5], [0.0])
        Adam(named, lr=0.1).step()
        assert named[0][1].data.item() == 1.5

    def test_none_gradient_treated_as_zero(self):
        named = params_with_grads([2.0], [None])
        Adam(named, lr=0.1).step()
        assert named[0][1].data.item() == 2.0

    @pytest.mark.parametrize("g", [0.5, -0.5, 2.0, -0.03])
    def test_first_step_is_lr_times_sign(self, g):
        lr = 1e-4
        named = params_with_grads([1.0], [g])
        Adam(named, lr=lr).step()
        moved = named[0][1].data.item() - 1.0
        assert abs(moved - (-lr * np.sign(g))) <= lr * 1e-6

    def test_first_step_matches_closed_form(self):
        lr, g = 3e-3, 0.7
        named = params_with_grads([0.25], [g])
        Adam(named, lr=lr).step()
        expected = reference.adam_first_step(0.25, g, lr)
        assert abs(named[0][1].data.item() - expected) < 1e-9

    def test_bitwise_deterministic_states(self):
        rng = np.random.default_rng(0)
        runs = []
        for _ in range(2):
            named = params_with_grads([1.0, -2.0], [0.3, 0.9], dtype=np.float32)
            adam = Adam(named, lr=1e-3)
            for _ in range(5):
                for (_, p), g in zip(named, (0.3, 0.9)):
                    p.grad = np.full((1, 1, 1, 1), g, np.float32)
                adam.step()
            runs.append([p.data.copy() for _, p in named] +
                        [adam.m["p0"].copy(), adam.v["p1"].copy()])
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    def test_non_finite_gradient_names_parameter(self):
        named = params_with_grads([1.0, 1.0], [0.1, np.nan])
        adam = Adam(named, lr=0.1)
        with pytest.raises(NumericsError, match="p1"):
            adam.step()
        # validation happens before any update
        assert named[0][1].data.item() == 1.0

    def test_non_finite_gradient_after_a_step_changes_nothing(self):
        named = params_with_grads([1.0, -1.0, 0.5], [0.1, 0.2, 0.3])
        adam = Adam(named, lr=0.1)
        adam.step()
        before = ([p.data.copy() for _, p in named],
                  [a.copy() for a in adam.m.values()], [a.copy() for a in adam.v.values()])
        named[2][1].grad = np.full((1, 1, 1, 1), np.inf)
        named[1][1].grad = None
        with pytest.raises(NumericsError, match="'p2'"):
            adam.step()
        after = ([p.data for _, p in named], list(adam.m.values()), list(adam.v.values()))
        for a, b in zip(sum(before, []), sum(after, [])):
            assert np.array_equal(a, b)
        assert adam.t == 1

    def test_flat_update_bitwise_equals_per_tensor_loop(self):
        model = build_model(ModelConfig(**PROTOCOL_MODEL))
        named = list(model.named_parameters())
        assert len(named) > 300 and all(p.data.dtype == np.float32 for _, p in named)
        start = {name: p.data.copy() for name, p in named}
        rng = np.random.default_rng(5)
        grad_steps = [{name: rng.normal(0, 1, p.shape).astype(np.float32) for name, p in named}
                      for _ in range(5)]
        adam = Adam(named, lr=1e-3)
        for grads in grad_steps:
            for name, p in named:
                p.grad = grads[name]
            adam.step()
        params, m, v = reference.adam_steps_loops(start, grad_steps, lr=1e-3)
        for name, p in named:
            assert p.data.tobytes() == params[name].tobytes(), name
            assert adam.m[name].tobytes() == m[name].tobytes(), name
            assert adam.v[name].tobytes() == v[name].tobytes(), name

    def test_parameters_share_one_buffer(self):
        named = params_with_grads([1.0, 2.0], [0.5, -0.5])
        Adam(named, lr=0.1)
        base = named[0][1].data.base
        assert base is not None and named[1][1].data.base is base

    def test_mixed_dtypes_rejected(self):
        named = params_with_grads([1.0], [0.1]) + [
            ("p32", Tensor(np.ones((1, 1, 1, 1), np.float32), requires_grad=True))]
        with pytest.raises(UsageError, match="dtype"):
            Adam(named)

    def test_empty_parameter_list(self):
        adam = Adam([])
        adam.step()
        assert adam.t == 1 and adam.m == {} and adam.v == {}

    def test_step_counter_once_per_step(self):
        named = params_with_grads([1.0, 2.0, 3.0], [0.1, 0.1, 0.1])
        adam = Adam(named, lr=0.1)
        adam.step()
        adam.step()
        assert adam.t == 2

    def test_zero_grad_clears(self):
        named = params_with_grads([1.0], [0.5])
        adam = Adam(named)
        adam.zero_grad()
        assert named[0][1].grad is None
