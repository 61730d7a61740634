"""The finite-difference verification suite, including its negative control."""
import numpy as np
import pytest

from gmsrfnet import tensor as T
from gmsrfnet.errors import UsageError
from gmsrfnet.gradchecks import max_grad_error, run_suite
from gmsrfnet.tensor import Tensor


class TestSuite:
    def test_op_scope_all_pass(self):
        results = run_suite("op")
        failing = [r.name for r in results if not r.passed]
        assert not failing, failing
        assert len(results) >= 20

    @pytest.mark.slow
    def test_block_scope_all_pass(self):
        results = run_suite("block")
        failing = [(r.name, r.max_error) for r in results if not r.passed]
        assert not failing, failing

    def test_unknown_scope_rejected(self):
        with pytest.raises(UsageError):
            run_suite("universe")


class TestNegativeControl:
    def test_corrupted_conv_gradient_detected(self, monkeypatch):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(1, 2, 5, 5)), requires_grad=True, dtype=np.float64)
        w_data = rng.normal(size=(2, 2, 3, 3))

        def f(v):
            return T.reduce_mean(T.mul(T.conv2d(v, Tensor(w_data, dtype=np.float64), padding=1),
                                       T.conv2d(v, Tensor(w_data, dtype=np.float64), padding=1)))

        clean = max_grad_error(lambda: f(x), [x])
        assert clean < 1e-5

        # corrupt the weight gradient: the checker must flag weight checks
        w = Tensor(w_data, dtype=np.float64, requires_grad=True)
        xc = Tensor(x.data, dtype=np.float64, requires_grad=True)
        record = T._record

        def record_wrong_weight_grad(out_data, inputs, backward_fn):
            def corrupted(g):
                return [gi + 1e-3 if t is w else gi for t, gi in zip(inputs, backward_fn(g))]
            return record(out_data, inputs, corrupted)

        monkeypatch.setattr(T, "_record", record_wrong_weight_grad)
        err = max_grad_error(
            lambda: T.reduce_mean(T.conv2d(xc, w, padding=1)), [w])
        assert err > 1e-5
