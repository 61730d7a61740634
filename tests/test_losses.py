"""Loss functions, confusion counts, metrics, and report serialization."""
import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmsrfnet.errors import ShapeError
from gmsrfnet.losses import (
    ConfusionCounts,
    bce_loss,
    build_report,
    confusion,
    dual_loss,
    metrics,
    soft_iou_loss,
    total_loss,
)
from gmsrfnet.tensor import Tensor, backward

import reference


def prob(data, dtype=np.float64, requires_grad=False):
    arr = np.asarray(data, dtype)
    while arr.ndim < 4:
        arr = arr[None]
    return Tensor(arr, requires_grad=requires_grad)


class TestBce:
    def test_uniform_half_is_ln2(self):
        pred = prob(np.full((2, 1, 8, 8), 0.5))
        target = (np.random.default_rng(0).uniform(size=(2, 1, 8, 8)) > 0.5).astype(np.float64)
        assert abs(bce_loss(pred, target).item() - math.log(2)) < 1e-6

    def test_perfect_prediction_near_zero(self):
        target = (np.random.default_rng(1).uniform(size=(1, 1, 8, 8)) > 0.5).astype(np.float64)
        assert bce_loss(prob(target), target).item() < 1e-6

    def test_single_pixel_hand_value(self):
        assert abs(bce_loss(prob([[0.8]]), prob([[1.0]])).item() - 0.22314355) < 1e-6

    def test_differentiable(self):
        pred = prob(np.full((1, 1, 2, 2), 0.3), requires_grad=True)
        target = np.ones((1, 1, 2, 2))
        backward(bce_loss(pred, target))
        np.testing.assert_allclose(pred.grad, -1.0 / (0.3 * 4), rtol=1e-6)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            bce_loss(prob(np.zeros((1, 1, 2, 2))), np.zeros((1, 1, 2, 3)))


class TestSoftIou:
    def test_equal_binary_masks_zero_any_eps(self):
        target = (np.random.default_rng(2).uniform(size=(2, 1, 6, 6)) > 0.4).astype(np.float64)
        for eps in (1.0, 0.5, 1e-12):
            assert soft_iou_loss(prob(target), target, eps=eps).item() == 0.0

    def test_all_ones_vs_all_zeros_closed_form(self):
        n = 6 * 6
        pred = prob(np.ones((1, 1, 6, 6)))
        target = np.zeros((1, 1, 6, 6))
        expected = 1.0 - 1.0 / (n + 1.0)
        assert abs(soft_iou_loss(pred, target, eps=1.0).item() - expected) < 1e-9

    def test_half_overlap_closed_form_two_thirds(self):
        target = np.zeros((1, 1, 4, 4))
        target[:, :, :2, :] = 1.0  # exactly half the pixels
        pred = prob(np.full((1, 1, 4, 4), 0.5))
        loss = soft_iou_loss(pred, target, eps=1e-12).item()
        assert abs(loss - 2.0 / 3.0) < 1e-6

    def test_binary_pred_equals_one_minus_iou(self):
        rng = np.random.default_rng(3)
        pred = (rng.uniform(size=(1, 1, 8, 8)) > 0.5).astype(np.float64)
        target = (rng.uniform(size=(1, 1, 8, 8)) > 0.5).astype(np.float64)
        counts = confusion(pred, target)
        m = metrics(counts)
        loss = soft_iou_loss(prob(pred), target, eps=1e-12).item()
        assert abs(loss - (1.0 - m.iou)) < 1e-9


class TestDualAndTotal:
    def test_additivity_bitwise(self):
        rng = np.random.default_rng(4)
        pred = prob(rng.uniform(0.1, 0.9, (1, 1, 5, 5)))
        target = (rng.uniform(size=(1, 1, 5, 5)) > 0.5).astype(np.float64)
        d = dual_loss(pred, target).item()
        b = bce_loss(pred, target).item()
        i = soft_iou_loss(pred, target).item()
        assert d == b + i

    def test_dual_example_sum(self):
        target = np.zeros((1, 1, 4, 4))
        target[:, :, :2, :] = 1.0
        pred = prob(np.full((1, 1, 4, 4), 0.5))
        d = dual_loss(pred, target, eps=1e-12).item()
        assert abs(d - (math.log(2) + 2.0 / 3.0)) < 1e-6

    def test_total_is_four_times_for_identical_maps(self):
        rng = np.random.default_rng(5)
        pred = prob(rng.uniform(0.2, 0.8, (1, 1, 4, 4)))
        target = (rng.uniform(size=(1, 1, 4, 4)) > 0.5).astype(np.float64)
        one = dual_loss(pred, target).item()
        four = total_loss([pred, pred, pred, pred], target).item()
        assert abs(four - 4 * one) < 1e-9

    def test_total_perfect_below_4em6(self):
        target = (np.random.default_rng(6).uniform(size=(1, 1, 8, 8)) > 0.5).astype(np.float64)
        maps = [prob(target) for _ in range(4)]
        assert total_loss(maps, target).item() < 4e-6

    def test_gradient_reaches_every_map(self):
        rng = np.random.default_rng(7)
        maps = [prob(rng.uniform(0.2, 0.8, (1, 1, 4, 4)), requires_grad=True) for _ in range(4)]
        target = (rng.uniform(size=(1, 1, 4, 4)) > 0.5).astype(np.float64)
        backward(total_loss(maps, target))
        for m in maps:
            assert m.grad is not None and np.any(m.grad != 0)

    def test_losses_non_negative(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            pred = prob(rng.uniform(0.01, 0.99, (1, 1, 6, 6)))
            target = (rng.uniform(size=(1, 1, 6, 6)) > rng.uniform()).astype(np.float64)
            assert dual_loss(pred, target).item() >= 0
            assert soft_iou_loss(pred, target).item() >= 0


class TestConfusion:
    def test_perfect_match_no_errors(self):
        t = (np.random.default_rng(9).uniform(size=(1, 1, 8, 8)) > 0.5).astype(np.float64)
        c = confusion(t, t)
        assert c.fp == 0 and c.fn == 0

    def test_all_positive_vs_empty(self):
        pred = np.ones((1, 1, 4, 4))
        c = confusion(pred, np.zeros((1, 1, 4, 4)))
        assert c.fp == 16 and c.tp == 0

    def test_counts_sum_to_pixels(self):
        rng = np.random.default_rng(10)
        c = confusion(rng.uniform(size=(1, 1, 8, 8)), rng.uniform(size=(1, 1, 8, 8)))
        assert c.total == 64

    @pytest.mark.parametrize("seed", range(5))
    def test_random_masks_match_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.uniform(size=(1, 1, 8, 8))
        target = (rng.uniform(size=(1, 1, 8, 8)) > 0.5).astype(np.float64)
        c = confusion(pred, target)
        assert (c.tp, c.fp, c.fn, c.tn) == reference.confusion_loops(pred, target)


class TestMetrics:
    def test_identical_nonempty_all_one(self):
        m = metrics(ConfusionCounts(tp=10, fp=0, fn=0, tn=54))
        assert m == (1.0, 1.0, 1.0, 1.0)

    def test_disjoint_nonempty_all_zero(self):
        m = metrics(ConfusionCounts(tp=0, fp=5, fn=7, tn=52))
        assert m == (0.0, 0.0, 0.0, 0.0)

    def test_half_recall_case(self):
        m = metrics(ConfusionCounts(tp=8, fp=0, fn=8, tn=48))
        assert m.precision == 1.0 and m.recall == 0.5
        assert abs(m.dsc - 2 / 3) < 1e-12 and m.iou == 0.5

    def test_both_empty_convention(self):
        m = metrics(ConfusionCounts(tp=0, fp=0, fn=0, tn=64))
        assert m == (1.0, 1.0, 1.0, 1.0)

    def test_empty_target_nonempty_pred(self):
        m = metrics(ConfusionCounts(tp=0, fp=3, fn=0, tn=61))
        assert m.recall == 0.0 and m.precision == 0.0

    def test_dsc_iou_identity_on_1000_random_masks(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            pred = rng.uniform(size=(16, 16)) > rng.uniform(0.2, 0.8)
            target = rng.uniform(size=(16, 16)) > rng.uniform(0.2, 0.8)
            m = metrics(confusion(pred[None, None].astype(float), target[None, None].astype(float)))
            assert abs(m.dsc - 2 * m.iou / (1 + m.iou)) < 1e-12
            assert 0 <= m.dsc <= 1 and 0 <= m.iou <= 1
            assert 0 <= m.recall <= 1 and 0 <= m.precision <= 1

    def test_metrics_match_loop_oracle_exactly_1000(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            pred = (rng.uniform(size=(16, 16)) > rng.uniform(0.1, 0.9)).astype(np.float64)
            target = (rng.uniform(size=(16, 16)) > rng.uniform(0.1, 0.9)).astype(np.float64)
            c = confusion(pred[None, None], target[None, None])
            got = metrics(c)
            tp, fp, fn, _ = reference.confusion_loops(pred, target)
            assert (tp, fp, fn) == (c.tp, c.fp, c.fn)
            expected = reference.metrics_loops(tp, fp, fn)
            assert got == pytest.approx(expected, abs=0)  # exact


class TestReport:
    def _report(self):
        rng = np.random.default_rng(13)
        ids = [f"img{i}" for i in range(6)]
        preds = [rng.uniform(size=(1, 8, 8)) for _ in ids]
        targets = [(rng.uniform(size=(1, 8, 8)) > 0.5).astype(float) for _ in ids]
        return build_report(ids, preds, targets, label="unit")

    def test_means_equal_row_means(self):
        report = self._report()
        means = report.means
        assert abs(means["dsc"] - np.mean([r.dsc for r in report.rows])) < 1e-12
        assert abs(means["miou"] - np.mean([r.iou for r in report.rows])) < 1e-12

    def test_csv_layout(self, tmp_path):
        report = self._report()
        path = tmp_path / "r.csv"
        report.write_csv(path)
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["id", "dsc", "iou", "recall", "precision"]
        assert len(rows) == 1 + len(report.rows)

    def test_json_layout(self, tmp_path):
        report = self._report()
        path = tmp_path / "r.json"
        report.write_json(path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"label", "means", "rows"}
        assert doc["label"] == "unit"
        assert set(doc["means"]) == {"dsc", "miou", "recall", "precision"}
        assert len(doc["rows"]) == len(report.rows)


class TestBoundaryWeights:
    def test_off_by_default_signature(self):
        # the losses weight every pixel alike: BCE at p = 0.5 is ln 2
        target = np.zeros((1, 1, 4, 4))
        assert bce_loss(prob(np.full((1, 1, 4, 4), 0.5)), target).item() == pytest.approx(math.log(2))


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_dsc_iou_identity_property(self, seed):
        rng = np.random.default_rng(seed)
        pred = (rng.uniform(size=(8, 8)) > rng.uniform()).astype(float)
        target = (rng.uniform(size=(8, 8)) > rng.uniform()).astype(float)
        m = metrics(confusion(pred[None, None], target[None, None]))
        assert abs(m.dsc - 2 * m.iou / (1 + m.iou)) < 1e-12
