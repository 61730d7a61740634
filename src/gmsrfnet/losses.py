"""Dual segmentation loss (binary cross entropy + soft IoU) with deep
supervision, confusion counts, and the four evaluation metrics."""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ShapeError
from .tensor import (
    Tensor,
    add,
    clamp,
    divide,
    log,
    mul,
    reduce_mean,
    reduce_sum_per_image,
    scale_shift,
)

PROB_CLAMP = 1e-7


def _as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.dtype if like is not None else None
    return Tensor(np.asarray(x), dtype=dtype)


def _check_pair(pred, target):
    target = _as_tensor(target, like=pred)
    if pred.shape != target.shape:
        raise ShapeError(f"prediction shape {pred.shape} does not match target {target.shape}")
    return target


def bce_loss(pred, target):
    """Mean binary cross entropy; probabilities are clamped away from 0/1."""
    target = _check_pair(pred, target)
    p = clamp(pred, PROB_CLAMP, 1.0 - PROB_CLAMP)
    term = add(mul(target, log(p)),
               mul(scale_shift(target, -1.0, 1.0), log(scale_shift(p, -1.0, 1.0))))
    return scale_shift(reduce_mean(term), -1.0, 0.0)


def soft_iou_loss(pred, target, eps=1.0):
    """1 - soft intersection-over-union, computed per image then averaged.

    With binary predictions and eps -> 0 this equals 1 - IoU exactly.
    """
    target = _check_pair(pred, target)
    inter = reduce_sum_per_image(mul(pred, target))
    union = add(add(reduce_sum_per_image(pred), reduce_sum_per_image(target)),
                scale_shift(inter, -1.0, 0.0))
    iou = divide(scale_shift(inter, 1.0, eps), scale_shift(union, 1.0, eps))
    return scale_shift(reduce_mean(iou), -1.0, 1.0)


def dual_loss(pred, target, eps=1.0):
    return add(bce_loss(pred, target), soft_iou_loss(pred, target, eps))


def total_loss(maps, target):
    """Deep-supervision objective: sum of the dual loss over all four maps."""
    out = dual_loss(maps[0], target)
    for m in maps[1:]:
        out = add(out, dual_loss(m, target))
    return out


# -- metrics --------------------------------------------------------------------


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int


class Metrics(NamedTuple):
    dsc: float
    iou: float
    recall: float
    precision: float


def confusion(pred, target, threshold=0.5):
    """Binarize the prediction at the threshold and count pixels."""
    p = pred.data if isinstance(pred, Tensor) else np.asarray(pred)
    t = target.data if isinstance(target, Tensor) else np.asarray(target)
    if p.shape != t.shape:
        raise ShapeError(f"prediction shape {p.shape} does not match target {t.shape}")
    pb = p >= threshold
    tb = t >= 0.5
    tp = int(np.count_nonzero(pb & tb))
    fp = int(np.count_nonzero(pb & ~tb))
    fn = int(np.count_nonzero(~pb & tb))
    tn = int(np.count_nonzero(~pb & ~tb))
    return ConfusionCounts(tp, fp, fn, tn)


def _ratio(num, den, both_empty):
    if den == 0:
        return 1.0 if both_empty else 0.0
    return num / den


def metrics(counts):
    """dsc / iou / recall / precision with the 0/0 -> 1 convention when both
    prediction and target are empty, 0 on any other zero denominator."""
    both_empty = counts.tp == 0 and counts.fp == 0 and counts.fn == 0
    return Metrics(
        dsc=_ratio(2 * counts.tp, 2 * counts.tp + counts.fp + counts.fn, both_empty),
        iou=_ratio(counts.tp, counts.tp + counts.fp + counts.fn, both_empty),
        recall=_ratio(counts.tp, counts.tp + counts.fn, both_empty),
        precision=_ratio(counts.tp, counts.tp + counts.fp, both_empty),
    )


@dataclass
class MetricRow:
    id: str
    dsc: float
    iou: float
    recall: float
    precision: float


@dataclass
class MetricReport:
    """Per-image metric rows plus dataset means for one evaluation run."""

    label: str
    rows: list = field(default_factory=list)

    @property
    def means(self):
        if not self.rows:
            return {"dsc": 0.0, "miou": 0.0, "recall": 0.0, "precision": 0.0}
        return {
            "dsc": float(np.mean([r.dsc for r in self.rows])),
            "miou": float(np.mean([r.iou for r in self.rows])),
            "recall": float(np.mean([r.recall for r in self.rows])),
            "precision": float(np.mean([r.precision for r in self.rows])),
        }

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["id", "dsc", "iou", "recall", "precision"])
            for r in self.rows:
                writer.writerow([r.id, f"{r.dsc:.6f}", f"{r.iou:.6f}",
                                 f"{r.recall:.6f}", f"{r.precision:.6f}"])

    def write_json(self, path):
        doc = {
            "label": self.label,
            "means": self.means,
            "rows": [
                {"id": r.id, "dsc": r.dsc, "iou": r.iou,
                 "recall": r.recall, "precision": r.precision}
                for r in self.rows
            ],
        }
        with open(path, "w") as f:
            json.dump(doc, f, indent=2)


def build_report(ids, preds, targets, label, threshold=0.5):
    """Evaluate per-image predictions against masks into a MetricReport; its
    mIoU is the mean foreground IoU."""
    report = MetricReport(label=label)
    for sample_id, p, t in zip(ids, preds, targets):
        m = metrics(confusion(p, t, threshold))
        report.rows.append(MetricRow(sample_id, m.dsc, m.iou, m.recall, m.precision))
    return report
