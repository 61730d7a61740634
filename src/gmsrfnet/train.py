"""Training engine: batched Adam training with deep supervision, evaluation
into metric reports, single-image prediction, and the two-center
generalization report."""
from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .data import augment, read_pnm, resize_image, resize_mask, write_pnm
from .errors import (Config, ConfigError, FormatError, NumericsError, UsageError, check_fields,
                     check_output, open_file)
from .losses import MEAN_KEYS, THRESHOLD, build_report, total_loss
from .network import ModelConfig, build_model, load_checkpoint, save_checkpoint
from .optim import Adam
from .tensor import Tensor, backward, no_grad


@dataclass
class TrainConfig(Config):
    """Optimization protocol settings plus the embedded model config."""

    lr: float = 1e-4
    batch_size: int = 8
    epochs: int = 50
    seed: int = 0
    max_steps: int | None = None
    augment: bool = True
    threads: int = 1
    model: ModelConfig = field(default_factory=ModelConfig)

    def validate(self):
        if isinstance(self.model, dict):
            self.model = ModelConfig.from_dict(self.model)
        check_fields(self)
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.threads != 1:
            raise ConfigError(f"threads must be 1, got {self.threads!r}")
        if self.max_steps is not None and (type(self.max_steps) is not int or self.max_steps < 1):
            raise ConfigError(f"max_steps must be a positive int or null, got {self.max_steps!r}")
        if not isinstance(self.model, ModelConfig):
            raise ConfigError(f"model must be a ModelConfig object, got {self.model!r}")


@dataclass
class TrainResult:
    model: object
    epoch_rows: list
    step_losses: list
    final_path: str | None
    best_path: str | None


def _check_samples(dataset, size):
    """Raise FormatError unless every image and mask is size x size and
    finite."""
    for s in dataset:
        for what, arr in (("image", s.image), ("mask", s.mask)):
            if arr.shape[1:] != (size, size):
                raise FormatError(f"sample {s.id}: {what} has size {arr.shape[1:]}, "
                                  f"model expects {size}x{size}")
            if not np.isfinite(arr).all():
                raise FormatError(f"sample {s.id}: {what} holds non-finite values")


def _stack_batch(samples):
    images = np.stack([s.image for s in samples]).astype(np.float32)
    masks = np.stack([s.mask for s in samples]).astype(np.float32)
    return Tensor(images), masks


def train(cfg, train_set, val_set=None, out_path=None, log_path=None):
    """Run the training loop; returns the model, per-epoch log rows, and the
    raw per-step loss trace.

    Saves the final checkpoint at out_path and, when a non-empty val_set is
    given, the best-validation-DSC checkpoint at out_path + ".best". A
    NumericsError aborts after re-saving the parameters from the last
    completed step. Before the model is built, an output that check_output
    refuses raises UsageError, and an image or mask in either set that is
    not input_size square or not finite raises FormatError.
    """
    validate = val_set is not None and len(val_set) > 0
    best_path = out_path + ".best" if out_path and validate else None
    check_output(out_path=out_path, log_path=log_path, best_path=best_path)
    if len(train_set) == 0:
        raise ConfigError("training set is empty")
    for dataset in (train_set, val_set or ()):
        _check_samples(dataset, cfg.model.input_size)

    model = build_model(cfg.model)
    adam = Adam(model.arena, cfg.lr)

    epoch_rows = []
    step_losses = []
    best_dsc = -1.0
    step = 0
    n = len(train_set)
    try:
        for epoch in range(cfg.epochs):
            order = np.random.default_rng([cfg.seed, epoch]).permutation(n)
            epoch_losses = []
            model.set_training(True)
            for start in range(0, n, cfg.batch_size):
                batch_idx = order[start : start + cfg.batch_size]
                batch = [train_set.samples[i] for i in batch_idx]
                if cfg.augment:
                    batch = [augment(s, np.random.default_rng([cfg.seed, epoch, int(i)]))
                             for s, i in zip(batch, batch_idx)]
                images, masks = _stack_batch(batch)
                maps = model(images)
                loss = total_loss(maps, masks)
                adam.zero_grad()
                backward(loss)
                adam.step()
                value = loss.item()
                epoch_losses.append(value)
                step_losses.append(value)
                step += 1
                if cfg.max_steps is not None and step >= cfg.max_steps:
                    break
            row = {"epoch": epoch, "train_loss": float(np.mean(epoch_losses))}
            if validate:
                val_dsc = evaluate_model(model, val_set, "val", batch_size=cfg.batch_size).means["dsc"]
                row["val_dsc"] = val_dsc
                if best_path and val_dsc > best_dsc:
                    best_dsc = val_dsc
                    save_checkpoint(model, best_path)
            epoch_rows.append(row)
            if cfg.max_steps is not None and step >= cfg.max_steps:
                break
    except NumericsError:
        if out_path:
            save_checkpoint(model, out_path)
        raise
    if out_path:
        save_checkpoint(model, out_path)
    if log_path:
        write_log(epoch_rows, log_path)
    return TrainResult(model, epoch_rows, step_losses, out_path, best_path)


def write_log(rows, path):
    fields = ["epoch", "train_loss"] + (["val_dsc"] if any("val_dsc" in r for r in rows) else [])
    with open_file(path, "w", UsageError, newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fields)
        writer.writeheader()
        for r in rows:
            writer.writerow({k: r.get(k, "") for k in fields})


# -- evaluation -----------------------------------------------------------------


def predict_maps(model, dataset, batch_size=8):
    """Primary probability maps (P1) for every sample, in dataset order; the
    other three heads are not run."""
    model.set_training(False)
    preds = []
    with no_grad():
        for start in range(0, len(dataset), batch_size):
            images, _ = _stack_batch(dataset.samples[start : start + batch_size])
            preds.extend(model.segment(images).data)
    return preds


def evaluate_model(model, dataset, label="", batch_size=8):
    preds = predict_maps(model, dataset, batch_size)
    targets = [s.mask for s in dataset.samples]
    return build_report(dataset.ids(), preds, targets, label)


def evaluate(checkpoint, dataset, out_base=None, label=""):
    """Evaluate a checkpoint (path or loaded model) on a dataset; optionally
    write <out_base>.csv and <out_base>.json. An output that could not be
    written raises UsageError before the checkpoint is loaded."""
    if out_base:
        check_output(out_csv=out_base + ".csv", out_json=out_base + ".json")
    model = load_checkpoint(checkpoint) if isinstance(checkpoint, (str, os.PathLike)) else checkpoint
    _check_samples(dataset, model.config.input_size)
    report = evaluate_model(model, dataset, label or dataset.center_id)
    if out_base:
        report.write_csv(out_base + ".csv")
        report.write_json(out_base + ".json")
    return report


def predict(checkpoint_path, image_path, out_mask_path):
    """Segment one PPM image; writes a {0, 255} P5 mask at the input's own
    resolution. An out_mask_path that check_output refuses, as it does either
    input, raises UsageError before the checkpoint is loaded."""
    check_output((checkpoint_path, image_path), out_mask_path=out_mask_path)
    model = load_checkpoint(checkpoint_path)
    size = model.config.input_size
    image = read_pnm(image_path)
    if image.shape[0] != 3:
        raise FormatError(f"{image_path}: expected a P6 color image")
    orig_h, orig_w = image.shape[1:]
    if (orig_h, orig_w) != (size, size):
        image = resize_image(image, size, size)
    model.set_training(False)
    with no_grad():
        prob = model.segment(Tensor(image[None])).data[0, 0]
    write_pnm(resize_mask((prob >= THRESHOLD)[None].astype(np.float32), orig_h, orig_w),
              out_mask_path)


# -- generalization report ---------------------------------------------------------


def generalization_report(model_a, model_b, data_a, data_b, out_base=None):
    """2x2 cross-center evaluation of two loaded models: each on its own
    test split (``Dataset.split``) and on the other center's full dataset,
    with the source-minus-unseen DSC gap. An output that could not be
    written raises UsageError before any evaluation."""
    if out_base:
        check_output(out_csv=out_base + ".csv", out_json=out_base + ".json")
    rows = []
    for name, model, source, unseen in (
        ("model-a", model_a, data_a.split("test"), data_b),
        ("model-b", model_b, data_b.split("test"), data_a),
    ):
        src = evaluate_model(model, source, label="source").means
        uns = evaluate_model(model, unseen, label="unseen").means
        row = {"model": name}
        for part, means in (("source", src), ("unseen", uns)):
            row.update((f"{part}_{key}", means[key]) for key in MEAN_KEYS)
        row["gap_dsc"] = src["dsc"] - uns["dsc"]
        rows.append(row)

    if out_base:
        fields = list(rows[0].keys())
        with open_file(out_base + ".csv", "w", UsageError, newline="") as f:
            writer = csv.DictWriter(f, fieldnames=fields)
            writer.writeheader()
            for r in rows:
                writer.writerow({k: (f"{v:.6f}" if isinstance(v, float) else v) for k, v in r.items()})
        with open_file(out_base + ".json", "w", UsageError) as f:
            json.dump({"rows": rows}, f, indent=2)
    return rows
