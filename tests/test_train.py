"""Training loop, evaluation, prediction, and the generalization report."""
import hashlib
import importlib
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gmsrfnet.data import (
    Dataset,
    default_center_a,
    default_center_b,
    generate_center,
    read_pnm,
    resize_image,
    resize_mask,
    split_dataset,
    write_pnm,
)
from gmsrfnet.errors import FormatError, NumericsError, UsageError
from gmsrfnet.losses import THRESHOLD, build_report
from gmsrfnet.network import ModelConfig, build_model, load_checkpoint, save_checkpoint
from gmsrfnet.optim import Adam
from gmsrfnet.tensor import Tensor, no_grad
from gmsrfnet.train import (
    TrainConfig,
    evaluate,
    evaluate_model,
    generalization_report,
    predict,
    train,
)


def file_sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


TINY_MODEL = dict(input_size=32, encoder_widths=(4, 6, 8, 8), rfb_channels=4,
                  growth=2, layers_per_module=2, num_modules=1, seed=5)


def tiny_config(**kw):
    base = dict(lr=1e-3, batch_size=4, epochs=2, seed=11, augment=False,
                model=ModelConfig(**TINY_MODEL))
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def tiny_data():
    ds = generate_center(default_center_a(seed=77), 12, 32)
    return split_dataset(ds, ratios=(2 / 3, 1 / 6, 1 / 6), seed=1)


class TestTrainConfig:
    def test_readme_example_loads(self):
        import json
        import re

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
        assert blocks
        for block in blocks:
            TrainConfig.from_dict(json.loads(block))

    def test_json_round_trip(self, tmp_path):
        import json

        cfg = tiny_config(lr=2e-4, epochs=7)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        back = TrainConfig.from_json(path)
        assert back == cfg

    def test_threads_one_still_loads(self, tmp_path):
        # training runs on the caller's thread; files that still say 1 load
        path = tmp_path / "train.json"
        path.write_text('{"threads": 1}')
        assert TrainConfig.from_json(path) == TrainConfig()

    def test_bad_lr_rejected(self):
        from gmsrfnet.errors import ConfigError

        with pytest.raises(ConfigError):
            tiny_config(lr=0.0)


class TestTrainLoop:
    def test_log_rows_equal_epochs(self, tiny_data, tmp_path):
        train_set, val_set, _ = tiny_data
        result = train(tiny_config(epochs=3), train_set, val_set,
                       str(tmp_path / "m.ckpt"), str(tmp_path / "log.csv"))
        assert len(result.epoch_rows) == 3
        assert all("val_dsc" in r for r in result.epoch_rows)
        lines = (tmp_path / "log.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_dsc"
        assert len(lines) == 4

    def test_checkpoints_written(self, tiny_data, tmp_path):
        train_set, val_set, _ = tiny_data
        out = str(tmp_path / "m.ckpt")
        result = train(tiny_config(epochs=1), train_set, val_set, out)
        assert (tmp_path / "m.ckpt").exists()
        assert (tmp_path / "m.ckpt.best").exists()
        assert result.final_path == out
        assert result.best_path == out + ".best"

    @pytest.mark.parametrize("empty_val", [False, True])
    def test_no_best_checkpoint_without_validation(self, tiny_data, tmp_path, empty_val):
        train_set, _, _ = tiny_data
        val_set = train_set.subset("no-such-split") if empty_val else None
        out = str(tmp_path / "m.ckpt")
        result = train(tiny_config(epochs=1, max_steps=1), train_set, val_set, out)
        assert result.best_path is None
        assert (tmp_path / "m.ckpt").exists()
        assert not (tmp_path / "m.ckpt.best").exists()

    def test_a_directory_at_the_best_checkpoint_is_a_usage_error_before_training(
            self, tiny_data, tmp_path, monkeypatch):
        train_set, val_set, _ = tiny_data
        (tmp_path / "m.ckpt.best").mkdir()
        before = sorted(tmp_path.rglob("*"))
        monkeypatch.setattr(importlib.import_module("gmsrfnet.train"), "build_model", None)
        with pytest.raises(UsageError, match="best_path"):
            train(tiny_config(epochs=1), train_set, val_set, str(tmp_path / "m.ckpt"))
        assert sorted(tmp_path.rglob("*")) == before

    # out_path's .best is written only when there is a validation set
    @pytest.mark.parametrize("log", [
        pytest.param("m.ckpt", id="out"),
        pytest.param("m.ckpt.best", id="best"),
        pytest.param("./m.ckpt", id="dot"),
        pytest.param("link", id="symlink"),
    ])
    def test_outputs_that_are_one_file_are_a_usage_error_before_training(
            self, tiny_data, tmp_path, monkeypatch, log):
        train_set, val_set, _ = tiny_data
        os.symlink(tmp_path / "m.ckpt", tmp_path / "link")
        before = sorted(tmp_path.rglob("*"))
        monkeypatch.setattr(importlib.import_module("gmsrfnet.train"), "build_model", None)
        with pytest.raises(UsageError, match="same file"):
            train(tiny_config(epochs=1), train_set, val_set, str(tmp_path / "m.ckpt"),
                  os.path.join(str(tmp_path), log))
        assert sorted(tmp_path.rglob("*")) == before

    def test_ten_step_determinism_byte_identical(self, tiny_data, tmp_path):
        train_set, _, _ = tiny_data
        blobs = []
        for run in ("a", "b"):
            out = str(tmp_path / f"{run}.ckpt")
            train(tiny_config(epochs=50, max_steps=10), train_set, None, out)
            blobs.append((tmp_path / f"{run}.ckpt").read_bytes())
        assert blobs[0] == blobs[1]

    def test_numerics_error_retains_last_good_checkpoint(self, tiny_data, tmp_path, monkeypatch):
        train_set, _, _ = tiny_data
        out = str(tmp_path / "m.ckpt")
        real_step = Adam.step
        calls = {"n": 0}
        snapshots = {}

        def exploding_step(self):
            if calls["n"] == 2:
                raise NumericsError("non-finite gradient for parameter 'boom'")
            real_step(self)
            calls["n"] += 1
            snapshots["last"] = {n: p.data.copy() for n, p in zip(self.arena.names, self.arena.tensors)}

        monkeypatch.setattr(Adam, "step", exploding_step)
        with pytest.raises(NumericsError):
            train(tiny_config(epochs=5), train_set, None, out)
        arena = load_checkpoint(out).arena
        restored = dict(zip(arena.names, arena.tensors))
        for name, arr in snapshots["last"].items():
            assert np.array_equal(restored[name].data, arr)

    def test_final_batch_of_one_trains_on_a_1x1_scale(self):
        # 9 images at batch 8 leave a last batch of one image, whose scale-4
        # map at input size 32 is 1x1: batch norm sees one value per channel
        ds = generate_center(default_center_a(seed=78), 9, 32)
        result = train(tiny_config(batch_size=8, epochs=2), ds, None)
        assert len(result.step_losses) == 4
        assert np.all(np.isfinite(result.step_losses))
        assert np.all(np.isfinite(result.model.arena.buffers))

    def test_wrong_sample_size_rejected(self, tmp_path):
        ds = generate_center(default_center_a(), 4, 64)
        with pytest.raises(FormatError):
            train(tiny_config(), ds, None, str(tmp_path / "m.ckpt"))

    @pytest.mark.parametrize("which", ["train", "val"])
    @pytest.mark.parametrize("mask_only", [False, True])
    def test_off_size_sample_rejected_before_training(self, which, mask_only, tmp_path):
        ds = generate_center(default_center_a(seed=77), 6, 32)
        small = generate_center(default_center_a(seed=77), 1, 16).samples[0]
        sets = {"train": Dataset(ds.samples[:4]), "val": Dataset(ds.samples[4:])}
        bad = sets[which].samples[0]
        bad.mask = small.mask
        if not mask_only:
            bad.image = small.image
        out = tmp_path / "m.ckpt"
        with pytest.raises(FormatError, match=f"{bad.id}: {'mask' if mask_only else 'image'}"):
            train(tiny_config(), sets["train"], sets["val"], str(out))
        assert not out.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("what", ["image", "mask"])
    def test_non_finite_sample_rejected_before_training(self, what, value, tmp_path):
        # one bad pixel would otherwise end in a NumericsError and a saved
        # checkpoint whose batch-norm buffers are no longer finite
        ds = generate_center(default_center_a(seed=77), 4, 32)
        bad = ds.samples[2]
        getattr(bad, what)[0, 5, 7] = value
        out = tmp_path / "m.ckpt"
        with pytest.raises(FormatError, match=f"{bad.id}: {what} holds non-finite"):
            train(tiny_config(), ds, None, str(out))
        assert not out.exists()


class TestEvaluate:
    def test_perfect_oracle_shim_scores_one(self, tiny_data):
        _, _, test_set = tiny_data
        preds = [np.clip(s.mask, 0.001, 0.999) for s in test_set]
        report = build_report(test_set.ids(), preds, [s.mask for s in test_set], "oracle")
        assert report.means["dsc"] == 1.0

    def test_report_files_and_means(self, tiny_data, tmp_path):
        train_set, _, test_set = tiny_data
        out = str(tmp_path / "m.ckpt")
        train(tiny_config(epochs=1), train_set, None, out)
        report = evaluate(out, test_set, str(tmp_path / "report"))
        assert (tmp_path / "report.csv").exists()
        assert (tmp_path / "report.json").exists()
        mean_dsc = np.mean([r.dsc for r in report.rows])
        assert abs(report.means["dsc"] - mean_dsc) < 1e-12

    def test_evaluate_does_not_mutate_checkpoint(self, tiny_data, tmp_path):
        train_set, _, test_set = tiny_data
        out = str(tmp_path / "m.ckpt")
        train(tiny_config(epochs=1), train_set, None, out)
        before = file_sha256(out)
        evaluate(out, test_set)
        assert file_sha256(out) == before

    def test_size_mismatch_raises_format_error(self, tiny_data, tmp_path):
        train_set, _, _ = tiny_data
        out = str(tmp_path / "m.ckpt")
        train(tiny_config(epochs=1), train_set, None, out)
        wrong = generate_center(default_center_a(), 2, 64)
        with pytest.raises(FormatError):
            evaluate(out, wrong)
        wrong = generate_center(default_center_a(), 2, 32)
        wrong.samples[1].mask = generate_center(default_center_a(), 1, 16).samples[0].mask
        with pytest.raises(FormatError, match="mask"):
            evaluate(out, wrong)

    def test_non_finite_sample_raises_format_error(self):
        ds = generate_center(default_center_a(), 2, 32)
        ds.samples[1].image[2, 0, 0] = np.nan
        with pytest.raises(FormatError, match=f"{ds.samples[1].id}: image holds non-finite"):
            evaluate(build_model(ModelConfig(**TINY_MODEL)), ds)

    def test_metrics_match_confusion_oracle(self, tiny_data):
        import reference
        from gmsrfnet.train import predict_maps

        train_set, _, test_set = tiny_data
        cfg = tiny_config(epochs=1)
        result = train(cfg, train_set, None)
        report = evaluate_model(result.model, test_set)
        preds = {s.id: p for s, p in zip(test_set, predict_maps(result.model, test_set))}
        for row_id, row in zip(report.ids, report.rows):
            sample = next(s for s in test_set if s.id == row_id)
            tp, fp, fn, _ = reference.confusion_loops(preds[row_id], sample.mask)
            dsc, iou, recall, precision = reference.metrics_loops(tp, fp, fn)
            assert row.dsc == dsc and row.iou == iou
            assert row.recall == recall and row.precision == precision


class TestPredict:
    def test_mask_file_binary_and_sized(self, tiny_data, tmp_path):
        train_set, _, _ = tiny_data
        out = str(tmp_path / "m.ckpt")
        train(tiny_config(epochs=1), train_set, None, out)
        sample = generate_center(default_center_a(seed=5), 1, 48).samples[0]
        img_path = str(tmp_path / "in.ppm")
        write_pnm(sample.image, img_path)
        mask_path = str(tmp_path / "out.pgm")
        predict(out, img_path, mask_path)
        mask = read_pnm(mask_path)
        assert mask.shape == (1, 48, 48)
        raw = Path(mask_path).read_bytes()
        payload = raw.split(b"255\n", 1)[1]
        assert set(payload) <= {0, 255}

    def test_mask_is_model_map_mapped_back_to_native_size(self, tiny_data, tmp_path):
        train_set, _, _ = tiny_data
        out = str(tmp_path / "m.ckpt")
        train(tiny_config(epochs=1), train_set, None, out)
        img_path, mask_path = str(tmp_path / "in.ppm"), str(tmp_path / "out.pgm")
        write_pnm(np.random.default_rng(8).uniform(0, 1, (3, 50, 37)), img_path)

        def primary_map(model):
            model.set_training(False)
            with no_grad():
                image = resize_image(read_pnm(img_path), size, size)[None]
                return model(Tensor(image))[-1].data[0, 0]

        # the trained map lies wholly below THRESHOLD; shifting the primary
        # head's bias by -logit(median) puts about half of it above
        model = load_checkpoint(out)
        size = model.config.input_size
        median = float(np.median(primary_map(model)))
        model.heads.convs[3].bias.data -= np.log(median / (1.0 - median))
        shifted = str(tmp_path / "shifted.ckpt")
        save_checkpoint(model, shifted)
        prob = primary_map(load_checkpoint(shifted))
        predict(shifted, img_path, mask_path)
        expected = np.zeros((1, 50, 37), np.float32)
        for r in range(50):
            for c in range(37):
                # the source pixel is the one holding this output pixel's center
                src_r = min(int((r + 0.5) * size / 50), size - 1)
                src_c = min(int((c + 0.5) * size / 37), size - 1)
                expected[0, r, c] = prob[src_r, src_c] >= THRESHOLD
        assert 0 < expected.sum() < expected.size
        assert np.array_equal(read_pnm(mask_path), expected)

    def test_input_size_image_skips_resize_with_same_bytes(self, tmp_path, monkeypatch):
        # resizing to the same size multiplies by identity matrices, so
        # skipping it must leave the written mask byte for byte the same
        cfg = TrainConfig(max_steps=1, batch_size=2,
                          model=ModelConfig(**dict(TINY_MODEL, input_size=64)))
        model = train(cfg, generate_center(default_center_a(seed=7), 2, 64)).model
        img_path = str(tmp_path / "in.ppm")
        write_pnm(np.random.default_rng(9).uniform(0, 1, (3, 64, 64)), img_path)
        resized = resize_image(read_pnm(img_path), 64, 64)

        def primary_map(model):
            model.set_training(False)
            with no_grad():
                return model(Tensor(resized[None]))[-1].data[0, 0]

        # centre the primary head on its median so the mask holds both values
        median = float(np.median(primary_map(model)))
        model.heads.convs[3].bias.data -= np.log(median / (1.0 - median))
        ckpt = str(tmp_path / "m.ckpt")
        save_checkpoint(model, ckpt)
        resized_path = str(tmp_path / "resized.pgm")
        prob = primary_map(load_checkpoint(ckpt))
        write_pnm(resize_mask((prob >= THRESHOLD)[None].astype(np.float32), 64, 64), resized_path)
        calls = []
        monkeypatch.setattr(importlib.import_module("gmsrfnet.train"), "resize_image",
                            lambda *a: calls.append(a) or resize_image(*a))
        mask_path = str(tmp_path / "out.pgm")
        predict(ckpt, img_path, mask_path)
        assert calls == []
        assert 0 < read_pnm(mask_path).sum() < 64 * 64
        assert Path(mask_path).read_bytes() == Path(resized_path).read_bytes()

    def test_deterministic_output(self, tiny_data, tmp_path):
        train_set, _, _ = tiny_data
        out = str(tmp_path / "m.ckpt")
        train(tiny_config(epochs=1), train_set, None, out)
        sample = generate_center(default_center_a(seed=6), 1, 32).samples[0]
        img_path = str(tmp_path / "in.ppm")
        write_pnm(sample.image, img_path)
        p1, p2 = str(tmp_path / "o1.pgm"), str(tmp_path / "o2.pgm")
        predict(out, img_path, p1)
        predict(out, img_path, p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_repeated_predict_does_not_grow_memory(self, tiny_data, tmp_path):
        # every call loads its own model; none may outlive its call
        train_set, _, _ = tiny_data
        out = str(tmp_path / "m.ckpt")
        train(tiny_config(epochs=1), train_set, None, out)
        img_path, mask_path = str(tmp_path / "in.ppm"), str(tmp_path / "out.pgm")
        write_pnm(generate_center(default_center_a(seed=6), 1, 32).samples[0].image, img_path)
        predict(out, img_path, mask_path)
        tracemalloc.start()
        try:
            predict(out, img_path, mask_path)
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(20):
                predict(out, img_path, mask_path)
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert grown < 1 << 20, grown


class TestPrimaryMapOnly:
    """Inference runs the primary head alone: one bilinear upscale per batch,
    where the training forward runs four."""

    @staticmethod
    def count_resizes(monkeypatch):
        network = importlib.import_module("gmsrfnet.network")
        calls = []
        resize = network.resize_bilinear
        monkeypatch.setattr(network, "resize_bilinear", lambda *a: calls.append(a) or resize(*a))
        return calls

    @pytest.mark.parametrize("batch_size, batches", [(4, 1), (3, 2), (1, 4)])
    def test_predict_maps_resizes_once_per_batch(self, monkeypatch, batch_size, batches):
        from gmsrfnet.train import predict_maps
        model = build_model(ModelConfig(**TINY_MODEL))
        ds = generate_center(default_center_a(seed=4), 4, 32)
        images = Tensor(np.stack([s.image for s in ds.samples]))
        with no_grad():
            model(images)  # statistics for eval batch norm
        calls = self.count_resizes(monkeypatch)
        maps = predict_maps(model, ds, batch_size)
        assert len(calls) == batches and len(maps) == 4
        # the forward's last map, batch by batch as predict_maps runs them
        with no_grad():
            expected = [model(Tensor(images.data[i : i + batch_size]))[-1].data
                        for i in range(0, 4, batch_size)]
        assert np.array_equal(np.stack(maps), np.concatenate(expected))

    def test_predict_resizes_once(self, monkeypatch, tmp_path):
        cfg = tiny_config(max_steps=1, epochs=1)
        ckpt = str(tmp_path / "m.ckpt")
        train(cfg, generate_center(default_center_a(seed=7), 2, 32), None, ckpt)
        img_path = str(tmp_path / "in.ppm")
        write_pnm(generate_center(default_center_a(seed=8), 1, 32).samples[0].image, img_path)
        calls = self.count_resizes(monkeypatch)
        predict(ckpt, img_path, str(tmp_path / "out.pgm"))
        assert len(calls) == 1


def tagged(ds):
    """ds with every sample carrying its split tag, in generation order."""
    parts = split_dataset(ds, ratios=(0.5, 0.25, 0.25), seed=0)
    ds.samples = sorted((s for p in parts for s in p), key=lambda s: s.id)
    return ds


class TestGeneralizationReport:
    def test_structure_and_ranges(self, tmp_path):
        ds_a = tagged(generate_center(default_center_a(seed=21), 16, 32))
        ds_b = tagged(generate_center(default_center_b(seed=22), 16, 32))
        cfg = tiny_config(epochs=2, batch_size=4)
        ra = train(cfg, ds_a.subset("train"), None)
        rb = train(cfg, ds_b.subset("train"), None)
        rows = generalization_report(ra.model, rb.model, ds_a, ds_b,
                                     str(tmp_path / "gen"))
        assert len(rows) == 2
        metric_cols = [c for c in rows[0] if c.startswith(("source_", "unseen_"))]
        assert len(metric_cols) == 8
        for r in rows:
            for c in metric_cols:
                assert 0.0 <= r[c] <= 1.0
            assert abs(r["gap_dsc"] - (r["source_dsc"] - r["unseen_dsc"])) < 1e-12
        assert (tmp_path / "gen.csv").exists() and (tmp_path / "gen.json").exists()

    def test_identical_centers_small_gap(self):
        ds = tagged(generate_center(default_center_a(seed=30), 24, 32))
        cfg = tiny_config(epochs=6, batch_size=4, lr=3e-3)
        result = train(cfg, ds.subset("train"), None)
        rows = generalization_report(result.model, result.model, ds, ds)
        # same model, same center: source vs unseen differ only by sampling
        for r in rows:
            assert abs(r["gap_dsc"]) < 0.2
