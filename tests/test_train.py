"""Training loop, evaluation, prediction, and the generalization report."""
import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gmsrfnet.data import (
    default_center_a,
    default_center_b,
    generate_center,
    read_pnm,
    resize_image,
    split_dataset,
    write_pnm,
)
from gmsrfnet.errors import FormatError, NumericsError
from gmsrfnet.losses import build_report
from gmsrfnet.network import ModelConfig, load_checkpoint
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
    def test_json_round_trip(self, tmp_path):
        import json

        cfg = tiny_config(lr=2e-4, epochs=7)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        back = TrainConfig.from_json(path)
        assert back == cfg

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
        restored = dict(load_checkpoint(out).named_parameters())
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

    def test_worker_threads_do_not_change_results(self, tiny_data, tmp_path):
        # per-sample seeding makes threaded augmentation order-independent
        train_set, _, _ = tiny_data
        blobs = []
        for threads in (1, 3):
            out = str(tmp_path / f"t{threads}.ckpt")
            train(tiny_config(epochs=2, augment=True, threads=threads),
                  train_set, None, out)
            blobs.append(Path(out).read_bytes())
        assert blobs[0] == blobs[1]


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

    def test_metrics_match_confusion_oracle(self, tiny_data):
        import reference
        from gmsrfnet.train import predict_maps

        train_set, _, test_set = tiny_data
        cfg = tiny_config(epochs=1)
        result = train(cfg, train_set, None)
        report = evaluate_model(result.model, test_set)
        preds = {s.id: p for s, p in zip(test_set, predict_maps(result.model, test_set))}
        for row in report.rows:
            sample = next(s for s in test_set if s.id == row.id)
            tp, fp, fn, _ = reference.confusion_loops(preds[row.id], sample.mask)
            dsc, iou, recall, precision = reference.metrics_loops(tp, fp, fn)
            assert row.dsc == dsc and row.iou == iou
            assert row.recall == recall and row.precision == precision


class TestPredict:
    def test_mask_file_binary_and_sized(self, tiny_data, tmp_path):
        train_set, _, _ = tiny_data
        out = str(tmp_path / "m.ckpt")
        train(tiny_config(epochs=1), train_set, None, out)
        sample = generate_center(default_center_a(seed=5), 1, 48)[0]
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
        model = load_checkpoint(out)
        size = model.config.input_size
        model.set_training(False)
        with no_grad():
            prob = model(Tensor(resize_image(read_pnm(img_path), size, size)[None]))[-1].data[0, 0]
        threshold = float(np.median(prob))
        predict(out, img_path, mask_path, threshold)
        expected = np.zeros((1, 50, 37), np.float32)
        for r in range(50):
            for c in range(37):
                # the source pixel is the one holding this output pixel's center
                src_r = min(int((r + 0.5) * size / 50), size - 1)
                src_c = min(int((c + 0.5) * size / 37), size - 1)
                expected[0, r, c] = prob[src_r, src_c] >= threshold
        assert 0 < expected.sum() < expected.size
        assert np.array_equal(read_pnm(mask_path), expected)

    def test_deterministic_output(self, tiny_data, tmp_path):
        train_set, _, _ = tiny_data
        out = str(tmp_path / "m.ckpt")
        train(tiny_config(epochs=1), train_set, None, out)
        sample = generate_center(default_center_a(seed=6), 1, 32)[0]
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
        write_pnm(generate_center(default_center_a(seed=6), 1, 32)[0].image, img_path)
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
