"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The overfit-loss threshold is asserted exactly as specified; see the
criterion's output for the measured values and the head-capacity floor that
governs it.
"""
import time

import numpy as np
import pytest

from gmsrfnet import tensor as T
from gmsrfnet.blocks import Layer
from gmsrfnet.data import (
    default_center_a,
    default_center_b,
    generate_center,
    read_pnm,
    split_dataset,
    write_pnm,
)
from gmsrfnet.errors import CorruptionError
from gmsrfnet.gmsrf import GmsrfModule
from gmsrfnet.gradchecks import run_suite
from gmsrfnet.losses import (
    bce_loss,
    build_report,
    confusion,
    dual_loss,
    metrics,
    soft_iou_loss,
    total_loss,
)
from gmsrfnet.network import ModelConfig, build_model, load_checkpoint, save_checkpoint
from gmsrfnet.optim import Adam
from gmsrfnet.tensor import Tensor, backward, no_grad
from gmsrfnet.train import TrainConfig, generalization_report, train

import reference

PROTOCOL_MODEL = dict(input_size=64, encoder_widths=(8, 16, 24, 32), rfb_channels=8,
                      growth=4, layers_per_module=2, num_modules=1)


def report_line(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {status}  {name}" + (f"  [{detail}]" if detail else ""))
    return ok


class TestAcceptance:
    def test_a1_gradient_suite(self):
        start = time.time()
        results = []
        for scope in ("op", "block", "model"):
            results.extend(run_suite(scope))
        elapsed = time.time() - start
        failing = [(r.name, r.max_error) for r in results if not r.passed]
        worst = max(r.max_error / r.tolerance for r in results)
        ok = not failing and elapsed < 300
        report_line("gradient suite (ops <1e-5, micro model <1e-4, <5min)", ok,
                    f"{len(results)} checks, worst err/tol {worst:.2e}, {elapsed:.0f}s")
        assert not failing, failing
        assert elapsed < 300

    def test_a2_channel_arithmetic_oracle(self):
        rng = np.random.default_rng(1234)
        checked = 0
        for _ in range(50):
            c0 = int(rng.integers(1, 16))
            k = int(rng.integers(1, 8))
            layers = int(rng.integers(2, 5))
            module = GmsrfModule(np.random.default_rng(checked), c0, k, layers)
            bundle = tuple(
                Tensor(rng.normal(size=(1, c0, 8 >> i, 8 >> i)).astype(np.float32))
                for i in range(4)
            )
            module(bundle)
            for (_, l), width in module.fusion_input_channels.items():
                assert width == c0 + (l - 1) * k + 3 * k
                checked += 1
        report_line("channel-arithmetic oracle (50 random configs, exact)", True,
                    f"{checked} fusion widths verified")

    def test_a3_residual_identity(self):
        rng = np.random.default_rng(77)
        module = GmsrfModule(rng, channels=8, growth=4, num_layers=3)
        for blocks in (module.initial, module.transition):
            for b in blocks:
                b.weight.data[:] = 0
        for per_scale in module.fusion:
            for b in per_scale:
                b.weight.data[:] = 0
        for per_scale in module.attention:
            for att in per_scale:
                for p in att.parameters():
                    p.data[:] = 0
        for b in module.transition:
            b.bn.gamma.data[:] = 0
        bundle = tuple(
            Tensor(rng.uniform(0, 1, (2, 8, 16 >> i, 16 >> i)).astype(np.float32))
            for i in range(4)
        )
        out = module(bundle)
        identical = all(np.array_equal(a.data, b.data) for a, b in zip(out, bundle))
        report_line("residual identity with zeroed branches (bitwise)", identical)
        assert identical

    def test_a4_loss_identities(self):
        # BCE of a uniform-0.5 prediction is ln 2
        rng = np.random.default_rng(5)
        target = (rng.uniform(size=(2, 1, 8, 8)) > 0.5).astype(np.float64)
        bce = bce_loss(Tensor(np.full((2, 1, 8, 8), 0.5)), target).item()
        ok_bce = abs(bce - np.log(2)) < 1e-6

        # soft IoU of the half-overlap configuration is 2/3 at eps -> 0
        half = np.zeros((1, 1, 4, 4))
        half[:, :, :2, :] = 1.0
        iou_loss = soft_iou_loss(Tensor(np.full((1, 1, 4, 4), 0.5)), half, eps=1e-12).item()
        ok_iou = abs(iou_loss - 2.0 / 3.0) < 1e-6

        # dsc = 2 iou / (1 + iou) on 1000 random masks; metrics match the
        # brute-force pixel-count oracle exactly
        ok_identity = True
        ok_oracle = True
        for _ in range(1000):
            pred = (rng.uniform(size=(16, 16)) > rng.uniform(0.1, 0.9)).astype(np.float64)
            tgt = (rng.uniform(size=(16, 16)) > rng.uniform(0.1, 0.9)).astype(np.float64)
            c = confusion(pred[None, None], tgt[None, None])
            m = metrics(c)
            if abs(m.dsc - 2 * m.iou / (1 + m.iou)) >= 1e-12:
                ok_identity = False
            tp, fp, fn, _ = reference.confusion_loops(pred, tgt)
            if (tp, fp, fn) != (c.tp, c.fp, c.fn) or \
               reference.metrics_loops(tp, fp, fn) != tuple(m):
                ok_oracle = False
        ok = ok_bce and ok_iou and ok_identity and ok_oracle
        report_line("loss identities (ln2, 2/3 closed form, dsc-iou, oracle)", ok,
                    f"bce={bce:.7f} iou_loss={iou_loss:.7f}")
        assert ok_bce and ok_iou and ok_identity and ok_oracle

    def test_a5_overfit_convergence(self):
        start = time.time()
        samples = generate_center(default_center_a(seed=42), 4, 64)
        images = Tensor(np.stack([s.image for s in samples]))
        masks = np.stack([s.mask for s in samples])
        model = build_model(ModelConfig())
        adam = Adam(model.arena, lr=1e-4)
        losses = []
        for _ in range(500):
            maps = model(images)
            loss = total_loss(maps, masks)
            adam.zero_grad()
            backward(loss)
            adam.step()
            losses.append(loss.item())
        elapsed = time.time() - start

        model.set_training(False)
        with no_grad():
            maps = model(images)
        preds = [maps[-1].data[i] for i in range(4)]
        dsc = build_report([s.id for s in samples], preds, masks, "train").means["dsc"]
        final_loss = losses[-1]

        # smoothed trend: 20-step block means over the first 100 steps
        blocks = [float(np.mean(losses[i : i + 20])) for i in range(0, 100, 20)]
        trend_ok = all(b1 >= b2 for b1, b2 in zip(blocks, blocks[1:]))

        # capacity floor of the coarsest supervision head alone: the best any
        # model can do through a 2x2 logit map upscaled to 64x64
        floor_head = Layer()
        floor_head.logits = floor_logits = Tensor(np.zeros((4, 1, 2, 2), np.float32),
                                                  requires_grad=True)
        floor_adam = Adam(floor_head.arena, lr=0.3)
        floor = np.inf
        for _ in range(800):
            p = T.sigmoid(T.resize_bilinear(floor_logits, 64, 64))
            fl = dual_loss(p, masks)
            floor_adam.zero_grad()
            backward(fl)
            floor_adam.step()
            floor = min(floor, fl.item())

        ok = final_loss < 0.2 and dsc > 0.95 and elapsed < 900
        report_line(
            "overfit convergence (500 steps, lr 1e-4: loss<0.2 and DSC>0.95)", ok,
            f"loss={final_loss:.3f} dsc={dsc:.4f} {elapsed:.0f}s; "
            f"2x2-head floor alone={floor:.3f} > 0.2 budget",
        )
        assert elapsed < 900
        assert trend_ok, blocks
        assert dsc > 0.95, dsc
        # As specified. The coarsest deep-supervision head is a 2x2 logit map
        # at this input size and its loss floor alone exceeds the whole
        # threshold (see the printed detail), so this assertion documents an
        # unattainable target rather than a regression.
        assert final_loss < 0.2, (
            f"total_loss={final_loss:.3f}; best achievable through the 2x2 head "
            f"alone is {floor:.3f}, so the 0.2 threshold cannot be met at 64x64"
        )

    def test_a6_generalization_protocol(self):
        results, datasets = {}, {}
        for name, maker, seed, model_seed in (
            ("a", default_center_a, 501, 3),
            ("b", default_center_b, 502, 4),
        ):
            ds = generate_center(maker(seed=seed), 380, 64)
            parts = split_dataset(ds, ratios=(300 / 380, 40 / 380, 40 / 380), seed=1)
            assert tuple(len(p) for p in parts) == (300, 40, 40)
            # the whole center with split tags, in generation order
            ds.samples = sorted((s for p in parts for s in p), key=lambda s: s.id)
            datasets[name] = ds
            cfg = TrainConfig(lr=1e-3, batch_size=8, epochs=20, seed=9, augment=True,
                              model=ModelConfig(seed=model_seed, **PROTOCOL_MODEL))
            results[name] = train(cfg, ds.subset("train"), ds.subset("val"))

        rows = generalization_report(results["a"].model, results["b"].model,
                                     datasets["a"], datasets["b"])
        cells = [r[c] for r in rows for c in r if c.startswith(("source_", "unseen_"))]
        cells_ok = len(cells) == 16 and all(0.0 <= v <= 1.0 for v in cells)
        dsc_a = rows[0]["source_dsc"]
        dsc_b = rows[1]["source_dsc"]
        in_dist_ok = dsc_a >= 0.80 and dsc_b >= 0.80
        gap_ok = all("gap_dsc" in r and "unseen_dsc" in r for r in rows)
        ok = cells_ok and in_dist_ok and gap_ok
        report_line(
            "generalization protocol (16 cells, in-dist DSC >= 0.80, gap)", ok,
            f"source dsc a={dsc_a:.3f} b={dsc_b:.3f}; "
            f"unseen a={rows[0]['unseen_dsc']:.3f} b={rows[1]['unseen_dsc']:.3f}; "
            f"gaps {rows[0]['gap_dsc']:+.3f}/{rows[1]['gap_dsc']:+.3f}",
        )
        assert cells_ok and in_dist_ok and gap_ok

    def test_a7_training_determinism(self, tmp_path):
        ds = generate_center(default_center_a(seed=77), 12, 64)
        cfg_kwargs = dict(lr=1e-3, batch_size=4, epochs=10, max_steps=10, seed=21,
                          augment=True, model=ModelConfig(seed=5, **PROTOCOL_MODEL))
        blobs = []
        for run in ("one", "two"):
            out = str(tmp_path / f"{run}.ckpt")
            train(TrainConfig(**cfg_kwargs), ds, None, out)
            blobs.append(open(out, "rb").read())
        ok = blobs[0] == blobs[1]
        report_line("determinism: 10-step runs byte-identical", ok,
                    f"{len(blobs[0])} bytes each")
        assert ok

    def test_a8_persistence(self, tmp_path):
        # checkpoint save -> load -> save is byte-identical
        model = build_model(ModelConfig(seed=8, **PROTOCOL_MODEL))
        p1, p2 = tmp_path / "m1.ckpt", tmp_path / "m2.ckpt"
        save_checkpoint(model, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        ckpt_ok = p1.read_bytes() == p2.read_bytes()

        # PNM round trip is bit-exact
        rng = np.random.default_rng(3)
        img_path = tmp_path / "img.ppm"
        write_pnm(rng.uniform(0, 1, (3, 9, 7)).astype(np.float32), img_path)
        round_path = tmp_path / "round.ppm"
        write_pnm(read_pnm(img_path), round_path)
        pnm_ok = img_path.read_bytes() == round_path.read_bytes()

        # corrupted payload is rejected through the CRC
        blob = bytearray(p1.read_bytes())
        blob[-50] ^= 0x01
        p1.write_bytes(bytes(blob))
        try:
            load_checkpoint(p1)
            crc_ok = False
        except CorruptionError:
            crc_ok = True

        ok = ckpt_ok and pnm_ok and crc_ok
        report_line("persistence (ckpt byte-identical, PNM exact, CRC rejects)", ok)
        assert ckpt_ok and pnm_ok and crc_ok
