"""Full model wiring, parameter registry, and checkpoint persistence."""
import gc
import hashlib
import json
import math
import os
import re
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest

from gmsrfnet.errors import ConfigError, CorruptionError, FormatError, ShapeError, UsageError
from gmsrfnet.gradchecks import MICRO_CONFIG, MODEL_TOL, model_error
from gmsrfnet.losses import total_loss
from gmsrfnet.network import (
    CHECKPOINT_MAGIC,
    Decoder,
    Encoder,
    ModelConfig,
    SegmentationModel,
    SupervisionHeads,
    _layout,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from gmsrfnet.optim import Adam
from gmsrfnet.tensor import Tensor, backward, no_grad

from test_acceptance import PROTOCOL_MODEL

MICRO = ModelConfig(input_size=32, encoder_widths=(4, 8, 8, 8), rfb_channels=4,
                    growth=2, layers_per_module=2, num_modules=1, seed=3)
SMALL = ModelConfig(input_size=64, encoder_widths=(8, 12, 16, 16), rfb_channels=8,
                    growth=4, layers_per_module=3, num_modules=2, seed=4)


def named_arrays(model):
    """(name, array) of every parameter, then every buffer, as the layers hold them."""
    arena = model.arena
    arrays = [p.data for p in arena.tensors] + [getattr(l, a) for _, l, a in arena.slots]
    return list(zip(arena.names, arrays))


def expected_param_count(cfg):
    """Symbolic parameter count, written independently of the registry."""

    def conv(cin, cout, k, bn=True):
        return cin * cout * k * k + (2 * cout if bn else cout)

    def se(channels, reduction):
        hidden = max(1, channels // reduction)
        return hidden * channels + hidden + channels * hidden + channels

    w1, w2, w3, w4 = cfg.encoder_widths
    c0, k, layers = cfg.rfb_channels, cfg.growth, cfg.layers_per_module
    total = conv(3, w1, 3)  # stem
    for cin, cout in ((w1, w1), (w1, w2), (w2, w3), (w3, w4)):
        total += conv(cin, cout, 3) + conv(cout, cout, 3) + conv(cin, cout, 1)
    for ws in (w1, w2, w3, w4):
        quarter = c0 // 4
        first = c0 - 3 * quarter
        total += conv(ws, first, 1)
        if quarter:
            total += 3 * conv(ws, quarter, 3)
        total += conv(c0, c0, 1) + conv(ws, c0, 1)

    resample_stages = {1: 6, 2: 4, 3: 4, 4: 6}  # sum of |i - j| over j != i
    per_module = 0
    for scale in (1, 2, 3, 4):
        per_module += conv(c0, k, 3)  # initial layer
        for l in range(2, layers + 1):
            stages = resample_stages[scale]
            down = sum(scale - j for j in range(1, scale))           # sources above
            up = stages - down
            per_module += down * conv(k, k, 3) + up * conv(k, k, 4)
            per_module += conv(3 * k, k, 3) + conv(k, k, 1, bn=False)  # cmsa convs
            per_module += conv(c0 + (l - 1) * k + 3 * k, k, 3)         # fusion conv
        fused = c0 + layers * k
        per_module += se(fused, cfg.se_reduction) + conv(fused, c0, 1)
    total += cfg.num_modules * per_module

    total += 3 * (conv(c0, c0, 4) + conv(2 * c0, c0, 3))  # decoder
    total += 4 * conv(c0, 1, 1, bn=False)                 # heads
    return total


class TestModelConfig:
    def test_input_size_multiple_of_32(self):
        with pytest.raises(ConfigError):
            ModelConfig(input_size=48)

    def test_roundtrip_dict(self):
        cfg = ModelConfig.from_dict(SMALL.to_dict())
        assert cfg == SMALL


class TestEncoder:
    def test_bundle_shapes_default(self):
        rng = np.random.default_rng(0)
        enc = Encoder(rng, ModelConfig())
        bundle = enc(Tensor(rng.normal(size=(1, 3, 64, 64)).astype(np.float32)))
        assert [b.shape for b in bundle] == [
            (1, 32, 16, 16), (1, 32, 8, 8), (1, 32, 4, 4), (1, 32, 2, 2)]

    def test_batch_preserved(self):
        rng = np.random.default_rng(1)
        enc = Encoder(rng, MICRO)
        bundle = enc(Tensor(rng.normal(size=(3, 3, 32, 32)).astype(np.float32)))
        assert all(b.shape[0] == 3 for b in bundle)
        assert all(b.shape[1] == MICRO.rfb_channels for b in bundle)


class TestDecoder:
    def _bundle(self, rng, c0=4, base=16):
        return tuple(Tensor(rng.normal(size=(1, c0, base >> i, base >> i)).astype(np.float32))
                     for i in range(4))

    def test_decoded_sizes_ascend(self):
        rng = np.random.default_rng(2)
        dec = Decoder(rng, 4)
        decoded = dec(self._bundle(rng))
        assert [d.shape[2] for d in decoded] == [2, 4, 8, 16]

    def test_d4_is_x4_bitwise(self):
        rng = np.random.default_rng(3)
        dec = Decoder(rng, 4)
        bundle = self._bundle(rng)
        decoded = dec(bundle)
        assert decoded[0] is bundle[3]

    def test_concat_width_is_2c0(self):
        rng = np.random.default_rng(4)
        dec = Decoder(rng, 6)
        assert all(m.weight.shape[1] == 12 for m in dec.mix)


class TestHeads:
    def test_four_maps_at_gt_size(self):
        rng = np.random.default_rng(5)
        heads = SupervisionHeads(rng, 4, 64)
        decoded = [Tensor(rng.normal(size=(2, 4, s, s)).astype(np.float32))
                   for s in (2, 4, 8, 16)]
        maps = heads(decoded)
        assert len(maps) == 4
        assert all(m.shape == (2, 1, 64, 64) for m in maps)
        for m in maps:
            assert np.all(m.data > 0) and np.all(m.data < 1)

    def test_zero_head_weights_give_half(self):
        rng = np.random.default_rng(6)
        heads = SupervisionHeads(rng, 4, 32)
        for conv in heads.convs:
            conv.weight.data[:] = 0
            conv.bias.data[:] = 0
        decoded = [Tensor(rng.normal(size=(1, 4, s, s)).astype(np.float32))
                   for s in (1, 2, 4, 8)]
        for m in heads(decoded):
            np.testing.assert_array_equal(m.data, 0.5)


class TestModelForward:
    def test_default_config_batch2(self):
        model = build_model(ModelConfig())
        rng = np.random.default_rng(7)
        maps = model(Tensor(rng.uniform(0, 1, (2, 3, 64, 64)).astype(np.float32)))
        assert len(maps) == 4
        assert all(m.shape == (2, 1, 64, 64) for m in maps)

    def test_bitwise_deterministic(self):
        model = build_model(MICRO)
        rng = np.random.default_rng(8)
        x = Tensor(rng.uniform(0, 1, (1, 3, 32, 32)).astype(np.float32))
        y1 = model(x)
        y2 = model(x)
        for a, b in zip(y1, y2):
            assert np.array_equal(a.data, b.data)

    def test_wrong_input_size_raises(self):
        model = build_model(MICRO)
        with pytest.raises(ShapeError):
            model(Tensor(np.zeros((1, 3, 64, 64), np.float32)))

    def test_same_seed_same_init(self):
        p1 = dict(named_arrays(build_model(MICRO)))
        p2 = dict(named_arrays(build_model(MICRO)))
        for name in p1:
            assert np.array_equal(p1[name], p2[name])


class TestSegment:
    """segment() runs the trunk and the primary head only."""

    @staticmethod
    def eval_model(dtype):
        model = build_model(MICRO).astype(dtype)
        x = Tensor(np.random.default_rng(12).uniform(0, 1, (2, 3, 32, 32)), dtype=dtype)
        with no_grad():
            model(x)  # one training update, so eval batch norm has statistics
        model.set_training(False)
        return model

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_segment_is_the_last_forward_map_bitwise(self, dtype, batch):
        model = self.eval_model(dtype)
        x = Tensor(np.random.default_rng(batch).uniform(0, 1, (batch, 3, 32, 32)), dtype=dtype)
        with no_grad():
            p1 = model.segment(x)
            maps = model(x)
        assert p1.dtype == dtype and p1.shape == (batch, 1, 32, 32)
        assert np.array_equal(p1.data, maps[-1].data)

    @pytest.mark.parametrize("shape", [(1, 3, 64, 64), (1, 1, 32, 32), (2, 3, 32, 16)])
    def test_wrong_input_raises(self, shape):
        model = build_model(MICRO)
        with pytest.raises(ShapeError):
            model.segment(Tensor(np.zeros(shape, np.float32)))


class TestRegistry:
    @pytest.mark.parametrize("cfg", [MICRO, SMALL, ModelConfig()])
    def test_param_count_matches_symbolic_formula(self, cfg):
        model = build_model(cfg)
        names = model.arena.names[: len(model.arena.tensors)]
        assert len(names) == len(set(names))
        total = sum(p.data.size for p in model.arena.tensors)
        assert total == expected_param_count(cfg)

    def test_every_parameter_requires_grad(self):
        model = build_model(MICRO)
        assert all(p.requires_grad for p in model.arena.tensors)


class TestAstype:
    def test_casts_every_parameter_and_buffer_in_place(self):
        ref = SegmentationModel(MICRO)
        model = SegmentationModel(MICRO)
        assert model.astype(np.float64) is model
        before, after = named_arrays(ref), named_arrays(model)
        assert [n for n, _ in after] == [n for n, _ in before]
        for (name, a), (_, b) in zip(before, after):
            assert a.dtype == np.float32 and b.dtype == np.float64, name
            assert b.shape == a.shape and np.array_equal(b, a.astype(np.float64)), name

    def test_float64_model_runs_backward_and_adam(self):
        model = SegmentationModel(MICRO).astype(np.float64)
        adam = Adam(model.arena, lr=1e-3)
        rng = np.random.default_rng(2)
        image = Tensor(rng.uniform(0, 1, (2, 3, 32, 32)), dtype=np.float64)
        target = (rng.uniform(0, 1, (2, 1, 32, 32)) > 0.7).astype(np.float64)
        loss = total_loss(model(image), target)
        assert loss.dtype == np.float64
        backward(loss)
        assert all(p.grad.dtype == np.float64 for p in model.parameters())
        start = [p.data.copy() for p in model.parameters()]
        adam.step()
        assert any(not np.array_equal(a, p.data) for a, p in zip(start, model.parameters()))
        assert all(a.dtype == np.float64 for _, a in named_arrays(model))


def protocol_batch(seed, n=2):
    rng = np.random.default_rng(seed)
    size = PROTOCOL_MODEL["input_size"]
    image = Tensor(rng.uniform(0, 1, (n, 3, size, size)).astype(np.float32))
    return image, (rng.uniform(0, 1, (n, 1, size, size)) > 0.7).astype(np.float32)


class TestLoadedModel:
    @pytest.mark.parametrize("adam_first", [True, False], ids=["adam_first", "backward_first"])
    def test_trains_bitwise_like_the_built_model(self, tmp_path, adam_first):
        built = build_model(ModelConfig(seed=6, **PROTOCOL_MODEL))
        save_checkpoint(built, tmp_path / "m.ckpt")
        loaded = load_checkpoint(tmp_path / "m.ckpt")
        models = (built, loaded)
        adams = [Adam(m.arena, lr=1e-3) for m in models] if adam_first else [None, None]
        for step in range(2):
            image, target = protocol_batch(step)
            for i, model in enumerate(models):
                backward(total_loss(model(image), target))
                if adams[i] is None:  # the backward left gradients before grads existed
                    adams[i] = Adam(model.arena, lr=1e-3)
                adams[i].step()
                adams[i].zero_grad()
        for model in models:
            assert all(p.grad.base is model.arena.grads for p in model.parameters())
        assert loaded.arena.params.tobytes() == built.arena.params.tobytes()
        assert loaded.arena.buffers.tobytes() == built.arena.buffers.tobytes()

    def test_gradients_land_in_the_arena(self, tmp_path):
        built = build_model(ModelConfig(seed=6, **PROTOCOL_MODEL))
        save_checkpoint(built, tmp_path / "m.ckpt")
        loaded = load_checkpoint(tmp_path / "m.ckpt")
        image, target = protocol_batch(3)
        for model in (built, loaded):
            backward(total_loss(model(image), target))
            backward(total_loss(model(image), target))  # accumulates
        grads = [m.arena.grads for m in (built, loaded)]
        assert grads[0].tobytes() == grads[1].tobytes() and np.any(grads[1] != 0)
        flat = np.concatenate([p.grad.ravel() for p in loaded.parameters()])
        assert flat.tobytes() == grads[1].tobytes()

    @pytest.mark.slow
    def test_float64_loaded_model_passes_the_micro_gradcheck(self, tmp_path):
        # gradchecks.model_checks on a loaded model in place of a built one
        path = tmp_path / "micro.ckpt"
        save_checkpoint(SegmentationModel(MICRO_CONFIG), path)
        model = load_checkpoint(path).astype(np.float64)
        assert model_error(model, np.random.default_rng(0)) < MODEL_TOL

    @pytest.mark.parametrize("source", ["built", "loaded"])
    def test_a_dropped_model_is_freed_without_the_collector(self, tmp_path, source):
        # no reference cycle runs through a model's arena, so dropping the
        # last reference frees the model at once
        image, _ = protocol_batch(4, n=1)
        model = build_model(ModelConfig(seed=6, **PROTOCOL_MODEL))
        with no_grad():
            model(image)  # a training forward leaves running statistics
        if source == "loaded":
            save_checkpoint(model, tmp_path / "m.ckpt")
            model = load_checkpoint(tmp_path / "m.ckpt")
        gc.disable()
        try:
            model.arena
            model.set_training(False)
            with no_grad():
                model(image)
            ref = weakref.ref(model)
            del model
            assert ref() is None
        finally:
            gc.enable()

    def test_paper_default_load_memory_bound(self, tmp_path):
        # the file, one copy of its payload and at most 1 MiB besides: the
        # layer tree costs no init arrays and the load allocates no gradients
        path = tmp_path / "paper.ckpt"
        save_checkpoint(build_model(ModelConfig()), path)
        file_size = os.path.getsize(path)
        payload_size = file_size - len(CHECKPOINT_MAGIC) - 8 - int.from_bytes(
            path.read_bytes()[6:10], "little")
        tracemalloc.start()
        try:
            model = load_checkpoint(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= file_size + payload_size + 2**20
        assert kept <= payload_size + 2**20
        assert all(p.grad is None for p in model.parameters())


def replace_header(header):
    """Blob transform that puts the bytes ``header`` in place of the stored
    header and rewrites the length field to match."""

    def apply(blob):
        header_len = int.from_bytes(blob[6:10], "little")
        return (CHECKPOINT_MAGIC + len(header).to_bytes(4, "little") + header
                + blob[10 + header_len :])

    return apply


def edit_header(edit):
    """Blob transform that applies ``edit`` to the parsed header JSON."""

    def apply(blob):
        header_len = int.from_bytes(blob[6:10], "little")
        header = json.loads(blob[10 : 10 + header_len].decode())
        edit(header)
        return replace_header(json.dumps(header).encode())(blob)

    return apply


def micro_walk():
    """Names and shapes of MICRO's arena walk, as lists."""
    arena = build_model(MICRO).arena
    return list(arena.names), list(arena.shapes)


def swap_first_two(header):
    """Layout of the walk with its first two tensors in swapped order."""
    names, shapes = micro_walk()
    names[:2], shapes[:2] = names[1::-1], shapes[1::-1]
    header["layout"] = _layout(names, shapes)


def add_stale_conv_bias(blob):
    """A file as a model with a bias in front of the stem's batch norm would
    write it: an ``encoder.stem.bias`` after the stem weight in its layout
    and count, its bytes in the payload, and the CRC recomputed."""
    header_len = int.from_bytes(blob[6:10], "little")
    header = json.loads(blob[10 : 10 + header_len].decode())
    payload = blob[10 + header_len : -4]
    names, shapes = micro_walk()
    at = names.index("encoder.stem.weight") + 1
    cout = shapes[at - 1][0]
    cut = 4 * sum(math.prod(shape) for shape in shapes[:at])
    names.insert(at, "encoder.stem.bias")
    shapes.insert(at, (1, cout, 1, 1))
    header.update(count=header["count"] + cout, layout=_layout(names, shapes))
    payload = payload[:cut] + bytes(4 * cout) + payload[cut:]
    new_header = json.dumps(header).encode()
    return (CHECKPOINT_MAGIC + len(new_header).to_bytes(4, "little") + new_header + payload
            + (zlib.crc32(payload) & 0xFFFFFFFF).to_bytes(4, "little"))


MALFORMED_CHECKPOINTS = [
    pytest.param(edit_header(lambda h: h.pop("layout")), FormatError, id="layout-missing"),
    pytest.param(edit_header(lambda h: h.update(layout=[h["layout"]])), FormatError,
                 id="layout-not-a-string"),
    pytest.param(edit_header(lambda h: h.pop("count")), FormatError, id="count-missing"),
    pytest.param(edit_header(lambda h: h.update(count=h["count"] + 1)), FormatError,
                 id="count-off-by-one"),
    pytest.param(edit_header(lambda h: h.update(count=True)), FormatError, id="count-true"),
    pytest.param(edit_header(lambda h: h.update(count=float(h["count"]))), FormatError,
                 id="count-a-float"),
    pytest.param(lambda blob: blob + b"\0\0\0\0", CorruptionError, id="trailing-bytes"),
    pytest.param(edit_header(lambda h: h["config"].update(input_size=48)), FormatError,
                 id="config-invalid"),
    pytest.param(edit_header(lambda h: h["config"].update(growth="2")), FormatError,
                 id="config-mistyped"),
    pytest.param(edit_header(swap_first_two), FormatError, id="index-out-of-order"),
    pytest.param(add_stale_conv_bias, FormatError, id="stale-conv-bias"),
    pytest.param(replace_header(b"[" * 100_000 + b"]" * 100_000), FormatError,
                 id="deeply-nested-header"),
]


class TestCheckpoint:
    @pytest.mark.parametrize("target", ["directory", "fifo", "missing-directory"])
    def test_unwritable_path_is_a_usage_error_before_the_temporary_file(self, tmp_path, target):
        path = tmp_path / ("nodir/m.ckpt" if target == "missing-directory" else "m.ckpt")
        if target == "directory":
            path.mkdir()
        if target == "fifo":
            os.mkfifo(path)
        # an open read end lets a writer let through write instead of block
        reader = os.open(path, os.O_RDONLY | os.O_NONBLOCK) if target == "fifo" else None
        before = sorted(tmp_path.rglob("*"))
        try:
            with pytest.raises(UsageError, match=re.escape(repr(str(path)))):
                save_checkpoint(build_model(MICRO), str(path))
        finally:
            if reader is not None:
                os.close(reader)
        assert sorted(tmp_path.rglob("*")) == before

    def test_save_load_save_byte_identical(self, tmp_path):
        model = build_model(MICRO)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(model, p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_paper_default_save_load_save_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(build_model(ModelConfig()), p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_format_pinned_by_digest(self, tmp_path):
        # a change to the registry order or the init draws moves the payload
        # digest (the same as under GMSRF1); a change to the header moves
        # the file's
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model(ModelConfig(seed=8, **PROTOCOL_MODEL)), path)
        blob = path.read_bytes()
        header_len = int.from_bytes(blob[6:10], "little")
        assert hashlib.sha256(blob[10 + header_len :]).hexdigest() == (
            "85e104671f738cade21b0f8074255828b253107c8983981e734648da261e3432")
        assert hashlib.sha256(blob).hexdigest() == (
            "37a5effc8661ceb6b755a0410c10597d5e9c7da59ad635a2ec564dabfdf4dc96")

    def test_roundtrip_restores_parameters_bitwise(self, tmp_path):
        model = build_model(MICRO)
        # make buffers non-trivial
        rng = np.random.default_rng(9)
        model(Tensor(rng.uniform(0, 1, (2, 3, 32, 32)).astype(np.float32)))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        orig = dict(named_arrays(model))
        new = dict(named_arrays(loaded))
        for name in orig:
            assert np.array_equal(orig[name], new[name]), name

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model(MICRO), path)
        blob = bytearray(path.read_bytes())
        blob[:6] = b"XXXXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model(MICRO), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CorruptionError):
            load_checkpoint(path)

    def test_payload_corruption_rejected_by_crc(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model(MICRO), path)
        blob = bytearray(path.read_bytes())
        blob[-100] ^= 0xFF  # flip a payload byte
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptionError):
            load_checkpoint(path)

    def test_gmsrf1_file_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model(MICRO), path)
        path.write_bytes(b"GMSRF1" + path.read_bytes()[6:])
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_shape_disagreement_rejected(self, tmp_path):
        # the layout of a walk whose first tensor has one more output channel
        names, shapes = micro_walk()
        shapes[0] = (shapes[0][0] + 1,) + shapes[0][1:]
        layout = _layout(names, shapes)
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model(MICRO), path)
        path.write_bytes(edit_header(lambda h: h.update(layout=layout))(path.read_bytes()))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_crc_present_and_correct(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model(MICRO), path)
        blob = path.read_bytes()
        header_len = int.from_bytes(blob[6:10], "little")
        payload = blob[10 + header_len : -4]
        assert int.from_bytes(blob[-4:], "little") == zlib.crc32(payload) & 0xFFFFFFFF

    @pytest.mark.parametrize("corrupt,error", MALFORMED_CHECKPOINTS)
    def test_malformed_layout_rejected(self, tmp_path, corrupt, error):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model(MICRO), path)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(error):
            load_checkpoint(path)
