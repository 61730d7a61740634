"""Full segmentation model: residual encoder with receptive-field channel
reduction, stacked fusion modules, a transposed-conv decoder, and four
deep-supervision heads. Also the binary checkpoint format."""
from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import zlib
from dataclasses import dataclass

import numpy as np

from .blocks import Arena, ConvBlock, Layer, ResidualStage, RfbBlock
from .errors import Config, ConfigError, CorruptionError, FormatError, ShapeError, check_fields
from .gmsrf import GmsrfModule
from .tensor import concat_channels, resize_bilinear, sigmoid

CHECKPOINT_MAGIC = b"GMSRF2"


# The largest value of each ModelConfig size field (for encoder_widths, of
# each width). Each is far above any desk-scale model, so that a mistyped or
# hostile config fails with ConfigError before numpy is asked for memory.
# They bound each field, not the product of several: a config near every
# bound at once still asks for more memory than a desk machine has.
MODEL_BOUNDS = {"input_size": 1024, "encoder_widths": 1024, "rfb_channels": 1024,
                "growth": 256, "layers_per_module": 32, "num_modules": 16}


@dataclass
class ModelConfig(Config):
    """Architecture hyperparameters; everything the training protocol leaves
    open is pinned here."""

    input_size: int = 64
    encoder_widths: tuple = (32, 64, 128, 256)
    rfb_channels: int = 32          # bundle width C0 after reduction
    growth: int = 8                 # channels added per dense fusion layer
    layers_per_module: int = 3
    num_modules: int = 2
    se_reduction: int = 4
    seed: int = 0

    def validate(self):
        check_fields(self)
        top = MODEL_BOUNDS["input_size"]
        if not 32 <= self.input_size <= top or self.input_size % 32 != 0:
            raise ConfigError(f"input_size must be a multiple of 32 in [32, {top}], got {self.input_size}")
        top = MODEL_BOUNDS["encoder_widths"]
        if len(self.encoder_widths) != 4 or any(not 1 <= w <= top for w in self.encoder_widths):
            raise ConfigError(f"encoder_widths must be 4 ints in [1, {top}], got {self.encoder_widths}")
        for field in ("rfb_channels", "growth", "layers_per_module", "num_modules", "se_reduction"):
            value, top = getattr(self, field), MODEL_BOUNDS.get(field, math.inf)
            if not 1 <= value <= top:
                raise ConfigError(f"{field} must be in [1, {top}], got {value}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


class Encoder(Layer):
    """Stride-2 stem plus four downsampling residual stages producing
    features at strides 4/8/16/32, each reduced to the bundle width."""

    def __init__(self, rng, config):
        super().__init__()
        w1, w2, w3, w4 = config.encoder_widths
        c0 = config.rfb_channels
        self.stem = ConvBlock(rng, 3, w1, 3, stride=2, padding=1)
        self.stages = [
            ResidualStage(rng, cin, cout)
            for cin, cout in zip((w1, w1, w2, w3), (w1, w2, w3, w4))
        ]
        self.reducers = [RfbBlock(rng, w, c0) for w in (w1, w2, w3, w4)]

    def forward(self, image):
        x = self.stem(image)
        bundle = []
        for stage, reduce in zip(self.stages, self.reducers):
            x = stage(x)
            bundle.append(reduce(x))
        return tuple(bundle)


class Decoder(Layer):
    """Vanilla decoder: D4 is the coarsest stream unchanged; each finer level
    upscales the previous decoder output by a stride-2 transposed conv and
    mixes it with the same-scale bundle feature through a 3x3 conv."""

    def __init__(self, rng, channels):
        super().__init__()
        self.up = [
            ConvBlock(rng, channels, channels, 4, stride=2, padding=1, transpose=True)
            for _ in range(3)
        ]
        self.mix = [ConvBlock(rng, 2 * channels, channels, 3, padding=1) for _ in range(3)]

    def forward(self, bundle):
        x1, x2, x3, x4 = bundle
        decoded = [x4]
        for step, skip in enumerate((x3, x2, x1)):
            upper = self.up[step](decoded[-1])
            decoded.append(self.mix[step](concat_channels([upper, skip])))
        return decoded  # [D4, D3, D2, D1]


FOREGROUND_PRIOR = 0.1


class SupervisionHeads(Layer):
    """1x1 conv to one channel, bilinear upscale to ground-truth size, then
    sigmoid; one probability map per decoder level.

    Head biases start at the foreground-prior logit so initial predictions
    match the class imbalance instead of 0.5, which substantially speeds up
    early training on sparse masks."""

    def __init__(self, rng, channels, out_size):
        super().__init__()
        self.out_size = out_size
        self.convs = [ConvBlock(rng, channels, 1, 1, act="linear", norm=False) for _ in range(4)]
        prior_logit = float(np.log(FOREGROUND_PRIOR / (1.0 - FOREGROUND_PRIOR)))
        for conv in self.convs:
            conv.bias.data[:] = prior_logit

    def prob_map(self, level, d):
        """The probability map of head ``level`` (0 for P4 ... 3 for P1) from
        its decoder output."""
        return sigmoid(resize_bilinear(self.convs[level](d), self.out_size, self.out_size))

    def forward(self, decoded):
        return [self.prob_map(level, d) for level, d in enumerate(decoded)]  # [P4, P3, P2, P1]


class SegmentationModel(Layer):
    """Encoder -> stacked fusion modules -> decoder -> supervision heads."""

    def __init__(self, config, rng=None):
        super().__init__()
        if rng is None:
            rng = np.random.default_rng(config.seed)
        self.config = config
        self.encoder = Encoder(rng, config)
        self.modules = [
            GmsrfModule(rng, config.rfb_channels, config.growth,
                        config.layers_per_module, config.se_reduction)
            for _ in range(config.num_modules)
        ]
        self.decoder = Decoder(rng, config.rfb_channels)
        self.heads = SupervisionHeads(rng, config.rfb_channels, config.input_size)

    def _decode(self, image):
        """Decoder outputs [D4, D3, D2, D1] of an (N, 3, input_size, input_size) image."""
        n, c, h, w = image.shape
        if c != 3 or h != self.config.input_size or w != self.config.input_size:
            raise ShapeError(
                f"model expects (N, 3, {self.config.input_size}, {self.config.input_size}), got {image.shape}"
            )
        bundle = self.encoder(image)
        for module in self.modules:
            bundle = module(bundle)
        return self.decoder(bundle)

    def forward(self, image):
        """All four supervision maps [P4, P3, P2, P1], which training needs."""
        return self.heads(self._decode(image))

    def segment(self, image):
        """The primary map P1 alone, equal to ``self(image)[-1]``: inference
        reads nothing else, so the three coarser heads are not run."""
        return self.heads.prob_map(3, self._decode(image)[-1])


def build_model(config):
    return SegmentationModel(config)


# -- checkpoint persistence -----------------------------------------------------
#
# layout: magic "GMSRF2" | uint32 LE header length | header JSON
#         | payload (raw little-endian float32 in walk order: the arena's
#           params block, then its buffers block)
#         | uint32 LE CRC-32 of the payload
# header: {"config": {...}, "count": payload length in float32 values,
#          "layout": _layout(names, shapes) of the arena walk}


def _layout(names, shapes):
    """The payload's layout as one digest: sha256 hex of the walk's tensor
    names and shapes, in payload order."""
    return hashlib.sha256(json.dumps([names, shapes]).encode()).hexdigest()


def save_checkpoint(model, path):
    arena = model.arena
    payload = b"".join(np.ascontiguousarray(a, "<f4").tobytes() for a in (arena.params, arena.buffers))
    header = json.dumps({"config": model.config.to_dict(), "count": len(payload) // 4,
                         "layout": _layout(arena.names, arena.shapes)}).encode()

    blob = b"".join([
        CHECKPOINT_MAGIC,
        len(header).to_bytes(4, "little"),
        header,
        payload,
        (zlib.crc32(payload) & 0xFFFFFFFF).to_bytes(4, "little"),
    ])
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)) or ".")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _NoDraws:
    """Init RNG of a model whose every value a checkpoint overwrites: each
    draw is a view of the leading ``values``, such as the payload being
    loaded, so no draw allocates. (A zero-stride view would not do: Tensor
    makes its data contiguous, which copies it.) At most ``values.size``
    values are drawn in all, then CorruptionError (each bias or batch-norm
    array follows a weight at least as large)."""

    def __init__(self, values):
        self.values = values
        self.budget = values.size

    def normal(self, loc, scale, size):
        count = math.prod(size)
        self.budget -= count
        if self.budget < 0:
            raise CorruptionError("checkpoint truncated in payload")
        return self.values[:count].reshape(size)


_LAYOUT_MISMATCH = "checkpoint layout does not match the config's tensors"


def load_checkpoint(path):
    """Rebuild a model from a checkpoint file. The header's layout digest and
    value count must equal those of the stored config's model, and the
    payload must be that long and match its CRC, all before the model's
    arena is allocated: header values are only compared, never used to size
    or slice, and a config larger than the payload fails before its model
    is. The layer tree is built on views of the payload, and the arena's
    params and buffers are one copy each of the payload's two blocks. A
    path that is not a regular file (missing, a directory, a FIFO) raises
    FormatError before it is opened."""
    if not os.path.isfile(path):
        raise FormatError(f"{path}: is not a regular file")
    with open(path, "rb") as f:
        blob = f.read()
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic {blob[:6]!r}")
    pos = len(CHECKPOINT_MAGIC)
    if len(blob) < pos + 4:
        raise CorruptionError("checkpoint truncated in header length")
    header_len = int.from_bytes(blob[pos : pos + 4], "little")
    pos += 4
    if len(blob) < pos + header_len:
        raise CorruptionError("checkpoint truncated in header")
    try:
        header = json.loads(blob[pos : pos + header_len].decode())
        config = ModelConfig.from_dict(header["config"])
        count, layout = header["count"], header["layout"]
    except (ValueError, RecursionError, KeyError, TypeError, ConfigError) as e:
        raise FormatError(f"unreadable checkpoint header: {e}") from e
    payload = memoryview(blob)[pos + header_len : -4]
    values = np.frombuffer(payload, "<f4", count=len(payload) // 4)

    def check(names, shapes):
        size = sum(map(math.prod, shapes))
        if type(count) is not int or count != size or layout != _layout(names, shapes):
            raise FormatError(_LAYOUT_MISMATCH)
        extra = len(payload) - 4 * size
        if extra < 0:
            raise CorruptionError("checkpoint truncated in payload")
        if extra > 0:
            raise CorruptionError(f"{extra} trailing bytes after the checkpoint CRC")
        if zlib.crc32(payload) != int.from_bytes(blob[-4:], "little"):
            raise CorruptionError("checkpoint payload CRC mismatch")
        return values

    # the tree draws no more values than the payload holds; the arena, which
    # copies the payload, is only allocated once check passes
    try:
        model = SegmentationModel(config, rng=_NoDraws(values))
    except CorruptionError:  # truncated only if its own count says so
        if type(count) is int and count > values.size:
            raise
        raise FormatError(_LAYOUT_MISMATCH) from None
    model._arena = Arena(model, check)
    return model
