"""Global multi-scale residual fusion over four scale streams.

Each module runs, per scale: an initial width-k conv layer, then densely
connected fusion layers that concatenate the scale's own history with the
previous-layer features of the other three scales, gated by a cross-scale
sigmoid attention map, and finally channel selection plus a 1x1 transition
with a residual connection back to the module input.
"""
from __future__ import annotations

from .blocks import ConvBlock, Layer, Resampler, SqueezeExcite
from .errors import ShapeError, UsageError
from .tensor import add, concat_channels, mul

SCALES = (1, 2, 3, 4)


class CrossScaleAttention(Layer):
    """Spatial gate for one scale computed from the other three scales.

    The three foreign features are resampled to the target scale,
    concatenated, fused by a 3x3 conv block and squashed to (0, 1) by a
    1x1 conv + sigmoid. Output width equals the growth factor so the gate
    multiplies the fusion output elementwise.
    """

    def __init__(self, rng, growth, target_scale):
        super().__init__()
        self.resamplers = [Resampler(rng, growth, src, target_scale)
                           for src in SCALES if src != target_scale]
        self.fuse = ConvBlock(rng, 3 * growth, growth, 3, padding=1)
        self.gate = ConvBlock(rng, growth, growth, 1, act="sigmoid", norm=False)

    def resample(self, others):
        """Bring the three foreign-scale features to the target scale."""
        if len(others) != 3:
            raise ShapeError(f"cmsa expects 3 foreign features, got {len(others)}")
        return [r(x) for r, x in zip(self.resamplers, others)]

    def forward(self, resampled):
        return self.gate(self.fuse(concat_channels(resampled)))


class GmsrfModule(Layer):
    """One fusion module over a 4-scale bundle; output shapes equal input
    shapes, so modules stack without adaptation. The fusion conv of layer l
    takes the dense width C0 + (l-1)k + 3k, which its weight records.
    """

    def __init__(self, rng, channels, growth, num_layers=3, se_reduction=4):
        super().__init__()
        if num_layers < 1:
            raise UsageError(f"module needs at least 1 layer, got {num_layers}")
        if growth < 1:
            raise UsageError(f"growth factor must be >= 1, got {growth}")
        self.channels = channels
        self.num_layers = num_layers

        self.initial = [ConvBlock(rng, channels, growth, 3, padding=1) for _ in SCALES]
        self.attention = []
        self.fusion = []
        for scale in SCALES:
            self.attention.append([
                CrossScaleAttention(rng, growth, scale) for _ in range(2, num_layers + 1)
            ])
            self.fusion.append([
                ConvBlock(rng, channels + (l - 1) * growth + 3 * growth, growth, 3, padding=1)
                for l in range(2, num_layers + 1)
            ])
        fused_width = channels + num_layers * growth
        self.select = [SqueezeExcite(rng, fused_width, se_reduction) for _ in SCALES]
        self.transition = [ConvBlock(rng, fused_width, channels, 1) for _ in SCALES]

    def _validate(self, bundle):
        if len(bundle) != 4:
            raise ShapeError(f"bundle must hold 4 scales, got {len(bundle)}")
        n = bundle[0].shape[0]
        for i, x in enumerate(bundle):
            if x.shape[0] != n:
                raise ShapeError("bundle batch sizes differ")
            if x.shape[1] != self.channels:
                raise ShapeError(
                    f"scale {i + 1} has {x.shape[1]} channels, module expects {self.channels}"
                )
            if i:
                prev = bundle[i - 1]
                if prev.shape[2] != 2 * x.shape[2] or prev.shape[3] != 2 * x.shape[3]:
                    raise ShapeError(
                        f"scale {i + 1} size {x.shape[2:]} is not half of scale {i} size {prev.shape[2:]}"
                    )

    def forward(self, bundle):
        self._validate(bundle)
        histories = [[x] for x in bundle]
        for i in range(4):
            histories[i].append(self.initial[i](bundle[i]))

        for l in range(2, self.num_layers + 1):
            prev = [histories[i][l - 1] for i in range(4)]
            new = []
            for i in range(4):
                att_block = self.attention[i][l - 2]
                resampled = att_block.resample([prev[j] for j in range(4) if j != i])
                att = att_block(resampled)
                x = self.fusion[i][l - 2](concat_channels(histories[i] + resampled))
                new.append(mul(x, att))
            for i in range(4):
                histories[i].append(new[i])

        outs = []
        for i in range(4):
            fused = concat_channels(histories[i])
            y = self.transition[i](self.select[i](fused))
            outs.append(add(y, bundle[i]))
        return tuple(outs)

