"""Synthetic two-center dataset generation, PNM image I/O, resizing,
augmentation, and deterministic splits.

Two configurable "centers" stand in for acquisition sites with different
imaging characteristics: blob family, palette, noise, and illumination are
the distribution-shift knobs.
"""
from __future__ import annotations

import dataclasses
import json
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import Config, ConfigError, DataError, FormatError, check_fields
from .tensor import interp_matrix


@dataclass
class CenterSpec(Config):
    """Generation parameters for one synthetic acquisition center."""

    center_id: str = "center"
    family: str = "smooth-ellipse"          # or "lumpy-polygon"
    fg_mean: tuple = (0.62, 0.30, 0.28)
    bg_mean: tuple = (0.78, 0.55, 0.50)
    fg_var: float = 0.03
    bg_var: float = 0.03
    noise_sigma: float = 0.02
    illumination: float = 0.15
    blob_count: tuple = (1, 3)
    blob_radius: tuple = (0.08, 0.20)       # fraction of image size
    lumpiness: float = 0.3                  # radial wobble amplitude cap
    seed: int = 1

    def validate(self):
        check_fields(self)
        if self.family not in ("smooth-ellipse", "lumpy-polygon"):
            raise ConfigError(f"unknown blob family {self.family!r}")
        lo, hi = self.blob_radius
        if not (0.0 < lo <= hi <= 0.5):
            raise ConfigError(f"blob radius fractions must lie in (0, 0.5], got {self.blob_radius}")
        if self.blob_count[0] < 1 or self.blob_count[0] > self.blob_count[1]:
            raise ConfigError(f"bad blob count range {self.blob_count}")
        if min(self.fg_var, self.bg_var, self.noise_sigma) < 0:
            raise ConfigError("variances must be non-negative")
        if not (0.0 <= self.lumpiness < 1.0):
            raise ConfigError(f"lumpiness must be in [0, 1), got {self.lumpiness}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


def default_center_a(seed=101):
    return CenterSpec(center_id="center-a", family="smooth-ellipse", seed=seed)


def default_center_b(seed=202):
    # same fg-darker-than-bg polarity as center A but shifted hue, darker
    # palette, heavier noise, lumpy blobs: a nontrivial but learnable shift
    return CenterSpec(
        center_id="center-b",
        family="lumpy-polygon",
        fg_mean=(0.34, 0.29, 0.36),
        bg_mean=(0.53, 0.46, 0.52),
        fg_var=0.04,
        bg_var=0.04,
        noise_sigma=0.04,
        illumination=0.25,
        blob_radius=(0.08, 0.18),
        seed=seed,
    )


@dataclass
class Sample:
    image: np.ndarray        # (3, H, W) float32 in [0, 1]
    mask: np.ndarray         # (1, H, W) float32 in {0, 1}
    id: str
    center_id: str = ""
    split: str = ""


@dataclass
class Dataset:
    samples: list = field(default_factory=list)
    center_id: str = ""
    spec: CenterSpec | None = None

    def __len__(self):
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def ids(self):
        return [s.id for s in self.samples]

    def subset(self, split):
        ds = Dataset(center_id=self.center_id, spec=self.spec)
        ds.samples = [s for s in self.samples if s.split == split]
        return ds

    def split(self, name):
        """Exactly the samples tagged ``name``. A dataset with no split tags
        (a folder without a manifest) is one undivided set and comes back
        whole; a tagged one without a ``name`` sample raises DataError."""
        present = sorted({s.split for s in self.samples} - {""})
        if not present:
            return self
        part = self.subset(name)
        if not len(part):
            raise DataError(f"no samples in split {name!r}; the dataset has splits {present}")
        return part


# -- synthetic rendering ----------------------------------------------------


def _render_blob(rng, spec, size, first):
    margin = (0.25, 0.75) if first else (0.1, 0.9)
    cy = rng.uniform(*margin) * size
    cx = rng.uniform(*margin) * size
    radius = rng.uniform(*spec.blob_radius) * size
    if spec.family == "smooth-ellipse":
        dy = (np.arange(size) - cy)[:, None]
        dx = np.arange(size) - cx
        rx = radius * rng.uniform(0.6, 1.0)
        angle = rng.uniform(0.0, np.pi)
        ca, sa = np.cos(angle), np.sin(angle)
        u = (dx * ca + dy * sa) / rx
        v = (-dx * sa + dy * ca) / radius
        return u * u + v * v <= 1.0
    # lumpy-polygon: star-convex radius modulated by low-order harmonics. It
    # lies within radius * (1 + amps.sum()) of its centre, so only the square
    # one pixel wider is computed: no pixel outside is near enough to the
    # boundary for rounding to put it in
    amps = rng.uniform(0.0, spec.lumpiness / 3.0, 3)
    phases = rng.uniform(0.0, 2 * np.pi, 3)
    half = radius * (1.0 + amps.sum()) + 1.0
    r0, c0 = max(0, int(cy - half)), max(0, int(cx - half))
    r1, c1 = min(size, int(cy + half) + 1), min(size, int(cx + half) + 1)
    dy = (np.arange(r0, r1) - cy)[:, None]
    dx = np.arange(c0, c1) - cx
    rho = np.sqrt(dx * dx + dy * dy)
    phi = np.arctan2(dy, dx)
    wobble = np.zeros_like(phi)
    for m, (a, ph) in enumerate(zip(amps, phases), start=2):
        wobble += a * np.cos(m * phi + ph)
    mask = np.zeros((size, size), bool)
    mask[r0:r1, c0:c1] = rho <= radius * (1.0 + wobble)
    return mask


def render_sample(spec, size, index):
    """Render one image/mask pair; reproducible from (spec.seed, index) alone."""
    rng = np.random.default_rng([spec.seed, index])
    mask = np.zeros((size, size), bool)
    count = int(rng.integers(spec.blob_count[0], spec.blob_count[1] + 1))
    for b in range(count):
        mask |= _render_blob(rng, spec, size, first=(b == 0))

    # per channel, background then foreground texture: 4x4 noise upsampled
    m = interp_matrix(size, 4, np.float64)
    fields = m @ rng.normal(0.0, 1.0, (3, 2, 4, 4)) @ m.T
    fields *= np.array([spec.bg_var, spec.fg_var])[:, None, None]
    fields += np.array([spec.bg_mean, spec.fg_mean]).T[:, :, None, None]
    image = np.where(mask, fields[:, 1], fields[:, 0])

    # linear illumination ramp along a random direction
    theta = rng.uniform(0.0, 2 * np.pi)
    axis = np.arange(size)
    proj = (np.cos(theta) * axis + np.sin(theta) * axis[:, None]) / size
    image *= 1.0 + spec.illumination * (proj - proj.mean())

    # rng.normal(0, sigma) is 0 + sigma * z; the + 0 turns -0.0 into +0.0
    noise = rng.standard_normal(image.shape)
    noise *= spec.noise_sigma
    noise += 0.0
    image += noise
    image = np.clip(image, 0.0, 1.0, out=np.empty(image.shape, np.float32))
    return image, mask[None].astype(np.float32)


# Bounds on a generated set, checked before anything is rendered: at most
# MAX_SAMPLES samples of at most MAX_SIZE x MAX_SIZE, and at most
# MAX_RENDERED_BYTES for the whole set as float32 (16 * size**2 bytes per
# sample: three image channels and the mask), 16384 samples at 64x64.
MAX_SAMPLES = 100_000
MAX_SIZE = 2048
MAX_RENDERED_BYTES = 2**30


def generate_center(spec, n, size=64):
    """Render n samples for one center. Per-sample RNG streams make any
    sample reproducible in isolation. An n or size out of bounds, or a set
    over MAX_RENDERED_BYTES, raises ConfigError before any sample is
    rendered."""
    if not 1 <= n <= MAX_SAMPLES:
        raise ConfigError(f"n must be in [1, {MAX_SAMPLES}], got {n}")
    if not 16 <= size <= MAX_SIZE:
        raise ConfigError(f"size must be in [16, {MAX_SIZE}], got {size}")
    if 16 * n * size * size > MAX_RENDERED_BYTES:
        raise ConfigError(f"{n} samples of {size}x{size} take {16 * n * size * size} bytes as "
                          f"float32, over the {MAX_RENDERED_BYTES}-byte bound")
    spec.validate()
    ds = Dataset(center_id=spec.center_id, spec=spec)
    for i in range(n):
        image, mask = render_sample(spec, size, i)
        ds.samples.append(Sample(image, mask, f"{spec.center_id}_{i:05d}", spec.center_id))
    return ds


# -- splits -------------------------------------------------------------------


def split_dataset(dataset, ratios=(0.8, 0.1, 0.1), seed=0):
    """Deterministic shuffled train/val/test split; rounded val/test sizes,
    remainder to train. ``ratios`` must be three fractions in [0, 1] that
    sum to 1, given as numbers or as strings of numbers. Each part holds
    split-tagged copies of the samples in dataset order; the input dataset
    is left as it was. ``seed`` must be a non-negative integer."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError(f"split seed must be a non-negative integer, got {seed!r}")
    try:
        fractions = [float(r) for r in ratios]
    except (TypeError, ValueError):
        fractions = []
    if (len(fractions) != 3 or not all(0.0 <= f <= 1.0 for f in fractions)
            or abs(sum(fractions) - 1.0) > 1e-9):
        raise ConfigError(f"split ratios must be three fractions in [0, 1] summing to 1, got {ratios!r}")
    n = len(dataset)
    n_val = int(n * fractions[1] + 0.5)
    n_test = int(n * fractions[2] + 0.5)
    n_train = n - n_val - n_test
    if n_train < 0:
        raise ConfigError(f"ratios {ratios} leave no training data for n={n}")
    perm = np.random.default_rng(seed).permutation(n)
    parts = []
    bounds = [(0, n_train, "train"), (n_train, n_train + n_val, "val"),
              (n_train + n_val, n, "test")]
    for lo, hi, tag in bounds:
        samples = [dataclasses.replace(dataset.samples[i], split=tag) for i in sorted(perm[lo:hi])]
        parts.append(Dataset(samples, dataset.center_id, dataset.spec))
    return tuple(parts)


# -- PNM I/O --------------------------------------------------------------------


# The Netpbm binary header: the magic, then width, height and maxval, each
# after any mix of whitespace and "#" comments to end of line. A field runs
# to the next whitespace byte; the one after maxval ends the header.
_PNM_HEADER = re.compile(rb"(P[56])" + rb"(?:\s|#[^\n]*\n)*([^\s#]\S*)\s" * 3)


def _read_pnm_header(blob, path):
    header = _PNM_HEADER.match(blob)
    if header is None:
        if blob[:2] not in (b"P5", b"P6"):
            raise FormatError(f"{path}: unsupported PNM magic {blob[:2]!r}")
        raise FormatError(f"{path}: truncated or malformed PNM header")
    magic, *fields = header.groups()
    try:
        width, height, maxval = (int(f) for f in fields)
    except ValueError as e:
        raise FormatError(f"{path}: non-numeric PNM header field") from e
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 is supported, got {maxval}")
    if width < 1 or height < 1:
        raise FormatError(f"{path}: bad PNM size {width}x{height}")
    return magic, width, height, header.end()


def read_pnm(path):
    """Read a P6 image as (3, H, W) float in [0, 1] or a P5 mask as (1, H, W)
    binarized at 128. A path that is not a regular file (a directory, a
    FIFO) raises DataError before it is opened."""
    if not os.path.isfile(path):
        raise DataError(f"{path}: is not a regular file")
    with open(path, "rb") as f:
        blob = f.read()
    magic, width, height, pos = _read_pnm_header(blob, path)
    channels = 3 if magic == b"P6" else 1
    expected = width * height * channels
    payload = blob[pos : pos + expected]
    if len(payload) != expected:
        raise FormatError(f"{path}: truncated PNM payload "
                          f"({len(payload)} of {expected} bytes)")
    raw = np.frombuffer(payload, np.uint8).reshape(height, width, channels)
    if magic == b"P6":
        return raw.transpose(2, 0, 1).astype(np.float32) / np.float32(255.0)
    return (raw.transpose(2, 0, 1) >= 128).astype(np.float32)


def write_pnm(x, path):
    """Write float (3, H, W) data in [0, 1] as P6 or (1, H, W) as P5, maxval
    255: each value is stored as round(clip(v, 0, 1) * 255). A path that
    exists and is not a regular file (a directory, a FIFO) raises DataError
    before it is opened."""
    arr = np.asarray(x)
    if arr.ndim != 3 or arr.shape[0] not in (1, 3):
        raise FormatError(f"write_pnm expects (1|3, H, W) data, got {arr.shape}")
    if os.path.exists(path) and not os.path.isfile(path):
        raise DataError(f"{path}: is not a regular file")
    arr = np.round(np.clip(arr, 0.0, 1.0) * 255.0).astype(np.uint8)
    channels, height, width = arr.shape
    magic = b"P6" if channels == 3 else b"P5"
    with open(path, "wb") as f:
        f.write(magic + b"\n%d %d\n255\n" % (width, height))
        f.write(arr.transpose(1, 2, 0).tobytes())


# -- resizing -------------------------------------------------------------------


def resize_image(image, out_h, out_w):
    """Bilinear resize of a (C, H, W) float array."""
    rm = interp_matrix(out_h, image.shape[1], np.float64)
    cm = interp_matrix(out_w, image.shape[2], np.float64)
    return (rm @ image.astype(np.float64) @ cm.T).astype(np.float32)


def resize_mask(mask, out_h, out_w):
    """Nearest-neighbor resize of a (1, H, W) mask, re-binarized."""
    h, w = mask.shape[1:]
    rows = np.minimum((np.arange(out_h) + 0.5) * h // out_h, h - 1).astype(int)
    cols = np.minimum((np.arange(out_w) + 0.5) * w // out_w, w - 1).astype(int)
    out = mask[:, rows][:, :, cols]
    return (out >= 0.5).astype(np.float32)


# -- augmentation -----------------------------------------------------------------


# The training recipe: each flip with probability 1/2, a crop keeping a
# CROP_AREA fraction of the image resized back, then image * scale + shift.
CROP_AREA = (0.8, 1.0)
SCALE_RANGE = (0.8, 1.2)
SHIFT_RANGE = (-0.1, 0.1)


@dataclass
class Transform:
    """One sampled geometric + photometric transform, applied identically to
    image and mask (photometric part image-only)."""

    flip_h: bool
    flip_v: bool
    crop_box: tuple | None   # (top, left, height, width)
    scale: float
    shift: float


def sample_transform(rng, shape):
    h, w = shape
    flip_h = bool(rng.random() < 0.5)
    flip_v = bool(rng.random() < 0.5)
    side = np.sqrt(rng.uniform(*CROP_AREA))
    ch = max(1, int(round(h * side)))
    cw = max(1, int(round(w * side)))
    top = int(rng.integers(0, h - ch + 1))
    left = int(rng.integers(0, w - cw + 1))
    crop_box = (top, left, ch, cw) if (ch, cw) != (h, w) else None
    scale = float(rng.uniform(*SCALE_RANGE))
    shift = float(rng.uniform(*SHIFT_RANGE))
    return Transform(flip_h, flip_v, crop_box, scale, shift)


def apply_transform(sample, tf):
    image, mask = sample.image, sample.mask
    if tf.flip_h:
        image, mask = image[:, :, ::-1], mask[:, :, ::-1]
    if tf.flip_v:
        image, mask = image[:, ::-1], mask[:, ::-1]
    if tf.crop_box is not None:
        top, left, ch, cw = tf.crop_box
        h, w = sample.image.shape[1:]
        image = resize_image(image[:, top : top + ch, left : left + cw], h, w)
        mask = resize_mask(mask[:, top : top + ch, left : left + cw], h, w)
    if tf.scale != 1.0 or tf.shift != 0.0:
        image = np.clip(image * np.float32(tf.scale) + np.float32(tf.shift), 0.0, 1.0)
    return Sample(image.astype(np.float32), mask, sample.id, sample.center_id, sample.split)


def augment(sample, rng):
    """Random flips, area crop with resize back, brightness/contrast jitter."""
    return apply_transform(sample, sample_transform(rng, sample.image.shape[1:]))


# -- directory layout --------------------------------------------------------------


def save_dataset(dataset, out_dir):
    """Write images/*.ppm, masks/*.pgm, and a dataset.json manifest; an
    entry that exists and is not a regular file, or an images/ or masks/
    that is not a directory, raises DataError."""
    img_dir = os.path.join(out_dir, "images")
    mask_dir = os.path.join(out_dir, "masks")
    for folder in (img_dir, mask_dir):
        try:
            os.makedirs(folder, exist_ok=True)
        except FileExistsError as e:
            raise DataError(f"{folder}: is not a directory") from e
    for s in dataset.samples:
        write_pnm(s.image, os.path.join(img_dir, s.id + ".ppm"))
        write_pnm(s.mask, os.path.join(mask_dir, s.id + ".pgm"))
    manifest = {
        "center_id": dataset.center_id,
        "spec": dataset.spec.to_dict() if dataset.spec else None,
        "samples": [
            {"id": s.id, "center_id": s.center_id, "split": s.split}
            for s in dataset.samples
        ],
    }
    manifest_path = os.path.join(out_dir, "dataset.json")
    if os.path.exists(manifest_path) and not os.path.isfile(manifest_path):
        raise DataError(f"{manifest_path}: is not a regular file")
    with open(manifest_path, "w") as f:
        json.dump(manifest, f, indent=2)


def _read_manifest(path):
    """Center id, spec and per-sample entries by id of a dataset.json in the
    layout save_dataset writes; DataError if it is not a regular file,
    FormatError for anything else."""
    if not os.path.isfile(path):
        raise DataError(f"{path}: is not a regular file")
    with open(path) as f:
        try:
            manifest = json.load(f)
        except (ValueError, RecursionError) as e:
            raise FormatError(f"{path}: manifest is not JSON: {e}") from e
    entries = manifest.get("samples", []) if isinstance(manifest, dict) else None
    if not isinstance(entries, list) or not isinstance(manifest.get("center_id", ""), str) or not all(
        isinstance(e, dict) and isinstance(e.get("id"), str)
        and isinstance(e.get("center_id", ""), str) and isinstance(e.get("split", ""), str)
        for e in entries
    ):
        raise FormatError(f"{path}: manifest does not have the layout save_dataset writes")
    try:
        spec = CenterSpec.from_dict(manifest["spec"]) if manifest.get("spec") else None
    except ConfigError as e:
        raise FormatError(f"{path}: bad spec in manifest: {e}") from e
    return manifest.get("center_id", ""), spec, {e["id"]: e for e in entries}


def load_folder(folder, input_size=64):
    """Load paired images/*.ppm and masks/*.pgm, resized to input_size.

    A dataset.json manifest, when present, restores center ids and split
    tags. Any unpaired stem is an error naming that stem, and an image that
    is not P6 or a mask that is not P5 a FormatError naming the file.
    """
    img_dir = os.path.join(folder, "images")
    mask_dir = os.path.join(folder, "masks")
    if not os.path.isdir(img_dir) or not os.path.isdir(mask_dir):
        raise DataError(f"{folder}: expected images/ and masks/ subdirectories")
    images = {os.path.splitext(f)[0]: f for f in sorted(os.listdir(img_dir)) if f.endswith(".ppm")}
    masks = {os.path.splitext(f)[0]: f for f in sorted(os.listdir(mask_dir)) if f.endswith(".pgm")}
    for stem in images:
        if stem not in masks:
            raise DataError(f"image {stem!r} has no matching mask")
    for stem in masks:
        if stem not in images:
            raise DataError(f"mask {stem!r} has no matching image")

    manifest_path = os.path.join(folder, "dataset.json")
    center_id, spec, meta = "", None, {}
    if os.path.exists(manifest_path):
        center_id, spec, meta = _read_manifest(manifest_path)

    ds = Dataset(center_id=center_id, spec=spec)
    for stem in sorted(images):
        image_path = os.path.join(img_dir, images[stem])
        mask_path = os.path.join(mask_dir, masks[stem])
        image, mask = read_pnm(image_path), read_pnm(mask_path)
        if image.shape[0] != 3:
            raise FormatError(f"{image_path}: an image must be a P6 (color) file")
        if mask.shape[0] != 1:
            raise FormatError(f"{mask_path}: a mask must be a P5 (gray) file")
        if image.shape[1:] != (input_size, input_size):
            image = resize_image(image, input_size, input_size)
        if mask.shape[1:] != (input_size, input_size):
            mask = resize_mask(mask, input_size, input_size)
        entry = meta.get(stem, {})
        ds.samples.append(Sample(image, mask, stem,
                                 entry.get("center_id", center_id),
                                 entry.get("split", "")))
    return ds
