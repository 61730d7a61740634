"""Synthetic generation, splits, PNM round trips, augmentation, folder I/O."""
import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from gmsrfnet.data import (
    CenterSpec,
    Dataset,
    Sample,
    Transform,
    apply_transform,
    augment,
    default_center_a,
    default_center_b,
    generate_center,
    load_folder,
    read_pnm,
    render_sample,
    resize_image,
    resize_mask,
    sample_transform,
    save_dataset,
    split_dataset,
    write_pnm,
)
from gmsrfnet.errors import ConfigError, DataError, FormatError

import reference


class TestGeneration:
    def test_same_spec_bitwise_identical(self):
        a = generate_center(default_center_a(), 8, 32)
        b = generate_center(default_center_a(), 8, 32)
        for s1, s2 in zip(a, b):
            assert np.array_equal(s1.image, s2.image)
            assert np.array_equal(s1.mask, s2.mask)

    def test_sample_reproducible_in_isolation(self):
        spec = default_center_b()
        ds = generate_center(spec, 10, 32)
        img5, mask5 = render_sample(spec, 32, 5)
        assert np.array_equal(ds.samples[5].image, img5)
        assert np.array_equal(ds.samples[5].mask, mask5)

    @pytest.mark.parametrize("maker", [default_center_a, default_center_b])
    def test_foreground_fraction_bounds_1000(self, maker):
        ds = generate_center(maker(), 1000, 32)
        for s in ds:
            frac = s.mask.mean()
            assert 0.0 < frac < 0.6

    def test_masks_strictly_binary(self):
        ds = generate_center(default_center_b(), 50, 32)
        for s in ds:
            assert set(np.unique(s.mask)) <= {0.0, 1.0}

    def test_images_in_unit_range(self):
        ds = generate_center(default_center_a(), 50, 32)
        for s in ds:
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0

    def test_default_centers_differ_in_intensity(self):
        a = generate_center(default_center_a(), 200, 32)
        b = generate_center(default_center_b(), 200, 32)
        mean_a = np.mean([s.image.mean() for s in a])
        mean_b = np.mean([s.image.mean() for s in b])
        assert abs(mean_a - mean_b) > 0.05

    def test_degenerate_radius_rejected(self):
        with pytest.raises(ConfigError):
            CenterSpec(blob_radius=(0.0, 0.1))

    def test_bad_family_rejected(self):
        with pytest.raises(ConfigError):
            CenterSpec(family="cubes")

    def test_spec_json_roundtrip(self):
        spec = default_center_b()
        assert CenterSpec.from_dict(spec.to_dict()) == spec

    def test_rendering_pinned_by_digest(self):
        # a change to the draws, their order or the arithmetic of a pixel, in
        # either blob family, moves this digest
        digest = hashlib.sha256()
        for make in (default_center_a, default_center_b):
            for size in (16, 33, 64):
                for s in generate_center(make(), 8, size):
                    digest.update(s.image.tobytes())
                    digest.update(s.mask.tobytes())
        assert digest.hexdigest() == (
            "7ffb5afab16e103894c16b0bde79511860357e35d4fc3d828bcee55bad4a107b")

    @pytest.mark.parametrize("name, make", [("a", default_center_a), ("b", default_center_b)])
    def test_example_spec_files_match_the_defaults(self, name, make):
        # the CLI reaches the paper's two centers only through these files
        path = Path(__file__).resolve().parents[1] / "examples" / f"center-{name}.json"
        assert CenterSpec.from_json(path) == make()


class TestSplit:
    def _dataset(self, n):
        samples = [Sample(np.zeros((3, 4, 4), np.float32), np.zeros((1, 4, 4), np.float32),
                          f"s{i:03d}") for i in range(n)]
        return Dataset(samples=samples)

    def test_100_gives_80_10_10(self):
        train, val, test = split_dataset(self._dataset(100), seed=1)
        assert (len(train), len(val), len(test)) == (80, 10, 10)

    def test_11_gives_9_1_1(self):
        train, val, test = split_dataset(self._dataset(11), seed=1)
        assert (len(train), len(val), len(test)) == (9, 1, 1)

    def test_disjoint_and_exhaustive(self):
        ds = self._dataset(37)
        train, val, test = split_dataset(ds, seed=5)
        ids = train.ids() + val.ids() + test.ids()
        assert sorted(ids) == sorted(ds.ids())
        assert len(set(ids)) == 37

    def test_deterministic_per_seed(self):
        a = split_dataset(self._dataset(50), seed=9)
        b = split_dataset(self._dataset(50), seed=9)
        assert [x.ids() for x in a] == [x.ids() for x in b]

    def test_bad_ratios_rejected(self):
        with pytest.raises(ConfigError):
            split_dataset(self._dataset(10), ratios=(0.5, 0.2, 0.2))

    @pytest.mark.parametrize("ratios", [
        (0.5, 0.5), (0.5, 0.25, 0.25, 0.0), (), ("a", "b", "c"), 0.5, None,
        (1.5, -0.25, -0.25), (-0.0001, 0.5, 0.5001), (float("nan"), 0.5, 0.5),
        (float("inf"), 0.0, 0.0), (1.0, float("-inf"), float("inf")),
    ])
    def test_ratios_must_be_three_fractions_summing_to_one(self, ratios):
        with pytest.raises(ConfigError):
            split_dataset(self._dataset(10), ratios=ratios)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, [1, 2]])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ConfigError):
            split_dataset(self._dataset(10), seed=seed)

    def test_zero_fractions_and_numeric_strings_accepted(self):
        parts = split_dataset(self._dataset(10), ratios=("0.5", "0", "0.5"), seed=3)
        assert [len(p) for p in parts] == [5, 0, 5]
        assert [p.ids() for p in parts] == [
            p.ids() for p in split_dataset(self._dataset(10), ratios=(0.5, 0.0, 0.5), seed=3)]

    def test_split_tags_assigned(self):
        train, val, test = split_dataset(self._dataset(20), seed=2)
        assert all(s.split == "train" for s in train)
        assert all(s.split == "val" for s in val)
        assert all(s.split == "test" for s in test)

    def test_input_samples_keep_their_split(self):
        ds = self._dataset(20)
        ds.samples[0].split = "held-out"
        before = list(ds.samples)
        parts = split_dataset(ds, seed=2)
        assert len(ds) == 20 and all(a is b for a, b in zip(ds.samples, before))
        assert [s.split for s in ds] == ["held-out"] + [""] * 19
        assert not any(s is t for p in parts for s in p for t in before)

    def test_untagged_dataset_comes_back_whole(self, tmp_path):
        # a folder without a manifest is one undivided set
        save_dataset(generate_center(default_center_a(), 3, 16), tmp_path)
        (tmp_path / "dataset.json").unlink()
        ds = load_folder(tmp_path, input_size=16)
        for name in ("train", "val", "test"):
            assert ds.split(name).ids() == ds.ids()

    def test_tagged_dataset_gives_exactly_its_split(self):
        train, val, _ = split_dataset(self._dataset(10), ratios=(0.5, 0.5, 0.0), seed=1)
        ds = Dataset(samples=train.samples + val.samples)
        assert ds.split("val").ids() == val.ids()
        with pytest.raises(DataError, match=r"'test'.*'train', 'val'"):
            ds.split("test")


class TestPnm:
    def test_roundtrip_bytes_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 1, (3, 6, 5)).astype(np.float32)
        path = tmp_path / "x.ppm"
        write_pnm(img, path)
        first = path.read_bytes()
        again = tmp_path / "y.ppm"
        write_pnm(read_pnm(path), again)
        assert first == again.read_bytes()

    def test_p5_header_parse(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(range(16)))
        mask = read_pnm(path)
        assert mask.shape == (1, 4, 4)
        assert set(np.unique(mask)) <= {0.0, 1.0}

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n# made by hand\n2 2\n255\n" + bytes([0, 255, 128, 127]))
        mask = read_pnm(path)
        assert mask.ravel().tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_comment_before_every_field_reads_like_the_plain_header(self, tmp_path):
        payload = bytes(range(0, 240, 40)) * 3
        plain, commented = tmp_path / "plain.ppm", tmp_path / "commented.ppm"
        plain.write_bytes(b"P6\n2 3\n255\n" + payload)
        commented.write_bytes(b"P6# width\n2\n# height\n3\n# maxval\n255\n" + payload)
        first, second = read_pnm(plain), read_pnm(commented)
        assert first.shape == second.shape == (3, 3, 2)
        assert first.tobytes() == second.tobytes()

    def test_ascii_magic_rejected(self, tmp_path):
        path = tmp_path / "m.pnm"
        path.write_bytes(b"P3\n2 2\n255\n0 0 0 0 0 0 0 0 0 0 0 0")
        with pytest.raises(FormatError):
            read_pnm(path)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(FormatError):
            read_pnm(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(FormatError):
            read_pnm(path)

    def test_float_to_byte_rule(self, tmp_path):
        img = np.array([[-0.5, 0.0, 0.5, 1.0, 1.5]], np.float32).reshape(1, 1, 5)
        path = tmp_path / "m.pgm"
        write_pnm(img, path)
        data = path.read_bytes()[-5:]
        assert list(data) == [0, 0, 128, 255, 255]  # round(clamp(v)*255)


class TestAugment:
    def _sample(self, seed=0, size=16):
        rng = np.random.default_rng(seed)
        image = rng.uniform(0, 1, (3, size, size)).astype(np.float32)
        mask = (rng.uniform(size=(1, size, size)) > 0.6).astype(np.float32)
        return Sample(image, mask, "s")

    def test_flip_involution_bitwise(self):
        s = self._sample()
        flips = Transform(True, True, None, 1.0, 0.0)
        twice = apply_transform(apply_transform(s, flips), flips)
        assert np.array_equal(twice.image, s.image) and np.array_equal(twice.mask, s.mask)

    def test_mask_stays_binary_over_200_policies(self):
        s = self._sample(1)
        for seed in range(200):
            out = augment(s, np.random.default_rng(seed))
            assert set(np.unique(out.mask)) <= {0.0, 1.0}

    def test_jitter_keeps_unit_range_1000(self):
        s = self._sample(2)
        for seed in range(1000):
            out = augment(s, np.random.default_rng(seed))
            assert out.image.min() >= 0.0 and out.image.max() <= 1.0

    def test_recipe_pinned_by_digest(self):
        # a change to the draws, their order or how a transform is applied
        # moves this digest
        digest = hashlib.sha256()
        for k in range(3):
            s = self._sample(10 + k, size=24)
            for seed in range(50):
                out = augment(s, np.random.default_rng([k, seed]))
                digest.update(out.image.tobytes())
                digest.update(out.mask.tobytes())
        assert digest.hexdigest() == (
            "f9b81c36513552f72b31d4f36e6fc1bcc68dc3d7892887e7f6fc254718c84b8a")

    def test_deterministic_given_seed(self):
        s = self._sample(3)
        a = augment(s, np.random.default_rng(7))
        b = augment(s, np.random.default_rng(7))
        assert np.array_equal(a.image, b.image) and np.array_equal(a.mask, b.mask)

    def test_marker_pixel_transported_identically(self):
        # flips only: a marker set in both image and mask must land together
        size = 16
        image = np.zeros((3, size, size), np.float32)
        mask = np.zeros((1, size, size), np.float32)
        image[:, 3, 5] = 1.0
        mask[0, 3, 5] = 1.0
        s = Sample(image, mask, "m")
        for seed in range(20):
            tf = sample_transform(np.random.default_rng(seed), (size, size))
            out = apply_transform(s, Transform(tf.flip_h, tf.flip_v, None, 1.0, 0.0))
            iy, ix = np.argwhere(out.image[0] == 1.0)[0]
            my, mx = np.argwhere(out.mask[0] == 1.0)[0]
            assert (iy, ix) == (my, mx)

    def test_crop_applies_same_geometry_to_both(self):
        # encode pixel row index in the image; after crop+resize the implied
        # source window must match the mask's window (checked via transform)
        s = self._sample(4)
        tf = sample_transform(np.random.default_rng(11), s.image.shape[1:])
        tf = dataclasses.replace(tf, flip_h=False, flip_v=False, scale=1.0, shift=0.0)
        out = apply_transform(s, tf)
        assert out.image.shape == s.image.shape
        assert out.mask.shape == s.mask.shape
        if tf.crop_box:
            top, left, ch, cw = tf.crop_box
            from gmsrfnet.data import resize_image
            expected_img = resize_image(s.image[:, top:top+ch, left:left+cw], 16, 16)
            expected_mask = resize_mask(s.mask[:, top:top+ch, left:left+cw], 16, 16)
            assert np.array_equal(out.image, expected_img)
            assert np.array_equal(out.mask, expected_mask)

    def test_crop_area_in_bounds(self):
        s = self._sample(5, size=32)
        rng = np.random.default_rng(13)
        for _ in range(100):
            tf = sample_transform(rng, (32, 32))
            if tf.crop_box:
                _, _, ch, cw = tf.crop_box
                area = (ch * cw) / (32 * 32)
                assert 0.75 <= area <= 1.0  # sqrt rounding gives a little slack


class TestFolderIo:
    def test_save_load_roundtrip(self, tmp_path):
        ds = generate_center(default_center_a(), 5, 32)
        ds.samples = sorted((s for p in split_dataset(ds, seed=0) for s in p), key=lambda s: s.id)
        assert {s.split for s in ds} == {"train", "val", "test"}
        save_dataset(ds, tmp_path)
        loaded = load_folder(tmp_path, input_size=32)
        assert len(loaded) == 5
        assert loaded.center_id == "center-a"
        for orig, back in zip(ds, loaded):
            assert orig.id == back.id
            assert orig.split == back.split
            # byte quantization only
            assert np.abs(orig.image - back.image).max() <= 0.5 / 255 + 1e-6
            assert np.array_equal(orig.mask, back.mask)

    def test_unpaired_image_named_in_error(self, tmp_path):
        ds = generate_center(default_center_a(), 3, 32)
        save_dataset(ds, tmp_path)
        victim = ds.samples[1].id
        (tmp_path / "masks" / f"{victim}.pgm").unlink()
        with pytest.raises(DataError, match=victim):
            load_folder(tmp_path, input_size=32)

    @pytest.mark.parametrize("out_h,out_w", [(9, 4), (3, 11), (5, 7)])
    def test_resize_image_matches_loop_oracle(self, out_h, out_w):
        # computed in float64 within 1e-12 of the oracle, then rounded to float32
        image = np.random.default_rng(3).uniform(0, 1, (3, 5, 7)).astype(np.float32)
        expected = reference.bilinear_loops(image[None], out_h, out_w)[0]
        out = resize_image(image, out_h, out_w)
        assert out.dtype == np.float32
        half_ulp = np.abs(np.spacing(expected.astype(np.float32))) / 2
        assert np.all(np.abs(out - expected) <= half_ulp + 1e-12)

    def test_resized_to_input_size(self, tmp_path):
        ds = generate_center(default_center_a(), 3, 48)
        save_dataset(ds, tmp_path)
        loaded = load_folder(tmp_path, input_size=32)
        for s in loaded:
            assert s.image.shape == (3, 32, 32)
            assert s.mask.shape == (1, 32, 32)
            assert set(np.unique(s.mask)) <= {0.0, 1.0}

    @pytest.mark.parametrize("folder,wrong_kind,kind", [
        pytest.param("images", lambda s: s.image[:1], "P6", id="p5-image"),
        pytest.param("masks", lambda s: np.repeat(s.mask, 3, 0), "P5", id="p6-mask"),
    ])
    def test_wrong_pnm_kind_named_in_error(self, tmp_path, folder, wrong_kind, kind):
        # a P5 image or a P6 mask would fail later as a numpy stacking error
        ds = generate_center(default_center_a(), 3, 32)
        save_dataset(ds, tmp_path)
        suffix = ".ppm" if folder == "images" else ".pgm"
        victim = tmp_path / folder / f"{ds.samples[1].id}{suffix}"
        write_pnm(wrong_kind(ds.samples[1]), victim)
        with pytest.raises(FormatError, match=f"{ds.samples[1].id}{suffix}.*{kind}"):
            load_folder(tmp_path, input_size=32)

    def test_missing_layout_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_folder(tmp_path)
