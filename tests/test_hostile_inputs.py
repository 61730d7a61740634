"""Property tests: malformed configs, manifests, PNM files and checkpoint
headers give a value or a GmsrfError subclass, never a bare Python or numpy
exception."""
import contextlib
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import zlib

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import gmsrfnet
from gmsrfnet.data import (
    MAX_RENDERED_BYTES,
    MAX_SAMPLES,
    MAX_SIZE,
    CenterSpec,
    Dataset,
    default_center_a,
    generate_center,
    load_folder,
    read_pnm,
    save_dataset,
)
from gmsrfnet.blocks import Arena
from gmsrfnet.cli import main
from gmsrfnet.errors import ConfigError, CorruptionError, DataError, FormatError
from gmsrfnet.network import (
    CHECKPOINT_MAGIC,
    MODEL_BOUNDS,
    ModelConfig,
    SegmentationModel,
    build_model,
    load_checkpoint,
    _layout,
    _NoDraws,
    save_checkpoint,
)
from gmsrfnet.train import TrainConfig

from test_network import MICRO, edit_header, replace_header

SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.integers(-2**70, 2**70) | st.text(max_size=6))
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
# values near what the fields hold: small numbers and short numeric lists
PLAUSIBLE = (st.integers(-2, 300) | st.floats(-1.0, 1.0) | st.sampled_from(["smooth-ellipse", "x"])
             | st.lists(st.integers(0, 300) | st.floats(0.0, 1.0), max_size=5))


def field_dicts(cls, values=JSON | PLAUSIBLE):
    """Dicts keyed by the real field names of ``cls`` with random values."""
    names = [f.name for f in dataclasses.fields(cls)]
    return st.dictionaries(st.sampled_from(names), values, max_size=len(names))


def value_or_error(parse, arg, cls, error):
    try:
        result = parse(arg)
    except error:
        return
    assert isinstance(result, cls)


@contextlib.contextmanager
def fifo_with_writer(path):
    """A FIFO at ``path`` that a writer thread opens. A reader that opens the
    FIFO meets this writer and reads end of file instead of blocking for
    ever; the read end opened at the end lets the writer finish if no reader
    came."""
    os.mkfifo(path)
    writer = threading.Thread(target=lambda: open(path, "wb").close())
    writer.start()
    try:
        yield path
    finally:
        reader = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        writer.join(timeout=10)
        os.close(reader)
    assert not writer.is_alive()


SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)
CONFIGS = (ModelConfig, TrainConfig, CenterSpec)


class TestConfigs:
    @SETTINGS
    @given(JSON | field_dicts(ModelConfig))
    def test_model_config(self, d):
        value_or_error(ModelConfig.from_dict, d, ModelConfig, ConfigError)

    @SETTINGS
    @given(JSON | field_dicts(CenterSpec))
    def test_center_spec(self, d):
        value_or_error(CenterSpec.from_dict, d, CenterSpec, ConfigError)

    @SETTINGS
    @given(JSON | field_dicts(TrainConfig, JSON | PLAUSIBLE | field_dicts(ModelConfig)))
    def test_train_config(self, d):
        value_or_error(TrainConfig.from_dict, d, TrainConfig, ConfigError)

    @SETTINGS
    @given(st.binary(max_size=60) | JSON.map(lambda d: json.dumps(d).encode()))
    def test_train_config_file(self, blob):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "train.json")
            with open(path, "wb") as f:
                f.write(blob)
            for cls in CONFIGS:
                value_or_error(cls.from_json, path, cls, ConfigError)

    @pytest.mark.parametrize("d", [
        {"bogus": 1}, {"lr": "x"}, {"batch_size": None}, [], {"model": "x"},
        {"max_steps": 0}, {"lr": float("nan")}, {"epochs": 2.0}, {"augment": 1},
        {"threads": 0}, {"threads": -3}, {"beta1": 0.9}, {"eps": 1e-8}, {"threads": 2},
    ])
    def test_measured_train_config_cases(self, d):
        with pytest.raises(ConfigError):
            TrainConfig.from_dict(d)

    @pytest.mark.parametrize("cls,d", [
        (CenterSpec, {"blob_radius": 5}), (CenterSpec, {"bogus": 1}),
        (CenterSpec, {"blob_count": [1]}), (CenterSpec, {"fg_mean": [0.5, 0.5]}),
        (ModelConfig, {"encoder_widths": [8, 8]}), (ModelConfig, {"seed": True}),
    ])
    def test_measured_spec_and_model_cases(self, cls, d):
        with pytest.raises(ConfigError):
            cls.from_dict(d)

    @pytest.mark.parametrize("make", [
        lambda: TrainConfig(lr="x"), lambda: ModelConfig(input_size="64"),
        lambda: CenterSpec(seed="1"),
    ], ids=["train-lr", "model-input-size", "spec-seed"])
    def test_mistyped_constructor_argument(self, make):
        with pytest.raises(ConfigError):
            make()

    def test_deeply_nested_file(self, tmp_path):
        path = tmp_path / "train.json"
        path.write_text("[" * 100000)
        for cls in CONFIGS:
            with pytest.raises(ConfigError):
                cls.from_json(path)

    @pytest.mark.parametrize("cls", CONFIGS)
    def test_a_fifo_in_place_of_the_file(self, tmp_path, cls):
        with fifo_with_writer(tmp_path / "train.json") as path:
            with pytest.raises(ConfigError, match="not a regular file"):
                cls.from_json(path)

    @pytest.mark.parametrize("command, option", [("train", "--config"),
                                                 ("generate-data", "--spec")])
    def test_a_fifo_given_to_the_cli(self, tmp_path, command, option):
        # click's exists=True, dir_okay=False lets a FIFO through
        data = tmp_path / "data"
        data.mkdir()
        extra = {"train": ["--data", str(data), "--out", str(tmp_path / "m.ckpt")],
                 "generate-data": ["--n", "2", "--out", str(data)]}[command]
        with fifo_with_writer(tmp_path / "config.json") as path:
            result = CliRunner().invoke(main, [command, option, str(path)] + extra)
        assert isinstance(result.exception, ConfigError), result.exception
        assert "not a regular file" in str(result.exception)

    @pytest.mark.parametrize("cls", CONFIGS, ids=lambda c: c.__name__)
    def test_one_config_mechanism(self, cls):
        # construction checks and the JSON round trip live in errors.Config only
        for name in ("__post_init__", "to_dict", "from_dict", "from_json"):
            assert name not in vars(cls), f"{cls.__name__} defines its own {name}"

    def test_partial_dicts_fill_defaults(self):
        assert ModelConfig.from_dict({"input_size": 64}) == ModelConfig(input_size=64)
        assert TrainConfig.from_dict({"lr": 1, "model": {"growth": 2}}) == TrainConfig(
            lr=1.0, model=ModelConfig(growth=2))


def traced_peak(fn):
    """The tracemalloc peak, in bytes, of calling ``fn``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def raises_config_error(fn):
    def call():
        with pytest.raises(ConfigError):
            fn()
    return call


def run_cli(args):
    result = CliRunner().invoke(main, args)
    assert isinstance(result.exception, ConfigError), result.exception


class TestModelBounds:
    """Each size field of ModelConfig has an upper bound, checked on
    construction, so a huge value never reaches numpy (BIG, below, stays
    within them)."""

    @pytest.mark.parametrize("field", sorted(MODEL_BOUNDS))
    def test_one_over_each_bound_is_a_config_error(self, field):
        top = MODEL_BOUNDS[field]
        at, over = ((top,) * 4, (top, 8, 8, top + 1)) if field == "encoder_widths" else (top, top + 1)
        if field == "input_size":
            over = top + 32  # the next multiple of 32
        ModelConfig.from_dict({field: at})
        peak = traced_peak(raises_config_error(lambda: ModelConfig.from_dict({field: over})))
        assert peak < 2**20

    def test_huge_width_in_train_json_is_a_config_error(self, tmp_path):
        path = tmp_path / "train.json"
        path.write_text(json.dumps({"model": {"encoder_widths": [10**9, 8, 8, 8]}}))
        data = tmp_path / "data"
        data.mkdir()
        args = ["train", "--config", str(path), "--data", str(data), "--out", str(tmp_path / "m")]
        assert traced_peak(lambda: run_cli(args)) < 2**20
        with pytest.raises(ConfigError):
            TrainConfig.from_json(str(path))


class TestGenerationBounds:
    """generate_center refuses a set over its bounds before rendering any
    sample, through the API and through generate-data."""

    CASES = [(MAX_SAMPLES + 1, 16), (1, MAX_SIZE + 1),
             (MAX_RENDERED_BYTES // (16 * 64 * 64) + 1, 64)]
    IDS = ["n", "size", "bytes"]

    @pytest.mark.parametrize("n, size", CASES, ids=IDS)
    def test_over_a_bound_through_the_api(self, n, size):
        call = raises_config_error(lambda: generate_center(default_center_a(), n, size))
        assert traced_peak(call) < 2**20

    @pytest.mark.parametrize("n, size", CASES, ids=IDS)
    def test_over_a_bound_through_the_cli(self, tmp_path, n, size):
        out = tmp_path / "d"
        args = ["generate-data", "--n", str(n), "--size", str(size), "--out", str(out)]
        assert traced_peak(lambda: run_cli(args)) < 2**20
        assert not out.exists()


@pytest.fixture(scope="module")
def folder():
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(generate_center(default_center_a(), 2, 16), tmp)
        yield tmp


def write_manifest(folder, text):
    with open(os.path.join(folder, "dataset.json"), "w") as f:
        f.write(text)


ENTRIES = st.lists(st.fixed_dictionaries({}, optional={
    "id": st.sampled_from(["center-a_00000", "center-a_00001"]) | JSON,
    "center_id": JSON, "split": st.sampled_from(["train", "val"]) | JSON,
}), max_size=3)
MANIFESTS = JSON | st.fixed_dictionaries({}, optional={
    "center_id": st.text(max_size=4) | JSON, "spec": JSON | field_dicts(CenterSpec),
    "samples": ENTRIES | JSON,
})


class TestManifest:
    @SETTINGS
    @given(MANIFESTS)
    def test_manifest(self, folder, manifest):
        write_manifest(folder, json.dumps(manifest))
        value_or_error(lambda f: load_folder(f, 16), folder, Dataset, FormatError)

    @pytest.mark.parametrize("text", [
        "[]", '{"samples": [{"split": "x"}]}', '{"samples": "ab"}', "{", '{"spec": {"seed": -1}}',
        '{"center_id": 5}', '{"samples": [{"id": "center-a_00000", "split": 3}]}',
        pytest.param("[" * 100000, id="deeply-nested"),
    ])
    def test_measured_manifest_cases(self, folder, text):
        write_manifest(folder, text)
        with pytest.raises(FormatError):
            load_folder(folder, 16)


FOLDER_ENTRIES = pytest.mark.parametrize(
    "entry", ["images/center-a_00000.ppm", "masks/center-a_00000.pgm", "dataset.json"],
    ids=["image", "mask", "manifest"])


class TestFolderEntries:
    @FOLDER_ENTRIES
    def test_a_directory_in_place_of_a_file(self, tmp_path, entry):
        save_dataset(generate_center(default_center_a(), 2, 16), tmp_path)
        victim = tmp_path / entry
        victim.unlink()
        victim.mkdir()
        with pytest.raises(DataError, match=re.escape(str(victim))):
            load_folder(tmp_path, 16)

    @FOLDER_ENTRIES
    def test_save_refuses_a_directory_in_place_of_a_file(self, tmp_path, entry):
        victim = tmp_path / entry
        victim.mkdir(parents=True)
        with pytest.raises(DataError, match=re.escape(str(victim))):
            save_dataset(generate_center(default_center_a(), 2, 16), tmp_path)

    @pytest.mark.parametrize("folder", ["images", "masks"])
    def test_save_refuses_a_file_in_place_of_a_folder(self, tmp_path, folder):
        victim = tmp_path / folder
        victim.write_bytes(b"")
        with pytest.raises(DataError, match=re.escape(str(victim))):
            save_dataset(generate_center(default_center_a(), 2, 16), tmp_path)

    def test_a_fifo_in_place_of_an_image(self, tmp_path):
        save_dataset(generate_center(default_center_a(), 2, 16), tmp_path)
        victim = tmp_path / "images" / "center-a_00000.ppm"
        victim.unlink()
        with fifo_with_writer(victim):
            with pytest.raises(DataError, match=re.escape(str(victim))):
                load_folder(tmp_path, 16)


@pytest.fixture(scope="module")
def micro_checkpoint():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.ckpt")
        save_checkpoint(build_model(MICRO), path)
        with open(path, "rb") as f:
            return f.read()


CHECKPOINT_HEADERS = (
    st.binary(max_size=200)
    | JSON.map(lambda d: json.dumps(d).encode())
    | st.fixed_dictionaries({"config": JSON | field_dicts(ModelConfig), "count": JSON,
                             "layout": JSON})
    .map(lambda d: json.dumps(d).encode())
    | st.integers(1, 10**5).map(lambda k: b"[" * k + b"]" * k)
)


BIG = ModelConfig(encoder_widths=(512,) * 4, rfb_channels=512)


def write_checkpoint(path, config, count, layout, payload):
    header = json.dumps({"config": config, "count": count, "layout": layout}).encode()
    path.write_bytes(CHECKPOINT_MAGIC + len(header).to_bytes(4, "little") + header + payload
                     + zlib.crc32(payload).to_bytes(4, "little"))
    return path


def header_of(config):
    """The value count and layout of a ``config`` checkpoint, read off the
    layer walk of a model whose init draws are views of one zero buffer. Its
    pages are never written, so they are never backed either; BIG's ~61M
    values fit."""
    class Walked(Exception):
        pass

    def stop(names, shapes):
        raise Walked(sum(math.prod(shape) for shape in shapes), _layout(names, shapes))

    with pytest.raises(Walked) as walked:
        Arena(SegmentationModel(config, rng=_NoDraws(np.zeros(2**26, np.float32))), stop)
    return walked.value.args


def peak_rss_mb_of_failed_load(path, error):
    """Peak RSS in MB of a fresh process whose ``load_checkpoint(path)``
    raised ``error``. It is read from VmHWM: ``ru_maxrss`` would also count
    the peak of this test process, which the child inherits across exec."""
    script = ("import sys\n"
              f"from gmsrfnet.errors import {error}\n"
              "from gmsrfnet.network import load_checkpoint\n"
              "try:\n"
              "    load_checkpoint(sys.argv[1])\n"
              f"except {error}:\n"
              "    with open('/proc/self/status') as f:\n"
              "        print(int(f.read().split('VmHWM:')[1].split()[0]) // 1024)\n")
    src = os.path.dirname(os.path.dirname(gmsrfnet.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip(), f"load_checkpoint did not raise {error}"
    return int(out)


class TestCheckpointHeader:
    @SETTINGS
    @given(CHECKPOINT_HEADERS)
    def test_arbitrary_header_bytes(self, micro_checkpoint, header):
        # the length field is rewritten to match, so only the header is hostile
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.ckpt")
            with open(path, "wb") as f:
                f.write(replace_header(header)(micro_checkpoint))
            value_or_error(load_checkpoint, path, SegmentationModel,
                           (FormatError, CorruptionError))

    def test_oversized_config_refused_before_allocation(self, tmp_path):
        # a valid one-tensor file whose config asks for ~61M float32 values
        path = write_checkpoint(tmp_path / "big.ckpt", BIG.to_dict(), 1, _layout(["w"], [(1,)]),
                                bytes(4))
        assert peak_rss_mb_of_failed_load(path, "FormatError") < 200

    @pytest.mark.parametrize("count, error", [(lambda n: 0, FormatError),
                                              (lambda n: n, FormatError),
                                              (lambda n: 10**9, CorruptionError)])
    def test_config_outgrowing_the_payload_refused_before_its_model(self, micro_checkpoint,
                                                                    tmp_path, count, error):
        # MICRO's payload with a config whose weights take ~0.2 GB: its
        # zero placeholders are never allocated, whatever the count says.
        # Truncated only if the count is larger than the payload
        config = dict(MICRO.to_dict(), growth=64, layers_per_module=16)
        path = tmp_path / "m.ckpt"
        path.write_bytes(edit_header(lambda h: h.update(config=config, count=count(h["count"])))(
            micro_checkpoint))
        tracemalloc.start()
        try:
            with pytest.raises(error):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(micro_checkpoint) + 2**20

    def test_a_fifo_in_place_of_the_checkpoint(self, tmp_path):
        with fifo_with_writer(tmp_path / "m.ckpt") as path:
            with pytest.raises(FormatError, match="not a regular file"):
                load_checkpoint(path)

    def test_a_missing_checkpoint_is_a_format_error(self, tmp_path):
        with pytest.raises(FormatError, match="not a regular file"):
            load_checkpoint(tmp_path / "m.ckpt")

    def test_short_payload_refused_before_allocation(self, tmp_path):
        # the count and layout are those a ~61M-value model writes; the payload holds 4 bytes
        path = write_checkpoint(tmp_path / "big.ckpt", BIG.to_dict(), *header_of(BIG), bytes(4))
        assert peak_rss_mb_of_failed_load(path, "CorruptionError") < 200


PNM_SEPARATORS = st.sampled_from([b"\n", b" ", b"\t", b"\r", b"\x0b", b"\x0c", b"\n#c\n", b"#c\n",
                                  b" #c 4\n\t"])
PNM_FIELDS = st.integers(-3, 5).map(b"%d".__mod__) | st.sampled_from([b"+4", b"04", b"1_0", b"4#c"])
PNM_HEADERS = st.builds(
    lambda magic, seps, fields, end: magic + b"".join(s + f for s, f in zip(seps, fields)) + end,
    st.sampled_from([b"P5", b"P6"]),
    st.tuples(PNM_SEPARATORS | st.just(b""), PNM_SEPARATORS, PNM_SEPARATORS),
    st.tuples(PNM_FIELDS, PNM_FIELDS,
              st.sampled_from([b"255", b"0", b"-1", b"65535", b"+255", b"0255", b"2_55", b"255#c"])),
    st.sampled_from([b"\n", b""]),  # b"" with no payload: end of file right after maxval
)


class TestPnm:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.binary(max_size=40) | st.tuples(PNM_HEADERS, st.binary(max_size=80)).map(b"".join))
    def test_read_pnm(self, blob):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "x.pnm")
            with open(path, "wb") as f:
                f.write(blob)
            value_or_error(read_pnm, path, np.ndarray, FormatError)

    def test_negative_size_rejected(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n-1 -1\n255\n\0")
        with pytest.raises(FormatError):
            read_pnm(path)
