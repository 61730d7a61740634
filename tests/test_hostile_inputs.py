"""Property tests: malformed configs, manifests, PNM files and checkpoint
headers give a value or a GmsrfError subclass, never a bare Python or numpy
exception."""
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmsrfnet
from gmsrfnet.data import (
    CenterSpec,
    Dataset,
    default_center_a,
    generate_center,
    load_folder,
    read_pnm,
    save_dataset,
)
from gmsrfnet.blocks import Arena
from gmsrfnet.errors import ConfigError, CorruptionError, FormatError
from gmsrfnet.network import (
    CHECKPOINT_MAGIC,
    ModelConfig,
    SegmentationModel,
    build_model,
    load_checkpoint,
    _index,
    _NoDraws,
    save_checkpoint,
)
from gmsrfnet.train import TrainConfig

from test_network import MICRO, replace_header

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
        {"threads": 0}, {"threads": -3}, {"beta1": 0.9}, {"eps": 1e-8},
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

    @pytest.mark.parametrize("cls", CONFIGS, ids=lambda c: c.__name__)
    def test_one_config_mechanism(self, cls):
        # construction checks and the JSON round trip live in errors.Config only
        for name in ("__post_init__", "to_dict", "from_dict", "from_json"):
            assert name not in vars(cls), f"{cls.__name__} defines its own {name}"

    def test_partial_dicts_fill_defaults(self):
        assert ModelConfig.from_dict({"input_size": 64}) == ModelConfig(input_size=64)
        assert TrainConfig.from_dict({"lr": 1, "model": {"growth": 2}}) == TrainConfig(
            lr=1.0, model=ModelConfig(growth=2))


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
    | st.fixed_dictionaries({"config": JSON | field_dicts(ModelConfig), "tensors": JSON})
    .map(lambda d: json.dumps(d).encode())
    | st.integers(1, 10**5).map(lambda k: b"[" * k + b"]" * k)
)


BIG = ModelConfig(encoder_widths=(512,) * 4, rfb_channels=512)


def write_checkpoint(path, config, index, payload):
    header = json.dumps({"config": config, "tensors": index}).encode()
    path.write_bytes(CHECKPOINT_MAGIC + len(header).to_bytes(4, "little") + header + payload
                     + zlib.crc32(payload).to_bytes(4, "little"))
    return path


def index_of(config):
    """The tensor index of a ``config`` checkpoint, read off the layer walk
    of a model whose init draws are views of one zero buffer. Its pages are
    never written, so they are never backed either; BIG's ~61M values fit."""
    class Walked(Exception):
        pass

    def stop(names, shapes):
        raise Walked(dict(_index(names, shapes)))

    with pytest.raises(Walked) as walked:
        Arena(SegmentationModel(config, rng=_NoDraws(np.zeros(2**26, np.float32))), stop)
    return walked.value.args[0]


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
        path = write_checkpoint(tmp_path / "big.ckpt", BIG.to_dict(),
                                {"w": {"shape": [1], "offset": 0}}, bytes(4))
        assert peak_rss_mb_of_failed_load(path, "FormatError") < 200

    @pytest.mark.parametrize("index, error", [({}, FormatError),
                                              ({"w": {"shape": [10**9], "offset": 0}},
                                               CorruptionError)])
    def test_config_outgrowing_the_payload_refused_before_its_model(self, micro_checkpoint,
                                                                    tmp_path, index, error):
        # MICRO's payload with a config whose weights take ~0.2 GB: its
        # zero placeholders are never allocated, whatever the index says
        config = dict(MICRO.to_dict(), growth=64, layers_per_module=16)
        header = json.dumps({"config": config, "tensors": index}).encode()
        path = tmp_path / "m.ckpt"
        path.write_bytes(replace_header(header)(micro_checkpoint))
        tracemalloc.start()
        try:
            with pytest.raises(error):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(micro_checkpoint) + 2**20

    def test_short_payload_refused_before_allocation(self, tmp_path):
        # the index is the one a ~61M-value model writes; the payload holds 4 bytes
        path = write_checkpoint(tmp_path / "big.ckpt", BIG.to_dict(), index_of(BIG), bytes(4))
        assert peak_rss_mb_of_failed_load(path, "CorruptionError") < 200


PNM_HEADERS = st.builds(
    lambda magic, w, h, maxval, sep: b"%s%s%d %d%s%d\n" % (magic, sep, w, h, sep, maxval),
    st.sampled_from([b"P5", b"P6"]), st.integers(-3, 5), st.integers(-3, 5),
    st.sampled_from([255, 0, -1, 65535]), st.sampled_from([b"\n", b" ", b"\n#c\n"]),
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
