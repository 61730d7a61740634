"""Command-line surface via click's test runner."""
import json

import pytest
from click.testing import CliRunner

from gmsrfnet.cli import main
from gmsrfnet.data import default_center_a, generate_center, write_pnm
from gmsrfnet.errors import ConfigError


@pytest.fixture
def runner():
    return CliRunner()


def write_train_config(path, data_size=32):
    cfg = {
        "lr": 1e-3,
        "batch_size": 4,
        "epochs": 1,
        "seed": 3,
        "augment": False,
        "model": {
            "input_size": data_size,
            "encoder_widths": [4, 6, 8, 8],
            "rfb_channels": 4,
            "growth": 2,
            "layers_per_module": 2,
            "num_modules": 1,
            "se_reduction": 4,
            "seed": 3,
        },
    }
    with open(path, "w") as f:
        json.dump(cfg, f)


@pytest.fixture
def workspace(tmp_path, runner):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(default_center_a(seed=9).to_dict()))
    data_dir = tmp_path / "data"
    result = runner.invoke(main, [
        "generate-data", "--spec", str(spec_path), "--n", "12",
        "--out", str(data_dir), "--size", "32",
        "--split-ratios", "0.667,0.1667,0.1663",
    ])
    assert result.exit_code == 0, result.output
    cfg_path = tmp_path / "train.json"
    write_train_config(cfg_path)
    return tmp_path, data_dir, cfg_path


class TestGenerateData:
    def test_layout_and_manifest(self, workspace):
        _, data_dir, _ = workspace
        manifest = json.loads((data_dir / "dataset.json").read_text())
        assert len(manifest["samples"]) == 12
        assert len(list((data_dir / "images").glob("*.ppm"))) == 12
        assert len(list((data_dir / "masks").glob("*.pgm"))) == 12
        splits = {s["split"] for s in manifest["samples"]}
        assert splits == {"train", "val", "test"}

    def test_truncated_spec_is_a_config_error(self, runner, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"seed": 1,')
        result = runner.invoke(main, [
            "generate-data", "--spec", str(spec_path), "--n", "2", "--out", str(tmp_path / "d"),
        ])
        assert result.exit_code != 0
        assert isinstance(result.exception, ConfigError), result.exception
        assert not (tmp_path / "d").exists()


    @pytest.mark.parametrize("ratios", ["0.5,0.5", "a,b,c", "1.5,-0.25,-0.25", "nan,0.5,0.5", ""])
    def test_bad_split_ratios_are_a_config_error(self, runner, tmp_path, ratios):
        result = runner.invoke(main, [
            "generate-data", "--n", "4", "--size", "16", "--out", str(tmp_path / "d"),
            "--split-ratios", ratios,
        ])
        assert isinstance(result.exception, ConfigError), result.exception
        assert not (tmp_path / "d").exists()


class TestTrainEvalPredict:
    def test_full_pipeline(self, workspace, runner, tmp_path):
        base, data_dir, cfg_path = workspace
        ckpt = base / "model.ckpt"
        result = runner.invoke(main, [
            "train", "--config", str(cfg_path), "--data", str(data_dir),
            "--out", str(ckpt), "--log", str(base / "log.csv"),
        ])
        assert result.exit_code == 0, result.output
        assert ckpt.exists() and (base / "log.csv").exists()

        result = runner.invoke(main, [
            "eval", "--ckpt", str(ckpt), "--data", str(data_dir),
            "--report", str(base / "report"),
        ])
        assert result.exit_code == 0, result.output
        assert (base / "report.csv").exists() and (base / "report.json").exists()

        sample = generate_center(default_center_a(seed=33), 1, 40)[0]
        img = base / "probe.ppm"
        write_pnm(sample.image, str(img))
        result = runner.invoke(main, [
            "predict", "--ckpt", str(ckpt), "--image", str(img),
            "--out", str(base / "mask.pgm"),
        ])
        assert result.exit_code == 0, result.output
        assert (base / "mask.pgm").exists()

    def test_report_command(self, workspace, runner):
        base, data_dir, cfg_path = workspace
        ckpt = base / "model.ckpt"
        result = runner.invoke(main, [
            "train", "--config", str(cfg_path), "--data", str(data_dir),
            "--out", str(ckpt),
        ])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, [
            "report", "--ckpt-a", str(ckpt), "--ckpt-b", str(ckpt),
            "--data-a", str(data_dir), "--data-b", str(data_dir),
            "--out", str(base / "gen"),
        ])
        assert result.exit_code == 0, result.output
        rows = json.loads((base / "gen.json").read_text())["rows"]
        assert len(rows) == 2

    def test_threads_env_override(self, workspace, runner, monkeypatch):
        base, data_dir, cfg_path = workspace
        monkeypatch.setenv("GMSRF_THREADS", "2")
        result = runner.invoke(main, [
            "train", "--config", str(cfg_path), "--data", str(data_dir),
            "--out", str(base / "threaded.ckpt"),
        ])
        assert result.exit_code == 0, result.output

    def test_threads_env_not_an_integer(self, workspace, runner, monkeypatch):
        base, data_dir, cfg_path = workspace
        monkeypatch.setenv("GMSRF_THREADS", "abc")
        result = runner.invoke(main, [
            "train", "--config", str(cfg_path), "--data", str(data_dir),
            "--out", str(base / "never.ckpt"),
        ])
        assert result.exit_code != 0
        assert isinstance(result.exception, ConfigError), result.exception
        assert "GMSRF_THREADS" in str(result.exception)
        assert not (base / "never.ckpt").exists()

    @pytest.mark.parametrize("threads", ["-3", "0"])
    def test_threads_option_below_one_is_a_config_error(self, workspace, runner, threads):
        base, data_dir, cfg_path = workspace
        result = runner.invoke(main, [
            "train", "--config", str(cfg_path), "--data", str(data_dir),
            "--out", str(base / "never.ckpt"), "--threads", threads,
        ])
        assert result.exit_code != 0
        assert isinstance(result.exception, ConfigError), result.exception
        assert "threads" in str(result.exception)
        assert not (base / "never.ckpt").exists()

    @pytest.mark.parametrize("threads", ["-3", "0"])
    def test_threads_env_below_one_is_a_config_error(self, workspace, runner, monkeypatch,
                                                     threads):
        base, data_dir, cfg_path = workspace
        monkeypatch.setenv("GMSRF_THREADS", threads)
        result = runner.invoke(main, [
            "train", "--config", str(cfg_path), "--data", str(data_dir),
            "--out", str(base / "never.ckpt"), "--threads", "2",
        ])
        assert result.exit_code != 0
        assert isinstance(result.exception, ConfigError), result.exception
        assert not (base / "never.ckpt").exists()


class TestGradcheckCommand:
    def test_op_scope_exit_zero(self, runner):
        result = runner.invoke(main, ["gradcheck", "--scope", "op"])
        assert result.exit_code == 0, result.output
        assert "all" in result.output and "passed" in result.output
