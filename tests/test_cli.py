"""Command-line surface via click's test runner."""
import json

import pytest
from click.testing import CliRunner

from gmsrfnet.cli import main
from gmsrfnet.data import default_center_a, generate_center, write_pnm
from gmsrfnet.errors import ConfigError, DataError, UsageError


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

    @pytest.mark.parametrize("seed", ["-1", "-7"])
    def test_negative_split_seed_is_a_config_error(self, runner, tmp_path, seed):
        result = runner.invoke(main, [
            "generate-data", "--n", "4", "--size", "16", "--out", str(tmp_path / "d"),
            "--split-seed", seed,
        ])
        assert isinstance(result.exception, ConfigError), result.exception
        assert "seed" in str(result.exception)
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

    @pytest.mark.parametrize("threads", [-3, 0])
    def test_threads_option_below_one_is_a_config_error(self, workspace, runner, threads):
        # the config file's "threads" key is the one way to set the worker count
        base, data_dir, cfg_path = workspace
        cfg = json.loads(cfg_path.read_text())
        cfg_path.write_text(json.dumps(dict(cfg, threads=threads)))
        result = runner.invoke(main, [
            "train", "--config", str(cfg_path), "--data", str(data_dir),
            "--out", str(base / "never.ckpt"),
        ])
        assert result.exit_code != 0
        assert isinstance(result.exception, ConfigError), result.exception
        assert "threads" in str(result.exception)
        assert not (base / "never.ckpt").exists()

    @pytest.mark.parametrize("out, log", [
        ("outdir", None),
        ("nodir/m.ckpt", None),
        ("m.ckpt", "nodir/log.csv"),
    ])
    def test_unwritable_output_is_a_usage_error_before_training(self, workspace, runner,
                                                                 out, log):
        base, data_dir, cfg_path = workspace
        (base / "outdir").mkdir()
        before = sorted(base.rglob("*"))
        args = ["train", "--config", str(cfg_path), "--data", str(data_dir),
                "--out", str(base / out)]
        if log:
            args += ["--log", str(base / log)]
        result = runner.invoke(main, args)
        assert isinstance(result.exception, UsageError), result.exception
        assert sorted(base.rglob("*")) == before

    @pytest.mark.parametrize("command", ["eval", "report", "predict"])
    def test_missing_output_directory_is_a_usage_error_before_the_work(self, workspace, runner,
                                                                       command):
        base, data_dir, cfg_path = workspace
        ckpt, img = base / "model.ckpt", base / "probe.ppm"
        result = runner.invoke(main, [
            "train", "--config", str(cfg_path), "--data", str(data_dir), "--out", str(ckpt),
        ])
        assert result.exit_code == 0, result.output
        write_pnm(generate_center(default_center_a(seed=33), 1, 32)[0].image, str(img))
        before = sorted(base.rglob("*"))
        out = str(base / "nodir" / "out")
        args = {
            "eval": ["--ckpt", str(ckpt), "--data", str(data_dir), "--report", out],
            "report": ["--ckpt-a", str(ckpt), "--ckpt-b", str(ckpt), "--data-a", str(data_dir),
                       "--data-b", str(data_dir), "--out", out],
            "predict": ["--ckpt", str(ckpt), "--image", str(img), "--out", out],
        }[command]
        result = runner.invoke(main, [command] + args)
        assert isinstance(result.exception, UsageError), result.exception
        assert sorted(base.rglob("*")) == before

    def test_unknown_eval_split_is_a_usage_error(self, runner, tmp_path):
        # a misspelt split once evaluated every sample, train split included
        ckpt, data_dir = tmp_path / "m.ckpt", tmp_path / "data"
        ckpt.write_text("x")
        data_dir.mkdir()
        result = runner.invoke(main, [
            "eval", "--ckpt", str(ckpt), "--data", str(data_dir),
            "--report", str(tmp_path / "r"), "--split", "tset",
        ])
        assert result.exit_code == 2, result.output
        assert "tset" in result.output
        assert not (tmp_path / "r.csv").exists()


def generate(runner, tmp_path, n, ratios):
    """A 32x32 data folder of n samples split by ratios, and a train config."""
    data_dir, cfg_path = tmp_path / "data", tmp_path / "train.json"
    result = runner.invoke(main, [
        "generate-data", "--n", str(n), "--size", "32", "--out", str(data_dir),
        "--split-ratios", ratios,
    ])
    assert result.exit_code == 0, result.output
    write_train_config(cfg_path)
    return data_dir, cfg_path


@pytest.fixture
def train_only(tmp_path, runner):
    """A folder whose samples are all tagged train, and a model trained on it."""
    data_dir, cfg_path = generate(runner, tmp_path, 6, "1,0,0")
    ckpt = tmp_path / "m.ckpt"
    result = runner.invoke(main, [
        "train", "--config", str(cfg_path), "--data", str(data_dir), "--out", str(ckpt),
    ])
    assert result.exit_code == 0, result.output
    return data_dir, ckpt


class TestExactSplits:
    # each command once fell back to the whole dataset when its split was
    # empty, scoring or training on samples of the other splits

    def test_eval_of_an_empty_split_is_a_data_error(self, runner, tmp_path, train_only):
        data_dir, ckpt = train_only
        result = runner.invoke(main, [
            "eval", "--ckpt", str(ckpt), "--data", str(data_dir),
            "--report", str(tmp_path / "r"), "--split", "test",
        ])
        assert isinstance(result.exception, DataError), result.exception
        assert "'test'" in str(result.exception)
        assert not (tmp_path / "r.csv").exists()

    def test_report_without_a_test_split_is_a_data_error(self, runner, tmp_path, train_only):
        data_dir, ckpt = train_only
        result = runner.invoke(main, [
            "report", "--ckpt-a", str(ckpt), "--ckpt-b", str(ckpt),
            "--data-a", str(data_dir), "--data-b", str(data_dir), "--out", str(tmp_path / "g"),
        ])
        assert isinstance(result.exception, DataError), result.exception
        assert "'test'" in str(result.exception)
        assert not (tmp_path / "g.csv").exists()

    def test_train_without_a_train_split_is_a_data_error(self, runner, tmp_path):
        data_dir, cfg_path = generate(runner, tmp_path, 8, "0,0.5,0.5")
        result = runner.invoke(main, [
            "train", "--config", str(cfg_path), "--data", str(data_dir),
            "--out", str(tmp_path / "m.ckpt"),
        ])
        assert isinstance(result.exception, DataError), result.exception
        assert "'train'" in str(result.exception)
        assert not (tmp_path / "m.ckpt").exists()


# Each command's path options with the kind of path each takes, and the other
# arguments it needs; "{tmp}" stands for the test's scratch directory.
PATH_OPTIONS = {
    "generate-data": (["--n", "2"], {"--spec": "file", "--out": "dir"}),
    "train": (["--out", "{tmp}/m.ckpt"], {"--config": "file", "--data": "dir"}),
    "eval": (["--report", "{tmp}/r"], {"--ckpt": "file", "--data": "dir"}),
    "predict": ([], {"--ckpt": "file", "--image": "file", "--out": "file"}),
    "report": (["--out", "{tmp}/g"],
               {"--ckpt-a": "file", "--ckpt-b": "file", "--data-a": "dir", "--data-b": "dir"}),
}


def path_option_cases(kind):
    return [(command, option) for command, (_, options) in PATH_OPTIONS.items()
            for option, k in options.items() if k == kind]


def invoke_with_wrong_kind(runner, tmp_path, command, wrong):
    """Run command with existing paths of the right kind on every path option
    but ``wrong``, which gets the other kind."""
    paths = {"file": tmp_path / "a.file", "dir": tmp_path / "a.dir"}
    paths["file"].write_text("x")
    paths["dir"].mkdir()
    extra, options = PATH_OPTIONS[command]
    args = [command] + [a.format(tmp=tmp_path) for a in extra]
    for option, kind in options.items():
        if option == wrong:
            kind = "dir" if kind == "file" else "file"
        args += [option, str(paths[kind])]
    return runner.invoke(main, args)


class TestPathOptions:
    @pytest.mark.parametrize("command, option", path_option_cases("file"))
    def test_file_option_given_a_directory_is_a_usage_error(self, runner, tmp_path,
                                                            command, option):
        result = invoke_with_wrong_kind(runner, tmp_path, command, option)
        assert result.exit_code == 2, result.output
        assert option in result.output and "is a directory" in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("command, option", path_option_cases("dir"))
    def test_directory_option_given_a_file_is_a_usage_error(self, runner, tmp_path,
                                                            command, option):
        result = invoke_with_wrong_kind(runner, tmp_path, command, option)
        assert result.exit_code == 2, result.output
        assert option in result.output and "is a file" in result.output
        assert isinstance(result.exception, SystemExit)


class TestGradcheckCommand:
    def test_op_scope_exit_zero(self, runner):
        result = runner.invoke(main, ["gradcheck", "--scope", "op"])
        assert result.exit_code == 0, result.output
        assert "all" in result.output and "passed" in result.output

    @pytest.mark.parametrize("scope", ["op", "block", "model"])
    def test_negative_seed_is_a_usage_error(self, runner, scope):
        result = runner.invoke(main, ["gradcheck", "--scope", scope, "--seed", "-1"])
        assert result.exit_code != 0
        assert isinstance(result.exception, UsageError), result.exception
        assert "seed" in str(result.exception)
