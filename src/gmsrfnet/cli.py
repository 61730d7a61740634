"""Command-line surface: data generation, training, evaluation, prediction,
the cross-center generalization report, and the gradient-check suite."""
from __future__ import annotations

import sys

import click

from .data import CenterSpec, generate_center, load_folder, save_dataset, split_dataset
from .gradchecks import run_suite
from .train import TrainConfig, evaluate, generalization_report, predict, train


@click.group()
def main():
    """Multi-scale residual fusion segmentation at desk scale."""


@main.command("generate-data")
@click.option("--spec", "spec_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="CenterSpec JSON; defaults to the built-in center.")
@click.option("--n", type=int, required=True, help="Number of samples.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
@click.option("--size", type=int, default=64, show_default=True)
@click.option("--split-ratios", default="0.8,0.1,0.1", show_default=True,
              help="train,val,test fractions; must sum to 1.")
@click.option("--split-seed", type=int, default=0, show_default=True)
def generate_data_cmd(spec_path, n, out_dir, size, split_ratios, split_seed):
    """Render a synthetic center into images/, masks/, dataset.json."""
    if spec_path:
        spec = CenterSpec.from_json(spec_path)
    else:
        spec = CenterSpec()
    dataset = generate_center(spec, n, size)
    position = {s.id: i for i, s in enumerate(dataset)}
    parts = split_dataset(dataset, split_ratios.split(","), split_seed)
    dataset.samples = sorted((s for part in parts for s in part), key=lambda s: position[s.id])
    save_dataset(dataset, out_dir)
    click.echo(f"wrote {len(dataset)} samples to {out_dir}")


@main.command("train")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), required=True,
              help="TrainConfig JSON.")
@click.option("--data", "data_dir", type=click.Path(exists=True, file_okay=False), required=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--log", "log_path", type=click.Path(), default=None)
def train_cmd(config_path, data_dir, out_path, log_path):
    """Train on the train split of a dataset directory."""
    cfg = TrainConfig.from_json(config_path)
    dataset = load_folder(data_dir, cfg.model.input_size)
    train_set = dataset.split("train")
    val_set = dataset.subset("val")
    result = train(cfg, train_set, val_set if len(val_set) else None, out_path, log_path)
    last = result.epoch_rows[-1]
    click.echo(f"final epoch {last['epoch']}: train_loss={last['train_loss']:.4f}"
               + (f" val_dsc={last['val_dsc']:.4f}" if "val_dsc" in last else ""))


@main.command("eval")
@click.option("--ckpt", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--data", "data_dir", type=click.Path(exists=True, file_okay=False), required=True)
@click.option("--report", "report_base", type=click.Path(), required=True,
              help="Output base path; writes <base>.csv and <base>.json.")
@click.option("--split", type=click.Choice(["train", "val", "test", "all"]), default="test",
              show_default=True,
              help="Which manifest split to evaluate; 'all' for everything.")
def eval_cmd(ckpt, data_dir, report_base, split):
    """Evaluate a checkpoint, writing per-image metrics and means."""
    from .network import load_checkpoint

    model = load_checkpoint(ckpt)
    dataset = load_folder(data_dir, model.config.input_size)
    if split != "all":
        dataset = dataset.split(split)
    report = evaluate(model, dataset, report_base, label=dataset.center_id or split)
    means = report.means
    click.echo("dsc={dsc:.4f} miou={miou:.4f} recall={recall:.4f} precision={precision:.4f}"
               .format(**means))


@main.command("predict")
@click.option("--ckpt", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--image", "image_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
def predict_cmd(ckpt, image_path, out_path):
    """Segment one PPM image into a P5 mask at its native resolution."""
    predict(ckpt, image_path, out_path)
    click.echo(f"wrote {out_path}")


@main.command("report")
@click.option("--ckpt-a", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--ckpt-b", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--data-a", type=click.Path(exists=True, file_okay=False), required=True)
@click.option("--data-b", type=click.Path(exists=True, file_okay=False), required=True)
@click.option("--out", "out_base", type=click.Path(), required=True)
def report_cmd(ckpt_a, ckpt_b, data_a, data_b, out_base):
    """Cross-center generalization table (2 models x source/unseen metrics)."""
    from .network import load_checkpoint

    model_a = load_checkpoint(ckpt_a)
    model_b = load_checkpoint(ckpt_b)
    ds_a = load_folder(data_a, model_a.config.input_size)
    ds_b = load_folder(data_b, model_b.config.input_size)
    rows = generalization_report(model_a, model_b, ds_a, ds_b, out_base)
    for r in rows:
        click.echo(f"{r['model']}: source dsc={r['source_dsc']:.4f} "
                   f"unseen dsc={r['unseen_dsc']:.4f} gap={r['gap_dsc']:+.4f}")


@main.command("gradcheck")
@click.option("--scope", type=click.Choice(["op", "block", "model"]), default="op",
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def gradcheck_cmd(scope, seed):
    """Finite-difference gradient verification; nonzero exit on any failure."""
    results = run_suite(scope, seed)
    failed = 0
    for r in results:
        status = "pass" if r.passed else "FAIL"
        click.echo(f"{status}  {r.name:<28s} max_rel_err={r.max_error:.3e}  tol={r.tolerance:.0e}")
        failed += not r.passed
    if failed:
        click.echo(f"{failed} of {len(results)} checks failed", err=True)
        sys.exit(1)
    click.echo(f"all {len(results)} checks passed")


if __name__ == "__main__":
    main()
