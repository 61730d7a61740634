"""The benchmark's workloads. Each runs in one process as a closed loop with
one client, calls the package only through its public API, checks every
output it times, and returns its metrics plus the lines that explain them.

train-protocol: repeated ``train()`` calls on the protocol model with a
fixed step budget, a val split, an out_path and a log_path. One operation
is one training step.

infer: ``predict()`` on one PPM image per call (a fresh checkpoint load each
time), mixed with ``load_folder()`` + ``evaluate()`` over the PNM folder
writing the CSV/JSON report. One operation is one predict call or one
load_folder + evaluate pair.
"""
from __future__ import annotations

import csv
import hashlib
import importlib
import json
import math
import multiprocessing
import os
import resource
import statistics
import struct
import sys
import time

from stats import Tally, min_samples, percentile, samples_beyond
from tracing import GROUPS, ROOT_GROUP, StepClock, Tracer

PROTOCOL_MODEL = dict(input_size=64, encoder_widths=(8, 16, 24, 32), rfb_channels=8,
                      growth=4, layers_per_module=2, num_modules=1)
MODEL_SEED = 3
IMAGE_SIZE = 64
BATCH = 8
SETUP_REPEATS = 30
# The bounded times are minima: the fastest timed operation, the fastest
# whole call (a train() call; a load_folder + evaluate pair) and the
# fastest set-up. The shared 2-vCPU host this was tuned on slows the code
# by up to 1.8x, in spells from under a second to minutes, as other tenants
# load it (CPU time slows with wall time, so this is contention, not
# waiting). A run's median, any fixed percentile and any total over the
# run move with the share of slowed time the run got: over sets of five to
# ten seeds their interquartile range reached 27-48% of the median.
# Contention only ever adds time, so the fastest of many estimates the
# uncontended cost. Whole runs inside one long contended spell are what
# remains (perfbench/README.md has the measured spreads). The median,
# throughput and each workload's highest tail are printed but not bounded.

# Longest a run may measure, over all its phases, to reach its minimum
# sample counts.
HARD_CAP_S = 120.0


TRAIN_LR = 1e-3
# A short train() call (16 steps, about 1.3 s), so that a run holds enough
# of them for the fastest call to fall in one of the host's fast spells.
TRAIN_IMAGES = 32
VAL_IMAGES = 16
TRAIN_EPOCHS = 4
TRAIN_TAIL = 90     # highest step-time percentile printed

INFER_TRAIN_IMAGES = 32
INFER_FOLDER_IMAGES = 16
# predict calls per load_folder + evaluate. The host's fast spells can last
# only a second or two, so evaluate runs often enough to be timed in them.
PREDICTS_PER_EVAL = 4
INFER_TAIL = 90
# The served checkpoint: a short, fast-learning run, so that its masks are
# not empty.
CHECKPOINT_LR = 1e-2
CHECKPOINT_EPOCHS = 6


def _pkg(name=""):
    return importlib.import_module("gmsrfnet" + (f".{name}" if name else ""))


now = time.perf_counter


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def loss_digest(losses):
    return hashlib.sha256(struct.pack(f"<{len(losses)}d", *losses)).hexdigest()


class Setups:
    """Times SETUP_REPEATS calls of `setup(i)`: the first before measuring,
    whose result the run uses, and the others between measured operations,
    evenly over the run's `seconds`; setup_s is the fastest. A set-up lasts
    tens of ms, and on the shared host this was tuned on each one lands in
    a fast or a ~1.7x slower state of the host. The median of a run's
    set-ups took whichever state held most of the run, so per-run medians
    split into two modes and the median over ten runs moved by 23% between
    two sets of seeds; the fastest of nine still moved by 30% on infer.
    Many set-ups spread over the run catch its fast spells as the fastest
    operation does. Later results are dropped, so they do not add to the
    peak resident set.
    """

    def __init__(self, setup, seconds):
        self._setup = setup
        self._span = seconds
        self._start = None
        self.seconds = []

    def run(self):
        t0 = now()
        result = self._setup(len(self.seconds))
        self.seconds.append(now() - t0)
        if self._start is None:
            self._start = now()
        return result

    def more(self):
        """Make the set-ups whose share of the run has passed."""
        while (len(self.seconds) < SETUP_REPEATS and now() - self._start
               >= self._span * len(self.seconds) / SETUP_REPEATS):
            self.run()

    def finish(self):
        while len(self.seconds) < SETUP_REPEATS:
            self.run()
        return min(self.seconds)

    def line(self):
        return (f"setup_s = {min(self.seconds):.4f} s (fastest of "
                f"{len(self.seconds)}, spread over the run; median "
                f"{statistics.median(self.seconds):.4f} s: "
                + ", ".join(f"{s:.4f}" for s in self.seconds) + ")")


def phases(seconds, trace):
    """(budget_s, traced) per phase. A traced run first measures a third of
    its time untraced, so that the tracing overhead comes from one process."""
    if not trace:
        return [(float(seconds), False)]
    return [(seconds / 3.0, False), (seconds * 2.0 / 3.0, True)]


def timing_lines(label, samples_ms, percentiles):
    n = len(samples_ms)
    return [f"{label}_min = {min(samples_ms):.3f} ms (fastest of n={n})"] + [
        f"{label}_p{p} = {percentile(samples_ms, p):.3f} ms "
        f"(nearest rank, n={n}, {samples_beyond(n, p)} beyond)"
        for p in sorted(set(percentiles))]


def overhead_line(per_layer, label, traced_ms, untraced_ms):
    """Tracing overhead: the traced against the untraced fastest operation,
    both from this process; stored as trace.overhead_pct."""
    traced, untraced = min(traced_ms), min(untraced_ms)
    per_layer["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
    return (f"tracing overhead: {label}_min traced {traced:.3f} ms (n={len(traced_ms)}) "
            f"vs untraced {untraced:.3f} ms (n={len(untraced_ms)}): "
            f"{per_layer['trace.overhead_pct']:+.2f}%")


class Run:
    """State shared by a workload's phases: the tally, report lines, tracer."""

    def __init__(self, trace):
        self.tally = Tally()
        self.lines = []
        self.checks = {}
        self.tracer = Tracer() if trace else None
        self.traced_s = 0.0    # run_op's own elapsed time over traced operations
        self.details = {}

    def check(self, name, ok):
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def run_op(self, traced, fn, *args, **kwargs):
        """Call fn as one measured operation; (seconds, result, error)."""
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.active = True
            root = tracer.begin(ROOT_GROUP)
        error = result = None
        t0 = now()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = now() - t0
            if tracer is not None:
                tracer.end(root)
                tracer.active = False
                self.traced_s += elapsed
        if error:
            self.lines.append(f"operation failed: {error}")
        return elapsed, result, error

    def per_layer(self, per):
        """Per-layer metrics from the traced phase, per step or per call."""
        tracer = self.tracer
        totals = tracer.group_self_ns()
        root = tracer.root_ns()
        # Self times partition the root spans exactly (integer ns), and the
        # root spans must match the op time run_op measured on its own clock:
        # a lost or unclosed span breaks one or the other.
        self.check("per_layer_self_times_sum_to_traced_time", sum(totals.values()) == root)
        measured = self.traced_s * 1e9
        self.check("traced_time_matches_measured_op_time",
                   abs(root - measured) <= 0.01 * measured)
        metrics = {f"{g}_ms": totals[g] / 1e6 / per for g in GROUPS}
        metrics["tensor.op_calls"] = tracer.op_calls / per
        metrics["tensor.tape_nodes"] = tracer.tape_nodes / per
        metrics["tensor.conv2d_calls"] = tracer.op_counts.get("conv2d", 0) / per
        metrics["tensor.out_bytes"] = tracer.out_bytes / per
        metrics["trace.step_ms"] = root / 1e6 / per
        self.lines.append(
            f"traced: {len(tracer.groups)} spans over {per} operations; per-layer self "
            f"times sum to {sum(totals.values()) / 1e6 / per:.4f} ms/op, traced op time "
            f"{root / 1e6 / per:.4f} ms/op, measured op time "
            f"{self.traced_s * 1e3 / per:.4f} ms/op"
        )
        return metrics


# -- training workloads -------------------------------------------------------------


def run_train(name, seed, seconds, trace, work):
    gmsrfnet, data, gtrain = _pkg(), _pkg("data"), _pkg("train")
    run = Run(trace)
    n = TRAIN_IMAGES + VAL_IMAGES
    steps_per_epoch = TRAIN_IMAGES // BATCH
    assert TRAIN_IMAGES % BATCH == 0

    def setup(_):
        ds = data.generate_center(data.default_center_a(seed=seed), n, IMAGE_SIZE)
        train_set, val_set, _ = data.split_dataset(
            ds, ratios=(TRAIN_IMAGES / n, VAL_IMAGES / n, 0.0), seed=seed)
        cfg = gmsrfnet.TrainConfig(
            lr=TRAIN_LR, batch_size=BATCH, epochs=TRAIN_EPOCHS,
            max_steps=TRAIN_EPOCHS * steps_per_epoch, seed=seed, augment=True, threads=1,
            model=gmsrfnet.ModelConfig(seed=MODEL_SEED, **PROTOCOL_MODEL))
        gmsrfnet.build_model(cfg.model)
        return cfg, train_set, val_set

    setups = Setups(setup, seconds)
    cfg, train_set, val_set = setups.run()
    if (len(train_set), len(val_set)) != (TRAIN_IMAGES, VAL_IMAGES):
        raise RuntimeError(f"split gave {len(train_set)}/{len(val_set)} samples")
    ckpt = os.path.join(work, "model.ckpt")
    log = os.path.join(work, "log.csv")

    clock = StepClock()
    clock.install()
    if run.tracer:
        run.tracer.install()
    calls = []     # per call: seconds, step durations (ms), samples, traced
    digests = []
    deadline = now() + HARD_CAP_S
    try:
        for budget, traced in phases(seconds, trace):
            min_calls = 1 if trace else 2
            min_steps = 1 if trace else min_samples(TRAIN_TAIL)
            start = now()
            phase = []
            while True:
                elapsed = now() - start
                timed = [s for c in phase for s in c["steps"][1:]]
                done = len(phase) >= min_calls and len(timed) >= min_steps
                mean_call = statistics.fmean(c["seconds"] for c in phase) if phase else 0.0
                if done and elapsed + 0.5 * mean_call >= budget:
                    break
                if now() > deadline:
                    run.check("minimum_samples_reached", done)
                    break
                first = len(clock.steps)
                secs, result, error = run.run_op(traced, gmsrfnet.train, cfg, train_set,
                                                 val_set, out_path=ckpt, log_path=log)
                steps = [(e - s) * 1e3 for s, e in clock.steps[first:]]
                call = {"seconds": secs, "steps": steps, "traced": traced,
                        "samples": len(steps) * BATCH}
                phase.append(call)
                _check_train_call(run, gmsrfnet, gtrain, call, result, error, val_set,
                                  ckpt, digests)
                setups.more()
            calls.extend(phase)
        run.details["calls"] = [{k: c[k] for k in ("seconds", "steps", "traced")} for c in calls]
    finally:
        if run.tracer:
            run.tracer.restore()
        clock.restore()

    setup_s = setups.finish()
    untraced = [c for c in calls if not c["traced"]]
    # the first step of every call is warm-up: fresh model, fresh buffers
    step_ms = [s for c in untraced for s in c["steps"][1:]]
    samples = sum(c["samples"] for c in untraced)
    call_ms = [c["seconds"] * 1e3 for c in untraced]
    wall = sum(call_ms) / 1e3
    e2e = {
        "setup_s": setup_s,
        "op_ms_min": min(step_ms),
        "call_ms_min": min(call_ms),
        "peak_rss_mb": peak_rss_mb(),
    }
    held = len(set(digests)) == 1
    run.check("determinism_digest_held", held)
    if not trace:
        run.check("tail_has_ten_beyond", samples_beyond(len(step_ms), TRAIN_TAIL) >= 10)
    last = calls[-1].get("rows") or [{}]
    run.lines += [
        f"workload {name}: {len(calls)} train() calls of {cfg.max_steps} steps, "
        f"batch {BATCH}, {TRAIN_IMAGES} train / {VAL_IMAGES} val images",
        setups.line(),
        f"train_samples_per_s = {samples / wall:.3f} 1/s "
        f"({samples} samples in {wall:.3f} s of train() calls, untraced)",
        *timing_lines("step_ms", step_ms, (50, TRAIN_TAIL)),
        *timing_lines("train_call_ms", call_ms, ()),
        f"final_loss = {last[-1].get('train_loss', float('nan')):.6f} "
        f"(mean over the last epoch's {steps_per_epoch} steps)",
        f"val_dsc = {last[-1].get('val_dsc', float('nan')):.6f}",
        f"peak_rss_mb = {e2e['peak_rss_mb']:.2f} MB",
        f"determinism digest: loss sha256 {digests[0][0] if digests else '-'}, "
        f"checkpoint sha256 {digests[0][1] if digests else '-'}; "
        f"held across {len(digests)} calls: {'yes' if held else 'NO'}",
    ]
    per_layer = None
    if trace:
        traced_calls = [c for c in calls if c["traced"]]
        traced_ms = [s for c in traced_calls for s in c["steps"][1:]]
        per_layer = run.per_layer(sum(len(c["steps"]) for c in traced_calls))
        run.lines.append(overhead_line(per_layer, "step_ms", traced_ms, step_ms))
    return e2e, per_layer, run


def _check_train_call(run, gmsrfnet, gtrain, call, result, error, val_set, ckpt, digests):
    """Judge one train() call; a failed check fails every step of the call."""
    if error:
        run.tally.record(max(1, len(call["steps"])), max(1, len(call["steps"])), "train-raised")
        return
    losses = result.step_losses
    rows = result.epoch_rows
    call["rows"] = rows
    attempted = len(losses)
    nonfinite = sum(1 for v in losses if not math.isfinite(v))
    first, final = rows[0]["train_loss"], rows[-1]["train_loss"]
    val_dsc = rows[-1].get("val_dsc", -1.0)
    reasons = []
    if not final < first:
        reasons.append("final-loss-not-below-first-epoch")
    if not 0.0 <= val_dsc <= 1.0:
        reasons.append("val-dsc-out-of-range")
    reloaded = gtrain.predict_maps(gmsrfnet.load_checkpoint(ckpt), val_set)
    in_memory = gtrain.predict_maps(result.model, val_set)
    if [m.tobytes() for m in reloaded] != [m.tobytes() for m in in_memory]:
        reasons.append("checkpoint-reload-differs")
    digest = (loss_digest(losses), sha256_file(ckpt))
    if digests and digest != digests[0]:
        reasons.append("determinism-digest-differs")
    digests.append(digest)
    if reasons:
        run.tally.record(attempted, attempted, ",".join(reasons))
    else:
        run.tally.record(attempted, nonfinite, "non-finite-loss")


# -- inference workload ---------------------------------------------------------------


def run_infer(name, seed, seconds, trace, work):
    gmsrfnet, data, gtrain, losses = _pkg(), _pkg("data"), _pkg("train"), _pkg("losses")
    run = Run(trace)
    n = INFER_TRAIN_IMAGES + INFER_FOLDER_IMAGES

    def setup(i):
        ds = data.generate_center(data.default_center_a(seed=seed), n, IMAGE_SIZE)
        train_set, _, folder_set = data.split_dataset(
            ds, ratios=(INFER_TRAIN_IMAGES / n, 0.0, INFER_FOLDER_IMAGES / n), seed=seed)
        folder = os.path.join(work, f"setup{i}", "folder")
        data.save_dataset(folder_set, folder)
        return folder, train_set

    setups = Setups(setup, seconds)
    folder, train_set = setups.run()
    ckpt = os.path.join(work, "model.ckpt")
    t0 = now()
    train_in_child(seed, train_set, ckpt)
    checkpoint_train_s = now() - t0

    # Oracle: the maps evaluate() thresholds, from the same public functions.
    folder_ds = data.load_folder(folder, IMAGE_SIZE)
    ids = folder_ds.ids()
    if len(ids) != INFER_FOLDER_IMAGES:
        raise RuntimeError(f"folder holds {len(ids)} images")
    maps = gtrain.predict_maps(gmsrfnet.load_checkpoint(ckpt), folder_ds)
    expected_masks = {i: (m >= 0.5) for i, m in zip(ids, maps)}
    expected_means = losses.build_report(ids, maps, [s.mask for s in folder_ds], "").means
    foreground = sum(int(m.sum()) for m in expected_masks.values())
    out_dir = os.path.join(work, "masks")
    os.makedirs(out_dir)
    report_base = os.path.join(work, "report")

    if run.tracer:
        run.tracer.install()
    predict_ms = {False: [], True: []}
    eval_ms = []    # untraced load_folder + evaluate calls
    ops = {False: 0, True: 0}
    deadline = now() + HARD_CAP_S
    try:
        for budget, traced in phases(seconds, trace):
            need = 1 if trace else min_samples(INFER_TAIL) + 1
            start = now()
            round_no = 0
            while True:
                first = round_no * PREDICTS_PER_EVAL % len(ids)
                for image_id in ids[first:first + PREDICTS_PER_EVAL]:
                    secs, _, error = run.run_op(
                        traced, gmsrfnet.predict, ckpt,
                        os.path.join(folder, "images", image_id + ".ppm"),
                        os.path.join(out_dir, image_id + ".pgm"))
                    ops[traced] += 1
                    predict_ms[traced].append(secs * 1e3)
                    _check_predict(run, data, error, out_dir, image_id, expected_masks)
                secs, report, error = run.run_op(traced, _load_and_evaluate, data, gmsrfnet,
                                                 folder, ckpt, report_base)
                ops[traced] += 1
                if not traced:
                    eval_ms.append(secs * 1e3)
                _check_evaluate(run, error, report, report_base, ids, expected_means)
                setups.more()
                round_no += 1
                elapsed = now() - start
                done = len(predict_ms[traced]) >= need
                if done and elapsed + 0.5 * elapsed / round_no >= budget:
                    break
                if now() > deadline:
                    run.check("minimum_samples_reached", done)
                    break
    finally:
        if run.tracer:
            run.tracer.restore()

    setup_s = setups.finish()
    run.details["predict_ms"] = predict_ms[False]
    run.details["eval_ms"] = eval_ms
    lat = predict_ms[False][1:]   # the process's first predict is warm-up
    e2e = {
        "setup_s": setup_s,
        "op_ms_min": min(lat),
        "call_ms_min": min(eval_ms),
        "peak_rss_mb": peak_rss_mb(),
    }
    if not trace:
        run.check("tail_has_ten_beyond", samples_beyond(len(lat), INFER_TAIL) >= 10)
    run.lines += [
        f"workload {name}: {ops[False] + ops[True]} operations over {len(ids)} PNM images "
        f"(one load_folder + evaluate per {PREDICTS_PER_EVAL} predict calls); "
        f"served masks hold {foreground} foreground pixels",
        setups.line(),
        *timing_lines("predict_ms", lat, (50, INFER_TAIL)),
        f"eval_images_per_s = {len(ids) * len(eval_ms) * 1e3 / sum(eval_ms):.3f} 1/s "
        f"({len(ids)} images in each of {len(eval_ms)} load_folder + evaluate calls)",
        *timing_lines("eval_ms", eval_ms, (50,)),
        f"eval_dsc = {expected_means['dsc']:.6f} (checkpoint from a seeded train() in a "
        f"child process: {checkpoint_train_s:.3f} s, not in setup_s; "
        f"sha256 {sha256_file(ckpt)})",
        f"peak_rss_mb = {e2e['peak_rss_mb']:.2f} MB",
    ]
    per_layer = None
    if trace:
        traced_lat = predict_ms[True]
        per_layer = run.per_layer(ops[True])
        run.lines.append(overhead_line(per_layer, "predict_ms", traced_lat, lat))
    return e2e, per_layer, run


def _train_checkpoint(seed, train_set, ckpt):
    gmsrfnet = _pkg()
    cfg = gmsrfnet.TrainConfig(
        lr=CHECKPOINT_LR, batch_size=BATCH, epochs=CHECKPOINT_EPOCHS,
        max_steps=CHECKPOINT_EPOCHS * INFER_TRAIN_IMAGES // BATCH, seed=seed,
        augment=True, threads=1,
        model=gmsrfnet.ModelConfig(seed=MODEL_SEED, **PROTOCOL_MODEL))
    gmsrfnet.train(cfg, train_set, None, out_path=ckpt)


def train_in_child(seed, train_set, ckpt):
    """Train the served checkpoint in a forked child and wait for it, so
    that training's time and its tape and Adam buffers count neither to
    setup_s nor to this process's peak resident set."""
    sys.stdout.flush()
    sys.stderr.flush()
    child = multiprocessing.get_context("fork").Process(
        target=_train_checkpoint, args=(seed, train_set, ckpt))
    child.start()
    child.join()
    if child.exitcode != 0 or not os.path.isfile(ckpt):
        raise RuntimeError(f"checkpoint training exited with code {child.exitcode}")


def _load_and_evaluate(data, gmsrfnet, folder, ckpt, report_base):
    dataset = data.load_folder(folder, IMAGE_SIZE)
    return gmsrfnet.evaluate(ckpt, dataset, out_base=report_base)


def _check_predict(run, data, error, out_dir, image_id, expected_masks):
    if error:
        run.tally.record(1, 1, "predict-raised")
        return
    mask = data.read_pnm(os.path.join(out_dir, image_id + ".pgm"))
    ok = mask.shape == expected_masks[image_id].shape and (
        (mask >= 0.5) == expected_masks[image_id]).all()
    run.tally.record(1, 0 if ok else 1, "predict-mask-differs-from-evaluate-map")


def _check_evaluate(run, error, report, report_base, ids, expected_means):
    if error:
        run.tally.record(1, 1, "evaluate-raised")
        return
    try:
        with open(report_base + ".csv", newline="") as f:
            rows = list(csv.reader(f))
        with open(report_base + ".json") as f:
            doc = json.load(f)
        ok = (rows[0] == ["id", "dsc", "iou", "recall", "precision"]
              and [r[0] for r in rows[1:]] == ids
              and all(0.0 <= float(v) <= 1.0 for r in rows[1:] for v in r[1:])
              and [r["id"] for r in doc["rows"]] == ids
              and doc["means"] == report.means == expected_means)
    except (OSError, ValueError, KeyError, IndexError, TypeError):
        ok = False
    run.tally.record(1, 0 if ok else 1, "evaluate-report-wrong")


RUNNERS = {"train-protocol": run_train, "infer": run_infer}
