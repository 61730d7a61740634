import json
from pathlib import Path

import numpy as np

import gmsrfnet
from gmsrfnet import blocks, tensor
from tracing import GROUPS, StepClock, Tracer

BENCH = Path(__file__).resolve().parents[1]
MICRO = dict(input_size=32, encoder_widths=(4, 4, 4, 4), rfb_channels=4, growth=2,
             layers_per_module=2, num_modules=1)


def _forward_and_loss(model):
    from gmsrfnet.losses import total_loss
    x = gmsrfnet.Tensor(np.random.default_rng(0).uniform(0, 1, (2, 3, 32, 32)))
    target = (np.random.default_rng(1).uniform(0, 1, (2, 1, 32, 32)) > 0.7).astype(np.float32)
    loss = total_loss(model(x), target)
    gmsrfnet.backward(loss)


def test_tracer_partitions_time_and_counts_tape_nodes():
    model = gmsrfnet.build_model(gmsrfnet.ModelConfig(**MICRO))
    conv2d = tensor.conv2d
    tracer = Tracer()
    tracer.install()
    try:
        assert blocks.conv2d is not conv2d
        tracer.active = True
        root = tracer.begin("bench.glue")
        _forward_and_loss(model)
        tracer.end(root)
        tracer.active = False
    finally:
        tracer.restore()
    assert tensor.conv2d is conv2d and blocks.conv2d is conv2d
    totals = tracer.group_self_ns()
    assert set(totals) == set(GROUPS)
    assert sum(totals.values()) == tracer.root_ns() > 0
    assert totals["tensor.conv2d"] > 0 and totals["tensor.backward"] > 0
    assert totals["network.encoder"] > 0 and totals["gmsrf.module"] > 0
    # every op is counted once; all but the loss's two ops per map on the
    # constant target are recorded on the tape
    assert tracer.tape_nodes == tracer.op_calls - 2 * 4 > 0
    assert tracer.op_counts["conv2d"] > 0 and "activation" not in tracer.op_counts


def test_inactive_tracer_records_nothing():
    model = gmsrfnet.build_model(gmsrfnet.ModelConfig(**MICRO))
    tracer = Tracer()
    tracer.install()
    try:
        _forward_and_loss(model)
    finally:
        tracer.restore()
    assert tracer.groups == [] and tracer.op_calls == 0


def test_step_clock_times_each_training_step():
    from gmsrfnet.data import default_center_a, generate_center
    ds = generate_center(default_center_a(seed=1), 4, 32)
    cfg = gmsrfnet.TrainConfig(lr=1e-3, batch_size=2, epochs=2, seed=1,
                               model=gmsrfnet.ModelConfig(**MICRO))
    clock = StepClock()
    clock.install()
    try:
        result = gmsrfnet.train(cfg, ds, ds)
    finally:
        clock.restore()
    assert len(clock.steps) == len(result.step_losses) == 4
    assert all(end > start for start, end in clock.steps)


def test_benchmark_json_names_match_what_runs_emit():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert per_layer == {f"{g}_ms" for g in GROUPS} | {
        "tensor.op_calls", "tensor.tape_nodes", "tensor.conv2d_calls", "tensor.out_bytes",
        "trace.step_ms", "trace.overhead_pct"}
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "op_ms_min", "call_ms_min", "peak_rss_mb"}
    readme = (BENCH / "README.md").read_text()
    for name in per_layer | {m["name"] for m in spec["end_to_end"]}:
        assert f"`{name}`" in readme, name
