"""Observation from outside the program: a step clock for untraced runs and
a span tracer for traced runs, both installed by rebinding the package's
public functions and layer methods to timing wrappers.

Nothing under src/ is edited. A name the package imported into several
modules (``from .tensor import conv2d``) is rebound in every module that
holds it, so calls through any of them are seen; every rebinding is undone
by ``Patcher.restore``.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time

from stats import self_times

# Public functions of gmsrfnet.tensor that are not tape ops.
NOT_OPS = {"backward", "vector", "scalar", "interp_matrix", "max_grad_error",
           "finite_diff_gradcheck"}

# Tensor ops by family; any other public tensor function lands in tensor.other.
OP_GROUPS = {
    "conv2d": "tensor.conv2d",
    "conv_transpose2d": "tensor.conv_transpose2d",
    "batch_norm": "tensor.batch_norm",
    "activation": "tensor.activation",
    "relu": "tensor.activation",
    "leaky_relu": "tensor.activation",
    "sigmoid": "tensor.activation",
    "concat_channels": "tensor.concat_channels",
    "resize_bilinear": "tensor.resize_bilinear",
}

# Layer classes by group; other Layer subclasses fall to their module's
# default below.
LAYER_GROUPS = {
    "GmsrfModule": "gmsrf.module",
    "CrossScaleAttention": "gmsrf.attention",
    "Encoder": "network.encoder",
    "Decoder": "network.decoder",
    "SupervisionHeads": "network.heads",
    "SegmentationModel": "network.model",
}
LAYER_MODULE_DEFAULT = {
    "gmsrfnet.blocks": "blocks.forward",
    "gmsrfnet.gmsrf": "gmsrf.module",
    "gmsrfnet.network": "network.model",
}

FUNCTIONS = {
    ("gmsrfnet.tensor", "backward"): "tensor.backward",
    ("gmsrfnet.data", "augment"): "data.augment",
    ("gmsrfnet.data", "read_pnm"): "data.read_pnm",
    ("gmsrfnet.data", "write_pnm"): "data.write_pnm",
    ("gmsrfnet.data", "load_folder"): "data.load_folder",
    ("gmsrfnet.network", "build_model"): "network.build_model",
    ("gmsrfnet.network", "save_checkpoint"): "network.save_checkpoint",
    ("gmsrfnet.network", "load_checkpoint"): "network.load_checkpoint",
    ("gmsrfnet.losses", "total_loss"): "losses.total_loss",
    ("gmsrfnet.losses", "build_report"): "losses.build_report",
    ("gmsrfnet.train", "train"): "train.loop",
    ("gmsrfnet.train", "evaluate_model"): "train.val_eval",
    ("gmsrfnet.train", "predict_maps"): "train.val_eval",
    ("gmsrfnet.train", "evaluate"): "train.evaluate",
    ("gmsrfnet.train", "predict"): "train.predict",
}

METHODS = {
    ("gmsrfnet.optim", "Adam", "step"): "optim.adam_step",
    ("gmsrfnet.optim", "Adam", "zero_grad"): "optim.zero_grad",
    ("gmsrfnet.losses", "MetricReport", "write_csv"): "losses.write_report",
    ("gmsrfnet.losses", "MetricReport", "write_json"): "losses.write_report",
    ("gmsrfnet.gmsrf", "CrossScaleAttention", "resample"): "gmsrf.attention",
}

ROOT_GROUP = "bench.glue"

# Every group a span can be filed under; per-layer metric <group>_ms.
GROUPS = sorted(
    set(OP_GROUPS.values()) | {"tensor.other"} | set(LAYER_GROUPS.values())
    | set(LAYER_MODULE_DEFAULT.values()) | set(FUNCTIONS.values())
    | set(METHODS.values()) | {ROOT_GROUP}
)


def package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "gmsrfnet" or name.startswith("gmsrfnet."))]


class Patcher:
    """Rebinds callables of the gmsrfnet package and undoes the rebinding."""

    def __init__(self):
        self._undo = []

    def replace_function(self, original, replacement):
        """Rebind every module-level reference to `original`."""
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def replace_method(self, cls, name, replacement):
        self._undo.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)

    def restore(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)


def _function(module, attr):
    return getattr(importlib.import_module(module), attr)


class StepClock:
    """Times training steps from outside ``train``.

    A step starts at the first ``augment`` call after the previous
    ``Adam.step`` returned and ends when the next ``Adam.step`` returns, so
    validation and checkpoint writes between epochs fall outside every
    step. The cost is two clock reads per step.
    """

    def __init__(self):
        self.steps = []          # (start_s, end_s) per completed step
        self._start = None
        self._patcher = Patcher()

    def install(self):
        augment = _function("gmsrfnet.data", "augment")
        adam = _function("gmsrfnet.optim", "Adam")
        step = adam.__dict__["step"]
        clock = self

        def timed_augment(*args, **kwargs):
            if clock._start is None:
                clock._start = time.perf_counter()
            return augment(*args, **kwargs)

        def timed_step(self, *args, **kwargs):
            out = step(self, *args, **kwargs)
            if clock._start is not None:
                clock.steps.append((clock._start, time.perf_counter()))
            clock._start = None
            return out

        self._patcher.replace_function(augment, timed_augment)
        self._patcher.replace_method(adam, "step", timed_step)

    def restore(self):
        self._patcher.restore()


class Tracer:
    """Spans around calls into each layer, kept in memory while active.

    Spans nest by call order: each records its group, start, end and the
    index of the span open when it began. Tensor ops also count calls and
    output bytes; an op call counts only when no nested op counted, so a
    dispatcher such as ``activation`` is not counted twice. An op whose
    output requires grad was recorded on the tape, so those count as tape
    nodes.
    """

    def __init__(self):
        self.active = False
        self.groups = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.op_calls = 0
        self.op_counts = {}
        self.tape_nodes = 0
        self.out_bytes = 0
        self._open = []
        self._patcher = Patcher()

    def begin(self, group):
        index = len(self.groups)
        self.groups.append(group)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0)
        self._open.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def end(self, index):
        self.ends[index] = time.perf_counter_ns()
        self._open.pop()

    def _wrap(self, fn, group):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer.begin(group)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)

        return traced

    def _wrap_op(self, fn, name, group, tensor_type):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            mark = tracer.op_calls
            index = tracer.begin(group)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if (tracer.op_calls == mark and isinstance(out, tensor_type)
                    and not any(out is a for a in args)):
                tracer.op_calls += 1
                tracer.op_counts[name] = tracer.op_counts.get(name, 0) + 1
                tracer.out_bytes += out.data.nbytes
                tracer.tape_nodes += out.requires_grad
            return out

        return traced

    def install(self):
        tensor = importlib.import_module("gmsrfnet.tensor")
        for name, fn in vars(tensor).copy().items():
            if (name.startswith("_") or name in NOT_OPS or not inspect.isfunction(fn)
                    or fn.__module__ != tensor.__name__):
                continue
            group = OP_GROUPS.get(name, "tensor.other")
            self._patcher.replace_function(fn, self._wrap_op(fn, name, group, tensor.Tensor))

        for (module, attr), group in FUNCTIONS.items():
            fn = _function(module, attr)
            self._patcher.replace_function(fn, self._wrap(fn, group))

        layer_base = _function("gmsrfnet.blocks", "Layer")
        for module_name, default in LAYER_MODULE_DEFAULT.items():
            module = importlib.import_module(module_name)
            for cls in vars(module).values():
                if (inspect.isclass(cls) and issubclass(cls, layer_base)
                        and cls.__module__ == module_name and "forward" in cls.__dict__):
                    group = LAYER_GROUPS.get(cls.__name__, default)
                    self._patcher.replace_method(
                        cls, "forward", self._wrap(cls.__dict__["forward"], group))

        for (module, cls_name, method), group in METHODS.items():
            cls = _function(module, cls_name)
            self._patcher.replace_method(cls, method, self._wrap(cls.__dict__[method], group))

    def restore(self):
        self._patcher.restore()

    def group_self_ns(self):
        """Total self time per group, in ns, over every recorded span."""
        totals = dict.fromkeys(GROUPS, 0)
        for group, own in zip(self.groups, self_times(self.starts, self.ends, self.parents)):
            totals[group] += own
        return totals

    def root_ns(self):
        return sum(e - s for s, e, p in zip(self.starts, self.ends, self.parents) if p < 0)

    def to_json(self):
        names = sorted(set(self.groups))
        code = {n: i for i, n in enumerate(names)}
        t0 = self.starts[0] if self.starts else 0
        return {
            "groups": names,
            "group": [code[g] for g in self.groups],
            "start_ns": [s - t0 for s in self.starts],
            "end_ns": [e - t0 for e in self.ends],
            "parent": self.parents,
        }
