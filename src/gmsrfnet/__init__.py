"""Desk-scale multi-scale residual fusion segmentation network with a
minimal reverse-mode autodiff tensor core."""

from .errors import (
    ConfigError,
    CorruptionError,
    DataError,
    FormatError,
    GmsrfError,
    NumericsError,
    ShapeError,
    StateError,
    UsageError,
)
from .network import ModelConfig, SegmentationModel, build_model, load_checkpoint, save_checkpoint
from .tensor import Tensor, backward, no_grad
from .train import TrainConfig, evaluate, generalization_report, predict, train

__all__ = [
    "ConfigError",
    "CorruptionError",
    "DataError",
    "FormatError",
    "GmsrfError",
    "ModelConfig",
    "NumericsError",
    "SegmentationModel",
    "ShapeError",
    "StateError",
    "Tensor",
    "TrainConfig",
    "UsageError",
    "backward",
    "build_model",
    "evaluate",
    "generalization_report",
    "load_checkpoint",
    "no_grad",
    "predict",
    "save_checkpoint",
    "train",
]
