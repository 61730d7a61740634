"""Exception types shared across the package, the one rule for every path
it opens, and the base class that turns JSON into a config or ConfigError."""
import dataclasses
import json
import math
import os


class GmsrfError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(GmsrfError):
    """Tensor shape or dimension mismatch."""


class StateError(GmsrfError):
    """Operation invalid in the current lifecycle state."""


class UsageError(GmsrfError):
    """Invalid argument or call pattern."""


class NumericsError(GmsrfError):
    """Non-finite values where finite ones are required."""


class FormatError(GmsrfError):
    """Malformed or incompatible file content."""


class CorruptionError(GmsrfError):
    """File failed an integrity check (truncation, checksum)."""


class ConfigError(GmsrfError):
    """Invalid configuration value."""


class DataError(GmsrfError):
    """Dataset inconsistency (missing pairs, bad layout)."""


def _refused(path, mode):
    """The path rule: a path to read must be a regular file, and a path to
    write absent or a regular file, so a directory or a FIFO blocks nothing."""
    return not os.path.isfile(path) and ("r" in mode or os.path.exists(path))


def open_file(path, mode, error, **kwargs):
    """``open(path, mode, **kwargs)`` under the path rule, else ``error``
    naming the path; every file the package opens is opened here."""
    if _refused(path, mode):
        raise error(f"{path}: is not a regular file")
    return open(path, mode, **kwargs)


def check_output(inputs=(), **outputs):
    """Raise UsageError before any work if a named output path (None is
    skipped) breaks the path rule, is in a missing directory, or is the same
    file as another output or one of the ``inputs``."""
    seen = dict.fromkeys(map(os.path.realpath, inputs), "an input")
    for what, path in outputs.items():
        if not path:
            continue
        if _refused(path, "w") or not os.path.isdir(os.path.dirname(path) or "."):
            raise UsageError(f"{what} {path!r} is not a regular file in an existing directory")
        other = seen.setdefault(os.path.realpath(path), what)
        if other != what:
            raise UsageError(f"{what} {path!r} is the same file as {other}")


class Config:
    """Base for the config dataclasses. Construction runs the subclass's
    ``validate``, which raises ConfigError for a bad value, and every config
    reads and writes JSON through the same methods."""

    def __post_init__(self):
        self.validate()

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d):
        """The config built from a JSON object whose keys all name fields
        (missing ones take their defaults), or ConfigError."""
        if not isinstance(d, dict):
            raise ConfigError(f"{cls.__name__} must be a JSON object, got {type(d).__name__}")
        names = {f.name for f in dataclasses.fields(cls)}
        for key in d:
            if key not in names:
                raise ConfigError(f"{cls.__name__} has no field {key!r}")
        return cls(**d)

    @classmethod
    def from_json(cls, path):
        """The config in the JSON file at ``path``; a path open_file refuses
        or a file that is not JSON raises ConfigError, as a bad config does."""
        with open_file(path, "r", ConfigError) as f:
            try:
                d = json.load(f)
            except (ValueError, RecursionError) as e:
                raise ConfigError(f"{path}: not a JSON document: {e}") from e
        return cls.from_dict(d)


def check_fields(config):
    """Give every field of a config dataclass instance the type of its default
    (an int passes for a finite float, a list for a same-length tuple), or
    raise ConfigError. Fields defaulting to None or a factory are left to the
    config's own ``validate``."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        try:
            setattr(config, f.name, _like(value, f.default))
        except (TypeError, OverflowError):
            raise ConfigError(f"{type(config).__name__}.{f.name}: bad value {value!r}") from None


def _like(value, default):
    if default is None or default is dataclasses.MISSING:
        return value
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)) or len(value) != len(default):
            raise TypeError
        return tuple(map(_like, value, default))
    if type(default) is float and type(value) is int:
        value = float(value)
    if type(value) is not type(default) or (type(value) is float and not math.isfinite(value)):
        raise TypeError
    return value
