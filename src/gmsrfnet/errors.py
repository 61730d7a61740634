"""Exception types shared across the package, and the check that turns a
JSON object into config keyword arguments or a ConfigError."""
import dataclasses
import math


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


def config_fields(cls, d):
    """Keyword arguments for config dataclass ``cls`` from a JSON object.

    Every key must name a field, and every value must have the type of the
    field's default (an int passes for a finite float, a list for a tuple of
    the same length); fields defaulting to None or a factory are left to
    ``cls`` to validate. Anything else raises ConfigError.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{cls.__name__} must be a JSON object, got {type(d).__name__}")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in d.items():
        if key not in defaults:
            raise ConfigError(f"{cls.__name__} has no field {key!r}")
        try:
            kwargs[key] = _like(value, defaults[key])
        except (TypeError, OverflowError):
            raise ConfigError(f"{cls.__name__}.{key}: bad value {value!r}") from None
    return kwargs


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
