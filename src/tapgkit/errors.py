"""Exception types shared across the toolkit, and the one whole-number rule
that every config's ``validate`` applies to its counts and widths."""

import dataclasses
import functools
import numbers
import typing


class TapgkitError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(TapgkitError, ValueError):
    """Tensor extents are inconsistent with the requested operation."""


class EmptyInputError(TapgkitError, ValueError):
    """An operation that needs at least one element received none."""


class DegenerateInputError(TapgkitError, ValueError):
    """Numerically degenerate input (zero norm, invalid interval, ...)."""


class GraphError(TapgkitError, RuntimeError):
    """Misuse of the autodiff tape (non-scalar loss, replayed tape, ...)."""


class FileFormatError(TapgkitError, ValueError):
    """A binary or JSON artifact does not match its declared format."""


class AnnotationError(TapgkitError, ValueError):
    """A ground-truth annotation record violates its invariants."""


class ConfigError(TapgkitError, ValueError):
    """A run configuration is missing keys or holds invalid values."""


@functools.cache     # get_type_hints takes about 50 us, and suppress validates per video
def _whole_fields(cls) -> tuple[str, ...]:
    hints = typing.get_type_hints(cls)
    return tuple(f.name for f in dataclasses.fields(cls)
                 if hints[f.name] in (int, int | None, tuple[int, ...]))


def check_whole(cfg) -> None:
    """Raise ``ConfigError`` unless every field of the config dataclass ``cfg``
    declared ``int`` (or ``int | None``, or ``tuple[int, ...]``) holds whole
    numbers: ints or numpy integers, never a float or a bool. The INI loader
    parses such fields with ``int()``; this holds the Python API to it."""
    for name in _whole_fields(type(cfg)):
        value = getattr(cfg, name)
        for v in value if isinstance(value, tuple) else (value,):
            if v is not None and (isinstance(v, bool) or not isinstance(v, numbers.Integral)):
                raise ConfigError(f"{name} must be a whole number, not {v!r}")
