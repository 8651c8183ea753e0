"""Exception types shared across the package, and the rules that check a caller's value.

Every value a caller passes in (a spec field, a ``SimConfig`` field, a
planner's or an attack's alpha, a menu size, a registry name, a command-line
count) is checked by :func:`require_int`, :func:`require_number` or
:func:`require_choice`, which raise a :class:`SpecError` naming the field.
"""

import sys


class TrackingError(Exception):
    """Base class for errors raised by this package."""


class EnumerationCapExceeded(TrackingError):
    """An exhaustive enumeration would exceed ``matroid.ENUMERATION_CAP``."""


class MissingCoverageRect(TrackingError):
    """A trajectory id has no coverage rectangle configured."""


class DegenerateObjective(TrackingError):
    """Curvature is undefined because no usable singleton value is nonzero."""


class SpecError(TrackingError, ValueError):
    """A caller's value failed validation; the message names the field."""


class CsvFormatError(TrackingError):
    """A results CSV is malformed; the message carries the line number."""


def _is_int(value) -> bool:
    # JSON true and false load as bool, which Python counts as int
    return isinstance(value, int) and not isinstance(value, bool)


def shown(value) -> str:
    """``repr(value)`` for a validation message, or its type where it cannot print.

    ``repr`` raises on an integer past Python's int-to-str digit limit,
    alone or inside a container; every caller-supplied value in a message
    goes through here, so the message still names its field.
    """
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def require_int(value, field: str, minimum=None, maximum=None) -> int:
    """``value`` if it is an integer in [``minimum``, ``maximum``]; else :class:`SpecError`."""
    if not _is_int(value):
        raise SpecError(f"field {field!r}: expected an integer, got {shown(value)}")
    if minimum is not None and value < minimum:
        raise SpecError(f"field {field!r}: must be at least {minimum}, got {shown(value)}")
    if maximum is not None and value > maximum:
        raise SpecError(f"field {field!r}: must be at most {shown(maximum)}, got {shown(value)}")
    return value


def require_number(value, field: str, minimum=None, strict=False) -> float:
    """``value`` as a finite float at least (``strict``: above) ``minimum``."""
    if not (isinstance(value, float) or _is_int(value)):
        raise SpecError(f"field {field!r}: expected a number, got {shown(value)}")
    # false for nan, infinities and integers past the float range
    if not abs(value) <= sys.float_info.max:
        raise SpecError(f"field {field!r}: must be finite, got {shown(value)}")
    if minimum is not None and (value <= minimum if strict else value < minimum):
        relation = "greater than" if strict else "at least"
        raise SpecError(f"field {field!r}: must be {relation} {minimum}, got {shown(value)}")
    return float(value)


def require_choice(value, field: str, choices: tuple):
    """``value`` if it is one of ``choices``; else :class:`SpecError`."""
    # a tuple's membership test compares, so an unhashable value is refused too
    if value not in choices:
        raise SpecError(f"field {field!r}: expected one of {choices}, got {shown(value)}")
    return value
