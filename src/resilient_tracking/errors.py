"""Exception types shared across the package."""


class TrackingError(Exception):
    """Base class for errors raised by this package."""


class EnumerationCapExceeded(TrackingError):
    """An exhaustive enumeration would exceed ``matroid.ENUMERATION_CAP``."""


class MissingCoverageRect(TrackingError):
    """A trajectory id has no coverage rectangle configured."""


class DegenerateObjective(TrackingError):
    """Curvature is undefined because no usable singleton value is nonzero."""


class SpecError(TrackingError, ValueError):
    """An experiment spec or a ``SimConfig`` failed validation; the message names the field."""


class CsvFormatError(TrackingError):
    """A results CSV is malformed; the message carries the line number."""
