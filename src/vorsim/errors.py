"""Exception types shared across the package."""


class VorsimError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(VorsimError):
    """Raised when a run configuration is malformed or fails validation."""


class DuplicatePoints(VorsimError):
    """Raised when two generators coincide exactly."""


class SelectionOutOfDomain(VorsimError):
    """Raised when a cell volume or degree falls outside the selection table."""


class InsufficientData(VorsimError):
    """Raised when an estimator has too few samples to report anything."""


class Abort2D(VorsimError):
    """The 2D engine cannot perform a structural update or a build.

    A chain update that raises it rebuilds the engine from scratch; a build
    that raises it fails the run.
    """
