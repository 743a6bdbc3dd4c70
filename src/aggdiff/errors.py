"""Exception types shared across the package."""


class AggDiffError(Exception):
    """Base class for all package-specific errors."""


class DomainError(AggDiffError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ShapeError(AggDiffError, ValueError):
    """An array argument has the wrong shape or length for the grid."""


class KernelError(AggDiffError, RuntimeError):
    """A kernel table cannot give what was asked of it."""


class ConfigurationError(AggDiffError, ValueError):
    """An experiment configuration is inconsistent or incomplete."""


class NewtonError(AggDiffError, RuntimeError):
    """Newton iteration failed; carries the best iterate found."""

    def __init__(self, message, best_iterate=None, best_norm=None):
        super().__init__(message)
        self.best_iterate = best_iterate
        self.best_norm = best_norm


class NumericalError(AggDiffError, RuntimeError):
    """A non-finite value appeared where finite arithmetic was required."""


class StepError(AggDiffError, RuntimeError):
    """A time step could not be completed (CFL retries exhausted, etc.)."""


class RoutingError(AggDiffError, RuntimeError):
    """A 2D stepping path was called with a coupling it cannot decouple."""
