"""Exception types shared across the package."""


class PlexcitonError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2  # the command line's exit status; 3 for numerical failures


class ParameterError(PlexcitonError, ValueError):
    """A physical parameter or derived quantity is outside its valid domain."""


class DegenerateSteadyStateError(PlexcitonError, ValueError):
    """No unique stationary state exists for the requested rates."""


class IntegrationError(PlexcitonError, RuntimeError):
    """Numerical time integration produced non-finite or unnormalized output."""

    exit_code = 3


class ConfigError(PlexcitonError, ValueError):
    """A run configuration file is missing, malformed, or inconsistent."""


class InsufficientDataError(PlexcitonError, ValueError):
    """A statistical estimator was given too few events to be meaningful."""

    exit_code = 3


class ResolutionError(PlexcitonError, ValueError):
    """A sampled series is too coarse or too short for the requested transform."""

    exit_code = 3


class RegimeWarning(UserWarning):
    """Closed-form result evaluated outside the regime it was derived for."""
