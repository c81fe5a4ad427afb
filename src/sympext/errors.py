"""Exception types shared across the package."""


class SympextError(Exception):
    """Base class for all package errors.

    An error raised while a trajectory is advanced carries the samples
    stored before it as ``partial`` (a Trajectory) and the index of the
    last of them as ``last_valid_index``; both stay None otherwise.
    """

    partial = None
    last_valid_index = None


class DomainError(SympextError):
    """Model evaluated outside its validity domain."""


class EvaluationError(SympextError):
    """A model evaluation produced non-finite values."""


class TrajectoryEscapedError(SympextError):
    """State norm exceeded the escape bound during integration."""


class ReferenceConvergenceError(SympextError):
    """Step-doubling refinement failed to certify the requested tolerance."""


class PhaseUndefinedError(SympextError):
    """Polar angle requested too close to the origin."""


class AdmissibilityError(SympextError):
    """No admissible initial condition exists for the requested constraint."""


class ConfigError(SympextError):
    """Invalid or unknown experiment configuration."""
