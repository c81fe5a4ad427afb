"""Exception types shared across the package."""


class SympextError(Exception):
    """Base class for all package errors.

    An error raised while a trajectory is advanced carries the samples
    stored before it as ``partial``, a Trajectory like the run's result:
    (q, p, x, y) states from ``integrate``/``integrate_batch``, (Q, P)
    states from ``rk4_trajectory``/``reference_flow``, and from
    ``apply_scheme`` and the exact flows the start state alone (empty if
    the start itself is not finite). A sample counts as stored only
    once it passed the escape check, so an escape leaves the offending
    sample out of ``partial``. A run on Python floats checks its samples
    once per block of steps, but reports as if it checked each one: the
    first offending sample, and that escape rather than any error raised
    after it. ``partial`` stays None otherwise, and for every error of
    ``poincare_section``.
    """

    partial = None


class DomainError(SympextError):
    """Model evaluated outside its validity domain."""


class EvaluationError(SympextError):
    """An evaluation that did not converge: the AGM iteration of ``jacobi_elliptic``.

    A non-finite gradient is not reported here: it turns the state
    non-finite, which every stepping entry point reports as
    TrajectoryEscapedError.
    """


class TrajectoryEscapedError(SympextError):
    """State norm exceeded the escape bound during integration."""


class ReferenceConvergenceError(SympextError):
    """Step-doubling refinement failed to certify the requested tolerance."""


class PhaseUndefinedError(SympextError):
    """Polar angle undefined: a sample too close to the origin, or samples too far apart to unwrap."""


class AdmissibilityError(SympextError):
    """No admissible initial condition exists for the requested constraint."""


class ConfigError(SympextError):
    """Invalid or unknown experiment configuration."""
