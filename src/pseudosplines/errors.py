"""Exception types shared across the package.

Every error raised by library code derives from PseudoSplineError so callers
can catch the whole family; the subclasses distinguish the failure modes the
command line maps to distinct exit codes.
"""


class PseudoSplineError(Exception):
    """Base class for all package-specific errors."""


class DomainError(PseudoSplineError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class OrderError(PseudoSplineError, ValueError):
    """Invalid (z, ell, shift) parameter combination."""


class ResolutionError(PseudoSplineError, ValueError):
    """A grid is too coarse or misaligned for the requested operation."""


class WindowError(PseudoSplineError, ValueError):
    """A frequency or time argument falls outside a profile's stored window."""


class GridCompatibilityError(PseudoSplineError, ValueError):
    """Two sampled objects live on incompatible grids."""


class ToleranceError(PseudoSplineError, RuntimeError):
    """A requested accuracy cannot be met with the given parameters."""


class ConsistencyError(PseudoSplineError, RuntimeError):
    """A numerical result violates an identity it is guaranteed to satisfy."""


class ConditionError(PseudoSplineError, RuntimeError):
    """A prerequisite inequality does not hold for the given order."""


class VerificationFailure(PseudoSplineError, RuntimeError):
    """One or more verification checks did not pass."""
