"""Pseudo-spline refinement filters of fractional and complex order, the
refinable functions they generate, and the associated three-generator tight
framelet systems, with numerical verification of the defining identities.

The top level exports what the README quickstart uses and the error types;
everything else is imported from its own submodule."""

from .analysis import full_report
from .cascade import run_cascade, to_time_domain
from .errors import (
    ConditionError,
    ConsistencyError,
    DomainError,
    GridCompatibilityError,
    OrderError,
    PseudoSplineError,
    ResolutionError,
    ToleranceError,
    VerificationFailure,
    WindowError,
)
from .frames import PeriodicSignal, analyze, build_bank, framelet_time, synthesize, uep_errors
from .symbol import PseudoSplineOrder, TorusGrid, partition_extrema, sample_H0, theta_bound

__version__ = "0.1.0"

__all__ = [
    "PseudoSplineOrder",
    "TorusGrid",
    "sample_H0",
    "partition_extrema",
    "theta_bound",
    "run_cascade",
    "to_time_domain",
    "build_bank",
    "framelet_time",
    "uep_errors",
    "PeriodicSignal",
    "analyze",
    "synthesize",
    "full_report",
    "ConditionError",
    "ConsistencyError",
    "DomainError",
    "GridCompatibilityError",
    "OrderError",
    "PseudoSplineError",
    "ResolutionError",
    "ToleranceError",
    "VerificationFailure",
    "WindowError",
    "__version__",
]
