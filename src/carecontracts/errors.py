"""Exception hierarchy shared across the package, and the CLI's exit codes.

This is the one statement of the exit-code rule. ``carecontracts`` exits
0 on success. A package error exits with its class's ``exit_code``: 1
for model errors (bad parameter values, broken assumptions, degenerate
systems, failed fits), 2 for a cohort or parameter file that breaks its
format. Any other I/O error (``OSError``) or bad value (``ValueError``,
an out-of-range flag, say) exits 2, as does a command-line usage error
and a size too large for the memory free at run time (``MemoryError``;
the parser rejects a draw count beyond physical memory).
"""


class CareContractsError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1


class InvalidParamsError(CareContractsError, ValueError):
    """Model parameters violate a range or ordering requirement."""


class ParamsFormatError(InvalidParamsError):
    """A JSON input file is not JSON, misses a key or has a field of the wrong type."""

    exit_code = 2


class AssumptionViolationError(CareContractsError):
    """A solver precondition on the outcome probabilities fails."""


class DegenerateSystemError(CareContractsError):
    """The reduced payment system has no usable solution (rank/denominator)."""


class InvalidTransformError(CareContractsError, ValueError):
    """A provider utility transform fails its bijectivity/concavity probes."""


class NumericalError(CareContractsError):
    """A numerical routine left its guaranteed accuracy envelope."""


class SingularMatrixError(NumericalError):
    """Pivot below tolerance in a direct linear solve."""


class EnumerationTooLargeError(CareContractsError, ValueError):
    """Basis enumeration over more variables than the oracle accepts."""


class EstimationError(CareContractsError):
    """Base class for estimation-pipeline failures."""


class SeparationError(EstimationError):
    """Fitted propensity scores collapsed onto 0/1 (perfect separation)."""


class CollinearCovariatesError(EstimationError):
    """Design matrix is rank deficient (includes flat covariates)."""


class ConvergenceError(EstimationError):
    """An iterative fit did not converge within its iteration budget."""


class MonotoneLikelihoodError(ConvergenceError):
    """Cox coefficients diverge (partial likelihood has no finite maximum)."""


class InsufficientControlsError(EstimationError):
    """Fewer controls than treated and no caliper to drop treated."""


class CohortFormatError(CareContractsError, ValueError):
    """Cohort CSV violates the documented schema; message carries the line."""

    exit_code = 2


class StageError(EstimationError):
    """Pipeline failure tagged with the stage that raised it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause
