"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: model-level errors (bad parameters,
broken assumptions, degenerate systems) exit 1, input format errors exit 2.
"""


class CareContractsError(Exception):
    """Base class for every error raised by this package."""


class InvalidParamsError(CareContractsError, ValueError):
    """Model parameters violate a range or ordering requirement."""


class ParamsFormatError(InvalidParamsError):
    """A parameter file misses a key or has a field of the wrong type."""


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


class StageError(EstimationError):
    """Pipeline failure tagged with the stage that raised it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause
