"""Exception hierarchy shared across the package, and the CLI's exit codes.

This is the one statement of the exit-code rule. ``carecontracts`` exits
0 on success. A package error exits with its class's ``exit_code``: 1
for model errors (bad parameter values, broken assumptions, degenerate
systems, failed fits), 2 for a cohort or parameter file that breaks its
format. Any other I/O error (``OSError``) or bad value (``ValueError``,
an out-of-range flag, say) exits 2, as does a command-line usage error
and a size too large for the memory free at run time (``MemoryError``;
the parser rejects a draw count beyond physical memory).

A class exists only when code outside the tests catches it, when it
sets an exit code or stores an attribute, or when it is the base of such
a class; a failure kind within a class (separated propensity data, a
transform that fails its probes, a degenerate payment system) is named
by its message:

- ``CareContractsError``: the base, which ``cli.main`` catches;
- ``InvalidParamsError``: bad parameter values, transforms and solver
  inputs, and broken solver assumptions; a ``ValueError``, which the
  parser's argument types catch;
- ``ParamsFormatError`` and ``CohortFormatError``: a file that breaks
  its format (exit 2);
- ``NumericalError``, a routine outside its accuracy envelope, and its
  ``SingularMatrixError``, which the fits catch;
- ``EstimationError``: a failed fit or match, which ``run_pipeline``
  catches to tag it with its stage as a ``StageError``.
"""


class CareContractsError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1


class InvalidParamsError(CareContractsError, ValueError):
    """A parameter, transform or solver input is out of range, or a solver
    assumption on the outcome probabilities fails."""


class ParamsFormatError(InvalidParamsError):
    """A JSON input file is not JSON, misses a key or has a field of the wrong type."""

    exit_code = 2


class NumericalError(CareContractsError):
    """A numerical routine left its guaranteed accuracy envelope."""


class SingularMatrixError(NumericalError):
    """Pivot below tolerance in a direct linear solve."""


class EstimationError(CareContractsError):
    """An estimation step failed: bad input, separation, collinearity,
    divergence or no convergence, or too few controls to match."""


class CohortFormatError(CareContractsError, ValueError):
    """Cohort CSV violates the documented schema; message carries the line."""

    exit_code = 2


class StageError(EstimationError):
    """Pipeline failure tagged with the stage that raised it; the failure
    itself is the ``__cause__``."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
