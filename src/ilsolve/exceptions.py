"""Error types shared across the package."""


class IlsolveError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(IlsolveError):
    """A size cap or option combination rules out the requested operation."""


class DegenerateMatrixError(IlsolveError):
    """Operation is undefined for an all-zero matrix."""


class DegenerateProblemError(IlsolveError):
    """An empty block (p = 0 or q = 0) reduces the problem to ordinary
    least squares, which this package does not handle."""


class ParseError(IlsolveError):
    """Malformed Matrix Market input."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class NotSpdError(IlsolveError):
    """Cholesky elimination hit a non-positive pivot, or one at or below
    the rounding floor n*eps*max|diag|.

    This is an expected outcome when a factorization doubles as a
    positive-definiteness test, not a fault.  ``step`` is the 0-based
    elimination index at which the pivot failed.
    """

    def __init__(self, step, pivot, floor):
        where = f"pivot {pivot:.6e} at elimination step {step}"
        super().__init__(f"non-positive {where}" if pivot <= 0.0
                         else f"{where} is at or below the rounding floor {floor:.6e}")
        self.step = step
        self.pivot = pivot


class IndefiniteOperatorError(IlsolveError):
    """CG observed p'Ap <= 0, so the operator is not positive definite.

    ``x_best`` carries the lowest-residual iterate reached before the
    breakdown (may be None when breakdown occurs on the first step).
    """

    def __init__(self, message, x_best=None, iterations=0):
        super().__init__(message)
        self.x_best = x_best
        self.iterations = iterations


class NumericalFailureError(IlsolveError):
    """A solver produced a non-finite quantity and cannot continue."""


class ProblemAssumptionError(IlsolveError):
    """The data violates the standing assumption that the reduced normal
    matrix A1'A1 - A2'A2 is symmetric positive definite."""


class OracleFailureError(IlsolveError):
    """The reference-solution solver did not converge; no answer is
    reported rather than an unreliable one."""


class StationaryDivergenceError(IlsolveError):
    """A stationary iteration grew its residual past the divergence guard."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class RankAmbiguityWarning(UserWarning):
    """A numerical rank decision fell too close to its threshold."""


class AccuracyWarning(UserWarning):
    """An iterative kernel stopped at its cap before reaching target accuracy."""


# Failures of a solve itself, as opposed to bad input or settings: an
# experiment records them as a failed row, ``ilsolve solve`` exits with 2.
SOLVER_FAILURES = (
    NumericalFailureError,
    IndefiniteOperatorError,
    OracleFailureError,
    StationaryDivergenceError,
)
