"""Exception types shared across the package."""


class MareError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatch(MareError):
    """Operands have incompatible or invalid dimensions."""


class SingularMatrix(MareError):
    """LAPACK found a matrix exactly singular, or an M-matrix certificate failed."""


class NoConvergence(MareError):
    """An iterative routine hit its iteration cap before its tolerance."""


class NotZMatrix(MareError):
    """Coefficient data violates the required sign structure."""


class AmbiguousKernel(MareError):
    """A kernel vector of K misses its residual tolerance."""


class InvalidParameters(MareError):
    """Requested doubling parameters violate the admissible bounds."""


class NonpositiveDiagonal(MareError):
    """A coefficient diagonal has no positive entry, so no valid parameters exist."""


class IterationBreakdown(MareError):
    """An iteration cannot go on: a doubling step required the inverse of a
    singular matrix, or an iterate (doubling or fixed-point) left the
    floating-point range."""


class MaxIterations(MareError):
    """Iteration cap reached; carries the best report produced so far."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InsufficientTrace(MareError):
    """Too few informative iterates to estimate a convergence rate."""


class GenerationFailed(MareError):
    """Problem generator exhausted its rejection-sampling budget."""
