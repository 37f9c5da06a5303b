"""Exception types shared across the package.

Every ``MareError`` is an ``InputError``, a ``Breakdown`` or a
``MaxIterations``, and that base decides how the command line reports
it: an ``InputError`` is a bad input or usage (exit 2), a ``Breakdown`` a
numerical breakdown whose report names its class as ``"step"`` (exit 3),
and ``MaxIterations`` an iteration cap reached (exit 3).
"""


class MareError(Exception):
    """Base class for all package-specific errors."""


class InputError(MareError):
    """The input or the usage is invalid."""


class Breakdown(MareError):
    """A computation cannot go on or cannot be certified."""


class ShapeMismatch(InputError):
    """Operands have incompatible or invalid dimensions."""


class SingularMatrix(Breakdown):
    """LAPACK found a matrix exactly singular, or an M-matrix certificate failed."""


class NoConvergence(Breakdown):
    """An iterative routine hit its iteration cap before its tolerance."""


class NotZMatrix(InputError):
    """Coefficient data violates the required sign structure."""


class AmbiguousKernel(Breakdown):
    """A kernel vector of K misses its residual tolerance."""


class InvalidParameters(InputError):
    """Requested doubling parameters violate the admissible bounds."""


class NonpositiveDiagonal(InputError):
    """A coefficient diagonal has no positive entry, so no valid parameters exist."""


class IterationBreakdown(Breakdown):
    """An iteration cannot go on: a doubling step required the inverse of a
    singular matrix, or an iterate (doubling or fixed-point) left the
    floating-point range."""


class MaxIterations(MareError):
    """Iteration cap reached; carries the best report produced so far."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class GenerationFailed(Breakdown):
    """Problem generator exhausted its rejection-sampling budget."""
