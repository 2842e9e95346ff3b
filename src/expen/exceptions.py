"""Exception taxonomy for the expen package."""

__all__ = [
    "ExPenError",
    "DimensionError",
    "NumericalError",
    "NotPositiveDefiniteError",
    "DegenerateProjectionError",
    "FeasibilityError",
    "CapabilityError",
    "NotStationaryError",
    "LineSearchError",
    "NonDescentError",
]


class ExPenError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(ExPenError, ValueError):
    """Operand shapes or sizes violate an operation's contract."""


class NumericalError(ExPenError):
    """A numerical routine failed or produced an out-of-contract result."""


class NotPositiveDefiniteError(NumericalError):
    """A solve required positive definiteness and the factorization failed."""


class DegenerateProjectionError(ExPenError):
    """Projection onto the manifold is not unique (rank-deficient input)."""


class FeasibilityError(ExPenError):
    """The point is too far from the manifold for the requested operation."""


class CapabilityError(ExPenError):
    """The wrapped objective lacks an oracle required by the operation."""


class NotStationaryError(ExPenError):
    """A check that requires a stationary point received a non-stationary one."""


class LineSearchError(ExPenError):
    """Strong Wolfe line search could not produce an acceptable step."""


class NonDescentError(LineSearchError):
    """The supplied direction is not a descent direction."""
