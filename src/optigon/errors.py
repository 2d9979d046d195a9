"""Exception types shared across the package."""


class OptigonError(Exception):
    """Base class for all package-specific errors."""


class InvalidPolygon(OptigonError, ValueError):
    """Polygon data violates a structural requirement."""


class DimensionMismatch(OptigonError, ValueError):
    """A decision vector does not match the program's dimension."""


class InfeasibleInitial(OptigonError, ValueError):
    """Supplied initial polygon is infeasible for the area program."""


class SubproblemFailure(OptigonError, RuntimeError):
    """A convex subproblem solve did not reach optimality. Carries the
    solver's result."""

    def __init__(self, message, result):
        super().__init__(message)
        self.result = result


class InvariantViolation(OptigonError, RuntimeError):
    """An outer iterate broke a property the method guarantees, which points
    to a solver or formulation defect. Carries the outer iteration k and the
    offending iterate (decision vector)."""

    def __init__(self, message, k, iterate):
        super().__init__(message)
        self.k = k
        self.iterate = iterate


class AscentViolation(InvariantViolation):
    """The objective or the area decreased beyond solver noise."""


class FeasibilityViolation(InvariantViolation):
    """An iterate violates the area program beyond solver noise."""


class UpperBoundViolation(InvariantViolation):
    """An iterate's area exceeds the closed-form upper bound for its n."""
