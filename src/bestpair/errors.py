"""Exception types shared across the package."""


class DimensionMismatch(ValueError):
    """A point's dimension does not match the set or family it is used with."""


class EllipsoidRootFindError(RuntimeError):
    """The ellipsoid dual root-finder failed to reach the required residual."""


class MaxIterExceeded(RuntimeError):
    """An iterative projection ran out of iterations.

    Carries the last iterate and the last step gap so callers can inspect
    how far the iteration got.
    """

    def __init__(self, message, last=None, gap=None):
        super().__init__(message)
        self.last = last
        self.gap = gap


class MaxOuterExceeded(RuntimeError):
    """The alternating-projection baseline ran out of outer iterations."""


class ProblemValidationError(ValueError):
    """A problem violates one of the solvability hypotheses."""


class TraceTooShort(ValueError):
    """A trace does not contain enough iterates for the requested analysis."""


class NoFeasiblePoint(ValueError):
    """A search grid contained no feasible point (resolution too coarse)."""


class PreconditionGapZero(ValueError):
    """A pair with zero gap was passed where a positive gap is required."""


class SamplingFailure(RuntimeError):
    """Rejection sampling failed to produce enough accepted points."""


class MisclassifiedPoint(ValueError):
    """An input point does not satisfy its claimed inside/outside role."""
