"""Exception types shared across the library."""


class ContactLabError(Exception):
    """Base class for all contactlab errors."""


class SingularChart(ContactLabError):
    """The linear system defining a Reeb field / dual is rank-deficient."""


class NoConvergence(ContactLabError):
    """Newton-type iteration failed to converge."""

    def __init__(self, iterations, residual, history=None):
        self.iterations = iterations
        self.residual = residual
        self.history = list(history) if history is not None else []
        super().__init__(
            f"no convergence after {iterations} iterations (residual {residual:.3e})"
        )


class NotContact(ContactLabError):
    """A one-form failed the contact condition on the requested region."""

    def __init__(self, radius, message):
        self.radius = radius
        super().__init__(message)


class BadBlocks(ContactLabError):
    """Block data for an adapted complex structure violates a precondition."""

    def __init__(self, which, message):
        self.which = which
        super().__init__(message)


class AsymmetricHessian(ContactLabError):
    """A vertical Hessian term is not symmetric within tolerance."""


class HypothesisViolated(ContactLabError):
    """A normal-form hypothesis (f = 1, df = 0 on the orbit) fails."""


class OutOfRange(ContactLabError):
    """A scalar parameter is outside its admissible interval."""


class ResolutionTooCoarse(ContactLabError):
    """The requested grid cannot resolve the modes involved."""


class ModeMismatch(ContactLabError):
    """Mode indices or grid sizes are inconsistent with the operator."""


class InsufficientDecay(ContactLabError):
    """Too few usable slices to fit a decay rate."""


class OutsideTube(ContactLabError):
    """A loop is too far from the Reeb locus for the center-of-mass solve."""


class ConfigError(ContactLabError):
    """A scenario file failed validation."""


class NumericalFailure(ContactLabError):
    """A scenario computation produced out-of-tolerance results."""
