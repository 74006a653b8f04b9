"""Exception types shared across the package."""


class QuboundsError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(QuboundsError, ValueError):
    """Non-finite entries or norm, a state's norm or trace off 1, or a zero factor; a ValueError too, as before."""


class DimensionMismatch(QuboundsError):
    """Operands have incompatible shapes or dimensions."""


class NonHermitianInput(QuboundsError):
    """A matrix required to be Hermitian deviates beyond tolerance."""


class NotPositiveSemidefinite(QuboundsError):
    """A matrix required to be PSD has a significantly negative eigenvalue."""


class NotOrthonormal(QuboundsError):
    """Supplied columns are not orthonormal within tolerance."""


class NotOrthogonal(QuboundsError):
    """Two states required to be orthogonal have a significant overlap."""


class NonRealExpectation(QuboundsError):
    """An expectation value that must be real carries a large imaginary part."""


class BoundViolation(QuboundsError):
    """A guaranteed inequality came out negative beyond the rounding budget.

    This always signals a numerical or logic fault, never physics.
    """


class ZeroDeviation(QuboundsError):
    """A standard deviation required to be positive is zero within tolerance."""


class HypothesisViolated(QuboundsError):
    """The sign hypothesis on the phase factor mu is not satisfied."""


class RIndependenceViolation(QuboundsError):
    """The power-independence of a mixed saturation condition failed numerically."""


class CorollaryViolation(QuboundsError):
    """Qubit observables with vanishing centered products fail to commute."""


class RankUnachieved(QuboundsError):
    """A sampled density matrix did not reach the requested rank."""
