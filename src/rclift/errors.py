"""Exception hierarchy shared across the package."""


class RcliftError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(RcliftError):
    """Operands have incompatible shapes."""


class NotHermitian(RcliftError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NegativeEigenvalue(RcliftError):
    """A matrix required to be positive semidefinite has a genuinely
    negative eigenvalue (beyond the rounding clamp)."""


class NotPositiveDefinite(RcliftError):
    """A Hermitian positive definite matrix was expected."""


class NotStrict(RcliftError):
    """The data violates a strictness hypothesis (the main contraction
    must have norm < 1 and the right constraint operator a left inverse)."""


class HankelNotStrict(NotStrict):
    """The truncated Hankel matrix of a Nehari problem is not a strict
    contraction, so the defect Gram cannot be inverted."""


class NotClassicalShape(RcliftError):
    """Closed-form classical evaluation requires R = I and an isometric Q."""


class ResolventSingular(RcliftError):
    """(I - lambda*X) could not be inverted at the requested point."""


class EmptySolutionSpace(RcliftError):
    """The random instance generator found only the trivial intertwining
    solution; retry with another seed."""


class NotConverged(RcliftError):
    """An iterative solver missed its tolerance within its iteration cap."""


class NotFinite(RcliftError):
    """A value overflowed floating point, so a check cannot be decided."""


class ParseError(RcliftError):
    """A JSON instance, parameter, or solution file is malformed."""
