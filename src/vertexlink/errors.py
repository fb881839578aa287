"""Exception types shared across the package."""


class VertexLinkError(Exception):
    """Base class for all package-specific errors."""


class DomainError(VertexLinkError):
    """Numeric evaluation outside the allowed domain (e.g. q = 0)."""


class InexactDivision(VertexLinkError):
    """Exact division had a nonzero remainder.

    Raised instead of silently falling back to rational arithmetic; any
    occurrence in an identity check means the identity is false or the
    inputs are wrong.
    """


class DimensionMismatch(VertexLinkError):
    """Matrix operands with incompatible dimensions."""


class MinPolyViolated(VertexLinkError):
    """The claimed eigenvalue list does not annihilate the matrix."""


class BadLetter(VertexLinkError):
    """A braid letter is zero or names a generator outside the strand range."""


class UnsupportedN(VertexLinkError):
    """No model (or no Boltzmann weights) for the requested size."""


class ConventionValidationFailed(VertexLinkError):
    """Stored matrix disagrees with the pinned index convention fixture."""


class NoSolution(VertexLinkError):
    """A linear system that should have a nullspace came back trivial."""


class ClosedFormMismatch(VertexLinkError):
    """A trace constant disagrees with its closed form."""


class NotDecomposable(VertexLinkError):
    """R is not a ring combination of the identity and the TL generator."""


class NotScalar(VertexLinkError):
    """A partial closure expected to be scalar is not a multiple of 1."""
