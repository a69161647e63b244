"""Exception types shared across the library.

Every mathematically meaningful failure gets its own class so callers can
discriminate without string matching.  All inherit from ``TroplinError``.
"""


class TroplinError(Exception):
    """Base class for all troplin errors."""


class ZeroVector(TroplinError):
    """A nonzero vector was required."""


class InputError(TroplinError):
    """The input is malformed or does not suit the operation: a usage
    error, not a failed mathematical check."""


class IrrationalData(InputError):
    """A value could not be interpreted as an exact rational."""


class NonPositiveParameter(InputError):
    """A parameter that must be strictly positive was not."""


class DegenerateLattice(InputError):
    """Lattice vectors are linearly dependent."""


class UnsupportedManifoldKind(InputError):
    """The operation is not available for this manifold kind."""


class InvalidCurve(TroplinError):
    """An abstract or parametrized curve failed validation."""


class NotAForm(TroplinError):
    """Edge values do not satisfy the vertex equations."""


class WrongAmbient(InputError):
    """The ambient manifold does not have the required product structure."""


class NotHorizontal(TroplinError):
    """The curve has a semi-infinite edge that is not vertical."""


class DimensionMismatch(InputError):
    """Degrees or dimensions of the inputs are incompatible."""


class NotADeformation(TroplinError):
    """A vertex assignment violates the edge conditions of the curve."""


class FormNotInvariant(TroplinError):
    """The covector is not fixed by the manifold's holonomy."""


class NonZeroDegree(TroplinError):
    """A degree-zero divisor or cycle was required."""


class NotPrincipal(TroplinError):
    """The divisor has nonzero class in the circle Jacobian."""


class SpecialFiber(TroplinError):
    """The point lies on a short (special) fiber."""


class OnSection(TroplinError):
    """The point lies on the image of the section."""
