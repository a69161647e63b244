"""Exact computations with tropical curves in integral-affine quotients.

The package is organized in layers: exact integer/rational linear
algebra (`linalg`), quotient manifolds with their invariant forms and
Albanese data (`manifold`), abstract metric graphs (`curve`),
parametrized curves with balancing and deformation theory (`embedded`),
the isotropy pairing and dimension bound (`pairing`), and the complete
0-cycle equivalence decision with witness curves on tropical Klein
bottles (`klein`).  Everything is computed over the rationals; checks
that should be zero are exactly zero.  All operations are pure functions
on immutable values and safe for concurrent use.
"""

from importlib import resources

from .curve import (
    INF,
    AbstractTropicalCurve,
    Edge,
    LocallyConstantForm,
    abstract_curve,
    eta,
    locally_constant_forms,
    relative_h1_basis,
    validate_abstract,
)
from .embedded import (
    EmbeddedEdgeData,
    ParametrizedTropicalCurve,
    ZeroCycle,
    boundary_zero_cycle,
    deformation_basis,
    evaluate_at_infinity,
    is_horizontal_at_infinity,
    parametrized_curve,
    validate_parametrized,
    zero_cycle,
)
from .errors import (
    DegenerateLattice,
    DimensionMismatch,
    FormNotInvariant,
    InputError,
    InvalidCurve,
    IrrationalData,
    NonPositiveParameter,
    NonZeroDegree,
    NotADeformation,
    NotAForm,
    NotHorizontal,
    NotPrincipal,
    OnSection,
    SpecialFiber,
    TroplinError,
    UnsupportedManifoldKind,
    WrongAmbient,
    ZeroVector,
)
from .klein import (
    FiberCircle,
    PiecewiseLinearFunction,
    albanese_class,
    chow_equivalent,
    circle_embedding,
    circle_jacobian_class,
    fiber_circle,
    fiber_position,
    iota,
    modification_curve,
    principal_function,
    section_point,
    witness_fiber_relation,
    witness_two_torsion,
)
from .linalg import (
    hermite_normal_form,
    integer_kernel_basis,
    kernel_basis,
    primitive_part,
)
from .manifold import (
    AffineQuotientManifold,
    AlbaneseData,
    DeckElement,
    TropicalForm,
    albanese_data,
    invariant_forms,
    make_euclidean,
    make_klein,
    make_torus,
    product_with_line,
    reduce_point,
)
from .pairing import (
    Block,
    GradedSpace,
    RoitmanResult,
    infinity_restriction,
    isotropy_check,
    phi_contract,
    roitman_bound_check,
)
from .report import Check, Report

__version__ = "0.1.0"


def data_path(name: str):
    """Filesystem path of a bundled data file such as ``fig1a.json``."""
    return resources.files("troplin").joinpath("data", name)
