"""The contraction pairing and the two dimension-bound ingredients.

``phi_contract`` turns an invariant (k+1)-covector and k deformations of a
curve into a locally constant 1-form on the underlying graph (the vertex
equations hold exactly because of balancing).  ``isotropy_check`` verifies
that the signed, weight-multiplied evaluation of an invariant p-form on
the infinite ends of a horizontal curve kills every p-tuple of
deformations.  ``roitman_bound_check`` verifies the linear-algebra bound
that turns isotropy into a dimension estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import linalg
from .curve import LocallyConstantForm, satisfies_vertex_equations
from .embedded import (
    ParametrizedTropicalCurve,
    _deformation_kernel,
    _offsets,
    _satisfies,
    deformation_constraints,
    horizontal_ends,
    require_valid_parametrized,
)
from .errors import DimensionMismatch, InputError, NotADeformation
from .linalg import vector
from .manifold import (
    TropicalForm,
    _signed_gram,
    invariant_forms,
    p_subsets,
    require_invariant,
)
from .report import Report


def wedge_with_last(form: TropicalForm) -> TropicalForm:
    """The (p+1)-covector form ^ dt on Z^(n+1), t the new last coordinate."""
    n, p = form.dim, form.degree
    old = {S: c for S, c in zip(p_subsets(n, p), form.coefficients)}
    coeffs = []
    for S in p_subsets(n + 1, p + 1):
        if S[-1] == n:
            coeffs.append(old.get(S[:-1], 0))
        else:
            coeffs.append(0)
    return TropicalForm(n + 1, p + 1, tuple(coeffs))


def phi_contract(
    h: ParametrizedTropicalCurve,
    omega: TropicalForm,
    deformations: Sequence[Mapping[str, Sequence]],
) -> LocallyConstantForm:
    """Edge values w_e * omega(D_1(v) ^ ... ^ D_k(v) ^ u_e), v the tail.

    The value does not depend on the chosen end of the edge: transporting
    by the deck linear part and using invariance of omega gives the same
    number at the head.  The result satisfies the vertex equations, which
    is asserted rather than assumed.
    """
    require_valid_parametrized(h)
    k = len(deformations)
    if omega.dim != h.manifold.dim or omega.degree != k + 1:
        raise DimensionMismatch(
            f"need a degree-{k + 1} covector on a {h.manifold.dim}-dimensional ambient"
        )
    require_invariant(h.manifold, omega)
    M = deformation_constraints(h)
    for D in deformations:
        if not _satisfies(h, M, D):
            raise NotADeformation("assignment violates an edge condition")
    values = []
    for e in h.abstract.edges:
        d = h.data(e.id)
        vectors = [D[e.tail] for D in deformations] + [d.direction]
        values.append(d.weight * omega.evaluate(vectors))
    form = LocallyConstantForm(tuple(e.id for e in h.abstract.edges), tuple(values))
    if not satisfies_vertex_equations(h.abstract, form):
        raise AssertionError("contraction violated a vertex equation")  # unreachable
    return form


def end_evaluation(
    h: ParametrizedTropicalCurve,
    omega_tilde: TropicalForm,
    deformations: Sequence[Mapping[str, Sequence]],
) -> Fraction:
    """Signed, weighted sum over the infinite ends of omega_tilde applied
    to the base projections of the deformations at the end's base vertex."""
    _, ends = horizontal_ends(h)
    if len(deformations) != omega_tilde.degree:
        raise ValueError(f"expected {omega_tilde.degree} deformations")
    terms = [
        (sign * weight, omega_tilde, {j: vector(D[tail][:-1]) for j, D in enumerate(deformations)})
        for sign, weight, tail in ends
    ]
    return Fraction(_signed_gram(terms, omega_tilde.degree, len(deformations))[0])


def isotropy_check(
    h: ParametrizedTropicalCurve,
    omega_tilde: TropicalForm | None = None,
    degree: int = 2,
) -> Report:
    """Verify exact vanishing of the end pairing on all deformation tuples.

    With ``omega_tilde=None`` every invariant form of the given degree on
    the base is checked; if there are none the report records a vacuous
    pass.  The report carries the full Gram data (one value per form and
    per tuple of deformation-basis vectors), all of which must be exactly
    zero.
    """
    require_valid_parametrized(h)
    base, ends = horizontal_ends(h)
    if omega_tilde is not None:
        if omega_tilde.degree < 2:
            raise DimensionMismatch("isotropy needs a form of degree at least 2")
        require_invariant(base, omega_tilde)
        forms = [omega_tilde]
        degree = omega_tilde.degree
    else:
        if degree < 2:
            raise DimensionMismatch("isotropy needs degree at least 2")
        forms = invariant_forms(base, degree)
    report = Report("isotropy of the end pairing")
    if not forms:
        report.skip(
            "vacuous", f"no nonzero invariant {degree}-forms on the base (rank 0)"
        )
        return report
    kernel = _deformation_kernel(h)
    at = _end_vectors(h, ends, kernel)
    tuples = p_subsets(len(kernel), degree)
    for fi, form in enumerate(forms):
        terms = [(sign * weight, form, at[tail]) for sign, weight, tail in ends]
        gram = _signed_gram(terms, degree, len(kernel))
        report.add(
            f"form {fi}: all {degree}-tuples vanish",
            not any(gram),
            "; ".join(f"D{tup}={val}" for tup, val in zip(tuples, gram))
            or "no tuples (deformation space too small)",
        )
    return report


def _end_vectors(
    h: ParametrizedTropicalCurve, ends: Sequence[tuple[int, int, str]], kernel: Sequence[dict]
) -> dict[str, dict[int, list]]:
    """{end tail: {j: base projection of kernel vector j at that vertex}}, for
    the vectors non-zero there, read off the sparse kernel through one index
    from each base column of an end vertex to its (tail, coordinate)."""
    b = h.manifold.dim - 1
    offsets = _offsets(h)
    index = {offsets[tail] + k: (tail, k) for _, _, tail in ends for k in range(b)}
    at: dict[str, dict[int, list]] = {tail: {} for _, _, tail in ends}
    for j, v in enumerate(kernel):
        for column, x in v.items():
            if column in index:
                tail, k = index[column]
                at[tail].setdefault(j, [0] * b)[k] = x
    return at


# ---------------------------------------------------------------------------
# Graded spaces and the dimension bound


@dataclass(frozen=True)
class Block:
    dimension: int
    sign: int
    form: TropicalForm

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.form.dim != self.dimension:
            raise DimensionMismatch("block form lives on a space of the wrong dimension")
        if self.form.is_zero():
            raise ValueError("block form must be nonzero")


@dataclass(frozen=True)
class GradedSpace:
    blocks: tuple[Block, ...]

    def __post_init__(self):
        degrees = {b.form.degree for b in self.blocks}
        if len(degrees) > 1:
            raise DimensionMismatch("all block forms must share one degree")

    @property
    def total_dimension(self) -> int:
        return sum(b.dimension for b in self.blocks)

    @property
    def degree(self) -> int:
        return self.blocks[0].form.degree if self.blocks else 0

    def gram(self, vectors: Sequence[Sequence]) -> list:
        """The signed block form on every degree-subset of the vectors."""
        return self._gram([vector(v) for v in vectors])

    def _gram(self, vecs: Sequence[tuple]) -> list:
        """``gram`` on exact vectors: each non-zero entry goes to its block
        through one index from column to (block, coordinate)."""
        _require_length(vecs, self.total_dimension)
        index = [(i, k) for i, b in enumerate(self.blocks) for k in range(b.dimension)]
        parts: list[dict[int, list]] = [{} for _ in self.blocks]
        for j, v in enumerate(vecs):
            for column, x in enumerate(v):
                if x:
                    i, k = index[column]
                    parts[i].setdefault(j, [0] * self.blocks[i].dimension)[k] = x
        terms = [(b.sign, b.form, part) for b, part in zip(self.blocks, parts)]
        return _signed_gram(terms, self.degree, len(vecs))

    def evaluate(self, vectors: Sequence[Sequence]) -> Fraction:
        """The signed block-diagonal form on degree-many total vectors."""
        if len(vectors) != self.degree:
            raise ValueError(f"expected {self.degree} vectors")
        return Fraction(self.gram(vectors)[0])


def _require_length(vectors: Sequence[tuple], total: int) -> None:
    for w in vectors:
        if len(w) != total:
            raise DimensionMismatch(f"vector of length {len(w)} in a {total}-dimensional space")


@dataclass(frozen=True)
class RoitmanResult:
    isotropic: bool
    dim_W: int
    bound: int
    satisfied: bool


def roitman_bound_check(space: GradedSpace, W: Sequence[Sequence]) -> RoitmanResult:
    """Decide isotropy of span(W) and compare its dimension to dim V - m.

    The form vanishes on span(W) iff it vanishes on every degree-subset of
    W: by multilinearity its value on vectors of the span is a combination
    of its values on tuples of W, which alternation reduces to subsets.
    """
    rows = [vector(w) for w in W]
    isotropic = not any(space._gram(rows))
    dim_w = linalg.rank(linalg.Matrix(rows, space.total_dimension))
    bound = space.total_dimension - len(space.blocks)
    return RoitmanResult(isotropic, dim_w, bound, isotropic and dim_w <= bound)


def infinity_restriction(
    h: ParametrizedTropicalCurve, omega_tilde: TropicalForm
) -> tuple[GradedSpace, list[tuple]]:
    """The graded space of end copies (one block per unit of weight, signed
    by the end's direction) together with the end restrictions of the
    deformation basis of h.  A curve without ends has no end copies and
    raises ``InputError``."""
    base, ends = horizontal_ends(h)
    if not ends:
        raise InputError("the curve has no infinite ends, so there are no end copies")
    require_invariant(base, omega_tilde)
    copies = [(sign, tail) for sign, weight, tail in ends for _ in range(weight)]
    space = GradedSpace(tuple(Block(base.dim, sign, omega_tilde) for sign, _ in copies))
    kernel = _deformation_kernel(h)
    at = _end_vectors(h, ends, kernel)
    zero = [0] * base.dim
    vectors = [
        tuple(x for _, tail in copies for x in at[tail].get(j, zero)) for j in range(len(kernel))
    ]
    return space, vectors
