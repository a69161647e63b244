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
from itertools import combinations
from typing import Mapping, Sequence

from . import linalg
from .curve import LocallyConstantForm, satisfies_vertex_equations
from .embedded import (
    ParametrizedTropicalCurve,
    _deformation_basis,
    _satisfies,
    deformation_basis,
    deformation_constraints,
    is_horizontal_at_infinity,
    require_valid_parametrized,
)
from .errors import DimensionMismatch, NotADeformation, NotHorizontal, WrongAmbient
from .linalg import matrix, vector
from .manifold import (
    KIND_PRODUCT,
    TropicalForm,
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


def _base_and_ends(h: ParametrizedTropicalCurve):
    if h.manifold.kind != KIND_PRODUCT or h.manifold.base is None:
        raise WrongAmbient("curve does not live in a product with a line")
    if not is_horizontal_at_infinity(h):
        raise NotHorizontal("curve is not horizontal at infinity")
    last = h.manifold.dim - 1
    ends = []
    for e in h.abstract.infinite_edges():
        d = h.data(e.id)
        ends.append((e.id, d.direction[last], d.weight, e.tail))
    return h.manifold.base, ends


def end_evaluation(
    h: ParametrizedTropicalCurve,
    omega_tilde: TropicalForm,
    deformations: Sequence[Mapping[str, Sequence]],
) -> Fraction:
    """Signed, weighted sum over the infinite ends of omega_tilde applied
    to the base projections of the deformations at the end's base vertex."""
    _, ends = _base_and_ends(h)
    return _end_sum(h.manifold.dim - 1, ends, omega_tilde, deformations)


def _end_sum(last: int, ends, omega_tilde: TropicalForm, deformations) -> Fraction:
    total = Fraction(0)
    for _, sign, weight, tail in ends:
        vecs = [vector(D[tail])[:last] for D in deformations]
        total += sign * weight * omega_tilde.evaluate(vecs)
    return total


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
    base, ends = _base_and_ends(h)
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
    basis = _deformation_basis(h)
    last = h.manifold.dim - 1
    for fi, form in enumerate(forms):
        gram = []
        ok = True
        for tup in combinations(range(len(basis)), degree):
            val = _end_sum(last, ends, form, [basis[i] for i in tup])
            gram.append(f"D{tup}={val}")
            if val != 0:
                ok = False
        report.add(
            f"form {fi}: all {degree}-tuples vanish",
            ok,
            "; ".join(gram) if gram else "no tuples (deformation space too small)",
        )
    return report


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

    def evaluate(self, vectors: Sequence[Sequence]) -> Fraction:
        """The signed block-diagonal form on degree-many total vectors."""
        vecs = [vector(v) for v in vectors]
        total = Fraction(0)
        offset = 0
        for b in self.blocks:
            slices = [v[offset : offset + b.dimension] for v in vecs]
            total += b.sign * b.form.evaluate(slices)
            offset += b.dimension
        return total


@dataclass(frozen=True)
class RoitmanResult:
    isotropic: bool
    dim_W: int
    bound: int
    satisfied: bool


def roitman_bound_check(space: GradedSpace, W: Sequence[Sequence]) -> RoitmanResult:
    """Decide isotropy of span(W) and compare its dimension to dim V - m."""
    total = space.total_dimension
    rows = [vector(w) for w in W]
    for w in rows:
        if len(w) != total:
            raise DimensionMismatch(f"vector of length {len(w)} in a {total}-dimensional space")
    if rows:
        R, pivots = linalg.rref(matrix(rows))
        span = [vector(R[i]) for i in range(len(pivots))]
    else:
        span = []
    p = space.degree
    isotropic = True
    for tup in combinations(span, p):
        if space.evaluate(list(tup)) != 0:
            isotropic = False
            break
    bound = total - len(space.blocks)
    dim_w = len(span)
    return RoitmanResult(isotropic, dim_w, bound, isotropic and dim_w <= bound)


def infinity_restriction(
    h: ParametrizedTropicalCurve, omega_tilde: TropicalForm
) -> tuple[GradedSpace, list[tuple]]:
    """The graded space of end copies (one block per unit of weight, signed
    by the end's direction) together with the end restrictions of the
    deformation basis of h."""
    base, ends = _base_and_ends(h)
    require_invariant(base, omega_tilde)
    last = h.manifold.dim - 1
    blocks = []
    for _, sign, weight, _ in ends:
        for _ in range(weight):
            blocks.append(Block(base.dim, sign, omega_tilde))
    space = GradedSpace(tuple(blocks))
    vectors = []
    for D in deformation_basis(h):
        flat: list = []
        for _, _, weight, tail in ends:
            piece = vector(D[tail])[:last]
            for _ in range(weight):
                flat.extend(piece)
        vectors.append(vector(flat))
    return space, vectors
