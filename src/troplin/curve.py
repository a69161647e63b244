"""Abstract tropical curves: metric graphs with rays to infinity.

A curve is a graph with finite edges (positive rational length) and
semi-infinite edges (a vertex tail and a boundary point at infinity),
oriented tail to head.  The relative first homology and the locally
constant 1-forms live here: one orientation, written once in
``vertex_equation_matrix``, makes them one kernel in edge space and eta
the identity.  ``eta`` and the end pairing check the vertex equations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from . import linalg
from .errors import InvalidCurve, NotAForm
from .linalg import as_fraction, vector
from .report import Report

INF = float("inf")


def _is_infinite(length) -> bool:
    return length == INF or length == "inf"


@dataclass(frozen=True)
class Edge:
    """One oriented edge; head None means a boundary point at infinity."""

    id: str
    tail: str
    head: str | None
    length: object  # positive Fraction, or INF for boundary edges

    def __post_init__(self):
        if _is_infinite(self.length):
            object.__setattr__(self, "length", INF)
        else:
            object.__setattr__(self, "length", as_fraction(self.length))

    @property
    def is_infinite(self) -> bool:
        return self.length is INF  # __post_init__ stores INF itself or a Fraction


@dataclass(frozen=True)
class AbstractTropicalCurve:
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(self.edges))

    @cached_property
    def _verdict(self) -> str | None:
        """None for a valid curve, else its failure summary."""
        report = validate_abstract(self)
        return None if report.passed else report.failure_summary()

    def finite_edges(self) -> list[Edge]:
        return [e for e in self.edges if not e.is_infinite]

    def infinite_edges(self) -> list[Edge]:
        return [e for e in self.edges if e.is_infinite]


def abstract_curve(vertices: Sequence[str], edges: Sequence[tuple]) -> AbstractTropicalCurve:
    """Build a curve from (id, tail, head_or_None, length) tuples."""
    return AbstractTropicalCurve(
        tuple(str(v) for v in vertices),
        tuple(Edge(str(i), str(t), None if h is None else str(h), l) for i, t, h, l in edges),
    )


def validate_abstract(curve: AbstractTropicalCurve) -> Report:
    """Check the defining conditions; violations are reported, not raised."""
    report = Report("abstract curve")
    vset = set(curve.vertices)
    report.add(
        "unique vertex ids", len(vset) == len(curve.vertices), "duplicate vertex ids"
        if len(vset) != len(curve.vertices) else "",
    )
    eids = [e.id for e in curve.edges]
    report.add(
        "unique edge ids", len(set(eids)) == len(eids),
        "duplicate edge ids" if len(set(eids)) != len(eids) else "",
    )
    dangling = []
    for e in curve.edges:
        if e.tail not in vset:
            dangling.append(f"{e.id}: tail {e.tail!r} is not a vertex")
        if e.head is not None and e.head not in vset:
            dangling.append(f"{e.id}: head {e.head!r} is not a vertex")
    report.add("endpoints are declared vertices", not dangling, "; ".join(dangling))
    bad_len = []
    for e in curve.edges:
        if e.head is None and not e.is_infinite:
            bad_len.append(f"{e.id}: boundary edge with finite length")
        if e.head is not None and e.is_infinite:
            bad_len.append(f"{e.id}: doubly-bounded edge with infinite length")
        if not e.is_infinite and e.length <= 0:
            bad_len.append(f"{e.id}: nonpositive length")
    report.add("edge lengths", not bad_len, "; ".join(bad_len))
    valence = Counter(v for e in curve.edges for v in (e.tail, e.head))
    low = [v for v in curve.vertices if valence[v] < 2]
    report.add(
        "no vertices of valence < 2", not low,
        "; ".join(f"{v}: valence {valence[v]}" for v in low),
    )
    return report


def require_valid(curve: AbstractTropicalCurve) -> None:
    """Raise ``InvalidCurve`` unless the curve is valid; validates it at most once."""
    if curve._verdict is not None:
        raise InvalidCurve(curve._verdict)


def vertex_equation_matrix(curve: AbstractTropicalCurve):
    """One row per vertex: +1 at tail slots, -1 at head slots.  The only
    place the orientation is written: a ray has no head slot, and a
    self-loop's two slots cancel to a zero column."""
    vindex = {v: i for i, v in enumerate(curve.vertices)}
    M = linalg.zeros(len(curve.vertices), len(curve.edges))
    for j, e in enumerate(curve.edges):
        M[vindex[e.tail]][j] += 1
        if e.head is not None:
            M[vindex[e.head]][j] -= 1
    return M


def boundary_matrix(curve: AbstractTropicalCurve):
    """The relative boundary map Q^E -> Q^V, e -> head - tail: the vertex
    equations negated.  Coordinates at boundary points are dropped, so a
    ray contributes only -tail."""
    M = vertex_equation_matrix(curve)
    return linalg.Matrix(([-x for x in row] for row in M), M.ncols)


def relative_h1_basis(curve: AbstractTropicalCurve) -> list[tuple]:
    """Basis of the kernel of the relative boundary map, as edge vectors.
    That map is the vertex equations negated, so eliminating those once
    gives this basis, which is also the locally constant 1-forms' basis."""
    require_valid(curve)
    return linalg.kernel_basis(vertex_equation_matrix(curve))


@dataclass(frozen=True)
class LocallyConstantForm:
    """Edge values a_e(u_e) on the tail-to-head primitive tangent.

    At each vertex the outward-signed values sum to zero: +value if the
    vertex is the tail, -value if it is the head (a self-loop contributes
    both and cancels).
    """

    edge_ids: tuple[str, ...]
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", vector(self.values))
        if len(self.edge_ids) != len(self.values):
            raise ValueError("one value per edge")

    def value(self, edge_id: str) -> Fraction:
        return as_fraction(self.values[self.edge_ids.index(edge_id)])

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)


def satisfies_vertex_equations(curve: AbstractTropicalCurve, form: LocallyConstantForm) -> bool:
    M = vertex_equation_matrix(curve)
    vals = [form.value(e.id) for e in curve.edges]
    return all(r == 0 for r in linalg.mat_vec(M, vals))


def locally_constant_forms(curve: AbstractTropicalCurve) -> list[LocallyConstantForm]:
    """Basis of the edge assignments satisfying every vertex equation: the
    ``relative_h1_basis`` vectors, read as forms."""
    ids = tuple(e.id for e in curve.edges)
    return [LocallyConstantForm(ids, b) for b in relative_h1_basis(curve)]


def eta(curve: AbstractTropicalCurve, form: LocallyConstantForm) -> tuple:
    """The relative 1-cycle sum_e value_e * e attached to a form.  It is the
    identity on coordinates: the boundary map is the vertex equations
    negated, and those are checked here."""
    require_valid(curve)
    if not satisfies_vertex_equations(curve, form):
        raise NotAForm("edge values violate a vertex equation")
    return vector(form.value(e.id) for e in curve.edges)
