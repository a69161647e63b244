"""Parametrized tropical curves inside a quotient manifold.

A curve is stored as lifted vertex positions in R^n plus, per edge, a
primitive integer direction in the tail's chart, a positive weight, an
image length, and a deck element (identity unless the edge crosses the
quotient identification).  Tangent data is transported across an edge by
the deck's linear part, which keeps balancing and position checks
chart-correct without fundamental-domain case analysis.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations
from math import lcm
from operator import mul
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from . import linalg
from .curve import INF, AbstractTropicalCurve, validate_abstract
from .errors import DimensionMismatch, InvalidCurve, NotHorizontal, WrongAmbient
from .linalg import as_fraction, as_int, vector
from .manifold import (
    KIND_EUCLIDEAN,
    KIND_PRODUCT,
    AffineQuotientManifold,
    DeckElement,
    deck_membership,
    identity_deck,
    key_point,
    point_key,
    point_reducer,
)
from .report import Report


@dataclass(frozen=True)
class EmbeddedEdgeData:
    """Embedding data of one edge, expressed in the tail vertex's chart."""

    direction: tuple[int, ...]
    weight: int
    image_length: object  # positive Fraction, INF for rays
    deck: DeckElement

    def __post_init__(self):
        object.__setattr__(self, "direction", tuple(as_int(c) for c in self.direction))
        object.__setattr__(self, "weight", as_int(self.weight))
        if self.image_length == INF or self.image_length == "inf":
            object.__setattr__(self, "image_length", INF)
        else:
            object.__setattr__(self, "image_length", as_fraction(self.image_length))


@dataclass(frozen=True)
class ParametrizedTropicalCurve:
    """Read-only throughout, so the one thing it keeps, its validation
    verdict, never goes stale."""

    manifold: AffineQuotientManifold
    abstract: AbstractTropicalCurve
    positions: Mapping[str, tuple]
    edge_data: Mapping[str, EmbeddedEdgeData]

    def __post_init__(self):
        positions = {str(k): vector(v) for k, v in self.positions.items()}
        object.__setattr__(self, "positions", MappingProxyType(positions))
        object.__setattr__(self, "edge_data", MappingProxyType(dict(self.edge_data)))

    @cached_property
    def _verdict(self) -> str | None:
        """None for a valid curve, else its failure summary."""
        report = validate_parametrized(self)
        return None if report.passed else report.failure_summary()

    def position(self, vertex_id: str) -> tuple:
        return self.positions[vertex_id]

    def data(self, edge_id: str) -> EmbeddedEdgeData:
        return self.edge_data[edge_id]


def parametrized_curve(
    manifold: AffineQuotientManifold,
    abstract: AbstractTropicalCurve,
    positions: Mapping[str, Sequence],
    edges: Mapping[str, Mapping],
) -> ParametrizedTropicalCurve:
    """Assemble a curve; omitted decks default to the identity."""
    data = {}
    identity = identity_deck(manifold.dim)
    for eid, params in edges.items():
        deck = params.get("deck") or identity
        data[eid] = EmbeddedEdgeData(
            tuple(params["direction"]), params.get("weight", 1), params["image_length"], deck
        )
    return ParametrizedTropicalCurve(manifold, abstract, dict(positions), data)


def outward_germs(h: ParametrizedTropicalCurve) -> dict[str, list[tuple[str, int, tuple]]]:
    """{vertex: [(edge id, weight, primitive outward direction in its chart)]},
    from one pass over the edges; a self-loop gives its vertex both germs."""
    germs = defaultdict(list)
    for e in h.abstract.edges:
        d = h.data(e.id)
        germs[e.tail].append((e.id, d.weight, d.direction))
        if e.head is not None:
            transported = linalg.mat_vec(d.deck.linear, d.direction)
            germs[e.head].append((e.id, d.weight, tuple(-int(c) for c in transported)))
    return germs


def _weighted_sum(n: int, germs) -> tuple:
    total = [0] * n
    for _, w, germ in germs:
        for i, c in enumerate(germ):
            total[i] += w * c
    return tuple(total)


def balancing_residual(h: ParametrizedTropicalCurve, v: str) -> tuple:
    """Weighted sum of the outward primitive directions at v (zero iff balanced)."""
    return _weighted_sum(h.manifold.dim, outward_germs(h)[v])


def _segment_pair_intersections(p, dp, lp, q, dq, lq):
    """Exact intersection of two closed segments/rays ``p + s dp``, ``q + t dq``
    with integer starts, primitive integer directions and integer lengths
    (``INF`` for rays).

    Returns ``[point]`` for one common point, ``[]`` for none, or the string
    ``"overlap"`` when the segments share infinitely many points.  ``s`` and
    ``t`` come from Cramer's rule on the first non-zero 2x2 minor of
    ``[dp, -dq]``, kept as numerators over that minor; only a hit forms
    Fractions.
    """
    n = len(p)
    r = [b - a for a, b in zip(p, q)]
    for i, j in combinations(range(n), 2):
        D = dq[i] * dp[j] - dp[i] * dq[j]
        if D != 0:
            s = dq[i] * r[j] - r[i] * dq[j]  # the parameters are s / D and t / D
            t = dp[i] * r[j] - r[i] * dp[j]
            if D < 0:
                D, s, t = -D, -s, -t
            if any(s * a - t * b != c * D for a, b, c in zip(dp, dq, r)):
                return []
            if s < 0 or t < 0 or s > lp * D or t > lq * D:
                return []
            return [tuple(Fraction(x * D + s * a, D) for x, a in zip(p, dp))]
    # Parallel primitive directions, so dq = +-dp: disjoint lines, or q's
    # edge covers a parameter interval of p's line from s0, where q = p + s0 dp.
    i = next(k for k in range(n) if dp[k] != 0)
    if any(c * dp[i] != r[i] * a for a, c in zip(dp, r)):
        return []
    s0 = r[i] // dp[i]  # exact: r is an integer multiple of the primitive dp
    lo, hi = (s0, s0 + lq) if dq[i] * dp[i] > 0 else (s0 - lq, s0)
    lo, hi = max(lo, 0), min(hi, lp)
    if lo > hi:
        return []
    if lo == hi:
        return [tuple(x + lo * a for x, a in zip(p, dp))]
    return "overlap"


def _edge_box(p, d, length) -> list[tuple]:
    """(low, high) per coordinate of an edge; a ray is unbounded wherever
    its direction moves and pinned where that component is 0."""
    box = []
    for x, c in zip(p, d):
        if length is not INF:
            y = x + length * c
            box.append((x, y) if c >= 0 else (y, x))
        else:
            box.append((x, INF) if c > 0 else (-INF, x) if c < 0 else (x, x))
    return box


def _box_overlap_pairs(boxes: Sequence[list[tuple]]) -> list[tuple[int, int]]:
    """Index pairs ``(i, j)``, ``i < j``, in lexicographic order, whose
    closed boxes meet: sort by the low end on coordinate 0 and sweep an
    active list, then compare the remaining coordinates."""
    order = sorted(range(len(boxes)), key=lambda i: boxes[i][0][0])
    active: list[int] = []
    pairs = []
    for i in order:
        low = boxes[i][0][0]
        active = [j for j in active if boxes[j][0][1] >= low]
        for j in active:
            if all(a[0] <= b[1] and b[0] <= a[1] for a, b in zip(boxes[i][1:], boxes[j][1:])):
                pairs.append((j, i) if j < i else (i, j))
        active.append(i)
    pairs.sort()
    return pairs


def _intersecting_edge_pairs(h: ParametrizedTropicalCurve) -> list[tuple]:
    """``(e, f, hits)`` for every pair of edges of a euclidean curve that
    share no vertex and meet, in edge order; ``hits`` is a list of points
    or ``"overlap"``.

    Positions and lengths are scaled once by the lcm L of their
    denominators, so boxes and the pair predicate run on integers; a hit
    is divided back by L.
    """
    edges = list(h.abstract.edges)
    lengths = [h.data(e.id).image_length for e in edges]
    positions = [h.position(v) for v in h.abstract.vertices]
    L = lcm(*(x.denominator for p in positions for x in p),
            *(x.denominator for x in lengths if x is not INF))
    scaled = {
        v: tuple(x.numerator * (L // x.denominator) for x in p)
        for v, p in zip(h.abstract.vertices, positions)
    }
    segments = [
        (scaled[e.tail], h.data(e.id).direction,
         x if x is INF else x.numerator * (L // x.denominator))
        for e, x in zip(edges, lengths)
    ]
    ends = [{e.tail, e.head} - {None} for e in edges]
    boxes = [_edge_box(*seg) for seg in segments]
    found = []
    for i, j in _box_overlap_pairs(boxes):
        if ends[i].isdisjoint(ends[j]):
            hits = _segment_pair_intersections(*segments[i], *segments[j])
            if hits == "overlap":
                found.append((edges[i], edges[j], hits))
            elif hits:
                found.append((edges[i], edges[j], [vector(Fraction(x, L) for x in hits[0])]))
    return found


def validate_parametrized(h: ParametrizedTropicalCurve) -> Report:
    """Run every structural and geometric invariant, collecting violations.

    For euclidean ambients an exact global embeddedness check runs as
    well, in integers: positions and lengths are scaled once by the lcm
    of their denominators, a sort-and-sweep over per-edge bounding boxes
    keeps only the edge pairs whose boxes meet, and each pair that shares
    no vertex is tested by Cramer's rule.  Pairs that share a vertex need
    no test once every earlier check has passed: position consistency
    puts the vertex at an end of both edges, local injectivity makes
    their germs there distinct, and two segments or rays leaving one
    point in distinct primitive directions meet only at that point (a
    second shared vertex would force equal germs; a euclidean self-loop
    fails position consistency).  For quotients, embeddedness
    beyond local injectivity is reported as skipped, and so is deck-group
    membership when it cannot be decided (general manifolds).
    """
    report = Report("parametrized curve")
    abstract_report = validate_abstract(h.abstract)
    report.add("abstract curve valid", abstract_report.passed, abstract_report.failure_summary())
    if not abstract_report.passed:
        return report
    n = h.manifold.dim

    missing = [v for v in h.abstract.vertices if v not in h.positions]
    missing += [e.id for e in h.abstract.edges if e.id not in h.edge_data]
    report.add("embedding data present", not missing, f"missing: {missing}" if missing else "")
    if missing:
        return report

    bad = [
        f"vertex {v}: position has {len(h.position(v))} coordinates"
        for v in h.abstract.vertices
        if len(h.position(v)) != n
    ]
    for e in h.abstract.edges:
        d = h.data(e.id)
        if len(d.direction) != n:
            bad.append(f"{e.id}: dimension mismatch")
            continue
        if all(c == 0 for c in d.direction):
            bad.append(f"{e.id}: zero direction")
        elif linalg.content(d.direction) != 1:
            bad.append(f"{e.id}: direction not primitive")
        if d.weight < 1:
            bad.append(f"{e.id}: weight < 1")
        if e.is_infinite != (d.image_length is INF):
            bad.append(f"{e.id}: finite/infinite mismatch with abstract edge")
        if d.image_length is not INF and d.image_length <= 0:
            bad.append(f"{e.id}: nonpositive image length")
    report.add("edge data well-formed", not bad, "; ".join(bad))
    if bad:
        return report

    unknown, undecided = [], []
    in_group = cache(deck_membership(h.manifold))  # once per distinct deck, in this call
    for e in h.abstract.edges:
        member = in_group(h.data(e.id).deck)
        if member is False:
            unknown.append(f"{e.id}: deck element not in the group")
        elif member is None:
            undecided.append(e.id)
    if undecided and not unknown:
        report.skip(
            "deck elements belong to the group",
            f"cannot be decided for a general deck group (edges {', '.join(undecided)})",
        )
    else:
        report.add("deck elements belong to the group", not unknown, "; ".join(unknown))

    mismatched = []
    for e in h.abstract.finite_edges():
        # A(p + l d) + t = q, all scaled by one lcm L of this edge's denominators.
        d = h.data(e.id)
        p, q, t = h.position(e.tail), h.position(e.head), d.deck.translation
        L = lcm(d.image_length.denominator, *(x.denominator for x in (*p, *q, *t)))
        lL = d.image_length.numerator * (L // d.image_length.denominator)
        end = [x.numerator * (L // x.denominator) + lL * c for x, c in zip(p, d.direction)]
        if len(t) != n or any(
            sum(map(mul, row, end)) + x.numerator * (L // x.denominator)
            != y.numerator * (L // y.denominator)
            for row, x, y in zip(d.deck.linear, t, q)
        ):
            mismatched.append(f"{e.id}: tail + length*direction does not reach head")
    report.add("position consistency", not mismatched, "; ".join(mismatched))

    germs = outward_germs(h)
    unbalanced = []
    for v in h.abstract.vertices:
        residual = _weighted_sum(n, germs[v])
        if any(c != 0 for c in residual):
            unbalanced.append(f"{v}: residual {residual}")
    report.add("balancing", not unbalanced, "; ".join(unbalanced))

    clashes = []
    for v in h.abstract.vertices:
        for (e1, _, g1), (e2, _, g2) in combinations(germs[v], 2):
            if g1 == g2:
                clashes.append(f"{v}: edges {e1} and {e2} leave along the same ray")
    report.add("local injectivity", not clashes, "; ".join(clashes))

    if h.manifold.kind != KIND_EUCLIDEAN:
        report.skip(
            "global embeddedness", "not checked beyond local injectivity in quotient ambients"
        )
    elif not report.passed:
        report.skip("global embeddedness", "not checked because an earlier check failed")
    else:
        overlaps = []
        for e, f, hits in _intersecting_edge_pairs(h):
            if hits == "overlap":
                overlaps.append(f"{e.id} and {f.id} overlap along a segment")
            else:
                overlaps += (f"{e.id} and {f.id} meet at {pt} away from a shared vertex"
                             for pt in hits)
        report.add("global embeddedness (euclidean)", not overlaps, "; ".join(overlaps))
    return report


def require_valid_parametrized(h: ParametrizedTropicalCurve) -> None:
    """Raise ``InvalidCurve`` unless h is valid; validates h at most once."""
    if h._verdict is not None:
        raise InvalidCurve(h._verdict)


# ---------------------------------------------------------------------------
# Deformations


def _offsets(h: ParametrizedTropicalCurve) -> dict[str, int]:
    """{vertex: its first column}: vertex i's tangent vector is unknown in
    columns i*n .. i*n + n - 1 of the deformation constraints."""
    n = h.manifold.dim
    return {v: i * n for i, v in enumerate(h.abstract.vertices)}


def deformation_constraints(h: ParametrizedTropicalCurve):
    """Linear conditions cutting out the deformation space, as a ``Matrix``
    of sparse ``{column: value}`` dict rows over the columns of ``_offsets``.
    Each finite edge with deck linear part A and direction d contributes
    rows in its tail's and head's columns only: A u_tail - u_head must be
    parallel to A d, encoded by a saturated basis of the annihilator of A d.
    Semi-infinite edges impose nothing.  A row keeps only its non-zero
    entries, so on a loop (tail = head) terms that cancel are dropped too.
    """
    n = h.manifold.dim
    offsets = _offsets(h)

    @cache  # once per distinct (linear part, direction), in this call
    def pieces(A, direction) -> list[tuple[list[int], tuple]]:
        """(phi A, phi) for each phi of the annihilator of A d."""
        columns = list(zip(*A))
        return [([sum(map(mul, phi, column)) for column in columns], phi)
                for phi in linalg.annihilator_basis(linalg.mat_vec(A, direction))]

    rows = []
    for e in h.abstract.finite_edges():
        d = h.data(e.id)
        tail, head = offsets[e.tail], offsets[e.head]
        for phi_A, phi in pieces(d.deck.linear, d.direction):
            row = dict(zip(range(tail, tail + n), phi_A))
            for j, x in zip(range(head, head + n), phi):
                row[j] = row.get(j, 0) - x
            rows.append({j: x for j, x in row.items() if x})
    return linalg.Matrix(rows, n * len(offsets))


def _deformation_kernel(h: ParametrizedTropicalCurve) -> list[dict]:
    """The deformation space of a valid h as sparse vectors over the columns
    of ``_offsets``, one ``{column: value}`` dict per basis vector
    (``linalg._kernel``)."""
    require_valid_parametrized(h)
    return linalg._kernel(deformation_constraints(h))


def deformation_basis(h: ParametrizedTropicalCurve) -> list[dict[str, tuple]]:
    """Basis of vertex-vector assignments tangent to the moduli of h.

    Edge directions (the discrete data) stay fixed; the returned dimension
    is that of the solution space of the per-edge parallelism conditions.
    """
    kernel = _deformation_kernel(h)
    n = h.manifold.dim
    offsets = _offsets(h)
    basis = []
    for b in kernel:
        dense = linalg._dense(b, n * len(offsets))
        basis.append({v: tuple(dense[off : off + n]) for v, off in offsets.items()})
    return basis


def is_deformation(h: ParametrizedTropicalCurve, assignment: Mapping[str, Sequence]) -> bool:
    """Whether a vertex assignment satisfies every edge condition of h."""
    require_valid_parametrized(h)
    return _satisfies(h, deformation_constraints(h), assignment)


def _satisfies(h: ParametrizedTropicalCurve, M, assignment: Mapping[str, Sequence]) -> bool:
    """Whether a vertex assignment lies in the null space of the constraints M of h."""
    n = h.manifold.dim
    flat = []
    for v in h.abstract.vertices:
        if v not in assignment:
            raise DimensionMismatch(f"assignment has no vector for vertex {v!r}")
        vec = vector(assignment[v])
        if len(vec) != n:
            raise DimensionMismatch(f"vertex {v!r} is assigned {len(vec)} coordinates, not {n}")
        flat.extend(vec)
    return not any(sum(x * flat[j] for j, x in row.items()) for row in M)


# ---------------------------------------------------------------------------
# Horizontality and evaluation at infinity


def horizontal_ends(
    h: ParametrizedTropicalCurve,
) -> tuple[AffineQuotientManifold, list[tuple[int, int, str]]]:
    """The base B of a curve in B x R that is horizontal at infinity, and
    every semi-infinite edge as (sign, weight, tail): sign is +1 for a ray
    going up the last coordinate and -1 for one going down."""
    if h.manifold.kind != KIND_PRODUCT:
        raise WrongAmbient("curve does not live in a product with a line")
    ends = []
    for e in h.abstract.infinite_edges():
        d = h.data(e.id)
        if any(d.direction[:-1]) or d.direction[-1] not in (1, -1):
            raise NotHorizontal("curve has a non-vertical semi-infinite edge")
        ends.append((d.direction[-1], d.weight, e.tail))
    return h.manifold.base, ends


def is_horizontal_at_infinity(h: ParametrizedTropicalCurve) -> bool:
    """True iff every semi-infinite edge runs along the last coordinate."""
    try:
        horizontal_ends(h)
    except NotHorizontal:
        return False
    return True


class ZeroCycle:
    """A finite formal integer combination of canonical manifold points, held
    as a read-only {point key: non-zero multiplicity} with keys as
    ``point_reducer`` makes them; ``entries`` is built the first time it is read."""

    def __init__(self, keys: Mapping[tuple[int, ...], int] | Iterable = ()):
        self.keys = MappingProxyType({key: m for key, m in dict(keys).items() if m})

    @cached_property
    def entries(self) -> tuple[tuple[tuple, int], ...]:
        """The exact points, ints where integral, with their multiplicities in
        value order: keys sort on numerators over the lcm of the denominators."""
        L = lcm(*(key[-1] for key in self.keys))
        order = sorted(self.keys, key=lambda key: [c * (L // key[-1]) for c in key[:-1]])
        return tuple((key_point(key), self.keys[key]) for key in order)

    @property
    def degree(self) -> int:
        return sum(self.keys.values())

    def multiplicity(self, point: Sequence) -> int:
        """The multiplicity of an exact canonical point; a point of another
        length than the cycle's points raises ``ValueError``."""
        key = point_key(point)
        if self.keys and len(key) != len(next(iter(self.keys))):
            raise ValueError("point dimension mismatch")
        return self.keys.get(key, 0)

    def is_empty(self) -> bool:
        return not self.keys

    def __eq__(self, other) -> bool:
        return self.keys == other.keys if isinstance(other, ZeroCycle) else NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.keys.items()))

    def __repr__(self) -> str:
        return f"ZeroCycle(entries={self.entries!r})"

    def __neg__(self) -> "ZeroCycle":
        return ZeroCycle({key: -m for key, m in self.keys.items()})

    def __add__(self, other: "ZeroCycle") -> "ZeroCycle":
        return _merge((*self.keys.items(), *other.keys.items()))

    def __sub__(self, other: "ZeroCycle") -> "ZeroCycle":
        return self + (-other)


def _merge(items: Iterable[tuple[tuple[int, ...], int]]) -> ZeroCycle:
    """The cycle of (point key, multiplicity) pairs: equal keys merge, zeros drop."""
    acc: dict[tuple, int] = {}
    for key, m in items:
        acc[key] = acc.get(key, 0) + m
    return ZeroCycle(acc)


def zero_cycle(M: AffineQuotientManifold, items: Iterable[tuple[Sequence, int]]) -> ZeroCycle:
    """Reduce points to canonical representatives, merge, and prune zeros."""
    key = point_reducer(M)
    return _merge((key(p), as_int(m)) for p, m in items)


def evaluate_at_infinity(h: ParametrizedTropicalCurve) -> tuple[ZeroCycle, ZeroCycle]:
    """Base points of the rays going down (minus) and up (plus), with
    multiplicity equal to the edge weight.  Raises ``WrongAmbient`` or
    ``NotHorizontal`` first, then ``InvalidCurve`` for an invalid curve."""
    base, ends = horizontal_ends(h)
    require_valid_parametrized(h)
    return tuple(
        zero_cycle(base, [(h.position(tail)[:-1], w) for s, w, tail in ends if s == sign])
        for sign in (-1, 1)
    )


def boundary_zero_cycle(h: ParametrizedTropicalCurve) -> ZeroCycle:
    """The 0-cycle (plus ends) - (minus ends), of degree zero; raises as
    ``evaluate_at_infinity`` does."""
    base, ends = horizontal_ends(h)
    require_valid_parametrized(h)
    return zero_cycle(base, [(h.position(tail)[:-1], sign * w) for sign, w, tail in ends])
