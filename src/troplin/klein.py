"""0-cycles on tropical Klein bottles: decision procedure and witnesses.

The Klein bottle K has deck group generated by a(x, y) = (x, y + y0) and
b(x, y) = (x + x0, -y).  Both coordinate projections fiber K by circles;
divisors on those circles are handled by the circle Abel-Jacobi map, and
principal divisors are realized as explicit horizontal curves in K x R
(a graph of a piecewise linear function plus vertical balancing rays).
Degree and the class of the invariant covector dx modulo x0 decide
rational equivalence completely; the witness constructors realize the two
relation families behind that decision.
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import ceil, gcd, lcm
from typing import Sequence

from .curve import INF, abstract_curve
from .embedded import (
    ParametrizedTropicalCurve,
    ZeroCycle,
    boundary_zero_cycle,
    parametrized_curve,
    zero_cycle,
)
from .errors import (
    InvalidCurve,
    NonPositiveParameter,
    NonZeroDegree,
    NotPrincipal,
    OnSection,
    SpecialFiber,
    UnsupportedManifoldKind,
)
from .linalg import as_fraction, as_int, mat_vec, vector
from .manifold import (
    KIND_KLEIN,
    AffineQuotientManifold,
    DeckElement,
    extend_deck,
    key_point,
    point_reducer,
    product_with_line,
    reduce_point,
)


def _require_klein(K: AffineQuotientManifold) -> tuple[Fraction, Fraction]:
    if K.kind != KIND_KLEIN:
        raise UnsupportedManifoldKind("operation needs a klein-kind manifold")
    return K.klein_params


def iota(K: AffineQuotientManifold, p: Sequence) -> tuple:
    """The reflection (x, y) -> (x, -y), as a canonical representative."""
    _require_klein(K)
    p = vector(p)
    return reduce_point(K, (p[0], -p[1]))


def section_point(K: AffineQuotientManifold, theta) -> tuple:
    """The point s(theta) = (theta, 0) of the section of the first projection."""
    _require_klein(K)
    return reduce_point(K, (theta, 0))


@dataclass(frozen=True)
class FiberCircle:
    """A fiber of one of the coordinate projections, as an embedded circle.

    Travelling ``circumference`` from the ``anchor`` lift along the
    primitive ``direction`` first returns to the anchor, through the
    ``closing`` deck element (not decided on a ``general`` manifold);
    ``special`` marks the short axis-2 fibers at y = 0 and y = y0/2, which
    the reflection fixes.
    """

    manifold: AffineQuotientManifold
    circumference: Fraction
    anchor: tuple
    direction: tuple[int, ...]
    closing: DeckElement
    special: bool = False

    def __post_init__(self):
        object.__setattr__(self, "circumference", _circumference(self.circumference))
        object.__setattr__(self, "anchor", vector(self.anchor))
        object.__setattr__(self, "direction", tuple(as_int(c) for c in self.direction))
        if gcd(*self.direction) != 1:
            raise ValueError("direction must be a nonzero primitive integer vector")
        end = vector(a + self.circumference * u for a, u in zip(self.anchor, self.direction))
        if self.closing.apply(end) != self.anchor:
            raise ValueError("closing deck element does not return the circle to its anchor")
        if mat_vec(self.closing.linear, self.direction) != self.direction:
            raise ValueError("closing deck element does not preserve the travel direction")
        with suppress(UnsupportedManifoldKind):  # no reduction: first return is not decided
            if any(t != 0 for t in _parameters(self, self.anchor)):
                raise ValueError("circle returns to its anchor before its circumference")

    def point_at(self, t) -> tuple:
        """Canonical representative of the circle point at parameter t."""
        return reduce_point(self.manifold, self._lift(t))

    def _lift(self, t) -> list:
        """The point at parameter t, taken modulo the circumference, on the
        lift of the circle through its anchor."""
        t = as_fraction(t) % self.circumference
        return [a + t * u for a, u in zip(self.anchor, self.direction)]


def circle_embedding(
    manifold: AffineQuotientManifold,
    anchor: Sequence,
    direction: Sequence[int],
    circumference,
    closing: DeckElement,
) -> FiberCircle:
    """Embedding data for an arbitrary affinely embedded circle."""
    return FiberCircle(manifold, circumference, anchor, direction, closing)


def fiber_circle(K: AffineQuotientManifold, axis: int, value) -> FiberCircle:
    """The fiber of the axis-th coordinate projection through the given value.

    Axis 1 fibers have circumference y0.  Axis 2 fibers have circumference
    2*x0 generically and x0 over y = 0 and y = y0/2, where the deck element
    b identifies antipodes of the long circle.
    """
    x0, y0 = _require_klein(K)
    # The canonical representatives of (value, 0) and (0, value) are
    # (value mod x0, 0) and (0, value mod y0).
    if axis == 1:
        theta = as_fraction(value) % x0
        closing = K.deck_from_word("a^-1")
        return FiberCircle(K, y0, (theta, 0), (0, 1), closing)
    if axis == 2:
        y = as_fraction(value) % y0
        if y == 0 or y == y0 / 2:
            word = "b^-1" if y == 0 else "b^-1 a^-1"
            return FiberCircle(K, x0, (0, y), (1, 0), K.deck_from_word(word), special=True)
        return FiberCircle(K, 2 * x0, (0, y), (1, 0), K.deck_from_word("b^-2"))
    raise ValueError("axis must be 1 or 2")


def _circumference(c) -> Fraction:
    c = as_fraction(c)
    if c <= 0:
        raise NonPositiveParameter("circumference must be positive")
    return c


def _rational_gcd(a, b) -> Fraction:
    """The nonnegative generator of the group a Z + b Z."""
    return Fraction(gcd(a.numerator * b.denominator, b.numerator * a.denominator),
                    a.denominator * b.denominator)


def fiber_position(circle: FiberCircle, p: Sequence) -> Fraction:
    """The parameter t in [0, circumference) with circle.point_at(t) = p."""
    for t in _parameters(circle, p):
        return t  # the only one: a circle closes at its first return
    raise ValueError("point does not lie on the circle")


def _parameters(circle: FiberCircle, p: Sequence):
    """Every parameter t in [0, circumference) with circle.point_at(t) = p.

    The deck generators of every kind that has canonical representatives
    move a travel coordinate x_i to +-x_i plus a multiple of their i-th
    translations, so the lifts of p meet the circle's line where x_i lies
    in +-p_i + P Z, P the gcd of those translations.  One turn, from the
    anchor to where the closing deck element takes the circle back, moves
    x_i by circumference * |u_i|, which bounds the candidates; each is
    tested exactly.
    """
    M = circle.manifold
    key = point_reducer(M)  # built once for every candidate
    target = key(p)
    x = key_point(target)
    c = circle.circumference
    i, d = next((i, d) for i, d in enumerate(circle.direction) if d != 0)
    period = Fraction(0)
    for g in M.generators:
        period = _rational_gcd(period, g.translation[i])
    step = period / abs(d) if period else c
    signs = (1, -1) if any(g.linear[i][i] == -1 for g in M.generators) else (1,)
    for sign in signs:
        t0 = Fraction(sign * x[i] - circle.anchor[i], d)
        for k in range(ceil(c / step)):
            t = (t0 + k * step) % c
            if key(circle._lift(t)) == target:
                yield t


# ---------------------------------------------------------------------------
# Divisors on a circle


def _normalize_divisor(c, divisor: Sequence[tuple]) -> tuple[Fraction, list]:
    """The circumference c as a positive Fraction, and the sorted (point mod
    c, multiplicity) pairs of a degree-zero divisor, merged, without zeros."""
    c = _circumference(c)
    acc: dict[Fraction, int] = {}
    for t, m in divisor:
        key = as_fraction(t) % c
        acc[key] = acc.get(key, 0) + as_int(m)
    if sum(acc.values()) != 0:
        raise NonZeroDegree("divisor must have degree zero")
    return c, sorted((t, m) for t, m in acc.items() if m != 0)


def circle_jacobian_class(c, divisor: Sequence[tuple]) -> Fraction:
    """Sum of m_i * t_i modulo the circumference, for degree-zero divisors."""
    c, items = _normalize_divisor(c, divisor)
    return sum(m * t for t, m in items) % c


@dataclass(frozen=True)
class PiecewiseLinearFunction:
    """Continuous piecewise linear function on a circle with integer slopes.

    ``slopes[i]`` rules the arc from ``breakpoints[i]`` to the next
    breakpoint, the last arc running past the circumference to the first;
    ``values[i]`` is the value at breakpoint i and the first value is
    normalized to zero.  The slope change at each breakpoint is a nonzero
    integer and all changes sum to zero.  The zero function has no
    breakpoints: it is one arc around the whole circle.
    """

    circumference: Fraction
    breakpoints: tuple
    values: tuple
    slopes: tuple[int, ...]
    # One (start, length to the next breakpoint, slope, value at the start) per arc.
    _arcs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = _circumference(self.circumference)
        object.__setattr__(self, "circumference", c)
        bps = tuple(as_fraction(t) for t in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vector(self.values))
        object.__setattr__(self, "slopes", tuple(as_int(s) for s in self.slopes))
        if list(bps) != sorted(set(bps)) or any(t < 0 or t >= c for t in bps):
            raise ValueError("breakpoints must be strictly sorted inside [0, c)")
        if len(self.values) != len(bps) or len(self.slopes) != len(bps):
            raise ValueError("need one value and one outgoing slope per breakpoint")
        starts = bps or (Fraction(0),)
        ends = starts[1:] + (starts[0] + c,)
        arcs = tuple((a, b - a, s, v) for a, b, s, v in
                     zip(starts, ends, self.slopes or (0,), self.values or (0,)))
        object.__setattr__(self, "_arcs", arcs)
        for (_, length, slope, value), after in zip(arcs, arcs[1:]):
            if value + slope * length != after[3]:
                raise ValueError("values do not follow the slopes")
        if sum(slope * length for _, length, slope, _ in arcs) != 0:
            raise ValueError("function does not close up around the circle")
        for t, m in zip(bps, self.slope_changes()):
            if m == 0:
                raise ValueError(f"zero slope change at breakpoint {t}")

    def slope_changes(self) -> tuple[int, ...]:
        k = len(self.breakpoints)
        return tuple(self.slopes[i] - self.slopes[i - 1] for i in range(k))

    def divisor(self) -> list[tuple[Fraction, int]]:
        return list(zip(self.breakpoints, self.slope_changes()))

    def evaluate(self, t) -> Fraction:
        c = self.circumference
        t = as_fraction(t) % c
        i = bisect_right(self.breakpoints, t) - 1  # -1: the arc wrapping past c
        start, _, slope, value = self._arcs[i]
        return value + slope * ((t - start) % c)


def principal_function(c, divisor: Sequence[tuple]) -> PiecewiseLinearFunction:
    """The function whose slope-change divisor is the given one.

    Exists iff the divisor has degree zero and vanishing Jacobian class;
    unique up to a constant, normalized to vanish at the first breakpoint.
    """
    c, items = _normalize_divisor(c, divisor)
    if not items:
        return PiecewiseLinearFunction(c, (), (), ())
    sigma, klass = divmod(sum(m * t for t, m in items), c)  # slope offset, class
    if klass != 0:
        raise NotPrincipal(f"jacobian class {klass} is nonzero modulo {c}")
    bps = [t for t, _ in items]
    slopes = [sigma + run for run in accumulate(m for _, m in items)]
    rises = (s * (b - a) for a, b, s in zip(bps, bps[1:], slopes))
    values = accumulate(rises, initial=Fraction(0))
    return PiecewiseLinearFunction(c, tuple(bps), tuple(values), tuple(slopes))


# ---------------------------------------------------------------------------
# Modifications: the graph of a function plus vertical rays


def modification_curve(
    circle: FiberCircle, f: PiecewiseLinearFunction
) -> ParametrizedTropicalCurve:
    """The tropical curve in B x R over an embedded circle determined by f.

    Each arc of f gives a vertex over its start, at height f there, and a
    finite edge along the graph of f to the next vertex; the last arc
    carries the circle's closing deck element.  Each breakpoint with slope
    change m carries a vertical ray of weight |m| toward -infinity when
    m > 0 and +infinity when m < 0.  The zero function is one arc around
    the circle: one vertex, the self-loop ``"loop"`` and no ray.
    ``boundary_zero_cycle`` validates the result and its boundary cycle is
    checked against the pushed-forward divisor.
    """
    if f.circumference != circle.circumference:
        raise ValueError("function and circle have different circumferences")
    B = circle.manifold
    changes = f.slope_changes() or (0,)  # the zero function's one arc: no breakpoint, no ray
    positions, finite, rays, edges = {}, [], [], {}
    for i, ((t, length, slope, value), m) in enumerate(zip(f._arcs, changes)):
        v = f"v{i}"
        eid = f"arc{i}" if f.breakpoints else "loop"
        last = i == len(f._arcs) - 1
        positions[v] = tuple(a + t * u for a, u in zip(circle.anchor, circle.direction)) + (value,)
        finite.append((eid, v, f"v{0 if last else i + 1}", length))
        edges[eid] = {"direction": circle.direction + (slope,), "image_length": length,
                      "deck": extend_deck(circle.closing) if last else None}
        if m:
            rays.append((f"ray{i}", v, None, INF))
            edges[f"ray{i}"] = {"direction": (0,) * B.dim + (-1 if m > 0 else 1,),
                                "weight": abs(m), "image_length": INF}
    h = parametrized_curve(
        product_with_line(B), abstract_curve(list(positions), finite + rays), positions, edges
    )
    expected = zero_cycle(B, [(circle._lift(t), -m) for t, m in f.divisor()])
    if boundary_zero_cycle(h) != expected:
        raise InvalidCurve("modification boundary does not match the divisor")
    return h


# ---------------------------------------------------------------------------
# The Albanese class and the equivalence decision


def albanese_class(K: AffineQuotientManifold, z: ZeroCycle) -> tuple[int, Fraction]:
    """Degree and the integral of dx against z, modulo the period x0.

    The sum of m x runs in integers over L, the lcm of x0's and the point
    keys' denominators, and one Fraction is built at the end."""
    x0, _ = _require_klein(K)
    L = lcm(x0.denominator, *(key[-1] for key in z.keys))
    total = sum(m * key[0] * (L // key[-1]) for key, m in z.keys.items())
    return z.degree, Fraction(total % (x0.numerator * (L // x0.denominator)), L)


def chow_comparison(
    K: AffineQuotientManifold, z1: ZeroCycle, z2: ZeroCycle
) -> tuple[bool, tuple[int, Fraction], tuple[int, Fraction]]:
    """The complete decision with the (degree, Albanese class) of each
    cycle it compares, each summed once."""
    a1, a2 = albanese_class(K, z1), albanese_class(K, z2)
    return a1 == a2, a1, a2


def chow_equivalent(K: AffineQuotientManifold, z1: ZeroCycle, z2: ZeroCycle) -> bool:
    """Complete decision: equal degree and equal Albanese class."""
    return chow_comparison(K, z1, z2)[0]


# ---------------------------------------------------------------------------
# Witness curves for the two relation families


def witness_two_torsion(
    K: AffineQuotientManifold, p: Sequence
) -> ParametrizedTropicalCurve:
    """A horizontal curve in K x R with boundary 2[iota(p)] - 2[p].

    Built on the axis-2 fiber through p, where p and iota(p) sit at
    antipodal positions of a circle of circumference 2*x0.  Refused on the
    special fibers, where iota fixes p and the relation degenerates.
    """
    x0, y0 = _require_klein(K)
    p = reduce_point(K, p)  # zero_cycle reduces every other point itself
    circle = fiber_circle(K, 2, p[1])
    if circle.special:
        raise SpecialFiber("two-torsion witness needs a generic axis-2 fiber")
    t_p = p[0]  # the circle runs from (0, p[1]) along the first axis
    divisor = [(t_p, 2), (t_p + x0, -2)]
    f = principal_function(circle.circumference, divisor)
    h = modification_curve(circle, f)
    expected = zero_cycle(K, [((p[0], -p[1]), 2), (p, -2)])
    if boundary_zero_cycle(h) != expected:
        raise InvalidCurve("two-torsion witness has the wrong boundary")
    return h


def witness_fiber_relation(
    K: AffineQuotientManifold, p: Sequence
) -> ParametrizedTropicalCurve:
    """A horizontal curve in K x R with boundary 2[s(theta)] - [p] - [iota(p)].

    Built on the axis-1 fiber through p (circumference y0) from the
    divisor +1 at p, +1 at iota(p), -2 at the section point; its Jacobian
    class vanishes identically because iota negates the fiber coordinate.
    """
    x0, y0 = _require_klein(K)
    p = reduce_point(K, p)  # zero_cycle reduces every other point itself
    if p[1] == 0:
        raise OnSection("point lies on the image of the section")
    theta = p[0]
    circle = fiber_circle(K, 1, theta)
    divisor = [(p[1], 1), (-p[1], 1), (0, -2)]
    f = principal_function(circle.circumference, divisor)
    h = modification_curve(circle, f)
    expected = zero_cycle(K, [((theta, 0), 2), (p, -1), ((p[0], -p[1]), -1)])
    if boundary_zero_cycle(h) != expected:
        raise InvalidCurve("fiber-relation witness has the wrong boundary")
    return h
