"""Shared fixtures: canonical curves, manifolds, and random generators."""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

import troplin as t
from troplin.manifold import translation_deck


@pytest.fixture
def euclid2():
    return t.make_euclidean(2)


@pytest.fixture
def torus4():
    return t.make_torus([(4, 0), (0, 4)])


@pytest.fixture
def klein23():
    return t.make_klein(2, 3)


def build_fig1a():
    """The five-edge plane curve with vertices (-1,0) and (0,1)."""
    ambient = t.make_euclidean(2)
    abstract = t.abstract_curve(
        ["p", "q"],
        [
            ("w", "p", None, t.INF),
            ("s", "p", None, t.INF),
            ("pq", "p", "q", 1),
            ("d", "q", None, t.INF),
            ("ne", "q", None, t.INF),
        ],
    )
    return t.parametrized_curve(
        ambient,
        abstract,
        {"p": (-1, 0), "q": (0, 1)},
        {
            "w": dict(direction=(-1, 0), weight=1, image_length=t.INF),
            "s": dict(direction=(0, -1), weight=1, image_length=t.INF),
            "pq": dict(direction=(1, 1), weight=1, image_length=1),
            "d": dict(direction=(0, -1), weight=2, image_length=t.INF),
            "ne": dict(direction=(1, 3), weight=1, image_length=t.INF),
        },
    )


def build_line_r2():
    """A straight line through the origin: one vertex, two opposite rays."""
    return t.parametrized_curve(
        t.make_euclidean(2),
        t.abstract_curve("v", [("e1", "v", None, t.INF), ("e2", "v", None, t.INF)]),
        {"v": (0, 0)},
        {
            "e1": dict(direction=(1, 0), weight=1, image_length=t.INF),
            "e2": dict(direction=(-1, 0), weight=1, image_length=t.INF),
        },
    )


def build_t2_cycle():
    """The horizontal circle y = 0 in the square 4-torus, one self-loop."""
    T = t.make_torus([(4, 0), (0, 4)])
    return t.parametrized_curve(
        T,
        t.abstract_curve("v", [("loop", "v", "v", 4)]),
        {"v": (0, 0)},
        {
            "loop": dict(
                direction=(1, 0), weight=1, image_length=4, deck=translation_deck((-4, 0))
            )
        },
    )


def build_t2_witness():
    """The circle modification in T^2 x R with a weight-2 ray at each end."""
    T = t.make_torus([(4, 0), (0, 4)])
    circle = t.circle_embedding(T, (0, 0), (1, 0), 4, translation_deck((-4, 0)))
    return t.modification_curve(circle, t.principal_function(4, [(0, 2), (2, -2)]))


def build_t3_witness():
    """A circle modification in T^3 x R along the direction (1, 1, 0)."""
    T = t.make_torus([(4, 0, 0), (0, 4, 0), (0, 0, 4)])
    circle = t.circle_embedding(T, (0, 0, 1), (1, 1, 0), 4, translation_deck((-4, -4, 0)))
    return t.modification_curve(circle, t.principal_function(4, [(0, 2), (1, -1), (3, -1)]))


def build_tripod():
    return t.parametrized_curve(
        t.make_euclidean(2),
        t.abstract_curve(
            "v",
            [("e1", "v", None, t.INF), ("e2", "v", None, t.INF), ("e3", "v", None, t.INF)],
        ),
        {"v": (0, 0)},
        {
            "e1": dict(direction=(1, 0), weight=1, image_length=t.INF),
            "e2": dict(direction=(0, 1), weight=1, image_length=t.INF),
            "e3": dict(direction=(-1, -1), weight=1, image_length=t.INF),
        },
    )


@pytest.fixture
def fig1a():
    return build_fig1a()


@pytest.fixture
def line_r2():
    return build_line_r2()


@pytest.fixture
def t2_cycle():
    return build_t2_cycle()


@pytest.fixture
def t2_witness():
    return build_t2_witness()


@pytest.fixture
def t3_witness():
    return build_t3_witness()


@pytest.fixture
def tripod():
    return build_tripod()


# ---------------------------------------------------------------------------
# Seeded random generators (delta-debuggable mass fuzzing)


def random_abstract_curve(rng: random.Random, max_edges: int = 12) -> "t.AbstractTropicalCurve":
    """A random valid metric graph with at most max_edges edges.

    Vertices of valence < 2 are repaired by attaching extra rays, so every
    output passes validation.
    """
    nv = rng.randint(1, 5)
    vertices = [f"v{i}" for i in range(nv)]
    edges = []
    n_finite = rng.randint(0, max(0, max_edges - nv))
    for i in range(n_finite):
        a, b = rng.choice(vertices), rng.choice(vertices)
        length = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        edges.append((f"f{i}", a, b, length))
    n_rays = rng.randint(0, max(0, max_edges - len(edges) - nv))
    for i in range(n_rays):
        edges.append((f"r{i}", rng.choice(vertices), None, t.INF))
    # Repair low-valence vertices with extra rays.
    def valence(v):
        c = 0
        for _, a, b, _ in edges:
            c += a == v
            c += b == v
        return c

    extra = 0
    for v in vertices:
        while valence(v) < 2:
            edges.append((f"x{extra}", v, None, t.INF))
            extra += 1
    return t.abstract_curve(vertices, edges)


PRIMITIVE_DIRECTIONS = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (1, -2)]


def random_t2_horizontal_curve(rng: random.Random, max_vertices: int = 8):
    """A random horizontal curve in T^2 x R built as a circle modification.

    The circle is a closed geodesic of the square 4-torus; the divisor is
    a random principal degree-zero divisor on it (class repaired exactly).
    """
    T = t.make_torus([(4, 0), (0, 4)])
    u = rng.choice(PRIMITIVE_DIRECTIONS)
    c = Fraction(4)  # u primitive: minimal return time in the 4Z x 4Z lattice
    anchor = (Fraction(rng.randint(0, 7), 2), Fraction(rng.randint(0, 7), 2))
    closing = translation_deck((-c * u[0], -c * u[1]))
    circle = t.circle_embedding(T, anchor, u, c, closing)
    npoints = rng.randint(0, max(0, max_vertices - 2))
    divisor = []
    for _ in range(npoints):
        pos = Fraction(rng.randint(0, 15), 4)
        mult = rng.choice([-2, -1, 1, 2])
        divisor.append((pos, mult))
    degree = sum(m for _, m in divisor)
    if degree != 0:
        divisor.append((Fraction(rng.randint(0, 15), 4), -degree))
    klass = t.circle_jacobian_class(c, divisor)
    if klass != 0:
        spot = Fraction(rng.randint(0, 3))
        divisor.append((spot, 1))
        divisor.append((spot + klass, -1))
    f = t.principal_function(c, divisor)
    return t.modification_curve(circle, f)


def t2_modification(rng: random.Random, breakpoints: int, direction):
    """A circle modification in T^2 x R with ``breakpoints`` ends of weight 1,
    over a circle of circumference 4 through the origin."""
    T = t.make_torus([(4, 0), (0, 4)])
    c = 4
    circle = t.circle_embedding(T, (0, 0), direction, c,
                                translation_deck((-c * direction[0], -c * direction[1])))
    return circle_modification(rng, circle, breakpoints)


def circle_modification(rng: random.Random, circle, breakpoints: int):
    """The modification over ``circle`` with ``breakpoints`` ends of weight 1.

    The circle has 64 slots per unit length; the divisor takes
    multiplicities +1, +1, -1, -1, ... on seeded slots in circle order, the
    last slot chosen to make its class vanish.
    """
    c = circle.circumference
    mults = [1 if i % 4 < 2 else -1 for i in range(breakpoints)]
    while True:
        spots = sorted(Fraction(s, 64) for s in rng.sample(range(int(64 * c)), breakpoints - 1))
        last = (-sum(m * s for m, s in zip(mults, spots)) / mults[-1]) % c
        if last > spots[-1]:
            divisor = list(zip(spots + [last], mults))
            return t.modification_curve(circle, t.principal_function(c, divisor))


# ---------------------------------------------------------------------------
# 0-cycles on every manifold kind with canonical points

_BASES = [
    t.make_klein(2, 3),
    t.make_klein(Fraction(3, 2), Fraction(5, 3)),
    t.make_torus([(1, 0), (0, 1)]),
    t.make_torus([(2, 1), (-1, Fraction(3, 2))]),
    t.make_torus([(-1, Fraction(3, 2)), (2, 1)]),  # the same lattice, negatively oriented
    t.make_euclidean(2),
]
CYCLE_MANIFOLDS = _BASES + [t.product_with_line(M) for M in _BASES]
PRIMES = [p for p in range(2, 2000) if all(p % q for q in range(2, int(p**0.5) + 1))]
PERIODS = [1, 2, 3, Fraction(3, 2), Fraction(5, 3)]


def _exact_form(value: Fraction, form: str):
    if form == "string":
        return str(value)
    return int(value) if form == "int" and value.denominator == 1 else value


# An int, Fraction or "p/q" string: small grids, negative values, many
# distinct prime denominators, and multiples of half a period.  Strategies
# are built once here: building them inside a draw costs more than the draw.
EXACT_COORDINATE = st.builds(
    _exact_form,
    st.one_of(
        st.integers(-40, 40).map(Fraction),
        st.builds(Fraction, st.integers(-400, 400), st.integers(1, 12)),
        st.builds(Fraction, st.integers(-10**6, 10**6), st.sampled_from(PRIMES)),
        st.builds(lambda k, c: Fraction(k, 2) * c, st.integers(-9, 9), st.sampled_from(PERIODS)),
    ),
    st.sampled_from(["fraction", "string", "int"]),
)


def _cancel_some(drawn):
    """Drawn (point, multiplicity) pairs, then the pairs at the drawn indices
    again with opposite multiplicity."""
    items, indices = drawn
    return items + [(items[i % len(items)][0], -items[i % len(items)][1])
                    for i in indices if items]


def _cycle_items(dim: int):
    """(point, multiplicity) pairs in dimension ``dim``, some of them
    cancelled by a later pair.  The cancellations are indices into the drawn
    pairs, not draws from them, so the shape of an example never depends on
    earlier values and a failing one shrinks coordinate by coordinate."""
    item = st.tuples(st.tuples(*[EXACT_COORDINATE] * dim), st.integers(-3, 3))
    return st.tuples(st.lists(item, max_size=12),
                     st.lists(st.integers(0, 11), max_size=4)).map(_cancel_some)


# Phases for the cycle properties.  Hypothesis's explain phase replays a
# failing cycle example hundreds of times under coverage tracing, which took
# most of the time to fail (19 of 24 s on a broken Klein parity); finding
# and shrinking the failure do not need it.
CYCLE_PHASES = tuple(p for p in Phase if p is not Phase.explain)


def manifold_with_cycles(manifolds, count=1):
    """A manifold drawn from ``manifolds`` and ``count`` item lists on it:
    one branch per manifold rather than a ``flatmap``, which shrinks poorly."""
    return st.one_of(*[st.tuples(st.just(M), *[_cycle_items(M.dim)] * count)
                       for M in manifolds])
