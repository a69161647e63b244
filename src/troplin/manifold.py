"""Tropical affine manifolds presented as quotients of R^n.

A manifold is R^n together with a group of integral affine deck
transformations x -> A x + t, A in GL(n, Z).  Supported presentations are
tagged: ``euclidean`` (trivial group), ``torus`` (pure translations),
``klein`` (the two-generator Klein bottle group with a(x, y) = (x, y + y0)
and b(x, y) = (x + x0, -y)), ``product_with_line`` (an existing quotient
times an untouched R coordinate) and ``general`` (trusted input).
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd, lcm, prod
from operator import mul
from typing import Callable, Sequence

from . import linalg
from .errors import (
    DegenerateLattice,
    DimensionMismatch,
    FormNotInvariant,
    NonPositiveParameter,
    UnsupportedManifoldKind,
)
from .linalg import _exact, as_fraction, as_int, as_ratio, matrix, vector

KIND_EUCLIDEAN = "euclidean"
KIND_TORUS = "torus"
KIND_KLEIN = "klein"
KIND_PRODUCT = "product_with_line"
KIND_GENERAL = "general"


@dataclass(frozen=True)
class DeckElement:
    """An integral affine transformation x -> A x + t with A unimodular."""

    linear: tuple[tuple[int, ...], ...]
    translation: tuple

    def __post_init__(self):
        A = matrix(self.linear)
        n = len(self.translation)
        if A.shape != (n, n):
            raise ValueError("linear part and translation have mismatched sizes")
        if not linalg.is_unimodular(A):
            raise ValueError("linear part must be an integer matrix with |det| = 1")
        object.__setattr__(self, "linear", tuple(tuple(as_int(e) for e in row) for row in self.linear))
        object.__setattr__(self, "translation", vector(self.translation))

    @classmethod
    def _derived(cls, linear: tuple[tuple[int, ...], ...], translation: tuple) -> "DeckElement":
        """A deck made from checked decks, unimodular by construction: linear
        is already a tuple of int tuples and translation an exact vector, so
        ``__post_init__``'s check and copies are skipped."""
        g = object.__new__(cls)
        object.__setattr__(g, "linear", linear)
        object.__setattr__(g, "translation", translation)
        return g

    @property
    def dim(self) -> int:
        return len(self.translation)

    def apply(self, x: Sequence) -> tuple:
        """The image A x + t."""
        x = vector(x)
        if len(x) != self.dim:
            raise DimensionMismatch("point and deck element have different dimensions")
        return tuple(
            _exact(sum(map(mul, row, x)) + t) for row, t in zip(self.linear, self.translation)
        )

    def compose(self, other: "DeckElement") -> "DeckElement":
        """self after other: x -> self(other(x))."""
        A, B = self.linear, other.linear
        n = self.dim
        AB = tuple(
            tuple(sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)) for i in range(n)
        )
        return DeckElement._derived(AB, self.apply(other.translation))

    def inverse(self) -> "DeckElement":
        """x -> A^-1 (x - t)."""
        Ainv = tuple(map(tuple, linalg.inverse(self.linear)))
        return DeckElement._derived(Ainv, vector(-x for x in linalg.mat_vec(Ainv, self.translation)))

    def is_identity(self) -> bool:
        return self.linear == _identity(self.dim) and not any(self.translation)

    def power(self, k: int) -> "DeckElement":
        """self composed with itself k times, by repeated squaring."""
        result = identity_deck(self.dim)
        g = self if k >= 0 else self.inverse()
        k = abs(k)
        while k:
            if k & 1:
                result = result.compose(g)
            k >>= 1
            if k:
                g = g.compose(g)
        return result


def _identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def identity_deck(n: int) -> DeckElement:
    return DeckElement._derived(_identity(n), (0,) * n)


def translation_deck(t: Sequence) -> DeckElement:
    return DeckElement(_identity(len(t)), t)


@dataclass(frozen=True)
class AffineQuotientManifold:
    dim: int
    generators: tuple[DeckElement, ...]
    names: tuple[str, ...]
    kind: str
    klein_params: tuple | None = None
    base: "AffineQuotientManifold | None" = None

    def __post_init__(self):
        if self.dim < 0:
            raise NonPositiveParameter("dimension must be nonnegative")
        if len(self.generators) != len(self.names):
            raise ValueError("one name per generator")
        for g in self.generators:
            if g.dim != self.dim:
                raise ValueError("generator dimension mismatch")
        if self.kind == KIND_EUCLIDEAN and self.generators:
            raise ValueError("euclidean manifolds have no deck generators")
        if self.kind == KIND_TORUS:
            if any(g.linear != _identity(self.dim) for g in self.generators):
                raise ValueError("torus generators must be pure translations")
            if len(self.generators) != self.dim or linalg.rank(
                matrix([g.translation for g in self.generators])
            ) != self.dim:
                raise DegenerateLattice("torus translations must be a lattice basis")
        if self.kind == KIND_KLEIN:
            if self.klein_params is None or len(self.generators) != 2:
                raise ValueError("klein manifolds carry (x0, y0) and two generators")
            x0, y0 = self.klein_params
            if x0 <= 0 or y0 <= 0:
                raise NonPositiveParameter("klein parameters must be positive")
            a, b = self.generators
            if (
                a.linear != ((1, 0), (0, 1))
                or a.translation != (0, y0)
                or b.linear != ((1, 0), (0, -1))
                or b.translation != (x0, 0)
            ):
                raise ValueError(
                    "klein generators must be a: y -> y + y0, b: (x, y) -> (x + x0, -y)"
                )
        if self.kind == KIND_PRODUCT:
            if self.base is None or self.base.dim + 1 != self.dim:
                raise ValueError("product manifolds carry their base, one dimension down")
            own = [(g.linear, g.translation) for g in self.generators]
            if own != [(_extended(g.linear), g.translation + (0,)) for g in self.base.generators]:
                raise ValueError("product generators must be the base generators, extended")

    def generator(self, name: str) -> DeckElement:
        try:
            return self.generators[self.names.index(name)]
        except ValueError:
            raise KeyError(f"no generator named {name!r}") from None

    def deck_from_word(self, word: str) -> DeckElement:
        """Resolve a word like ``"a^-1 b"`` to a deck element.

        The word acts by composition left to right: ``"a b"`` maps x to
        a(b(x)).  Exponents use ``^``, e.g. ``b^-2``.
        """
        result = identity_deck(self.dim)
        for token in word.split():
            if "^" in token:
                name, exp = token.split("^", 1)
                k = int(exp)
            else:
                name, k = token, 1
            result = result.compose(self.generator(name).power(k))
        return result


def make_euclidean(n: int) -> AffineQuotientManifold:
    """R^n with the trivial deck group."""
    return AffineQuotientManifold(n, (), (), KIND_EUCLIDEAN)


def make_torus(lattice: Sequence[Sequence]) -> AffineQuotientManifold:
    """R^n modulo the lattice spanned by the given independent vectors."""
    vecs = [vector(v) for v in lattice]
    if not vecs:
        raise DegenerateLattice("empty lattice")
    n = len(vecs[0])
    if any(len(v) != n for v in vecs):
        raise DegenerateLattice("lattice vectors have different lengths")
    gens = tuple(translation_deck(v) for v in vecs)
    names = tuple(f"t{i + 1}" for i in range(len(vecs)))
    return AffineQuotientManifold(n, gens, names, KIND_TORUS)


def make_klein(x0, y0) -> AffineQuotientManifold:
    """The tropical Klein bottle with deck group generated by
    a(x, y) = (x, y + y0) and b(x, y) = (x + x0, -y)."""
    x0, y0 = as_fraction(x0), as_fraction(y0)
    a = DeckElement(((1, 0), (0, 1)), (0, y0))
    b = DeckElement(((1, 0), (0, -1)), (x0, 0))
    return AffineQuotientManifold(2, (a, b), ("a", "b"), KIND_KLEIN, klein_params=(x0, y0))


def _extended(A: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """The linear part A acting trivially on one extra coordinate."""
    return tuple(row + (0,) for row in A) + ((0,) * len(A) + (1,),)


def extend_deck(g: DeckElement) -> DeckElement:
    """The same transformation acting trivially on one extra coordinate."""
    return DeckElement._derived(_extended(g.linear), g.translation + (0,))


def product_with_line(M: AffineQuotientManifold) -> AffineQuotientManifold:
    """M x R: one extra coordinate on which the deck group acts trivially."""
    gens = tuple(extend_deck(g) for g in M.generators)
    return AffineQuotientManifold(M.dim + 1, gens, M.names, KIND_PRODUCT, base=M)


# ---------------------------------------------------------------------------
# Integral p-covectors and holonomy-invariant forms


def p_subsets(n: int, p: int) -> list[tuple[int, ...]]:
    """Size-p subsets of range(n) in lexicographic order."""
    return list(combinations(range(n), p))


def _minors(columns: Sequence[Sequence[int]], p: int) -> dict:
    """The non-zero p x p minors of the matrix with the given columns, keyed
    by (row subset, column subset).

    Built level by level for q = 1..p: Laplace expansion along the last
    column writes the minor on rows T and columns S as the sum, over the
    rows a of T, of entry (a, S[-1]) times the minor on T - {a} and S[:-1],
    times -1 per row of T after a.  So each non-zero minor is
    extended by the non-zero entries of every later column, and only the
    non-zero minors of the previous level are kept.
    """
    support = [[(a, x) for a, x in enumerate(column) if x] for column in columns]
    level = {((), ()): 1}
    for _ in range(p):
        nxt = {}
        for (T, S), m in level.items():
            for j in range(S[-1] + 1 if S else 0, len(columns)):
                for a, x in support[j]:
                    if a not in T:
                        k = bisect(T, a)
                        key = T[:k] + (a,) + T[k:], S + (j,)
                        nxt[key] = nxt.get(key, 0) + (-x if (len(T) - k) % 2 else x) * m
        level = {key: m for key, m in nxt.items() if m}
    return level


def _signed_gram(terms: Sequence[tuple], degree: int, count: int) -> list:
    """The sum of c * form over (c, form, vectors) terms, on every
    degree-subset of the vector indices range(count) in lexicographic order;
    ints where integral.

    A term's ``vectors`` is sparse: a ``{index: vector}`` dict whose vectors
    are exact, of length form.dim, and a vector it leaves out is zero.
    Callers give only the non-zero vectors, since a subset holding a zero
    vector adds nothing; one given all the same changes no value.  A vector
    of another length raises ``ValueError``.

    Vector index j is scaled to integers once, by the lcm s_j of its
    denominators across the terms that hold it, so the value on a subset S
    is an integer over the product of s_j for j in S, divided only when
    emitted.  Degree 2 (the area form of every surface, behind the end
    pairing and the block form) is bilinear: each pair u, v of a term's
    vectors adds c * sum of w_ab (u_a v_b - u_b v_a) over the form's
    non-zero coefficients w_ab, a few products where the recursion pays
    its per-minor bookkeeping.  Every other degree runs ``_minors`` on the
    term's vectors, and its top level, contracted with c * form, adds to
    the subsets it reaches.
    """
    scales: dict[int, int] = {}  # s_j, for the indices whose vectors hold a Fraction
    for _, form, vecs in terms:
        for j, v in vecs.items():
            if len(v) != form.dim:
                raise ValueError("vector dimension mismatch")
            for x in v:
                if type(x) is not int:
                    scales[j] = lcm(scales.get(j, 1), x.denominator)
    coefficients = {}  # per form: coefficient by row subset; (a, b, w_ab) if non-zero in degree 2
    total = dict.fromkeys(p_subsets(count, degree), 0)
    for c, form, vecs in terms:
        if form not in coefficients:
            w = dict(zip(p_subsets(form.dim, degree), form.coefficients))
            coefficients[form] = [(a, b, x) for (a, b), x in w.items() if x] if degree == 2 else w
        w = coefficients[form]
        support = sorted(vecs)
        columns = [
            [x.numerator * (scales[j] // x.denominator) for x in vecs[j]] if j in scales else vecs[j]
            for j in support
        ]
        if degree == 2:
            for k, v in enumerate(columns):
                for i in range(k):
                    u = columns[i]
                    m = 0
                    for a, b, x in w:
                        m += x * (u[a] * v[b] - u[b] * v[a])
                    total[support[i], support[k]] += c * m
        else:
            for (T, S), m in _minors(columns, degree).items():
                total[tuple(map(support.__getitem__, S))] += c * w[T] * m
    if not scales:
        return list(total.values())
    values = []
    for S, v in total.items():
        if v:
            q, r = divmod(v, d := prod(scales.get(j, 1) for j in S))
            v = Fraction(v, d) if r else q
        values.append(v)
    return values


@dataclass(frozen=True)
class TropicalForm:
    """An integral p-covector on Z^n, indexed by lex-ordered p-subsets."""

    dim: int
    degree: int
    coefficients: tuple[int, ...]

    def __post_init__(self):
        expected = len(p_subsets(self.dim, self.degree))
        if len(self.coefficients) != expected:
            raise ValueError(
                f"need {expected} coefficients for degree {self.degree} in dim {self.dim}"
            )
        c = self.coefficients
        if type(c) is not tuple or not {*map(type, c)} <= {int}:  # ints pass as they are
            object.__setattr__(self, "coefficients", tuple(as_int(e) for e in c))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    def gram(self, vectors: Sequence[Sequence]) -> list:
        """The value on every degree-subset of the vectors, in lexicographic order."""
        vecs = [vector(v) for v in vectors]
        return _signed_gram([(1, self, dict(enumerate(vecs)))], self.degree, len(vecs))

    def evaluate(self, vectors: Sequence[Sequence]) -> Fraction:
        """The value on degree-many tangent vectors."""
        if len(vectors) != self.degree:
            raise ValueError(f"expected {self.degree} vectors")
        return Fraction(self.gram(vectors)[0])

    def pullback(self, A: Sequence[Sequence[int]]) -> "TropicalForm":
        """The form w(A ., ..., A .) for an integer matrix A."""
        columns = [[row[j] for row in A] for j in range(self.dim)]
        return TropicalForm(self.dim, self.degree, tuple(self.gram(columns)))

    def is_invariant(self, M: AffineQuotientManifold) -> bool:
        identity = _identity(self.dim)  # a translation fixes every form
        return all(self.pullback(g.linear) == self for g in M.generators if g.linear != identity)


def invariant_forms(M: AffineQuotientManifold, p: int) -> list[TropicalForm]:
    """Saturated integer basis of the holonomy-fixed p-covectors."""
    if not 0 <= p <= M.dim:
        raise ValueError("degree out of range")
    subsets = p_subsets(M.dim, p)
    index = {T: i for i, T in enumerate(subsets)}
    rows = []
    # A translation fixes every form, and a repeated linear part adds nothing.
    for A in dict.fromkeys(g.linear for g in M.generators if g.linear != _identity(M.dim)):
        block = [{i: -1} for i in range(len(subsets))]  # row S: the compound's column S, minus e_S
        for (T, S), m in _minors(list(zip(*A)), p).items():
            row = block[index[S]]
            row[index[T]] = row.get(index[T], 0) + m
        rows += block
    basis = linalg.integer_kernel_basis(linalg.Matrix(rows, len(subsets)))
    return [TropicalForm(M.dim, p, tuple(b)) for b in basis]


# ---------------------------------------------------------------------------
# Albanese data


@dataclass(frozen=True)
class AlbaneseData:
    rank: int
    forms: tuple[TropicalForm, ...]
    periods: tuple[tuple, ...]  # one rational vector of length rank per generator


def albanese_data(M: AffineQuotientManifold) -> AlbaneseData:
    """Rank of the invariant 1-forms and the period vector of each generator.

    The period of a generator (A, t) against an invariant 1-form a is the
    value a(t); it is basepoint-free because a(A v) = a(v) for all v.  The
    period lattice is the integer span of the returned vectors; with
    rational data that span is always discrete.
    """
    forms = invariant_forms(M, 1)
    r = len(forms)
    periods = []
    for g in M.generators:
        periods.append(vector(f.evaluate([g.translation]) for f in forms))
    return AlbaneseData(r, tuple(forms), tuple(periods))


# ---------------------------------------------------------------------------
# Canonical representatives


# A point x is read as integers n over a denominator d > 0, x = n / d.  Each
# kind's reducer takes the exact point and reduces it in integer arithmetic
# alone, returning (key, L): the key is the canonical representative's
# (n_1, ..., n_k, d) in lowest terms, so two points lie in one orbit iff
# their keys are equal, and L is the linear part of the deck element taking
# the representative back to x.


def _scaled(x: Sequence) -> tuple[list[int], int]:
    """x as integers over d, the lcm of x's (``as_ratio``) denominators; the
    pair n / d is then in lowest terms."""
    q = [as_ratio(c) for c in x]
    d = lcm(*[e for _, e in q])
    return [n * (d // e) for n, e in q], d


def _torus_reduction(M: AffineQuotientManifold) -> Callable:
    """x -> V (V^-1 x mod 1) for the lattice matrix V = A / a, A integral, with
    the identity linear part; V^-1 = W / q, W integral, comes from one
    elimination here, so each point is reduced in integers alone."""
    a = lcm(*(c.denominator for g in M.generators for c in g.translation))
    A = [[as_int(c * a) for c in row] for row in zip(*(g.translation for g in M.generators))]
    Vinv = [[a * c for c in row] for row in linalg.inverse(A)]
    q = lcm(*(c.denominator for row in Vinv for c in row))
    W = [[c.numerator * (q // c.denominator) for c in row] for row in Vinv]
    identity = _identity(M.dim)

    def torus(x: Sequence) -> tuple[tuple[int, ...], tuple]:
        n, d = _scaled(x)
        if len(n) != M.dim:
            raise ValueError("point dimension mismatch")
        qd = q * d
        r = [sum(map(mul, row, n)) % qd for row in W]
        key = [sum(map(mul, row, r)) for row in A]
        key.append(a * qd)
        g = gcd(*key)
        return tuple([c // g for c in key]), identity

    return torus


def _integer_reduction(M: AffineQuotientManifold) -> Callable[[Sequence], tuple]:
    """M's reducer: x -> (key, L), the key (n_1, ..., n_k, d) of the canonical
    representative of the exact point x in lowest terms, and the linear part
    L of the deck element taking that representative to x.  A point of the
    wrong length raises ``ValueError``, an inexact coordinate
    ``IrrationalData`` (``as_ratio``), and a kind without a reduction
    ``UnsupportedManifoldKind``."""
    if M.kind == KIND_EUCLIDEAN:
        identity = _identity(M.dim)

        def euclidean(x: Sequence) -> tuple[tuple[int, ...], tuple]:
            n, d = _scaled(x)
            if len(n) != M.dim:
                raise ValueError("point dimension mismatch")
            return (*n, d), identity

        return euclidean
    if M.kind == KIND_TORUS:
        return _torus_reduction(M)
    if M.kind == KIND_KLEIN:
        x0, y0 = M.klein_params
        D = lcm(x0.denominator, y0.denominator)
        X, Y = (c.numerator * (D // c.denominator) for c in (x0, y0))  # the periods over D
        linear = _identity(2), ((1, 0), (0, -1))  # of b^k a^m, by the parity of k

        def klein(x: Sequence) -> tuple[tuple[int, ...], tuple]:
            if len(x) != 2:
                raise ValueError("point dimension mismatch")
            a, b = x  # read inline: this is the hot path of every Klein 0-cycle
            if type(a) is Fraction:
                n0, e0 = a.numerator, a.denominator
            elif type(a) is int:
                n0, e0 = a, 1
            else:
                n0, e0 = as_ratio(a)
            if type(b) is Fraction:
                n1, e1 = b.numerator, b.denominator
            elif type(b) is int:
                n1, e1 = b, 1
            else:
                n1, e1 = as_ratio(b)
            d = lcm(D, e0, e1)
            s = d // D
            k, u = divmod(n0 * (d // e0), X * s)
            v = n1 * (d // e1)
            v = (-v if k & 1 else v) % (Y * s)  # an odd number of b's flips y
            g = gcd(u, v, d)
            return (u // g, v // g, d // g), linear[k & 1]

        return klein
    if M.kind == KIND_PRODUCT:
        base = _integer_reduction(M.base)
        lift = cache(_extended)  # the base reports a few linear parts, over and over

        def product(x: Sequence) -> tuple[tuple[int, ...], tuple]:
            if len(x) != M.dim:
                raise ValueError("point dimension mismatch")
            (*nb, d), L = base(x[:-1])
            n, e = as_ratio(x[-1])
            m = lcm(d, e)  # both parts are in lowest terms, so over the lcm the key is too
            return (*[c * (m // d) for c in nb], n * (m // e), m), lift(L)

        return product

    def unsupported(x: Sequence):
        raise UnsupportedManifoldKind(f"no canonical representative for kind {M.kind!r}")

    return unsupported


def point_key(x: Sequence) -> tuple[int, ...]:
    """The key (n_1, ..., n_k, d) of an exact point as it stands, unreduced."""
    n, d = _scaled(x)
    return (*n, d)


def key_point(key: Sequence[int]) -> tuple:
    """The exact vector n / d of a key, with ints where integral."""
    d = key[-1]
    return tuple([c // d if c % d == 0 else Fraction(c, d) for c in key[:-1]])


def point_reducer(M: AffineQuotientManifold) -> Callable[[Sequence], tuple[int, ...]]:
    """The function sending a point of M to the key of its canonical
    representative: the key half of M's one reducer (``_integer_reduction``),
    built once here.  Supported for euclidean, torus and klein kinds and
    products of those with a line."""
    reduce = _integer_reduction(M)
    return lambda x: reduce(x)[0]


def reduce_point(M: AffineQuotientManifold, x: Sequence) -> tuple:
    """Canonical fundamental-domain representative of the orbit of x.

    Two points reduce equal iff they lie in the same deck orbit.  Supported
    for euclidean, torus and klein kinds and products of those with a line.
    """
    return key_point(_integer_reduction(M)(x)[0])


def contains_deck(M: AffineQuotientManifold, g: DeckElement) -> bool | None:
    """Whether g belongs to the deck group; None if undecidable (``deck_membership``)."""
    return deck_membership(M)(g)


def deck_membership(M: AffineQuotientManifold) -> Callable[[DeckElement], bool | None]:
    """``contains_deck`` for M as one predicate, with M's reducer built once:
    the action is free, so (A, t) belongs iff the reducer sends t to the key
    (0, ..., 0, 1) with linear part A.  Without a reduction (a general base),
    a product's element must fix the line, and on the base only the identity
    is decided."""
    reduce = _integer_reduction(M)

    def member(g: DeckElement) -> bool | None:
        if g.dim != M.dim:
            return False
        try:
            key, L = reduce(g.translation)
        except UnsupportedManifoldKind:
            if M.kind != KIND_PRODUCT:
                return g.is_identity() or None
            A = tuple(row[:-1] for row in g.linear[:-1])  # the base's part, if g fixes the line
            return (not g.translation[-1] and g.linear == _extended(A)
                    and deck_membership(M.base)(DeckElement(A, g.translation[:-1])))
        return not any(key[:-1]) and g.linear == L

    return member


def require_invariant(M: AffineQuotientManifold, form: TropicalForm) -> None:
    if form.dim != M.dim:
        raise DimensionMismatch("form lives on a space of different dimension")
    if not form.is_invariant(M):
        raise FormNotInvariant("form is not fixed by the deck group")
