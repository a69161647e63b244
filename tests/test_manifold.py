"""Quotient manifolds: construction, invariant forms, Albanese, reduction."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    deck_membership_oracle,
    fixed_form_rank_oracle,
    form_value_oracle,
    gram_oracle,
    klein_orbit_points,
    leibniz_det,
    pullback_oracle,
    solve_oracle,
)

import troplin as t
from troplin.errors import DegenerateLattice, NonPositiveParameter, UnsupportedManifoldKind
from troplin import manifold
from troplin.manifold import (_minors, _signed_gram, contains_deck, identity_deck,
                              translation_deck)


@st.composite
def unimodular_decks(draw):
    """A deck of dimension 1-16: a signed permutation times elementary row
    operations, with a rational translation."""
    n = draw(st.integers(1, 16))
    perm = draw(st.permutations(range(n)))
    A = [[draw(st.sampled_from([-1, 1])) * int(j == perm[i]) for j in range(n)]
         for i in range(n)]
    if n > 1:
        for _ in range(draw(st.integers(0, 4))):
            i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(n) if i != j]))
            k = draw(st.integers(-3, 3))
            A[i] = [x + k * y for x, y in zip(A[i], A[j])]
    translation = draw(st.lists(st.fractions(-5, 5, max_denominator=6), min_size=n, max_size=n))
    return t.DeckElement(tuple(map(tuple, A)), tuple(translation))


class TestConstructors:
    def test_make_klein_generators(self):
        K = t.make_klein(2, 3)
        a, b = K.generators
        assert a.linear == ((1, 0), (0, 1)) and a.translation == (0, 3)
        assert b.linear == ((1, 0), (0, -1)) and b.translation == (2, 0)

    def test_make_klein_unit(self):
        K = t.make_klein(1, 1)
        assert K.generator("a").translation == (0, 1)
        assert K.generator("b").translation == (1, 0)

    def test_make_klein_rejects_nonpositive(self):
        with pytest.raises(NonPositiveParameter):
            t.make_klein(0, 1)

    def test_make_torus(self):
        T = t.make_torus([(4, 0), (0, 4)])
        assert [g.translation for g in T.generators] == [(4, 0), (0, 4)]
        with pytest.raises(DegenerateLattice):
            t.make_torus([(1, 0), (2, 0)])

    def test_make_euclidean(self):
        assert t.make_euclidean(2).generators == ()

    def test_product_with_line(self):
        P = t.product_with_line(t.make_klein(2, 3))
        assert P.dim == 3
        for g in P.generators:
            assert g.linear[2] == (0, 0, 1)
            assert g.linear[0][2] == g.linear[1][2] == 0
            assert g.translation[2] == 0


class TestApplyDeck:
    def test_b_moves_point(self):
        K = t.make_klein(2, 3)
        assert K.generator("b").apply((Fraction(1, 2), 1)) == (Fraction(5, 2), -1)

    def test_identity(self):
        assert identity_deck(2).apply((Fraction(7, 3), -2)) == (Fraction(7, 3), -2)

    def test_point_of_another_dimension(self):
        g = t.make_klein(2, 3).generator("b")
        for x in [(1,), (1, 2, 3)]:
            with pytest.raises(t.DimensionMismatch):
                g.apply(x)

    def test_composition(self):
        K = t.make_klein(2, 3)
        aa = K.generator("a").compose(K.generator("a"))
        assert aa.apply((0, 0)) == (0, 6)

    def test_inverse(self):
        K = t.make_klein(2, 3)
        for g in K.generators:
            assert g.compose(g.inverse()).is_identity()
            assert g.inverse().compose(g).is_identity()

    @given(unimodular_decks())
    @settings(max_examples=100, deadline=None)
    def test_inverse_of_unimodular_decks(self, g):
        assert g.compose(g.inverse()).is_identity()
        assert g.inverse().compose(g).is_identity()

    def test_inverse_solves_nothing(self, monkeypatch):
        """Deck inverses come from one elimination of [A | I], so negative
        powers solve nothing."""
        calls = []
        solve = t.linalg.solve_rational
        monkeypatch.setattr(t.linalg, "solve_rational", lambda *a: calls.append(a) or solve(*a))
        g = t.make_klein(2, 3).deck_from_word("a^-1 b^-2")
        assert g == t.DeckElement(((1, 0), (0, 1)), (-4, -3))
        assert calls == []

    def test_large_powers_match_closed_form(self):
        """b^k (x, y) = (x + k x0, (-1)^k y), at exponents a linear loop cannot reach."""
        x0 = Fraction(2)
        K = t.make_klein(x0, 3)
        assert K.deck_from_word("b^10000") == t.DeckElement(((1, 0), (0, 1)), (10000 * x0, 0))
        assert K.deck_from_word("b^-10001") == t.DeckElement(((1, 0), (0, -1)), (-10001 * x0, 0))
        b = K.generator("b")
        for k in range(-5, 6):
            expected = t.DeckElement(((1, 0), (0, 1 if k % 2 == 0 else -1)), (k * x0, 0))
            assert b.power(k) == expected


class TestInvariantForms:
    def test_klein_degree_one_is_dx(self):
        basis = t.invariant_forms(t.make_klein(2, 3), 1)
        assert len(basis) == 1
        assert basis[0].coefficients in ((1, 0), (-1, 0))

    def test_klein_degree_two_vanishes(self):
        assert t.invariant_forms(t.make_klein(2, 3), 2) == []

    def test_torus_full_rank(self):
        T = t.make_torus([(4, 0), (0, 4)])
        for p in range(3):
            assert len(t.invariant_forms(T, p)) == comb(2, p)

    def test_invariance_is_exact(self):
        K = t.make_klein(5, 7)
        for p in (0, 1, 2):
            for form in t.invariant_forms(K, p):
                for g in K.generators:
                    assert form.pullback(g.linear) == form

    def test_fixed_space_is_saturated(self):
        # A = [[1,2],[0,-1]] fixes exactly the covectors proportional to
        # (1,1); a non-saturated computation would return a multiple.
        M = t.AffineQuotientManifold(
            2, (t.DeckElement(((1, 2), (0, -1)), (0, 0)),), ("g",), "general"
        )
        basis = t.invariant_forms(M, 1)
        assert len(basis) == 1
        assert basis[0].coefficients in ((1, 1), (-1, -1))

    def test_deck_element_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            t.DeckElement(((2, 0), (0, 1)), (0, 0))
        with pytest.raises(ValueError):
            t.DeckElement(((1, 0),), (0, 0))


exact_entries = st.one_of(
    st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=3)
)


def sometimes_zero(dim, entries):
    """Vectors of length dim over ``entries``, the zero vector one draw in four."""
    return st.integers(0, 3).flatmap(
        lambda k: st.lists(entries, min_size=dim, max_size=dim) if k else st.just([0] * dim)
    )


@st.composite
def forms_and_vectors(draw):
    """A p-form on Z^n (n <= 5, p <= 4) and up to five int/Fraction vectors,
    some of them zero."""
    dim = draw(st.integers(0, 5))
    degree = draw(st.integers(0, min(4, dim)))
    size = comb(dim, degree)
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    vectors = draw(st.lists(sometimes_zero(dim, exact_entries), max_size=5))
    return t.TropicalForm(dim, degree, tuple(coeffs)), vectors


@st.composite
def unimodular_matrices(draw, n):
    """Products of elementary row moves: adds, negations and swaps."""
    A = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 6)) if n else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        move = draw(st.sampled_from(["add", "negate", "swap"]))
        if move == "add" and i != j:
            k = draw(st.integers(-2, 2))
            A[i] = [a + k * b for a, b in zip(A[i], A[j])]
        elif move == "negate":
            A[i] = [-a for a in A[i]]
        elif move == "swap":
            A[i], A[j] = A[j], A[i]
    return A


@st.composite
def signed_permutations(draw, n):
    """Monomial unimodular matrices: a permutation with signs."""
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    return [[signs[i] * int(j == perm[i]) for j in range(n)] for i in range(n)]


def general_manifold(n, gens):
    return t.AffineQuotientManifold(n, tuple(gens), tuple(f"g{i}" for i in range(len(gens))),
                                    "general")


class TestFormsAgainstTupleOracle:
    """gram, evaluate, pullback and invariant_forms against the tuple-by-tuple
    evaluation with Leibniz determinants in tests/oracles.py."""

    @given(forms_and_vectors())
    @settings(max_examples=300, deadline=None)
    def test_gram_and_evaluate(self, case):
        form, vectors = case
        n, p, coeffs = form.dim, form.degree, form.coefficients
        assert form.gram(vectors) == gram_oracle(n, p, coeffs, vectors)
        for tup in combinations(vectors, p):
            assert form.evaluate(list(tup)) == form_value_oracle(n, p, coeffs, list(tup))

    @given(forms_and_vectors(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_pullback(self, case, data):
        form, _ = case
        n = form.dim
        row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
        A = data.draw(st.lists(row, min_size=n, max_size=n))
        expected = pullback_oracle(n, form.degree, form.coefficients, A)
        assert list(form.pullback(A).coefficients) == expected

    @given(st.integers(0, 5).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, min(4, n)),
        st.lists(st.one_of(unimodular_matrices(n), signed_permutations(n)), max_size=3),
    )))
    @settings(max_examples=200, deadline=None)
    def test_invariant_forms(self, case):
        n, p, linear_parts = case
        gens = [t.DeckElement(tuple(map(tuple, A)), (0,) * n) for A in linear_parts]
        basis = t.invariant_forms(general_manifold(n, gens), p)
        assert len(basis) == fixed_form_rank_oracle(n, p, linear_parts)
        for form in basis:
            for A in linear_parts:
                assert pullback_oracle(n, p, form.coefficients, A) == list(form.coefficients)

    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, n),
        st.lists(st.one_of(unimodular_matrices(n), signed_permutations(n)), min_size=1,
                 max_size=3),
    )), st.data())
    @settings(max_examples=100, deadline=None)
    def test_translations_and_repeats_change_nothing(self, case, data):
        """Translations, and repeats of a generator after its first
        occurrence, leave the basis of invariant forms as it was."""
        n, p, linear_parts = case
        gens = [t.DeckElement(tuple(map(tuple, A)), (0,) * n) for A in linear_parts]
        more = list(gens)
        for _ in range(data.draw(st.integers(1, 4))):
            if data.draw(st.booleans()):
                g = translation_deck(data.draw(st.lists(st.integers(-3, 3), min_size=n,
                                                        max_size=n)))
                more.insert(data.draw(st.integers(0, len(more))), g)
            else:
                g = data.draw(st.sampled_from(gens))
                more.insert(data.draw(st.integers(more.index(g) + 1, len(more))), g)
        expected = [f.coefficients for f in t.invariant_forms(general_manifold(n, gens), p)]
        assert [f.coefficients for f in t.invariant_forms(general_manifold(n, more), p)] == expected

    @pytest.mark.parametrize("vector", [(1, 0, 0), (0, 0, 0), (0,)])
    def test_wrong_vector_length(self, vector):
        with pytest.raises(ValueError):
            t.TropicalForm(2, 1, (1, 0)).gram([(1, 0), vector])

    @given(st.sampled_from([
        t.make_torus([(4, 0), (0, 4)]), t.make_torus([(2, 1), (-1, Fraction(3, 2))]),
        t.make_klein(2, 3), t.product_with_line(t.make_klein(2, 3)),
        t.product_with_line(t.make_torus([(1, 0), (0, 1)])),
        t.make_torus([(1, 0, 0), (0, 2, 0), (0, 0, 3)]),
    ]).flatmap(lambda M: st.tuples(st.just(M), st.integers(0, M.dim))).flatmap(
        lambda case: st.tuples(st.just(case[0]), st.just(case[1]), st.lists(
            st.integers(-2, 2), min_size=comb(case[0].dim, case[1]),
            max_size=comb(case[0].dim, case[1])))))
    @settings(max_examples=200, deadline=None)
    def test_is_invariant_matches_the_pullback_oracle(self, case):
        """Skipping the translations leaves the verdict of every generator's
        pullback as it was, on tori, Klein bottles and their products."""
        M, p, coefficients = case
        form = t.TropicalForm(M.dim, p, tuple(coefficients))
        expected = all(pullback_oracle(M.dim, p, coefficients, g.linear) == coefficients
                       for g in M.generators)
        assert form.is_invariant(M) == expected

    def test_translations_pull_nothing_back(self, monkeypatch):
        """A torus and its product with a line run no pullback; a Klein
        bottle runs one, for the reflecting generator b."""
        pulled, pullback = [], t.TropicalForm.pullback
        monkeypatch.setattr(t.TropicalForm, "pullback",
                            lambda form, A: pulled.append(A) or pullback(form, A))
        T = t.make_torus([(4, 0), (0, 4)])
        assert t.TropicalForm(2, 2, (1,)).is_invariant(T)
        assert t.TropicalForm(3, 2, (1, 2, 3)).is_invariant(t.product_with_line(T))
        assert pulled == []
        assert t.TropicalForm(2, 1, (1, 0)).is_invariant(t.make_klein(2, 3))
        assert pulled == [((1, 0), (0, -1))]


@st.composite
def gram_terms(draw):
    """(degree, count, terms) for ``_signed_gram``: degree 2-3, forms on
    dimensions 2-4 drawn from a pool of up to three, so terms share forms or
    differ, 0-7 vectors per term, some of them zero, and each vector index
    with a denominator of its own (plain ints where it is 1)."""
    degree = draw(st.integers(2, 3))
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        dim = draw(st.integers(degree, 4))
        size = comb(dim, degree)
        coefficients = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
        pool.append(t.TropicalForm(dim, degree, tuple(coefficients)))
    count = draw(st.integers(0, 7))
    denominators = draw(st.lists(st.sampled_from([1, 2, 3, 4, 5, 7, 9]), min_size=count,
                                 max_size=count))
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        form = draw(st.sampled_from(pool))
        c = draw(st.integers(-3, 3))
        vectors = [
            tuple(Fraction(n, d) if d > 1 else n
                  for n in draw(sometimes_zero(form.dim, st.integers(-6, 6))))
            for d in denominators
        ]
        terms.append((c, form, vectors))
    return degree, count, terms


class TestSignedGram:
    @given(gram_terms())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_summed_tuple_oracle(self, case):
        """The integer kernel, given each term's non-zero vectors by index,
        equals c times the Leibniz evaluation of each term's form, summed
        over the terms, on every subset of indices; giving the zero vectors
        as well changes nothing."""
        degree, count, terms = case
        expected = [
            sum((c * form_value_oracle(form.dim, degree, form.coefficients,
                                       [vectors[j] for j in S])
                 for c, form, vectors in terms), Fraction(0))
            for S in combinations(range(count), degree)
        ]
        sparse = [(c, form, {j: v for j, v in enumerate(vectors) if any(v)})
                  for c, form, vectors in terms]
        values = _signed_gram(sparse, degree, count)
        assert values == expected
        assert exact_and_normalized(values)
        full = [(c, form, dict(enumerate(vectors))) for c, form, vectors in terms]
        assert _signed_gram(full, degree, count) == values

    @pytest.mark.parametrize("vector", [(1, 2, 3), (0, 0, 0), (Fraction(1, 2),)])
    def test_a_wrong_length_vector_raises(self, vector):
        form = t.TropicalForm(2, 2, (1,))
        with pytest.raises(ValueError, match="dimension mismatch"):
            _signed_gram([(1, form, {0: (1, 0)}), (-1, form, {1: vector})], 2, 2)


class CountedEntry:
    """A matrix entry that records each product it is taken into."""

    def __init__(self, value, products):
        self.value, self.products = value, products

    def __bool__(self):
        return bool(self.value)

    def __neg__(self):
        return CountedEntry(-self.value, self.products)

    def __mul__(self, other):
        self.products.append(other)
        return self.value * other

    __rmul__ = __mul__


class TestMinors:
    @given(st.integers(1, 5).flatmap(lambda nrows: st.tuples(st.just(nrows), st.lists(
        st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3]), min_size=nrows, max_size=nrows),
        max_size=6,
    ))), st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_nonzero_minors_one_product_per_extension(self, case, p):
        """``_minors`` returns exactly the non-zero Leibniz p-minors, and
        takes one product per extension of a non-zero minor on rows T and
        columns S by a non-zero entry of a later column in a row outside T."""
        nrows, columns = case
        nonzero = {}
        for q in range(p + 1):
            for T in combinations(range(nrows), q):
                for S in combinations(range(len(columns)), q):
                    m = leibniz_det([[columns[j][a] for j in S] for a in T])
                    if m:
                        nonzero[T, S] = m
        products = []
        counted = [[CountedEntry(x, products) for x in column] for column in columns]
        assert _minors(counted, p) == {key: m for key, m in nonzero.items() if len(key[0]) == p}
        extensions = [
            (T, S, a, j)
            for T, S in nonzero if len(T) < p
            for j in range(len(columns)) if not S or j > S[-1]
            for a in range(nrows) if a not in T and columns[j][a]
        ]
        assert len(products) == len(extensions)


class TestKindInvariants:
    def test_euclidean_rejects_generators(self):
        from troplin.manifold import translation_deck

        with pytest.raises(ValueError):
            t.AffineQuotientManifold(2, (translation_deck((1, 0)),), ("g",), "euclidean")

    def test_torus_rejects_non_translations(self):
        flip = t.DeckElement(((1, 0), (0, -1)), (1, 0))
        with pytest.raises(ValueError):
            t.AffineQuotientManifold(2, (flip, flip), ("g1", "g2"), "torus")

    def test_torus_rejects_dependent_translations(self):
        from troplin.manifold import translation_deck

        gens = (translation_deck((2, 0)), translation_deck((4, 0)))
        with pytest.raises(DegenerateLattice):
            t.AffineQuotientManifold(2, gens, ("g1", "g2"), "torus")

    def test_klein_rejects_wrong_generators(self):
        K = t.make_klein(2, 3)
        with pytest.raises(ValueError):
            t.AffineQuotientManifold(
                2, (K.generators[1], K.generators[0]), ("a", "b"), "klein",
                klein_params=K.klein_params,
            )

    def test_product_requires_base(self):
        from troplin.manifold import translation_deck

        with pytest.raises(ValueError):
            t.AffineQuotientManifold(
                3, (translation_deck((1, 0, 0)),), ("g",), "product_with_line"
            )


class TestAlbanese:
    def test_klein(self):
        alb = t.albanese_data(t.make_klein(2, 3))
        assert alb.rank == 1
        assert alb.periods == ((0,), (2,))

    def test_euclidean(self):
        alb = t.albanese_data(t.make_euclidean(2))
        assert alb.rank == 2 and alb.periods == ()

    def test_circle(self):
        alb = t.albanese_data(t.make_torus([(1,)]))
        assert alb.rank == 1 and alb.periods == ((1,),)

    def test_periods_are_basepoint_free(self):
        """alpha((A - I) v) = 0 for every invariant alpha and generator."""
        for M in (t.make_klein(2, 3), t.make_torus([(4, 0), (0, 4)])):
            alb = t.albanese_data(M)
            for g in M.generators:
                A = g.linear
                for form in alb.forms:
                    for v in ((1, 0), (0, 1), (3, -2)):
                        Av = [sum(A[i][j] * v[j] for j in range(2)) for i in range(2)]
                        moved = [Av[i] - v[i] for i in range(2)]
                        assert form.evaluate([moved]) == 0


class TestReducePoint:
    def test_klein_example(self):
        K = t.make_klein(2, 3)
        assert t.reduce_point(K, (Fraction(5, 2), -1)) == (Fraction(1, 2), 1)

    def test_torus_example(self):
        T = t.make_torus([(4, 0), (0, 4)])
        assert t.reduce_point(T, (5, -1)) == (1, 3)

    def test_euclidean_identity(self):
        E = t.make_euclidean(2)
        assert t.reduce_point(E, (Fraction(9, 7), -3)) == (Fraction(9, 7), -3)

    def test_torus_reduction_solves_nothing(self, monkeypatch):
        """The lattice inverse is eliminated once per reducer, so no point
        is solved for."""
        calls = []
        solve = t.linalg.solve_rational
        monkeypatch.setattr(t.linalg, "solve_rational", lambda *a: calls.append(a) or solve(*a))
        T = t.make_torus([(2, 1), (-1, Fraction(3, 2))])
        assert t.reduce_point(T, (Fraction(7, 3), -5)) == (Fraction(1, 3), 2)
        assert t.zero_cycle(T, [((k, -k), 1) for k in range(20)]).degree == 20
        assert calls == []

    def test_general_unsupported(self):
        M = t.AffineQuotientManifold(2, (), (), "general")
        with pytest.raises(UnsupportedManifoldKind):
            t.reduce_point(M, (0, 0))

    @given(
        st.integers(-20, 20), st.integers(1, 9),
        st.integers(-20, 20), st.integers(1, 9),
        st.sampled_from(["a", "b", "a b", "b^-1", "a^-1 b^2", "b a b"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_idempotent_and_deck_invariant(self, xn, xd, yn, yd, word):
        K = t.make_klein(2, 3)
        x = (Fraction(xn, xd), Fraction(yn, yd))
        reduced = t.reduce_point(K, x)
        assert t.reduce_point(K, reduced) == reduced
        assert 0 <= reduced[0] < 2 and 0 <= reduced[1] < 3
        g = K.deck_from_word(word)
        assert t.reduce_point(K, g.apply(x)) == reduced

    def test_product_reduces_base_only(self):
        P = t.product_with_line(t.make_klein(2, 3))
        assert t.reduce_point(P, (Fraction(5, 2), -1, Fraction(9, 5))) == (
            Fraction(1, 2), 1, Fraction(9, 5),
        )

    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=100, deadline=None)
    def test_skew_torus_orbit_invariance(self, xn, yn, k1, k2):
        T = t.make_torus([(2, 1), (0, 3)])
        x = (Fraction(xn, 2), Fraction(yn, 2))
        shifted = (x[0] + 2 * k1, x[1] + k1 + 3 * k2)
        assert t.reduce_point(T, shifted) == t.reduce_point(T, x)


class TestDeckMembership:
    def test_klein_words_belong(self):
        K = t.make_klein(2, 3)
        rng = random.Random(7)
        for _ in range(20):
            word = " ".join(
                f"{rng.choice('ab')}^{rng.randint(-2, 2)}" for _ in range(rng.randint(1, 4))
            )
            assert contains_deck(K, K.deck_from_word(word)) is True

    def test_klein_rejects_wrong_translation(self):
        K = t.make_klein(2, 3)
        g = t.DeckElement(((1, 0), (0, 1)), (Fraction(1), Fraction(0)))
        assert contains_deck(K, g) is False

    def test_torus_membership(self):
        T = t.make_torus([(4, 0), (0, 4)])
        assert contains_deck(T, translation_deck((8, -4))) is True
        assert contains_deck(T, translation_deck((2, 0))) is False

    def test_validation_solves_nothing_and_reduces_once(self, monkeypatch, t2_witness):
        """Every deck element of a T^2 x R curve is decided by one torus
        reduction built for the whole validation, without elimination."""
        solved, built = [], []
        solve, reduction = t.linalg.solve_rational, manifold._torus_reduction
        monkeypatch.setattr(t.linalg, "solve_rational", lambda *a: solved.append(a) or solve(*a))
        monkeypatch.setattr(manifold, "_torus_reduction", lambda M: built.append(M) or reduction(M))
        assert t.validate_parametrized(t2_witness).passed
        assert solved == [] and len(built) == 1


KLEIN_PARAMS = [(2, 3), (Fraction(3, 2), Fraction(5, 3)), (1, Fraction(7, 4)), (Fraction(5, 2), 1)]
coordinates = st.one_of(
    st.integers(-12, 12),
    st.fractions(min_value=-12, max_value=12, max_denominator=7),
    st.fractions(min_value=-12, max_value=12, max_denominator=7).map(str),
)


def exact_and_normalized(x) -> bool:
    """Every entry is an int when integral and a Fraction otherwise."""
    return all(type(c) is (int if c.denominator == 1 else Fraction) for c in x)


def deck_words(M: t.AffineQuotientManifold):
    tokens = st.tuples(st.sampled_from(M.names), st.integers(-3, 3)).map("{0[0]}^{0[1]}".format)
    return st.lists(tokens, max_size=4).map(" ".join)


SKEW_TORUS = t.make_torus([(2, 1), (-1, Fraction(3, 2))])
NEGATIVE_TORUS = t.make_torus([(-1, Fraction(3, 2)), (2, 1)])  # the same lattice
MEMBERSHIP_MANIFOLDS = [
    t.make_klein(2, 3),
    t.make_klein(Fraction(3, 2), Fraction(5, 3)),
    SKEW_TORUS,
    t.product_with_line(SKEW_TORUS),
    t.product_with_line(t.make_klein(Fraction(3, 2), Fraction(5, 3))),
]


class TestPeriodicReductionProperties:
    """reduce_point and contains_deck against the closed-form Klein orbit in
    tests/oracles.py and against perturbed deck elements."""

    @given(st.sampled_from(KLEIN_PARAMS), coordinates, coordinates)
    @example(KLEIN_PARAMS[1], -7, 5)  # all-int input on rational parameters
    @settings(max_examples=300, deadline=None)
    def test_klein_reduction_lies_in_the_domain_and_the_orbit(self, params, x, y):
        x0, y0 = params
        reduced = t.reduce_point(t.make_klein(x0, y0), (x, y))
        assert 0 <= reduced[0] < x0 and 0 <= reduced[1] < y0
        assert reduced in klein_orbit_points(x0, y0, (Fraction(x), Fraction(y)), window=13)
        assert exact_and_normalized(reduced)

    @given(st.sampled_from(MEMBERSHIP_MANIFOLDS), st.data())
    @settings(max_examples=200, deadline=None)
    def test_words_belong_and_perturbations_do_not(self, M, data):
        g = M.deck_from_word(data.draw(deck_words(M)))
        assert contains_deck(M, g) is True
        for generator in M.generators:  # half a period is off the lattice
            half = [a + Fraction(b, 2) for a, b in zip(g.translation, generator.translation)]
            assert contains_deck(M, t.DeckElement(g.linear, half)) is False
        flipped = [list(row) for row in g.linear]
        flipped[1][1] = -flipped[1][1]  # swaps I and diag(1, -1) on the first two axes
        assert contains_deck(M, t.DeckElement(flipped, g.translation)) is False

    @given(st.sampled_from(MEMBERSHIP_MANIFOLDS + [t.make_euclidean(2)]), st.booleans(),
           st.data())
    @settings(max_examples=300, deadline=None)
    def test_membership_matches_the_enumerated_group(self, M, flip, data):
        """contains_deck against the group enumerated in normal form, on
        A in {I, diag(1, -1)} (extended by the identity) and translations on
        a quarter-period grid: quarters of each generator's translation,
        and quarters on the coordinates no generator moves."""
        quarters = st.one_of(st.integers(-3, 3).map(lambda k: 4 * k), st.integers(-12, 12))
        n = len(M.generators)
        counts = data.draw(st.lists(quarters, min_size=n, max_size=n))
        free = data.draw(st.lists(st.one_of(st.just(0), quarters),
                                  min_size=M.dim - n, max_size=M.dim - n))
        translation = [Fraction(c, 4) for c in [0] * (M.dim - len(free)) + free]
        for c, g in zip(counts, M.generators):
            translation = [x + Fraction(c, 4) * y for x, y in zip(translation, g.translation)]
        A = [[int(i == j) for j in range(M.dim)] for i in range(M.dim)]
        A[1][1] = -1 if flip else 1
        expected = deck_membership_oracle(M, A, translation)
        assert contains_deck(M, t.DeckElement(A, translation)) is expected
        if M.kind == "euclidean":
            assert expected is (not flip and not any(translation))

    def test_general_membership_is_undecided_beyond_the_identity(self):
        M = t.AffineQuotientManifold(2, (), (), "general")
        assert contains_deck(M, identity_deck(2)) is True
        assert contains_deck(M, translation_deck((1, 0))) is None
        assert contains_deck(M, t.DeckElement(((1, 0), (0, -1)), (0, 0))) is None
        assert contains_deck(t.product_with_line(M), translation_deck((1, 0, 0))) is None

    def test_product_over_general_refuses_elements_moving_the_line(self):
        P = t.product_with_line(t.AffineQuotientManifold(2, (), (), "general"))
        assert contains_deck(P, translation_deck((0, 0, 1))) is False
        shear = ((1, 0, 1), (0, 1, 0), (0, 0, 1))  # moves the base along the line
        assert contains_deck(P, t.DeckElement(shear, (0, 0, 0))) is False
        assert contains_deck(P, t.DeckElement(((1, 0, 0), (0, 1, 0), (1, 0, 1)), (0, 0, 0))) is False
        assert contains_deck(P, t.DeckElement(((1, 0, 0), (0, -1, 0), (0, 0, 1)), (0, 0, 0))) is None
        assert contains_deck(P, identity_deck(3)) is True

    @given(st.sampled_from([SKEW_TORUS, NEGATIVE_TORUS]),
           st.lists(st.integers(-4, 4), min_size=2, max_size=2),
           st.one_of(st.just((0, 0)), st.tuples(coordinates, coordinates)))
    @settings(max_examples=200, deadline=None)
    def test_torus_membership_matches_the_solve_oracle(self, T, multiples, offset):
        """A lattice point plus an offset is in the lattice iff its
        coordinates in the lattice basis, solved by the oracle, are integers."""
        basis = [g.translation for g in T.generators]
        shift = [sum(k * v[i] for k, v in zip(multiples, basis)) + Fraction(offset[i])
                 for i in range(2)]
        coordinates_in_basis = solve_oracle([[v[i] for v in basis] for i in range(2)], shift)
        expected = all(c.denominator == 1 for c in coordinates_in_basis)
        assert contains_deck(T, translation_deck(shift)) is expected
        assert contains_deck(t.product_with_line(T), translation_deck(shift + [0])) is expected

    @given(st.sampled_from(MEMBERSHIP_MANIFOLDS[:2]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_klein_translation_without_its_reflection_is_refused(self, K, data):
        g = K.deck_from_word(data.draw(deck_words(K)))
        shifted = [a + b for a, b in zip(g.translation, K.generator("b").translation)]
        assert contains_deck(K, t.DeckElement(g.linear, shifted)) is False

    @given(st.sampled_from(MEMBERSHIP_MANIFOLDS), st.data())
    @settings(max_examples=100, deadline=None)
    def test_reduction_is_deck_invariant(self, M, data):
        x = data.draw(st.lists(coordinates, min_size=M.dim, max_size=M.dim))
        g = M.deck_from_word(data.draw(deck_words(M)))
        reduced = t.reduce_point(M, x)
        assert t.reduce_point(M, g.apply(x)) == reduced == t.reduce_point(M, reduced)
        assert exact_and_normalized(reduced)

    @given(st.sampled_from(MEMBERSHIP_MANIFOLDS), st.data())
    @settings(max_examples=100, deadline=None)
    def test_apply_is_the_exact_normalized_image(self, M, data):
        x = data.draw(st.lists(coordinates, min_size=M.dim, max_size=M.dim))
        g = M.deck_from_word(data.draw(deck_words(M)))
        image = g.apply(x)
        assert image == tuple(sum(a * Fraction(y) for a, y in zip(row, x)) + s
                              for row, s in zip(g.linear, g.translation))
        assert exact_and_normalized(image)


class TestDerivedDecks:
    """Decks made from checked decks skip the unimodularity check, and equal
    the same deck built through the checked constructor."""

    @given(unimodular_decks(), st.integers(-4, 4))
    @settings(max_examples=50, deadline=None)
    def test_derived_decks_equal_the_checked_construction(self, g, k):
        h = g.inverse()
        for derived in (h, g.compose(g), h.compose(g.power(3)), g.power(k),
                        manifold.extend_deck(h), identity_deck(g.dim)):
            checked = t.DeckElement(derived.linear, derived.translation)
            assert repr(derived) == repr(checked) and derived == checked
            assert hash(derived) == hash(checked)

    def test_derived_decks_run_no_check(self, monkeypatch):
        calls = []
        post_init = t.DeckElement.__post_init__
        monkeypatch.setattr(t.DeckElement, "__post_init__",
                            lambda self: calls.append(self) or post_init(self))
        a, b = t.make_klein(2, 3).generators
        calls.clear()
        manifold.extend_deck(a.compose(b.inverse()).power(-5))
        identity_deck(3)
        assert calls == []
        t.DeckElement(((1, 0), (0, -1)), (Fraction(1, 2), 0))
        assert len(calls) == 1

    def test_checked_constructor_still_refuses(self):
        with pytest.raises(ValueError, match="unimodular|det"):
            t.DeckElement(((2, 0), (0, 1)), (0, 0))
        with pytest.raises(ValueError):
            t.DeckElement(((1, 0), (0, 1)), (0, 0, 0))


class TestFormCoefficients:
    def test_int_coefficients_are_kept(self):
        coefficients = (1, -2, 0)
        form = t.TropicalForm(3, 1, coefficients)
        assert form.coefficients is coefficients

    def test_other_exact_integers_become_ints(self):
        form = t.TropicalForm(3, 1, [Fraction(4, 2), 3, 0])
        assert form.coefficients == (2, 3, 0) and type(form.coefficients) is tuple
        assert [type(c) for c in form.coefficients] == [int, int, int]

    @pytest.mark.parametrize("bad", [True, False, 1.0, Fraction(1, 2)])
    def test_inexact_or_boolean_coefficients_are_refused(self, bad):
        for i in range(3):
            coefficients = [1, 0, -1]
            coefficients[i] = bad
            with pytest.raises(t.IrrationalData):
                t.TropicalForm(3, 1, tuple(coefficients))
