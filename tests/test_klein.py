"""Klein bottle fibers, circle Abel-Jacobi, witnesses, and the decision."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CYCLE_MANIFOLDS, CYCLE_PHASES, manifold_with_cycles
from oracles import (
    circle_function_oracle,
    klein_fiber_circumference_oracle,
    modification_document_oracle,
)

import troplin as t
from troplin import io, klein
from troplin.errors import (
    NonPositiveParameter,
    NonZeroDegree,
    NotPrincipal,
    OnSection,
    SpecialFiber,
)
from troplin.manifold import KIND_GENERAL, AffineQuotientManifold, identity_deck, translation_deck


rationals = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=6
)
positive_rationals = st.fractions(
    min_value=Fraction(1, 4), max_value=Fraction(8), max_denominator=6
)


class TestFiberCircle:
    def test_axis1(self, klein23):
        circle = t.fiber_circle(klein23, 1, Fraction(1, 2))
        assert circle.circumference == 3
        assert circle.anchor == (Fraction(1, 2), 0)
        assert not circle.special

    def test_axis2_generic(self, klein23):
        circle = t.fiber_circle(klein23, 2, 1)
        assert circle.circumference == 4
        assert not circle.special

    def test_axis2_special(self, klein23):
        circle = t.fiber_circle(klein23, 2, 0)
        assert circle.circumference == 2
        assert circle.special
        half = t.fiber_circle(klein23, 2, Fraction(3, 2))
        assert half.circumference == 2
        assert half.special

    @given(
        positive_rationals, positive_rationals,
        st.sampled_from([1, 2]), rationals,
    )
    @settings(max_examples=80, deadline=None)
    def test_circumference_matches_orbit_enumeration(self, x0, y0, axis, value):
        K = t.make_klein(x0, y0)
        circle = t.fiber_circle(K, axis, value)
        oracle = klein_fiber_circumference_oracle(
            x0, y0, circle.anchor, circle.direction
        )
        assert circle.circumference == oracle

    def test_antipodal_positions_of_iota(self, klein23):
        p = (Fraction(1, 2), 1)
        circle = t.fiber_circle(klein23, 2, 1)
        tp = t.fiber_position(circle, p)
        ti = t.fiber_position(circle, t.iota(klein23, p))
        assert abs(tp - ti) == 2  # x0 apart on a circle of circumference 2 x0

    def test_position_on_a_circle_that_wraps_three_times(self):
        """Direction (3, 1) crosses the x-period three times per turn, so the
        lifts of a point sit 4/3 apart in the circle parameter."""
        T = t.make_torus([(4, 0), (0, 4)])
        circle = t.circle_embedding(T, (0, 0), (3, 1), 4, translation_deck((-12, -4)))
        assert t.fiber_position(circle, circle.point_at(2)) == 2
        for k in range(32):
            s = Fraction(k, 8)
            assert t.fiber_position(circle, circle.point_at(s)) == s

    @given(st.integers(0, 47), st.sampled_from([(1, 0), (Fraction(1, 2), 1), (0, Fraction(3, 2))]))
    @settings(max_examples=60, deadline=None)
    def test_position_inverts_point_at_on_klein_fibres(self, k, anchor):
        K = t.make_klein(2, 3)
        # The last circle starts one b-translate over, where lifts of a point reflect in y.
        shifted = t.circle_embedding(K, (anchor[0] + 2, 0), (0, 1), 3, K.deck_from_word("a^-1"))
        for circle in (t.fiber_circle(K, 1, anchor[0]), t.fiber_circle(K, 2, anchor[1]), shifted):
            s = Fraction(k, 12) % circle.circumference
            assert t.fiber_position(circle, circle.point_at(s)) == s


class TestPiecewiseLinearEvaluate:
    def test_values_and_wrap_segment(self):
        f = t.principal_function(4, [(1, 2), (3, -2)])
        # slopes: sigma = (2 - 6)/4 = -1; (1,3): +1, (3,5): -1
        assert f.slopes == (1, -1)
        assert f.evaluate(1) == 0
        assert f.evaluate(2) == 1
        assert f.evaluate(3) == 2
        assert f.evaluate(Fraction(7, 2)) == Fraction(3, 2)
        assert f.evaluate(0) == 1  # on the wrap segment through t = 4
        assert f.evaluate(4) == f.evaluate(0)
        assert f.evaluate(-3) == f.evaluate(1)

    def test_constant(self):
        f = t.principal_function(4, [])
        assert f.evaluate(Fraction(17, 5)) == 0

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_an_arc_by_arc_walk(self, data):
        c = data.draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(5, 3), Fraction(4)]))
        divisor = data.draw(st.lists(st.tuples(rationals, st.integers(-3, 3)), max_size=5))
        base = data.draw(rationals)
        divisor.append((base, -sum(m for _, m in divisor)))
        klass = sum(m * p for p, m in divisor) % c
        divisor += [(base, 1), (base + klass, -1)]  # the class is now zero
        f = t.principal_function(c, divisor)
        for s in data.draw(st.lists(st.one_of(rationals, st.integers(-9, 9)), max_size=6)):
            value = f.evaluate(s)
            assert type(value) is Fraction
            assert value == circle_function_oracle(c, f.breakpoints, f.values, f.slopes, s)


class TestKleinKindGuards:
    def test_operations_refuse_other_kinds(self, torus4):
        z = t.zero_cycle(torus4, [((0, 0), 1)])
        with pytest.raises(t.UnsupportedManifoldKind):
            t.fiber_circle(torus4, 1, 0)
        with pytest.raises(t.UnsupportedManifoldKind):
            t.albanese_class(torus4, z)
        with pytest.raises(t.UnsupportedManifoldKind):
            t.witness_two_torsion(torus4, (0, 0))
        with pytest.raises(t.UnsupportedManifoldKind):
            t.iota(torus4, (0, 0))


class TestNonPositiveCircumference:
    @pytest.mark.parametrize("c", [0, -4])
    @pytest.mark.parametrize("build", [
        lambda c: t.principal_function(c, [(1, 1), (2, -1)]),
        lambda c: t.circle_jacobian_class(c, [(1, 1), (2, -1)]),
        lambda c: t.PiecewiseLinearFunction(c, (), (), ()),
        # the closing deck does take the anchor back, from c * (1, 0)
        lambda c: t.circle_embedding(
            t.make_torus([(4, 0), (0, 4)]), (0, 0), (1, 0), c, translation_deck((-c, 0))
        ),
    ], ids=["principal_function", "circle_jacobian_class", "PiecewiseLinearFunction",
            "circle_embedding"])
    def test_refused(self, build, c):
        with pytest.raises(NonPositiveParameter, match="circumference must be positive"):
            build(c)


class TestFirstReturn:
    """A circle closes where its anchor's point first comes back."""

    T = t.make_torus([(4, 0), (0, 4)])

    def test_a_double_turn_is_refused(self):
        # t = 4 and t = 8 both bring (0, 0) back on R^2/4Z^2
        with pytest.raises(ValueError, match="returns to its anchor before its circumference"):
            t.circle_embedding(self.T, (0, 0), (1, 0), 8, translation_deck((-8, 0)))

    @pytest.mark.parametrize("direction, closing", [
        ((0, 0), identity_deck(2)),
        ((2, 0), translation_deck((-8, 0))),
        ((3, -6), translation_deck((-12, 24))),
    ], ids=["zero", "(2, 0)", "(3, -6)"])
    def test_a_zero_or_imprimitive_direction_is_refused(self, direction, closing):
        with pytest.raises(ValueError, match="nonzero primitive integer vector"):
            t.circle_embedding(self.T, (0, 0), direction, 4, closing)

    @given(st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(lambda u: gcd(*u) == 1),
           st.tuples(rationals, rationals), st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_only_the_first_return_closes(self, u, anchor, k):
        """On R^2/4Z^2 a primitive direction first returns at t = 4."""
        c = 4 * k
        closing = translation_deck((-c * u[0], -c * u[1]))
        if k == 1:
            assert t.circle_embedding(self.T, anchor, u, c, closing).circumference == 4
        else:
            with pytest.raises(ValueError, match="returns to its anchor before"):
                t.circle_embedding(self.T, anchor, u, c, closing)

    def test_undecided_without_a_reduction(self):
        general = AffineQuotientManifold(2, self.T.generators, self.T.names, KIND_GENERAL)
        circle = t.circle_embedding(general, (0, 0), (1, 0), 8, translation_deck((-8, 0)))
        assert circle.circumference == 8


class TestCircleJacobian:
    def test_examples(self):
        assert t.circle_jacobian_class(4, [(2, 2), (0, -2)]) == 0
        assert t.circle_jacobian_class(4, [(1, 1), (0, -1)]) == 1
        assert t.circle_jacobian_class(4, []) == 0

    def test_degree_checked(self):
        with pytest.raises(NonZeroDegree):
            t.circle_jacobian_class(4, [(1, 1)])


class TestPrincipalFunction:
    def test_two_point_example(self):
        f = t.principal_function(4, [(0, 2), (2, -2)])
        assert f.slopes == (1, -1)
        assert f.breakpoints == (0, 2)
        assert f.values == (0, 2)

    def test_three_point_example(self):
        f = t.principal_function(3, [(1, 1), (2, 1), (0, -2)])
        assert f.breakpoints == (0, 1, 2)
        assert f.slopes == (-1, 0, 1)

    def test_not_principal(self):
        with pytest.raises(NotPrincipal):
            t.principal_function(4, [(1, 1), (0, -1)])

    def test_divisor_round_trip(self):
        divisor = [(Fraction(1, 2), 3), (Fraction(5, 2), -1), (3, -2)]
        assert t.circle_jacobian_class(4, divisor) == 1  # 3/2 - 5/2 - 6 mod 4
        shifted = divisor + [(0, 1), (1, -1)]  # kills the class
        f = t.principal_function(4, shifted)
        assert sorted(f.divisor()) == sorted(
            [(Fraction(1, 2), 3), (Fraction(5, 2), -1), (3, -2), (0, 1), (1, -1)]
        )

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_succeeds_iff_class_vanishes(self, data):
        c = data.draw(st.sampled_from([Fraction(3), Fraction(4), Fraction(7, 2)]))
        points = data.draw(
            st.lists(
                st.tuples(
                    st.fractions(min_value=0, max_value=c, max_denominator=5).filter(
                        lambda q: q < c
                    ),
                    st.integers(-3, 3),
                ),
                max_size=5,
            )
        )
        degree = sum(m for _, m in points)
        if degree != 0:
            points.append((Fraction(0), -degree))
        klass = t.circle_jacobian_class(c, points)
        if klass == 0:
            f = t.principal_function(c, points)
            total = {}
            for pos, m in points:
                total[pos % c] = total.get(pos % c, 0) + m
            expected = sorted((p, m) for p, m in total.items() if m != 0)
            assert sorted(f.divisor()) == expected
        else:
            with pytest.raises(NotPrincipal):
                t.principal_function(c, points)


class TestModification:
    def test_spec_witness_shape(self, torus4):
        circle = t.circle_embedding(torus4, (0, 0), (1, 0), 4, translation_deck((-4, 0)))
        h = t.modification_curve(circle, t.principal_function(4, [(0, 2), (2, -2)]))
        assert h.position("v0") == (0, 0, 0)
        assert h.position("v1") == (2, 0, 2)
        weights = sorted(h.data(e.id).weight for e in h.abstract.infinite_edges())
        assert weights == [2, 2]
        assert t.validate_parametrized(h).passed

    def test_constant_function_gives_bare_circle(self, torus4):
        circle = t.circle_embedding(torus4, (0, 0), (1, 0), 4, translation_deck((-4, 0)))
        h = t.modification_curve(circle, t.principal_function(4, []))
        assert len(h.abstract.vertices) == 1
        assert t.boundary_zero_cycle(h).is_empty()

    def test_klein_fiber_modification(self, klein23):
        p = (Fraction(1, 2), 1)
        circle = t.fiber_circle(klein23, 1, Fraction(1, 2))
        f = t.principal_function(3, [(1, 1), (2, 1), (0, -2)])
        h = t.modification_curve(circle, f)
        assert t.is_horizontal_at_infinity(h)
        boundary = t.boundary_zero_cycle(h)
        assert boundary.multiplicity((Fraction(1, 2), 0)) == 2
        assert boundary.multiplicity((Fraction(1, 2), 1)) == -1
        assert boundary.multiplicity((Fraction(1, 2), 2)) == -1

    def test_abel_consistency_on_fuzzed_divisors(self, klein23):
        """For class-zero divisors the modification boundary matches the
        pushed-forward divisor exactly."""
        rng = random.Random(606)
        for _ in range(60):
            axis = rng.choice([1, 2])
            value = Fraction(rng.randint(0, 11), 4)
            circle = t.fiber_circle(klein23, axis, value)
            c = circle.circumference
            divisor = []
            for _ in range(rng.randint(0, 4)):
                divisor.append(
                    (Fraction(rng.randint(0, int(4 * c) - 1), 4), rng.choice([-2, -1, 1, 2]))
                )
            degree = sum(m for _, m in divisor)
            if degree:
                divisor.append((Fraction(rng.randint(0, int(c) - 1)), -degree))
            klass = t.circle_jacobian_class(c, divisor)
            if klass != 0:
                spot = Fraction(rng.randint(0, int(c) - 1))
                divisor += [(spot, 1), (spot + klass, -1)]
            f = t.principal_function(c, divisor)
            h = t.modification_curve(circle, f)
            boundary = t.boundary_zero_cycle(h)
            expected = t.zero_cycle(
                klein23, [(circle.point_at(pos), -m) for pos, m in f.divisor()]
            )
            assert boundary == expected


    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_document_matches_the_definition(self, data):
        """The whole curve document, ids, order, lengths and decks included,
        on T^2 circles in several directions and on Klein fibres of both
        axes, the special ones included, with divisors of class zero."""
        if data.draw(st.booleans(), label="torus"):
            T = t.make_torus([(4, 0), (0, 4)])
            u = data.draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (-1, 3)]))
            anchor = data.draw(st.tuples(rationals, rationals))
            circle = t.circle_embedding(T, anchor, u, 4, translation_deck((-4 * u[0], -4 * u[1])))
        else:
            x0, y0 = data.draw(st.sampled_from([(2, 3), (1, Fraction(1, 2)), (Fraction(3, 2), 2)]))
            K = t.make_klein(x0, y0)
            axis = data.draw(st.sampled_from([1, 2]))
            value = data.draw(st.one_of(rationals, st.sampled_from([0, y0, Fraction(y0, 2)])))
            circle = t.fiber_circle(K, axis, value)
        c = circle.circumference
        spots = st.integers(0, int(4 * c) - 1).map(lambda k: Fraction(k, 4))
        points = st.tuples(spots, st.sampled_from([-2, -1, 1, 2]))
        divisor = data.draw(st.lists(points, min_size=1, max_size=4))
        base = data.draw(spots)
        divisor.append((base, -sum(m for _, m in divisor)))
        klass = t.circle_jacobian_class(c, divisor)
        divisor += [(base, 1), (base + klass, -1)]  # the class is now zero
        f = t.principal_function(c, divisor)
        h = t.modification_curve(circle, f)
        assert io.parametrized_curve_json(h) == modification_document_oracle(circle, f)


class TestAlbaneseClass:
    def test_spec_example(self, klein23):
        z = t.zero_cycle(klein23, [((Fraction(3, 2), 1), 1), ((Fraction(1, 2), 2), -1)])
        assert t.albanese_class(klein23, z) == (0, 1)

    def test_cancellation(self, klein23):
        p = (Fraction(1, 3), Fraction(5, 4))
        z = t.zero_cycle(klein23, [(p, 1), (p, -1)])
        assert t.albanese_class(klein23, z) == (0, 0)

    def test_iota_preserves_class(self, klein23):
        p = (Fraction(1, 3), Fraction(5, 4))
        z = t.zero_cycle(klein23, [(p, 1), (t.iota(klein23, p), -1)])
        assert t.albanese_class(klein23, z) == (0, 0)

    @given(manifold_with_cycles([M for M in CYCLE_MANIFOLDS if M.kind == "klein"]))
    @settings(max_examples=80, deadline=None, phases=CYCLE_PHASES)
    def test_matches_a_fraction_sum(self, case):
        K, items = case
        z = t.zero_cycle(K, items)
        x0 = K.klein_params[0]
        total = sum((m * Fraction(p[0]) for p, m in z.entries), Fraction(0))
        assert repr(t.albanese_class(K, z)) == repr((z.degree, total % x0))


class TestChowEquivalence:
    @given(rationals, rationals)
    @settings(max_examples=100, deadline=None)
    def test_p_equivalent_to_iota_p(self, x, y):
        K = t.make_klein(2, 3)
        zp = t.zero_cycle(K, [((x, y), 1)])
        zi = t.zero_cycle(K, [(t.iota(K, (x, y)), 1)])
        assert t.chow_equivalent(K, zp, zi)

    @given(rationals, rationals)
    @settings(max_examples=100, deadline=None)
    def test_quarter_shift_not_equivalent(self, x, y):
        K = t.make_klein(2, 3)
        zp = t.zero_cycle(K, [((x, y), 1)])
        zs = t.zero_cycle(K, [((x + Fraction(1, 2), y), 1)])  # x0/4 = 1/2
        assert not t.chow_equivalent(K, zp, zs)

    def test_syntactically_distinct_representatives(self, klein23):
        z1 = t.zero_cycle(klein23, [((Fraction(5, 2), -1), 1)])
        z2 = t.zero_cycle(klein23, [((Fraction(1, 2), 1), 1)])
        assert t.chow_equivalent(klein23, z1, z2)

    def test_matches_definition_on_fuzzed_cycles(self, klein23):
        rng = random.Random(77)
        for _ in range(50):
            def rand_cycle():
                return t.zero_cycle(
                    klein23,
                    [
                        (
                            (Fraction(rng.randint(-8, 8), 4), Fraction(rng.randint(-8, 8), 4)),
                            rng.randint(-2, 2),
                        )
                        for _ in range(rng.randint(0, 4))
                    ],
                )

            z1, z2 = rand_cycle(), rand_cycle()
            diff_degree, diff_class = t.albanese_class(klein23, z1 - z2)
            assert t.chow_equivalent(klein23, z1, z2) == (
                diff_degree == 0 and diff_class == 0
            )


class TestWitnesses:
    def test_two_torsion(self, klein23):
        p = (Fraction(1, 2), 1)
        h = t.witness_two_torsion(klein23, p)
        assert t.validate_parametrized(h).passed
        assert t.is_horizontal_at_infinity(h)
        boundary = t.boundary_zero_cycle(h)
        expected = t.zero_cycle(klein23, [(t.iota(klein23, p), 2), (p, -2)])
        assert boundary == expected
        assert t.albanese_class(klein23, boundary) == (0, 0)

    def test_two_torsion_refuses_special_fibers(self, klein23):
        with pytest.raises(SpecialFiber):
            t.witness_two_torsion(klein23, (Fraction(1, 2), 0))
        with pytest.raises(SpecialFiber):
            t.witness_two_torsion(klein23, (Fraction(1, 2), Fraction(3, 2)))

    def test_fiber_relation(self, klein23):
        p = (Fraction(1, 2), 1)
        h = t.witness_fiber_relation(klein23, p)
        boundary = t.boundary_zero_cycle(h)
        expected = t.zero_cycle(
            klein23,
            [(t.section_point(klein23, Fraction(1, 2)), 2), (p, -1), (t.iota(klein23, p), -1)],
        )
        assert boundary == expected
        assert t.albanese_class(klein23, boundary) == (0, 0)

    def test_fiber_relation_on_section_rejected(self, klein23):
        with pytest.raises(OnSection):
            t.witness_fiber_relation(klein23, (Fraction(1, 2), 0))
        with pytest.raises(OnSection):
            t.witness_fiber_relation(klein23, (Fraction(1, 2), 3))

    def test_fiber_relation_half_height_degenerates_to_two_torsion(self, klein23):
        p = (Fraction(1, 2), Fraction(3, 2))
        h = t.witness_fiber_relation(klein23, p)
        boundary = t.boundary_zero_cycle(h)
        expected = t.zero_cycle(
            klein23, [(t.section_point(klein23, Fraction(1, 2)), 2), (p, -2)]
        )
        assert boundary == expected

    def test_each_call_builds_one_reducer(self, monkeypatch):
        """klein builds a reducer, one run of ``manifold._integer_reduction``,
        only through ``reduce_point`` and ``point_reducer``.  A witness builds
        one for its circle's first-return check and one for its point, and
        leaves every other point to ``zero_cycle``; a position search builds
        one for all its candidates."""
        builds = []
        for name in ("reduce_point", "point_reducer"):
            original = getattr(klein, name)
            monkeypatch.setattr(klein, name, lambda M, *x, original=original:
                                builds.append(M) or original(M, *x))
        K = t.make_klein(2, 3)
        for witness in (t.witness_two_torsion, t.witness_fiber_relation):
            builds.clear()
            witness(K, (Fraction(5, 2), -1))
            assert builds == [K, K]
        T = t.make_torus([(4, 0), (0, 4)])
        circle = t.circle_embedding(T, (0, 0), (3, 1), 4, translation_deck((-12, -4)))
        builds.clear()
        assert t.fiber_position(circle, (Fraction(11, 4), Fraction(11, 12))) == Fraction(11, 12)
        assert builds == [T]

    @given(
        st.fractions(min_value=0, max_value=2, max_denominator=5).filter(lambda q: q < 2),
        st.fractions(min_value=Fraction(1, 5), max_value=Fraction(14, 5), max_denominator=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_witnesses_sound_on_fuzzed_points(self, x, y):
        K = t.make_klein(2, 3)
        p = t.reduce_point(K, (x, y))
        if p[1] != 0:
            hf = t.witness_fiber_relation(K, p)
            assert t.validate_parametrized(hf).passed
            assert t.is_horizontal_at_infinity(hf)
            assert t.albanese_class(K, t.boundary_zero_cycle(hf))[1] == 0
        if p[1] != 0 and p[1] != Fraction(3, 2):
            ht = t.witness_two_torsion(K, p)
            assert t.validate_parametrized(ht).passed
            assert t.albanese_class(K, t.boundary_zero_cycle(ht)) == (0, 0)
