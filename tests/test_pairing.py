"""Contraction pairing, isotropy verification, and the dimension bound."""

import dataclasses
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    PRIMITIVE_DIRECTIONS, build_t3_witness, circle_modification, random_t2_horizontal_curve,
    t2_modification,
)
from oracles import form_value_oracle, isotropy_details_oracle

import troplin as t
from troplin import embedded, io, linalg, pairing
from troplin.curve import satisfies_vertex_equations
from troplin.errors import (
    DimensionMismatch, InvalidCurve, NotADeformation, NotHorizontal, WrongAmbient,
)
from troplin.manifold import translation_deck
from troplin.pairing import end_evaluation, wedge_with_last


AREA = t.TropicalForm(2, 2, (1,))
VOLUME = t.TropicalForm(3, 3, (1,))
T3_WITNESS = build_t3_witness()  # module level: Hypothesis tests take no function fixtures


class TestPhiContract:
    def test_tripod_example(self, tripod):
        form = t.phi_contract(tripod, AREA, [{"v": (1, 0)}])
        assert form.values == (0, 1, -1)

    def test_zero_deformation(self, tripod):
        form = t.phi_contract(tripod, AREA, [{"v": (0, 0)}])
        assert form.is_zero()

    def test_circle_witness_in_product(self, t2_witness):
        dxdydt = t.TropicalForm(3, 3, (1,))
        D1 = {v: (1, 0, 0) for v in t2_witness.abstract.vertices}
        D2 = {v: (0, 1, 0) for v in t2_witness.abstract.vertices}
        form = t.phi_contract(t2_witness, dxdydt, [D1, D2])
        assert satisfies_vertex_equations(t2_witness.abstract, form)

    def test_degree_mismatch(self, tripod):
        with pytest.raises(DimensionMismatch):
            t.phi_contract(tripod, AREA, [{"v": (1, 0)}, {"v": (0, 1)}])

    def test_rejects_non_deformation(self, fig1a):
        bad = {"p": (1, 0), "q": (0, 1)}  # breaks the finite-edge condition
        with pytest.raises(NotADeformation):
            t.phi_contract(fig1a, AREA, [bad])

    @pytest.mark.parametrize("assignment, named", [
        ({}, "vertex 'v0'"),
        ({"v0": (0,), "v1": (0,)}, "'v0' is assigned 1 coordinates, not 3"),
    ])
    def test_checks_the_assignment(self, assignment, named):
        """A missing vertex or a vector of the wrong length is a usage error
        that names it, not a KeyError or an IndexError."""
        h = io.parse_parametrized_curve(io.load_json(t.data_path("t2-cycle.json")))
        dxdy = t.TropicalForm(3, 2, (1, 0, 0))
        with pytest.raises(DimensionMismatch, match=named):
            t.phi_contract(h, dxdy, [assignment])

    def test_rejects_non_invariant_form(self, t2_cycle):
        from troplin.errors import FormNotInvariant

        # dy^... on the Klein bottle is not holonomy invariant
        K = t.make_klein(2, 3)
        h = t.witness_two_torsion(K, (Fraction(1, 2), 1))
        dydt = t.TropicalForm(3, 2, (0, 0, 1))
        with pytest.raises(FormNotInvariant):
            t.phi_contract(h, dydt, [{v: (0, 0, 0) for v in h.abstract.vertices}])
        with pytest.raises(FormNotInvariant):
            t.isotropy_check(h, t.TropicalForm(2, 2, (1,)))  # dx^dy not invariant on K

    def test_vertex_equations_always_hold_on_fuzzed_curves(self):
        rng = random.Random(515)
        for _ in range(25):
            h = random_t2_horizontal_curve(rng)
            basis = t.deformation_basis(h)
            if not basis:
                continue
            dxdydt = t.TropicalForm(3, 3, (1,))
            for D1, D2 in combinations(basis, 2):
                form = t.phi_contract(h, dxdydt, [D1, D2])
                assert satisfies_vertex_equations(h.abstract, form)


class TestChartConsistency:
    """The contraction value of an edge is chart-independent: computing at
    the head with deck-transported data gives the tail value (this is the
    well-definedness half of the sheaf-homomorphism statement)."""

    @staticmethod
    def head_chart_value(h, omega, deformations, edge):
        d = h.data(edge.id)
        A = d.deck.linear
        n = h.manifold.dim
        transported = [
            sum(A[i][j] * d.direction[j] for j in range(n)) for i in range(n)
        ]
        vecs = [D[edge.head] for D in deformations] + [transported]
        return d.weight * omega.evaluate(vecs)

    def test_torus_wrap_edges(self):
        rng = random.Random(2222)
        omega = wedge_with_last(AREA)
        for _ in range(15):
            h = random_t2_horizontal_curve(rng)
            basis = t.deformation_basis(h)
            for D1, D2 in combinations(basis, 2):
                form = t.phi_contract(h, omega, [D1, D2])
                for e in h.abstract.finite_edges():
                    assert form.value(e.id) == self.head_chart_value(
                        h, omega, [D1, D2], e
                    )

    def test_klein_reflecting_deck(self, klein23):
        """The axis-2 fiber witness crosses a deck element with linear part
        diag(1,-1,1); dx^dt is the invariant 2-form of K x R."""
        h = t.witness_two_torsion(klein23, (Fraction(1, 2), 1))
        ambient_forms = t.invariant_forms(h.manifold, 2)
        assert len(ambient_forms) == 1  # dx^dt survives the reflection
        dxdt = ambient_forms[0]
        assert abs(dxdt.coefficients[1]) == 1 and dxdt.coefficients[0] == 0
        nontrivial = [
            e for e in h.abstract.finite_edges()
            if not h.data(e.id).deck.is_identity()
        ]
        assert nontrivial, "the wrap edge must cross the identification"
        for D in t.deformation_basis(h):
            form = t.phi_contract(h, dxdt, [D])
            for e in h.abstract.finite_edges():
                assert form.value(e.id) == self.head_chart_value(h, dxdt, [D], e)


class TestWedgeWithLast:
    def test_area_becomes_volume(self):
        w = wedge_with_last(AREA)
        assert (w.dim, w.degree) == (3, 3)
        assert w.coefficients == (1,)

    def test_dx_becomes_dx_dt(self):
        dx = t.TropicalForm(2, 1, (1, 0))
        w = wedge_with_last(dx)
        # subsets of {0,1,2} of size 2 in lex order: 01, 02, 12
        assert w.coefficients == (0, 1, 0)


class TestIsotropy:
    def test_t2_circle_witness(self, t2_witness):
        report = t.isotropy_check(t2_witness, AREA)
        assert report.passed
        assert any("vanish" in c.name for c in report.checks)

    def test_vertical_line_identity_case(self, torus4):
        ambient = t.product_with_line(torus4)
        line = t.parametrized_curve(
            ambient,
            t.abstract_curve(
                "v", [("up", "v", None, t.INF), ("dn", "v", None, t.INF)]
            ),
            {"v": (1, 1, 0)},
            {
                "up": dict(direction=(0, 0, 1), weight=1, image_length=t.INF),
                "dn": dict(direction=(0, 0, -1), weight=1, image_length=t.INF),
            },
        )
        report = t.isotropy_check(line, AREA)
        assert report.passed

    def test_klein_vacuous(self, klein23):
        w = t.witness_two_torsion(klein23, (Fraction(1, 2), 1))
        report = t.isotropy_check(w, None, degree=2)
        assert report.passed
        assert any(c.status == "skipped" and "rank 0" in c.detail for c in report.checks)

    def test_degree_below_two_rejected(self, t2_witness):
        with pytest.raises(DimensionMismatch):
            t.isotropy_check(t2_witness, None, degree=1)
        dx = t.TropicalForm(2, 1, (1, 0))
        with pytest.raises(DimensionMismatch):
            t.isotropy_check(t2_witness, dx)

    def test_diagram_identity_on_fuzzed_curves(self):
        """The end evaluation agrees with summing the contraction form over
        the infinite edges (the two routes around the diagram)."""
        rng = random.Random(808)
        for _ in range(25):
            h = random_t2_horizontal_curve(rng)
            basis = t.deformation_basis(h)
            omega = wedge_with_last(AREA)
            infinite = [e.id for e in h.abstract.infinite_edges()]
            for D1, D2 in combinations(basis, 2):
                direct = end_evaluation(h, AREA, [D1, D2])
                pair_form = t.phi_contract(h, omega, [D1, D2])
                via_phi = sum(pair_form.value(eid) for eid in infinite)
                assert direct == via_phi == 0

    def test_fuzzed_isotropy_exact_zero(self):
        rng = random.Random(909)
        for _ in range(30):
            h = random_t2_horizontal_curve(rng)
            report = t.isotropy_check(h, AREA)
            assert report.passed


class TestT3Modification:
    """A circle modification in T^3 x R: degree-2 and degree-3 forms on the base."""

    def test_isotropy_degree_two_three_forms(self, t3_witness):
        report = t.isotropy_check(t3_witness, degree=2)
        assert report.passed
        assert [c.status for c in report.checks] == ["pass"] * 3
        assert all(c.detail.count("=0") == 10 for c in report.checks)  # C(5, 2) pairs

    def test_isotropy_degree_three_one_form(self, t3_witness):
        report = t.isotropy_check(t3_witness, degree=3)
        assert report.passed
        assert [c.status for c in report.checks] == ["pass"]
        assert report.checks[0].detail.count("=0") == 10  # C(5, 3) triples

    def test_roitman_bound_with_the_volume_form(self, t3_witness):
        space, vectors = t.infinity_restriction(t3_witness, VOLUME)
        assert len(space.blocks) == 4 and len(vectors) == 5
        result = t.roitman_bound_check(space, vectors)
        assert result.isotropic and result.satisfied

    @given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=9,
                    max_size=9))
    @settings(max_examples=100, deadline=None)
    def test_end_evaluation_matches_tuple_oracle(self, entries):
        """On arbitrary vertex vectors (not deformations) the end pairing is
        not zero; it must equal the sum over ends of the oracle's value."""
        h = T3_WITNESS
        vertices = sorted(h.abstract.vertices)
        assignments = [dict(zip(vertices, entries[3 * k : 3 * k + 3])) for k in range(3)]
        expected = 0
        for e in h.abstract.infinite_edges():
            d = h.data(e.id)
            base = [D[e.tail][:3] for D in assignments]
            expected += d.direction[-1] * d.weight * form_value_oracle(3, 3, (1,), base)
        assert end_evaluation(h, VOLUME, assignments) == expected


class TestRoitman:
    def build_four_block_space(self):
        return t.GradedSpace(tuple(t.Block(2, s, AREA) for s in (1, 1, -1, -1)))

    def test_balanced_diagonal(self):
        space = self.build_four_block_space()
        W = [(1, 0, 1, 0, 1, 0, 1, 0), (0, 1, 0, 1, 0, 1, 0, 1)]
        result = t.roitman_bound_check(space, W)
        assert result.isotropic and result.satisfied
        assert (result.dim_W, result.bound) == (2, 4)

    def test_full_block_not_isotropic(self):
        space = self.build_four_block_space()
        W = [(1, 0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 0)]
        result = t.roitman_bound_check(space, W)
        assert not result.isotropic and not result.satisfied

    def test_zero_subspace(self):
        space = self.build_four_block_space()
        result = t.roitman_bound_check(space, [])
        assert result.isotropic and result.satisfied and result.dim_W == 0

    def test_dimension_mismatch(self):
        space = self.build_four_block_space()
        with pytest.raises(DimensionMismatch):
            t.roitman_bound_check(space, [(1, 0)])

    def test_evaluate_checks_vector_lengths(self):
        space = t.GradedSpace((t.Block(2, 1, AREA),))
        assert space.evaluate([(1, 0), (0, 1)]) == 1
        with pytest.raises(DimensionMismatch):
            space.evaluate([(1, 0, 5), (0, 1, 7)])

    @given(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=3),
           st.lists(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                             min_size=6, max_size=6), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_block_gram_matches_tuple_oracle(self, signs, vectors):
        space = t.GradedSpace(tuple(t.Block(2, s, AREA) for s in signs))
        vectors = [v[: 2 * len(signs)] for v in vectors]
        expected = [
            sum(s * form_value_oracle(2, 2, (1,), [v[2 * b : 2 * b + 2] for v in pair])
                for b, s in enumerate(signs))
            for pair in combinations(vectors, 2)
        ]
        assert space.gram(vectors) == expected
        for pair, value in zip(combinations(vectors, 2), expected):
            assert space.evaluate(list(pair)) == value

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_mixed_block_gram_matches_tuple_oracle(self, data):
        """Blocks of dimensions 2-4, each with its own nonzero form of one
        degree, so the slices sit at unequal offsets."""
        dims = data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
        degree = data.draw(st.integers(1, min(dims)))
        blocks = []
        for dim in dims:
            size = comb(dim, degree)
            coefficients = data.draw(
                st.lists(st.integers(-2, 2), min_size=size, max_size=size).filter(any)
            )
            sign = data.draw(st.sampled_from([1, -1]))
            blocks.append(t.Block(dim, sign, t.TropicalForm(dim, degree, tuple(coefficients))))
        space = t.GradedSpace(tuple(blocks))
        total = sum(dims)
        entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)
        vectors = data.draw(st.lists(st.lists(entries, min_size=total, max_size=total),
                                     max_size=4))
        offsets = [sum(dims[:i]) for i in range(len(dims))]
        expected = [
            sum(b.sign * form_value_oracle(b.dimension, degree, b.form.coefficients,
                                           [v[o : o + b.dimension] for v in tup])
                for b, o in zip(blocks, offsets))
            for tup in combinations(vectors, degree)
        ]
        assert space.gram(vectors) == expected

    def test_infinity_restriction_refuses_a_curve_without_ends(self):
        """The bare circle modification has deformations but no end copies."""
        T = t.make_torus([(4, 0), (0, 4)])
        circle = t.circle_embedding(T, (0, 0), (1, 0), 4, translation_deck((-4, 0)))
        h = t.modification_curve(circle, t.principal_function(4, []))
        assert t.isotropy_check(h, AREA).passed
        with pytest.raises(t.InputError, match="no infinite ends"):
            t.infinity_restriction(h, AREA)

    def test_infinity_restriction_of_witness(self, t2_witness):
        space, vectors = t.infinity_restriction(t2_witness, AREA)
        assert len(space.blocks) == 4
        assert {b.sign for b in space.blocks} == {1, -1}
        result = t.roitman_bound_check(space, vectors)
        assert result.isotropic and result.satisfied

    def test_fuzzed_curves_link_isotropy_and_bound(self):
        rng = random.Random(321)
        for _ in range(30):
            h = random_t2_horizontal_curve(rng)
            if not h.abstract.infinite_edges():  # an empty divisor: no end copies
                with pytest.raises(t.InputError):
                    t.infinity_restriction(h, AREA)
                continue
            space, vectors = t.infinity_restriction(h, AREA)
            result = t.roitman_bound_check(space, vectors)
            assert result.isotropic
            assert result.satisfied

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_end_pairing_weights_as_coefficients_or_copies(self, seed):
        """isotropy_check multiplies each end's term by its weight, while
        infinity_restriction repeats the end in one block per unit of
        weight.  On arbitrary vertex vectors in place of the deformation
        basis the two Grams are nonzero and must agree.  The T^3 witness
        has an end of weight 2."""
        rng = random.Random(seed)
        if seed % 3 == 0:
            h, dim = T3_WITNESS, 3
        else:
            h, dim = random_t2_horizontal_curve(rng), 2
        assume(h.abstract.infinite_edges())  # without ends there are no end copies
        degree = rng.randint(2, dim)
        coefficients = [rng.randint(-2, 2) for _ in range(comb(dim, degree))]
        coefficients[rng.randrange(len(coefficients))] = rng.choice([-1, 1])
        form = t.TropicalForm(dim, degree, tuple(coefficients))
        basis = [
            {v: tuple(rng.randint(-3, 3) for _ in range(dim + 1)) for v in h.abstract.vertices}
            for _ in range(rng.randint(degree, degree + 2))
        ]
        offsets = embedded._offsets(h)
        kernel = [{offsets[v] + k: x for v, vec in D.items() for k, x in enumerate(vec) if x}
                  for D in basis]
        with mock.patch.object(pairing, "_deformation_kernel", lambda h: kernel):
            (check,) = t.isotropy_check(h, form).checks
            space, vectors = t.infinity_restriction(h, form)
        values = [Fraction(part.split("=")[1]) for part in check.detail.split("; ")]
        assert values == space.gram(vectors)


@st.composite
def horizontal_curves_and_forms(draw):
    """(h, form): a fuzzed T^2 curve, a T^2 circle modification, the T^3
    witness or a K x R circle modification, with a non-zero form of degree at
    least 2 on the base; Klein bases have none, so their form is dx."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    kind = draw(st.sampled_from(["fuzzed", "t2", "t3", "klein"]))
    if kind == "fuzzed":
        h = random_t2_horizontal_curve(rng)
    elif kind == "t2":
        h = t2_modification(rng, draw(st.sampled_from([4, 8, 12])),
                            draw(st.sampled_from(PRIMITIVE_DIRECTIONS)))
    elif kind == "t3":
        h = T3_WITNESS
    else:
        K = draw(st.sampled_from([t.make_klein(2, 3),
                                  t.make_klein(Fraction(3, 2), Fraction(5, 3))]))
        circle = t.fiber_circle(K, draw(st.sampled_from([1, 2])),
                                Fraction(draw(st.integers(0, 11)), 4))
        h = circle_modification(rng, circle, draw(st.sampled_from([4, 8])))
        return h, t.TropicalForm(2, 1, (1, 0))
    dim = h.manifold.dim - 1
    degree = draw(st.integers(2, dim))
    size = comb(dim, degree)
    coefficients = draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size)
                        .filter(any))
    return h, t.TropicalForm(dim, degree, tuple(coefficients))


class TestSparsePath:
    """The pairing reads the sparse deformation kernel; its answers are the
    ones the public dense basis gives."""

    @given(horizontal_curves_and_forms())
    @settings(max_examples=60, deadline=None)
    def test_reports_and_end_vectors_match_the_dense_basis(self, case):
        h, form = case
        basis = t.deformation_basis(h)
        if form.degree >= 2:
            expected = isotropy_details_oracle(h, form.dim, form.degree, form.coefficients, basis)
            assert repr(t.isotropy_check(h, form).checks) == expected
        ends = [(e.tail, h.data(e.id).weight) for e in h.abstract.infinite_edges()]
        if not ends:
            with pytest.raises(t.InputError):
                t.infinity_restriction(h, form)
            return
        _, vectors = t.infinity_restriction(h, form)
        assert vectors == [
            tuple(x for tail, weight in ends for _ in range(weight) for x in D[tail][:-1])
            for D in basis
        ]


class TestOnePassPerCall:
    """A curve is validated once, counted from its construction, however
    many public calls read it; each call builds its constraints once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()
        for name in ("validate_parametrized", "deformation_constraints"):
            original = getattr(embedded, name)

            def counting(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            for module in (embedded, pairing):
                if module.__dict__.get(name) is original:
                    monkeypatch.setattr(module, name, counting)
        return calls

    def test_isotropy_check(self, calls, monkeypatch):
        """The pairing reads the sparse kernel: no dense basis is built."""
        dense = []
        for module, name in ((embedded, "deformation_basis"), (pairing, "deformation_basis"),
                             (linalg, "kernel_basis")):
            monkeypatch.setattr(module, name, lambda *args, name=name: dense.append(name),
                                raising=False)
        h = io.parse_parametrized_curve(io.load_json(str(t.data_path("t2-cycle.json"))))
        dxdy = io.parse_form(io.load_json(str(t.data_path("dxdy.json"))))
        assert t.isotropy_check(h, dxdy).passed
        assert calls == {"validate_parametrized": 1, "deformation_constraints": 1}
        t.infinity_restriction(h, dxdy)
        assert calls == {"validate_parametrized": 1, "deformation_constraints": 2}
        assert dense == []

    def test_phi_contract_with_two_deformations(self, calls):
        T = t.make_torus([(4, 0), (0, 4)])
        circle = t.circle_embedding(T, (0, 0), (1, 0), 4, translation_deck((-4, 0)))
        h = t.modification_curve(circle, t.principal_function(4, [(0, 2), (2, -2)]))
        assert calls == {"validate_parametrized": 1}
        dxdydt = t.TropicalForm(3, 3, (1,))
        D1 = {v: (1, 0, 0) for v in h.abstract.vertices}
        D2 = {v: (0, 1, 0) for v in h.abstract.vertices}
        readers = [
            lambda: t.isotropy_check(h, AREA),
            lambda: t.infinity_restriction(h, AREA),
            lambda: t.deformation_basis(h),
            lambda: t.phi_contract(h, dxdydt, [D1, D2]),
        ]
        for built, reader in enumerate(readers, start=1):
            reader()
            assert calls == {"validate_parametrized": 1, "deformation_constraints": built}
        assert t.boundary_zero_cycle(h).degree == 0
        assert calls == {"validate_parametrized": 1, "deformation_constraints": len(readers)}


class TestReadOnlyCurve:
    """A curve cannot be changed after construction, so its one verdict
    holds for as long as the object lives."""

    @staticmethod
    def counting(monkeypatch) -> list:
        runs, original = [], embedded.validate_parametrized
        monkeypatch.setattr(embedded, "validate_parametrized",
                            lambda h: runs.append(h) or original(h))
        return runs

    @staticmethod
    def unbalanced(torus4):
        """A vertex in T^2 x R with two vertical rays of weights 1 and 2."""
        return t.parametrized_curve(
            t.product_with_line(torus4),
            t.abstract_curve("v", [("up", "v", None, t.INF), ("dn", "v", None, t.INF)]),
            {"v": (0, 0, 0)},
            {
                "up": dict(direction=(0, 0, 1), image_length=t.INF),
                "dn": dict(direction=(0, 0, -1), weight=2, image_length=t.INF),
            },
        )

    def test_positions_and_edge_data_refuse_writes(self, t2_witness):
        v = t2_witness.abstract.vertices[0]
        e = t2_witness.abstract.edges[0].id
        with pytest.raises(TypeError):
            t2_witness.positions[v] = (0, 0, 0)
        with pytest.raises(TypeError):
            t2_witness.edge_data[e] = t2_witness.edge_data[e]

    def test_replace_validates_the_new_curve(self, monkeypatch, t2_witness):
        runs = self.counting(monkeypatch)
        t.deformation_basis(t2_witness)
        assert runs == []  # modification_curve validated it when it was built
        v = t2_witness.abstract.vertices[0]
        moved = dataclasses.replace(
            t2_witness, positions={**t2_witness.positions, v: (1, 1, 1)}
        )
        with pytest.raises(InvalidCurve, match="does not reach head"):
            t.deformation_basis(moved)
        assert runs == [moved]
        t.deformation_basis(t2_witness)
        assert runs == [moved]

    def test_invalid_curve_keeps_its_message(self, monkeypatch, torus4):
        runs = self.counting(monkeypatch)
        h = self.unbalanced(torus4)
        messages = []
        for reader in (t.deformation_basis, t.isotropy_check, t.deformation_basis):
            with pytest.raises(InvalidCurve) as err:
                reader(h)
            messages.append(str(err.value))
        assert len(set(messages)) == 1 and "residual" in messages[0]
        assert runs == [h]

    @pytest.mark.parametrize("reader", [t.evaluate_at_infinity, t.boundary_zero_cycle],
                             ids=["evaluate_at_infinity", "boundary_zero_cycle"])
    def test_end_readers_refuse_an_invalid_curve(self, torus4, reader):
        h = self.unbalanced(torus4)
        assert t.is_horizontal_at_infinity(h)
        with pytest.raises(InvalidCurve, match="residual"):
            reader(h)


class TestEndsReadInOnePlace:
    """Every reader of a curve's ends refuses a curve outside a product with
    a line and a curve with a tilted ray, with the same errors.  That
    ``is_horizontal_at_infinity`` answers False for the tilted ray is
    tested in ``test_embedded.py``."""

    READERS = {
        "evaluate_at_infinity": t.evaluate_at_infinity,
        "boundary_zero_cycle": t.boundary_zero_cycle,
        "isotropy_check": t.isotropy_check,
        "infinity_restriction": lambda h: t.infinity_restriction(h, AREA),
        "end_evaluation": lambda h: end_evaluation(h, AREA, [{}, {}]),
    }
    WITH_PREDICATE = {**READERS, "is_horizontal_at_infinity": t.is_horizontal_at_infinity}

    @staticmethod
    def tilted(torus4):
        return t.parametrized_curve(
            t.product_with_line(torus4),
            t.abstract_curve("v", [("up", "v", None, t.INF), ("dn", "v", None, t.INF)]),
            {"v": (0, 0, 0)},
            {
                "up": dict(direction=(1, 0, 1), image_length=t.INF),
                "dn": dict(direction=(-1, 0, -1), image_length=t.INF),
            },
        )

    @pytest.mark.parametrize("reader", WITH_PREDICATE.values(), ids=WITH_PREDICATE.keys())
    def test_wrong_ambient(self, fig1a, reader):
        with pytest.raises(WrongAmbient):
            reader(fig1a)

    @pytest.mark.parametrize("reader", READERS.values(), ids=READERS.keys())
    def test_not_horizontal(self, torus4, reader):
        with pytest.raises(NotHorizontal):
            reader(self.tilted(torus4))
