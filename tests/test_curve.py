"""Abstract curves: validation, relative homology, locally constant forms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_abstract_curve
from oracles import boundary_oracle, kernel_contains, nullity_oracle, rank_oracle

import troplin as t
from troplin.curve import boundary_matrix, satisfies_vertex_equations
from troplin.errors import NotAForm


def line_curve():
    return t.abstract_curve("v", [("e1", "v", None, t.INF), ("e2", "v", None, t.INF)])


def theta_curve():
    return t.abstract_curve(
        ["p", "q"], [("e1", "p", "q", 1), ("e2", "p", "q", 1), ("e3", "p", "q", 2)]
    )


def fig1a_abstract():
    return t.abstract_curve(
        ["p", "q"],
        [
            ("w", "p", None, t.INF),
            ("s", "p", None, t.INF),
            ("pq", "p", "q", 1),
            ("d", "q", None, t.INF),
            ("ne", "q", None, t.INF),
        ],
    )


class TestValidateAbstract:
    def test_line_valid(self):
        assert t.validate_abstract(line_curve()).passed

    def test_one_valent_vertex_invalid(self):
        bad = t.abstract_curve("v", [("e1", "v", None, t.INF)])
        report = t.validate_abstract(bad)
        assert not report.passed
        assert any("valence" in c.name for c in report.failures())

    def test_valence_detail_counts_each_end(self):
        # v is isolated, u is a leaf, and the self-loop gives w valence 2
        bad = t.abstract_curve(["v", "u", "w"], [("r", "u", None, t.INF), ("loop", "w", "w", 1)])
        (check,) = t.validate_abstract(bad).failures()
        assert check.detail == "v: valence 0; u: valence 1"

    def test_theta_valid(self):
        assert t.validate_abstract(theta_curve()).passed

    def test_dangling_id(self):
        bad = t.abstract_curve("v", [("e1", "v", "ghost", 1), ("e2", "v", "v", 1)])
        assert not t.validate_abstract(bad).passed

    def test_finite_edge_needs_finite_length(self):
        bad = t.abstract_curve(["p", "q"], [("e1", "p", "q", t.INF), ("e2", "p", "q", 1)])
        assert not t.validate_abstract(bad).passed

    def test_nonpositive_length(self):
        bad = t.abstract_curve(["p", "q"], [("e1", "p", "q", 0), ("e2", "p", "q", 1)])
        assert not t.validate_abstract(bad).passed

    def test_homology_refuses_invalid_curves(self):
        bad = t.abstract_curve("v", [("e1", "v", None, t.INF)])
        with pytest.raises(t.InvalidCurve):
            t.relative_h1_basis(bad)
        with pytest.raises(t.InvalidCurve):
            t.locally_constant_forms(bad)


class TestRelativeH1:
    def test_line(self):
        basis = t.relative_h1_basis(line_curve())
        assert len(basis) == 1
        assert basis[0] in ((1, -1), (-1, 1))

    def test_fig1a_dimension(self):
        assert len(t.relative_h1_basis(fig1a_abstract())) == 3

    def test_theta_betti(self):
        # no boundary: dimension is the first Betti number |E| - |V| + 1
        assert len(t.relative_h1_basis(theta_curve())) == 2


class TestLocallyConstantForms:
    def test_line(self):
        forms = t.locally_constant_forms(line_curve())
        assert len(forms) == 1
        assert forms[0].values in ((1, -1), (-1, 1))

    def test_fig1a(self):
        assert len(t.locally_constant_forms(fig1a_abstract())) == 3

    def test_theta(self):
        assert len(t.locally_constant_forms(theta_curve())) == 2


class TestEta:
    def test_line(self):
        curve = line_curve()
        ids = tuple(e.id for e in curve.edges)
        chain = t.eta(curve, t.LocallyConstantForm(ids, (1, -1)))
        assert chain == (1, -1)

    def test_zero_form(self):
        curve = theta_curve()
        ids = tuple(e.id for e in curve.edges)
        assert t.eta(curve, t.LocallyConstantForm(ids, (0, 0, 0))) == (0, 0, 0)

    def test_theta_basis_in_kernel(self):
        curve = theta_curve()
        M = boundary_oracle(curve)
        for form in t.locally_constant_forms(curve):
            chain = t.eta(curve, form)
            assert kernel_contains(M, chain)

    def test_rejects_non_form(self):
        curve = line_curve()
        ids = tuple(e.id for e in curve.edges)
        with pytest.raises(NotAForm):
            t.eta(curve, t.LocallyConstantForm(ids, (1, 1)))


class TestRandomGraphs:
    def test_forms_match_homology_and_eta_kills_boundary(self):
        rng = random.Random(1123)
        for _ in range(120):
            curve = random_abstract_curve(rng)
            assert t.validate_abstract(curve).passed
            cycles = t.relative_h1_basis(curve)
            forms = t.locally_constant_forms(curve)
            M = boundary_oracle(curve)
            assert len(cycles) == len(forms) == nullity_oracle(M, len(curve.edges))
            for form in forms:
                assert satisfies_vertex_equations(curve, form)
                assert kernel_contains(M, t.eta(curve, form))
            if forms:
                assert rank_oracle([list(t.eta(curve, f)) for f in forms]) == len(forms)

    @pytest.mark.parametrize("seed, count", [(1123, 120), (2718, 500)])
    def test_boundary_matrix_matches_the_edges(self, seed, count):
        """The fuzzed curves of this class and of acceptance criterion 2."""
        rng = random.Random(seed)
        for _ in range(count):
            curve = random_abstract_curve(rng, max_edges=12)
            assert boundary_matrix(curve) == boundary_oracle(curve)

    @given(st.integers(2, 7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_tree_dimension_is_rays_minus_one(self, rays, data):
        """A star tree with b rays has form space of dimension b - 1."""
        curve = t.abstract_curve(
            "v", [(f"r{i}", "v", None, t.INF) for i in range(rays)]
        )
        assert len(t.locally_constant_forms(curve)) == rays - 1

    def test_bigger_trees(self):
        # caterpillar tree: spine of finite edges, rays at the ends and middle
        curve = t.abstract_curve(
            ["a", "b", "c"],
            [
                ("ab", "a", "b", 1),
                ("bc", "b", "c", Fraction(5, 2)),
                ("r1", "a", None, t.INF),
                ("r2", "a", None, t.INF),
                ("r3", "b", None, t.INF),
                ("r4", "c", None, t.INF),
                ("r5", "c", None, t.INF),
            ],
        )
        # b = 5 boundary points, tree: dimension 4
        assert len(t.locally_constant_forms(curve)) == 4
        assert len(t.relative_h1_basis(curve)) == 4
