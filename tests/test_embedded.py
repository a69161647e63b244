"""Parametrized curves: validation, deformations, evaluation at infinity."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    CYCLE_MANIFOLDS,
    CYCLE_PHASES,
    PRIMES,
    build_t2_cycle,
    build_t3_witness,
    circle_modification,
    manifold_with_cycles,
    random_t2_horizontal_curve,
    t2_modification,
)
from oracles import (
    deformation_nullity_minor_oracle,
    embeddedness_oracle,
    kernel_from_oracle,
    position_consistency_oracle,
    reduce_point_oracle,
    zero_cycle_oracle,
)

import troplin as t
from troplin import embedded, io, linalg, manifold
from troplin.embedded import _intersecting_edge_pairs, balancing_residual
from troplin.errors import DimensionMismatch, InvalidCurve, NotHorizontal, WrongAmbient
from troplin.manifold import KIND_GENERAL, AffineQuotientManifold, identity_deck, translation_deck

T3_WITNESS = build_t3_witness()  # module level: Hypothesis tests take no function fixtures


def _primitive(v):
    """The primitive integer vector along a non-zero rational vector."""
    den = lcm(*(Fraction(x).denominator for x in v))
    w = [int(x * den) for x in v]
    g = gcd(*w)
    return tuple(c // g for c in w)


@st.composite
def balanced_euclidean_curves(draw):
    """Segments between integer and half-integer points of a small grid and
    rays (direction components may be 0) in R^2 or R^3, with one extra ray
    per vertex that balances it.  The grid is small, so collinear overlaps,
    parallel edges, shared endpoints and crossings away from vertices all
    occur often."""
    n = draw(st.sampled_from([2, 3]))
    coordinate = st.integers(-2, 2).map(lambda k: Fraction(k, 2))
    points = draw(st.lists(st.tuples(*[coordinate] * n), min_size=2, max_size=5))
    steps = st.tuples(*[st.integers(-2, 2)] * n).filter(any).map(_primitive)
    edges, data, seen = [], {}, set()
    for k in range(draw(st.integers(1, 6))):
        tail = draw(st.integers(0, len(points) - 1))
        head = draw(st.integers(0, len(points) - 1))
        diff = [b - a for a, b in zip(points[tail], points[head])]
        if draw(st.booleans()) and any(diff) and (tail, head) not in seen:
            seen.add((tail, head))
            d = _primitive(diff)
            length = next(x / c for x, c in zip(diff, d) if c != 0)
            edges.append((f"s{k}", f"v{tail}", f"v{head}", length))
            data[f"s{k}"] = dict(direction=d, image_length=length)
        else:
            along = [v["direction"] for v in data.values()]
            d = draw(st.sampled_from(along) if along and draw(st.booleans()) else steps)
            edges.append((f"r{k}", f"v{tail}", None, t.INF))
            data[f"r{k}"] = dict(direction=d, image_length=t.INF)
    used = sorted({v for _, a, b, _ in edges for v in (a, b) if v is not None})
    positions = {v: points[int(v[1:])] for v in used}
    residual = {v: [0] * n for v in used}
    for eid, a, b, _ in edges:
        for i, c in enumerate(data[eid]["direction"]):
            residual[a][i] += c
            if b is not None:
                residual[b][i] -= c
    for v in used:
        if any(residual[v]):
            d = _primitive(residual[v])
            weight = next(x // c for x, c in zip(residual[v], d) if c != 0)
            edges.append((f"b{v}", v, None, t.INF))
            data[f"b{v}"] = dict(direction=tuple(-c for c in d), weight=weight,
                                 image_length=t.INF)
    return t.parametrized_curve(
        t.make_euclidean(n), t.abstract_curve(used, edges), positions, data
    )


_POSITION_BASES = [
    t.make_torus([(1, 0), (0, 1)]),
    t.make_torus([(2, 1), (-1, Fraction(3, 2))]),
    t.make_klein(Fraction(3, 2), Fraction(5, 3)),
]
POSITION_MANIFOLDS = _POSITION_BASES + [t.product_with_line(M) for M in _POSITION_BASES]
PRIME_FRACTION = st.builds(Fraction, st.integers(-10**4, 10**4), st.sampled_from(PRIMES[:25]))
PRIME_LENGTH = st.builds(Fraction, st.integers(1, 10**4), st.sampled_from(PRIMES[:25]))
STEP = st.tuples(*[st.integers(-3, 3)] * 3).filter(lambda v: any(v[:2]))


def _image(g, x):
    """x -> A x + t of a deck element, in Fractions."""
    return [sum(a * y for a, y in zip(row, x)) + s for row, s in zip(g.linear, g.translation)]


@st.composite
def position_curves(draw):
    """A chain v0 -> v1 -> ... of finite edges whose heads are the exact
    images of the tails, closed back to v0 by an edge whose translation is
    solved for, with a ray at every vertex.  Positions, lengths and
    translations carry many distinct prime denominators; half the time one
    position coordinate is then nudged by 1/p."""
    M = draw(st.sampled_from(POSITION_MANIFOLDS))
    n = M.dim
    point = st.tuples(*[PRIME_FRACTION] * n)

    def deck():
        g = identity_deck(n)
        for _ in range(draw(st.integers(0, 3))):
            g = g.compose(draw(st.sampled_from(M.generators)))
        return t.DeckElement(g.linear, draw(point)) if draw(st.booleans()) else g

    k = draw(st.integers(1, 5))
    positions = [list(draw(point))]
    edges, data = [], {}
    for i in range(k + 1):
        d, length, g = _primitive(draw(STEP)[:n]), draw(PRIME_LENGTH), deck()
        end = [x + length * c for x, c in zip(positions[i], d)]
        if i < k:
            positions.append(_image(g, end))
            eid, head = f"e{i}", f"v{i + 1}"
        else:  # closing edge: the translation that takes end to v0
            t0 = [p - y + s for p, y, s in zip(positions[0], _image(g, end), g.translation)]
            g = t.DeckElement(g.linear, t0)
            eid, head = "closing", "v0"
        edges.append((eid, f"v{i}", head, length))
        data[eid] = dict(direction=d, image_length=length, deck=g)
    for i in range(k + 1):
        edges.append((f"r{i}", f"v{i}", None, t.INF))
        data[f"r{i}"] = dict(direction=_primitive(draw(STEP)[:n]), image_length=t.INF)
    if draw(st.booleans()):
        v, j = draw(st.integers(0, k)), draw(st.integers(0, n - 1))
        positions[v][j] += Fraction(1, draw(st.sampled_from(PRIMES[:25])))
    return t.parametrized_curve(
        M, t.abstract_curve([f"v{i}" for i in range(k + 1)], edges),
        {f"v{i}": p for i, p in enumerate(positions)}, data,
    )


def klein_modification(breakpoints: int, seed: int = 0):
    """A modification over a generic long axis-2 fibre of K(2, 3)."""
    circle = t.fiber_circle(t.make_klein(2, 3), 2, Fraction(3, 4))
    return circle_modification(random.Random(seed), circle, breakpoints)


class TestValidateParametrized:
    def test_fig1a_balanced(self, fig1a):
        report = t.validate_parametrized(fig1a)
        assert report.passed
        for v in fig1a.abstract.vertices:
            assert balancing_residual(fig1a, v) == (0, 0)

    def test_tripod_valid(self, tripod):
        assert t.validate_parametrized(tripod).passed

    def test_tripod_weight_violation(self, tripod):
        edges = {
            eid: dict(
                direction=tripod.data(eid).direction,
                weight=tripod.data(eid).weight,
                image_length=t.INF,
            )
            for eid in ("e1", "e2", "e3")
        }
        edges["e1"]["weight"] = 2
        bad = t.parametrized_curve(tripod.manifold, tripod.abstract, tripod.positions, edges)
        report = t.validate_parametrized(bad)
        assert not report.passed
        assert any("residual (1, 0)" in c.detail for c in report.failures())

    def test_position_consistency_catches_drift(self, fig1a):
        positions = dict(fig1a.positions)
        positions["q"] = (0, 2)
        edges = {
            e.id: dict(
                direction=fig1a.data(e.id).direction,
                weight=fig1a.data(e.id).weight,
                image_length=fig1a.data(e.id).image_length,
            )
            for e in fig1a.abstract.edges
        }
        bad = t.parametrized_curve(fig1a.manifold, fig1a.abstract, positions, edges)
        report = t.validate_parametrized(bad)
        assert any("position consistency" == c.name for c in report.failures())

    @given(position_curves())
    @settings(max_examples=200, deadline=None)
    def test_position_consistency_matches_the_fraction_oracle(self, h):
        report = t.validate_parametrized(h)
        check = next(c for c in report.checks if c.name == "position consistency")
        assert (check.status, check.detail) == position_consistency_oracle(h)

    def test_klein_validation_applies_no_deck_and_decides_each_once(self, monkeypatch):
        h = klein_modification(40)
        applied, decided = [], []
        apply, membership = t.DeckElement.apply, embedded.deck_membership
        monkeypatch.setattr(t.DeckElement, "apply", lambda g, x: applied.append(x) or apply(g, x))

        def counted(M):
            member = membership(M)
            return lambda g: decided.append(g) or member(g)

        monkeypatch.setattr(embedded, "deck_membership", counted)
        assert t.validate_parametrized(h).passed
        assert applied == []
        decks = {h.data(e.id).deck for e in h.abstract.edges}
        assert len(decided) == len(decks) == 2
        assert set(decided) == decks

    def test_local_injectivity(self, euclid2):
        doubled = t.parametrized_curve(
            euclid2,
            t.abstract_curve(
                "v",
                [
                    ("e1", "v", None, t.INF),
                    ("e2", "v", None, t.INF),
                    ("e3", "v", None, t.INF),
                    ("e4", "v", None, t.INF),
                ],
            ),
            {"v": (0, 0)},
            {
                "e1": dict(direction=(1, 0), weight=1, image_length=t.INF),
                "e2": dict(direction=(1, 0), weight=1, image_length=t.INF),
                "e3": dict(direction=(-1, 0), weight=1, image_length=t.INF),
                "e4": dict(direction=(-1, 0), weight=1, image_length=t.INF),
            },
        )
        report = t.validate_parametrized(doubled)
        assert any(c.name == "local injectivity" for c in report.failures())

    def test_euclidean_crossing_detected(self, euclid2):
        # two parallel horizontal lines plus one vertical line crossing both
        crossing = t.parametrized_curve(
            euclid2,
            t.abstract_curve(
                ["u", "w"],
                [
                    ("ul", "u", None, t.INF),
                    ("ur", "u", None, t.INF),
                    ("wl", "w", None, t.INF),
                    ("wr", "w", None, t.INF),
                ],
            ),
            {"u": (0, 0), "w": (1, 1)},
            {
                "ul": dict(direction=(-1, 0), weight=1, image_length=t.INF),
                "ur": dict(direction=(1, 0), weight=1, image_length=t.INF),
                "wl": dict(direction=(0, -1), weight=1, image_length=t.INF),
                "wr": dict(direction=(0, 1), weight=1, image_length=t.INF),
            },
        )
        report = t.validate_parametrized(crossing)
        assert any(c.name.startswith("global embeddedness") for c in report.failures())

    def test_euclidean_collinear_overlap_detected(self, euclid2):
        # two disjoint straight lines lying on the same horizontal axis
        overlapping = t.parametrized_curve(
            euclid2,
            t.abstract_curve(
                ["u", "w"],
                [
                    ("ul", "u", None, t.INF),
                    ("ur", "u", None, t.INF),
                    ("wl", "w", None, t.INF),
                    ("wr", "w", None, t.INF),
                ],
            ),
            {"u": (0, 0), "w": (1, 0)},
            {
                "ul": dict(direction=(-1, 0), weight=1, image_length=t.INF),
                "ur": dict(direction=(1, 0), weight=1, image_length=t.INF),
                "wl": dict(direction=(-1, 0), weight=1, image_length=t.INF),
                "wr": dict(direction=(1, 0), weight=1, image_length=t.INF),
            },
        )
        report = t.validate_parametrized(overlapping)
        failures = [c for c in report.failures() if c.name.startswith("global")]
        assert failures and "overlap" in failures[0].detail

    @given(balanced_euclidean_curves())
    @settings(max_examples=300, deadline=None)
    def test_sweep_agrees_with_all_pairs_oracle(self, h):
        pairs, detail = embeddedness_oracle(h)
        ends = {e.id: {e.tail, e.head} - {None} for e in h.abstract.edges}
        assert [(e.id, f.id, hits) for e, f, hits in _intersecting_edge_pairs(h)] == [
            (e, f, hits) for e, f, hits in pairs if ends[e].isdisjoint(ends[f])
        ]
        report = t.validate_parametrized(h)
        check = next(
            (c for c in report.checks if c.name == "global embeddedness (euclidean)"), None
        )
        if check is not None:
            assert check.detail == detail
            assert check.status == ("fail" if detail else "pass")
        else:
            assert not report.passed
            assert report.checks[-1] == t.Check(
                "global embeddedness", "skipped", "not checked because an earlier check failed"
            )

    @given(balanced_euclidean_curves())
    @settings(max_examples=300, deadline=None)
    def test_edges_sharing_a_vertex_meet_only_there(self, h):
        """Why the sweep may skip pairs that share a vertex: once every check
        before embeddedness passes, such a pair meets exactly at the
        positions of its shared vertices."""
        report = t.validate_parametrized(h)
        assume(report.checks[-1].name == "global embeddedness (euclidean)")
        hits = {(e, f): points for e, f, points in embeddedness_oracle(h)[0]}
        for e, f in combinations(h.abstract.edges, 2):
            shared = {e.tail, e.head} & {f.tail, f.head} - {None}
            if shared:
                assert hits[e.id, f.id] != "overlap"
                assert set(hits[e.id, f.id]) == {h.position(v) for v in shared}

    def test_opposite_rays_from_one_vertex_pass(self, euclid2):
        h = t.parametrized_curve(
            euclid2,
            t.abstract_curve("v", [("a", "v", None, t.INF), ("b", "v", None, t.INF)]),
            {"v": (0, 0)},
            {"a": dict(direction=(1, 0), image_length=t.INF),
             "b": dict(direction=(-1, 0), image_length=t.INF)},
        )
        report = t.validate_parametrized(h)
        assert report.passed
        assert report.checks[-1] == t.Check("global embeddedness (euclidean)", "pass", "")
        assert embeddedness_oracle(h)[0] == [("a", "b", [(0, 0)])]
        assert _intersecting_edge_pairs(h) == []

    def test_vertex_inside_an_adjacent_edge_fails_local_injectivity(self, euclid2):
        # w sits inside the edge uv, and the edge uw leaves u along the same ray
        h = t.parametrized_curve(
            euclid2,
            t.abstract_curve(
                ["u", "w", "x"],
                [("ux", "u", "x", 2), ("uw", "u", "w", 1), ("ru", "u", None, t.INF),
                 ("rw", "w", None, t.INF), ("rx", "x", None, t.INF)],
            ),
            {"u": (0, 0), "w": (1, 0), "x": (2, 0)},
            {"ux": dict(direction=(1, 0), image_length=2),
             "uw": dict(direction=(1, 0), image_length=1),
             "ru": dict(direction=(-1, 0), weight=2, image_length=t.INF),
             "rw": dict(direction=(1, 0), image_length=t.INF),
             "rx": dict(direction=(1, 0), image_length=t.INF)},
        )
        report = t.validate_parametrized(h)
        assert [c.name for c in report.failures()] == ["local injectivity"]
        assert report.checks[-1] == t.Check(
            "global embeddedness", "skipped", "not checked because an earlier check failed"
        )

    def test_crossing_at_another_vertex_position_is_reported(self, euclid2):
        # ur and wd share no vertex and cross at (1, 0), where vertex c sits
        h = t.parametrized_curve(
            euclid2,
            t.abstract_curve(
                ["u", "w", "c"],
                [("ul", "u", None, t.INF), ("ur", "u", None, t.INF),
                 ("wd", "w", None, t.INF), ("wu", "w", None, t.INF),
                 ("cp", "c", None, t.INF), ("cm", "c", None, t.INF)],
            ),
            {"u": (0, 0), "w": (1, 1), "c": (1, 0)},
            {"ul": dict(direction=(-1, 0), image_length=t.INF),
             "ur": dict(direction=(1, 0), image_length=t.INF),
             "wd": dict(direction=(0, -1), image_length=t.INF),
             "wu": dict(direction=(0, 1), image_length=t.INF),
             "cp": dict(direction=(1, 1), image_length=t.INF),
             "cm": dict(direction=(-1, -1), image_length=t.INF)},
        )
        report = t.validate_parametrized(h)
        (check,) = report.failures()
        assert check.name == "global embeddedness (euclidean)"
        assert check.detail.startswith("ur and wd meet at (1, 0) away from a shared vertex")
        assert check.detail == embeddedness_oracle(h)[1]

    def test_unbalanced_euclidean_curve_skips_embeddedness(self, euclid2):
        h = t.parametrized_curve(
            euclid2,
            t.abstract_curve("v", [("a", "v", None, t.INF), ("b", "v", None, t.INF)]),
            {"v": (0, 0)},
            {"a": dict(direction=(1, 0), image_length=t.INF),
             "b": dict(direction=(0, 1), image_length=t.INF)},
        )
        report = t.validate_parametrized(h)
        assert [c.name for c in report.failures()] == ["balancing"]
        assert report.checks[-1] == t.Check(
            "global embeddedness", "skipped", "not checked because an earlier check failed"
        )

    def test_undecidable_deck_membership_is_skipped(self):
        cycle = build_t2_cycle()
        T = cycle.manifold
        general = AffineQuotientManifold(T.dim, T.generators, T.names, KIND_GENERAL)
        h = t.ParametrizedTropicalCurve(general, cycle.abstract, cycle.positions,
                                        cycle.edge_data)
        report = t.validate_parametrized(h)
        (check,) = [c for c in report.checks if c.name == "deck elements belong to the group"]
        assert check.status == "skipped"
        assert "cannot be decided" in check.detail and "loop" in check.detail
        assert report.passed

    def test_identity_decks_belong_to_a_general_group(self, line_r2):
        general = AffineQuotientManifold(2, (), (), KIND_GENERAL)
        h = t.ParametrizedTropicalCurve(general, line_r2.abstract, line_r2.positions,
                                        line_r2.edge_data)
        report = t.validate_parametrized(h)
        (check,) = [c for c in report.checks if c.name == "deck elements belong to the group"]
        assert check.status == "pass"

    def test_quotient_embeddedness_not_checked(self, t2_cycle):
        report = t.validate_parametrized(t2_cycle)
        assert report.passed
        assert any(c.status == "skipped" and "not checked" in c.detail for c in report.checks)

    def test_mutating_any_weight_breaks_fig1a(self, fig1a):
        for eid in ("w", "s", "pq", "d", "ne"):
            edges = {
                e.id: dict(
                    direction=fig1a.data(e.id).direction,
                    weight=fig1a.data(e.id).weight + (1 if e.id == eid else 0),
                    image_length=fig1a.data(e.id).image_length,
                )
                for e in fig1a.abstract.edges
            }
            bad = t.parametrized_curve(
                fig1a.manifold, fig1a.abstract, fig1a.positions, edges
            )
            assert not t.validate_parametrized(bad).passed


class TestDeformationBasis:
    def test_line_dimension(self, line_r2):
        assert len(t.deformation_basis(line_r2)) == 2
        assert deformation_nullity_minor_oracle(line_r2) == 2

    def test_fig1a_dimension(self, fig1a):
        assert len(t.deformation_basis(fig1a)) == 3
        assert deformation_nullity_minor_oracle(fig1a) == 3

    def test_t2_cycle_dimension(self, t2_cycle):
        assert len(t.deformation_basis(t2_cycle)) == 2
        assert deformation_nullity_minor_oracle(t2_cycle) == 2

    def test_t2_witness_dimension(self, t2_witness):
        assert len(t.deformation_basis(t2_witness)) == 3
        assert deformation_nullity_minor_oracle(t2_witness) == 3

    def test_one_annihilator_per_transported_direction(self, monkeypatch):
        h = klein_modification(40)
        annihilated, basis = [], linalg.annihilator_basis
        monkeypatch.setattr(linalg, "annihilator_basis",
                            lambda v: annihilated.append(v) or basis(v))
        embedded.deformation_constraints(h)
        transported = {
            linalg.mat_vec(h.data(e.id).deck.linear, h.data(e.id).direction)
            for e in h.abstract.finite_edges()
        }
        assert sorted(annihilated) == sorted(transported)

    @pytest.mark.parametrize("breakpoints", [8, 16, 28, 40])
    @pytest.mark.parametrize("base", ["klein", "t2"])
    def test_circle_modification_basis_is_the_oracle_kernel(self, base, breakpoints):
        if base == "klein":
            h = klein_modification(breakpoints, seed=breakpoints)
        else:
            h = t2_modification(random.Random(breakpoints), breakpoints, (2, 1))
        M = embedded.deformation_constraints(h)
        flat = [tuple(x for v in h.abstract.vertices for x in D[v])
                for D in t.deformation_basis(h)]
        dense = [[row.get(j, 0) for j in range(M.ncols)] for row in M]
        assert flat == kernel_from_oracle(dense, M.ncols)
        assert len(flat) == deformation_nullity_minor_oracle(h)
        # Each edge's rows are sparse: they hold only its tail and head columns.
        n, rows = h.manifold.dim, iter(M)
        columns = {v: range(i * n, i * n + n) for i, v in enumerate(h.abstract.vertices)}
        for e in h.abstract.finite_edges():
            d = h.data(e.id)
            for _ in linalg.annihilator_basis(linalg.mat_vec(d.deck.linear, d.direction)):
                assert set(next(rows)) <= {*columns[e.tail], *columns[e.head]}
        assert next(rows, None) is None

    def test_members_satisfy_conditions(self, fig1a):
        from troplin.embedded import is_deformation

        for D in t.deformation_basis(fig1a):
            assert is_deformation(fig1a, D)

    def test_is_deformation_refuses_an_invalid_curve(self):
        """An edge without embedding data is an invalid curve, not a KeyError."""
        doc = io.load_json(t.data_path("t2-cycle.json"))
        del doc["edges+"][0]
        h = io.parse_parametrized_curve(doc)
        zero = {v: (0,) * h.manifold.dim for v in h.abstract.vertices}
        with pytest.raises(InvalidCurve):
            embedded.is_deformation(h, zero)
        with pytest.raises(InvalidCurve):
            t.deformation_basis(h)

    @pytest.mark.parametrize("assignment, named", [
        ({}, "vertex 'v0'"),
        ({"v0": (0,), "v1": (0,)}, "'v0' is assigned 1 coordinates, not 3"),
        ({"v0": (0, 0, 0), "v1": (0, 0, 0, 0)}, "'v1' is assigned 4 coordinates, not 3"),
    ])
    def test_is_deformation_checks_the_assignment(self, assignment, named):
        """A missing vertex or a vector of the wrong length is a usage error
        that names it, not a KeyError or an IndexError."""
        h = io.parse_parametrized_curve(io.load_json(t.data_path("t2-cycle.json")))
        with pytest.raises(DimensionMismatch, match=named):
            embedded.is_deformation(h, assignment)

    def test_subdivision_adds_exactly_one_slide(self):
        """Refining a finite edge with a 2-valent vertex adds the marked
        point's slide along the edge, raising the dimension by one."""
        rng = random.Random(99)
        for _ in range(15):
            h = random_t2_horizontal_curve(rng, max_vertices=5)
            finite = h.abstract.finite_edges()
            if not finite:
                continue
            e = rng.choice(finite)
            d = h.data(e.id)
            before = len(t.deformation_basis(h))
            ratio = Fraction(1, 2)
            mid_len = d.image_length * ratio
            mid_pos = tuple(
                Fraction(h.position(e.tail)[i]) + mid_len * d.direction[i]
                for i in range(h.manifold.dim)
            )
            vertices = list(h.abstract.vertices) + ["mid"]
            edges = []
            for f in h.abstract.edges:
                if f.id == e.id:
                    edges.append((f.id + "_a", f.tail, "mid", mid_len))
                    edges.append((f.id + "_b", "mid", f.head, d.image_length - mid_len))
                else:
                    edges.append((f.id, f.tail, f.head, f.length))
            data = {}
            for f in h.abstract.edges:
                if f.id == e.id:
                    data[f.id + "_a"] = dict(
                        direction=d.direction, weight=d.weight, image_length=mid_len
                    )
                    data[f.id + "_b"] = dict(
                        direction=d.direction,
                        weight=d.weight,
                        image_length=d.image_length - mid_len,
                        deck=d.deck,
                    )
                else:
                    fd = h.data(f.id)
                    data[f.id] = dict(
                        direction=fd.direction,
                        weight=fd.weight,
                        image_length=fd.image_length,
                        deck=fd.deck,
                    )
            positions = dict(h.positions)
            positions["mid"] = mid_pos
            refined = t.parametrized_curve(
                h.manifold, t.abstract_curve(vertices, edges), positions, data
            )
            assert t.validate_parametrized(refined).passed
            assert len(t.deformation_basis(refined)) == before + 1


class TestHorizontalAndEvaluation:
    def test_vertical_ray_is_horizontal(self, t2_witness):
        assert t.is_horizontal_at_infinity(t2_witness)

    def test_tilted_ray_is_not(self, torus4):
        ambient = t.product_with_line(torus4)
        curve = t.parametrized_curve(
            ambient,
            t.abstract_curve(
                "v", [("up", "v", None, t.INF), ("dn", "v", None, t.INF)]
            ),
            {"v": (0, 0, 0)},
            {
                "up": dict(direction=(1, 0, 1), weight=1, image_length=t.INF),
                "dn": dict(direction=(-1, 0, -1), weight=1, image_length=t.INF),
            },
        )
        assert not t.is_horizontal_at_infinity(curve)
        with pytest.raises(NotHorizontal):
            t.evaluate_at_infinity(curve)

    def test_wrong_ambient(self, fig1a):
        with pytest.raises(WrongAmbient):
            t.is_horizontal_at_infinity(fig1a)

    def test_circle_witness_ends(self, t2_witness):
        minus, plus = t.evaluate_at_infinity(t2_witness)
        assert minus.entries == (((0, 0), 2),)
        assert plus.entries == (((2, 0), 2),)

    def test_bare_circle_has_empty_ends(self, torus4):
        circle = t.circle_embedding(torus4, (0, 0), (1, 0), 4, translation_deck((-4, 0)))
        bare = t.modification_curve(circle, t.principal_function(4, []))
        minus, plus = t.evaluate_at_infinity(bare)
        assert minus.is_empty() and plus.is_empty()
        assert t.boundary_zero_cycle(bare).is_empty()

    def test_boundary_cycle(self, t2_witness):
        boundary = t.boundary_zero_cycle(t2_witness)
        assert boundary.entries == (((0, 0), -2), ((2, 0), 2))
        assert boundary.degree == 0

    def test_two_points_each_side(self, torus4):
        """A witness with two distinct minus ends and two distinct plus
        ends, the shape giving the relation p1+ + p2+ = p1- + p2-."""
        circle = t.circle_embedding(torus4, (0, 0), (1, 0), 4, translation_deck((-4, 0)))
        f = t.principal_function(
            4, [(0, 1), (1, 1), (2, -1), (3, -1)]
        )
        h = t.modification_curve(circle, f)
        minus, plus = t.evaluate_at_infinity(h)
        assert minus.entries == (((0, 0), 1), ((1, 0), 1))
        assert plus.entries == (((2, 0), 1), ((3, 0), 1))
        assert t.boundary_zero_cycle(h).degree == 0

    def test_weight_balance_on_fuzzed_curves(self):
        rng = random.Random(4242)
        for _ in range(40):
            h = random_t2_horizontal_curve(rng)
            minus, plus = t.evaluate_at_infinity(h)
            assert minus.degree == plus.degree
            assert t.boundary_zero_cycle(h).degree == 0

    @given(
        st.integers(0, 10**6),
        st.fractions(min_value=0, max_value=2, max_denominator=5).filter(lambda q: q < 2),
        st.fractions(min_value=Fraction(1, 5), max_value=Fraction(14, 5), max_denominator=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_boundary_is_plus_ends_minus_minus_ends(self, seed, x, y):
        """One merge over the signed ends gives the same cycle, value types
        included, as subtracting the two cycles of evaluate_at_infinity."""
        K = t.make_klein(2, 3)
        p = t.reduce_point(K, (x, y))
        curves = [random_t2_horizontal_curve(random.Random(seed)), T3_WITNESS]
        if p[1] != 0:
            curves.append(t.witness_fiber_relation(K, p))
        if p[1] not in (0, Fraction(3, 2)):
            curves.append(t.witness_two_torsion(K, p))
        for h in curves:
            minus, plus = t.evaluate_at_infinity(h)
            boundary = t.boundary_zero_cycle(h)
            assert repr(boundary) == repr(plus - minus)


class TestZeroCycle:
    def test_reduction_merges_orbit_points(self, klein23):
        z = t.zero_cycle(
            klein23, [((Fraction(1, 2), 1), 1), ((Fraction(5, 2), -1), 1)]
        )
        assert z.entries == (((Fraction(1, 2), 1), 2),)

    def test_zero_multiplicities_pruned(self, klein23):
        z = t.zero_cycle(klein23, [((0, 0), 1), ((0, 0), -1)])
        assert z.is_empty()

    def test_arithmetic(self, klein23):
        z1 = t.zero_cycle(klein23, [((0, 0), 1)])
        z2 = t.zero_cycle(klein23, [((1, 1), 2)])
        assert (z1 + z2).degree == 3
        assert (z1 - z1).is_empty()
        assert (-z2).multiplicity((1, 1)) == -2

    @given(manifold_with_cycles(CYCLE_MANIFOLDS))
    @settings(max_examples=150, deadline=None, phases=CYCLE_PHASES)
    def test_matches_the_fraction_oracle(self, case):
        """Points, multiplicities and value types all equal the point-by-point
        Fraction reduction, merge and sort."""
        M, items = case
        assert repr(t.zero_cycle(M, items).entries) == repr(zero_cycle_oracle(M, items))
        for p, _ in items:
            assert repr(t.reduce_point(M, p)) == repr(reduce_point_oracle(M, p))

    @given(manifold_with_cycles(CYCLE_MANIFOLDS, count=2))
    @settings(max_examples=80, deadline=None, phases=CYCLE_PHASES)
    def test_sum_and_difference_match_the_oracle(self, case):
        M, items1, items2 = case
        z1, z2 = t.zero_cycle(M, items1), t.zero_cycle(M, items2)
        negated = [(p, -m) for p, m in items2]
        assert repr((-z2).entries) == repr(zero_cycle_oracle(M, negated))
        assert repr((z1 + z2).entries) == repr(zero_cycle_oracle(M, items1 + items2))
        assert repr((z1 - z2).entries) == repr(zero_cycle_oracle(M, items1 + negated))

    @given(manifold_with_cycles(CYCLE_MANIFOLDS), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None, phases=CYCLE_PHASES)
    def test_identity_does_not_depend_on_item_order(self, case, rng):
        """Equality, hash and repr depend on the cycle's content only, not on
        the order in which its keys were first met."""
        M, items = case
        shuffled = list(items)
        rng.shuffle(shuffled)
        z, w = t.zero_cycle(M, items), t.zero_cycle(M, shuffled[::-1])
        assert z == w and hash(z) == hash(w) and repr(z) == repr(w)
        assert z + w == w + z and z - w == t.ZeroCycle(())

    def test_the_empty_cycle(self, klein23):
        empty = t.ZeroCycle(())
        assert empty.is_empty() and empty.degree == 0 and empty.entries == ()
        assert empty == t.zero_cycle(klein23, []) and repr(empty) == "ZeroCycle(entries=())"
        assert hash(empty) == hash(t.zero_cycle(klein23, [((1, 1), 1), ((1, 1), -1)]))

    def test_multiplicity_of_canonical_and_absent_points(self, klein23):
        z = t.zero_cycle(klein23, [((Fraction(5, 2), -1), 3), ((0, 2), -1)])
        assert z.multiplicity((Fraction(1, 2), 1)) == 3
        assert z.multiplicity(("2/4", "1")) == 3  # read as the same exact point
        assert z.multiplicity((0, 2)) == -1
        assert z.multiplicity((Fraction(5, 2), -1)) == 0  # not canonical: absent
        assert z.multiplicity((1, 1)) == 0
        with pytest.raises(TypeError):  # the keys are read-only, so hash and entries hold
            z.keys[(1, 1, 1)] = 1

    def test_the_decision_builds_no_exact_point(self, monkeypatch):
        """zero_cycle and chow_equivalent on two 3,000-point Klein cycles stay
        on integer keys; the exact points are built once each, when
        ``entries`` is first read."""
        calls = []

        def counting(key, _key_point=manifold.key_point):
            calls.append(key)
            return _key_point(key)

        monkeypatch.setattr(manifold, "key_point", counting)
        monkeypatch.setattr(embedded, "key_point", counting)
        K = t.make_klein(2, 3)
        rng = random.Random(3)

        def grid(span):
            return Fraction(rng.randrange(-span * 64, span * 64), 64)

        z1 = [((grid(8), grid(8)), rng.choice([-2, -1, 1, 2])) for _ in range(3000)]
        z2 = []  # every point moved by a deck element b^k a^m
        for (x, y), mult in z1:
            k, m = rng.randrange(-3, 4), rng.randrange(-3, 4)
            z2.append(((x + 2 * k, (-1 if k % 2 else 1) * (y + 3 * m)), mult))
        c1, c2 = t.zero_cycle(K, z1), t.zero_cycle(K, z2)
        assert t.chow_equivalent(K, c1, c2) and c1 == c2
        assert calls == []
        assert len(c1.entries) == len(c1.keys) and c1.entries is c1.entries
        assert sorted(calls) == sorted(c1.keys)

    def test_empty_cycle_on_a_general_manifold(self):
        general = AffineQuotientManifold(2, (), (), KIND_GENERAL)
        assert t.zero_cycle(general, []) == t.ZeroCycle(())
        with pytest.raises(t.UnsupportedManifoldKind):
            t.zero_cycle(general, [((0, 0), 1)])

    def test_wrong_length_point(self, klein23):
        with pytest.raises(ValueError, match="point dimension mismatch"):
            t.zero_cycle(klein23, [((0, 0), 1), ((0, 0, 0), 1)])
