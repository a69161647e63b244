"""Acceptance criteria, one test per criterion, each timed and reported.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion.  Every numeric check is exact (rational arithmetic); the only
tolerances are the stated wall-clock budgets.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (
    build_fig1a,
    build_line_r2,
    build_t2_cycle,
    build_t2_witness,
    random_abstract_curve,
    random_t2_horizontal_curve,
    t2_modification,
)
from oracles import (
    deformation_nullity_minor_oracle,
    kernel_contains,
    klein_fiber_circumference_oracle,
)

import troplin as t
from troplin import cli, io
from troplin.curve import boundary_matrix
from troplin.embedded import balancing_residual
from troplin.manifold import contains_deck, translation_deck

AREA = t.TropicalForm(2, 2, (1,))


def report(number: int, description: str, started: float, budget: float | None = None):
    elapsed = time.perf_counter() - started
    line = f"criterion {number}: PASS - {description} ({elapsed:.2f}s)"
    print(line)
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


@pytest.fixture(scope="module")
def fuzzed_horizontal_curves():
    rng = random.Random(31415)
    return [random_t2_horizontal_curve(rng, max_vertices=8) for _ in range(100)]


def test_criterion_1_fig1a_fidelity():
    started = time.perf_counter()
    from troplin import io

    fig1a = io.parse_parametrized_curve(io.load_json(str(t.data_path("fig1a.json"))))
    assert fig1a == build_fig1a()
    report_obj = t.validate_parametrized(fig1a)
    assert report_obj.passed
    for v in fig1a.abstract.vertices:
        assert balancing_residual(fig1a, v) == (0, 0)
    for eid in [e.id for e in fig1a.abstract.edges]:
        edges = {
            e.id: dict(
                direction=fig1a.data(e.id).direction,
                weight=fig1a.data(e.id).weight + (1 if e.id == eid else 0),
                image_length=fig1a.data(e.id).image_length,
            )
            for e in fig1a.abstract.edges
        }
        mutated = t.parametrized_curve(fig1a.manifold, fig1a.abstract, fig1a.positions, edges)
        assert not t.validate_parametrized(mutated).passed
    report(1, "fig1a validates exactly; every single-weight mutation fails", started, 1.0)


def test_criterion_2_homology_forms_equivalence():
    started = time.perf_counter()
    rng = random.Random(2718)
    for _ in range(500):
        curve = random_abstract_curve(rng, max_edges=12)
        cycles = t.relative_h1_basis(curve)
        forms = t.locally_constant_forms(curve)
        assert len(cycles) == len(forms)
        M = [
            [boundary_matrix(curve)[i][j] for j in range(len(curve.edges))]
            for i in range(len(curve.vertices))
        ]
        for form in forms:
            assert kernel_contains(M, t.eta(curve, form))
    report(2, "500 fuzzed curves: dim forms = dim relative H1 and boundary of eta = 0",
           started, 30.0)


def test_criterion_3_deformation_dimensions():
    cases = [
        ("line in R^2", build_line_r2(), 2),
        ("fig1a", build_fig1a(), 3),
        ("T^2 cycle", build_t2_cycle(), 2),
        ("T^2 x R lift", build_t2_witness(), 3),
    ]
    for name, curve, expected in cases:
        started = time.perf_counter()
        assert len(t.deformation_basis(curve)) == expected, name
        assert deformation_nullity_minor_oracle(curve) == expected, name
        assert time.perf_counter() - started < 1.0, name
    report(3, "deformation dims 2/3/2/3 match the independent dense-kernel oracle",
           time.perf_counter())


def test_criterion_4_isotropy(fuzzed_horizontal_curves):
    started = time.perf_counter()
    witness = build_t2_witness()
    for h in [witness] + fuzzed_horizontal_curves:
        check = t.isotropy_check(h, AREA)
        assert check.passed
    report(4, "witness + 100 fuzzed horizontal curves: all wedge pairs exactly 0",
           started, 60.0)


def test_criterion_5_roitman_bound(fuzzed_horizontal_curves):
    started = time.perf_counter()
    witness = build_t2_witness()
    for h in [witness] + fuzzed_horizontal_curves:
        if not h.abstract.infinite_edges():  # an empty divisor: no end copies
            with pytest.raises(t.InputError):
                t.infinity_restriction(h, AREA)
            continue
        space, vectors = t.infinity_restriction(h, AREA)
        result = t.roitman_bound_check(space, vectors)
        assert result.isotropic
        assert result.satisfied
    report(5, "all infinity-restricted deformation spaces isotropic and within the bound",
           started)


def test_criterion_6_klein_invariant_forms():
    started = time.perf_counter()
    rng = random.Random(161803)
    pairs = [(Fraction(rng.randint(1, 24), rng.randint(1, 8)),
              Fraction(rng.randint(1, 24), rng.randint(1, 8))) for _ in range(20)]
    for x0, y0 in pairs:
        K = t.make_klein(x0, y0)
        one_forms = t.invariant_forms(K, 1)
        assert len(one_forms) == 1
        assert one_forms[0].coefficients in ((1, 0), (-1, 0))  # the span of dx
        assert t.invariant_forms(K, 2) == []
    report(6, "20 parameter pairs: invariant 1-forms = span dx, no invariant 2-forms",
           started)


def test_criterion_7_klein_chow_structure():
    started = time.perf_counter()
    rng = random.Random(42)
    K = t.make_klein(2, 3)
    # fiber circumferences against the orbit-enumeration oracle
    for axis, value in [(1, Fraction(1, 2)), (1, Fraction(7, 4)), (2, 1),
                        (2, Fraction(5, 4)), (2, 0), (2, Fraction(3, 2))]:
        circle = t.fiber_circle(K, axis, value)
        oracle = klein_fiber_circumference_oracle(2, 3, circle.anchor, circle.direction)
        assert circle.circumference == oracle
    assert t.fiber_circle(K, 1, Fraction(1, 2)).circumference == 3
    assert t.fiber_circle(K, 2, 1).circumference == 4
    assert t.fiber_circle(K, 2, 0).circumference == 2
    # witnesses pass all validators and have the stated boundary cycles
    for _ in range(10):
        p = t.reduce_point(K, (Fraction(rng.randint(-8, 8), 4), Fraction(rng.randint(-8, 8), 4)))
        if p[1] not in (0, Fraction(3, 2)):
            h = t.witness_two_torsion(K, p)
            assert t.validate_parametrized(h).passed
            assert t.is_horizontal_at_infinity(h)
            assert t.boundary_zero_cycle(h) == t.zero_cycle(
                K, [(t.iota(K, p), 2), (p, -2)]
            )
        if p[1] != 0:
            h = t.witness_fiber_relation(K, p)
            assert t.validate_parametrized(h).passed
            assert t.is_horizontal_at_infinity(h)
            assert t.boundary_zero_cycle(h) == t.zero_cycle(
                K, [(t.section_point(K, p[0]), 2), (p, -1), (t.iota(K, p), -1)]
            )
    # the decision procedure on fuzzed points
    for _ in range(50):
        p = (Fraction(rng.randint(-16, 16), 4), Fraction(rng.randint(-16, 16), 4))
        zp = t.zero_cycle(K, [(p, 1)])
        zi = t.zero_cycle(K, [(t.iota(K, p), 1)])
        zshift = t.zero_cycle(K, [((p[0] + Fraction(1, 2), p[1]), 1)])  # x0/4 shift
        assert t.chow_equivalent(K, zp, zi)
        assert not t.chow_equivalent(K, zp, zshift)
    report(7, "fiber circumferences, witness soundness, and the equivalence decision",
           started, 10.0)


def test_criterion_8_abel_consistency():
    started = time.perf_counter()
    rng = random.Random(65537)
    K = t.make_klein(2, 3)
    circles = [
        t.fiber_circle(K, 1, Fraction(1, 2)),
        t.fiber_circle(K, 2, 1),
        t.fiber_circle(K, 2, 0),
        t.fiber_circle(K, 2, Fraction(3, 2)),
    ]
    principal = 0
    for i in range(500):
        circle = circles[i % len(circles)]
        c = circle.circumference
        divisor = []
        for _ in range(rng.randint(0, 5)):
            pos = Fraction(rng.randint(0, int(6 * c) - 1), 6)
            divisor.append((pos, rng.choice([-2, -1, 1, 2])))
        degree = sum(m for _, m in divisor)
        if degree:
            divisor.append((Fraction(rng.randint(0, int(3 * c) - 1), 3), -degree))
        klass = t.circle_jacobian_class(c, divisor)
        if klass != 0:
            with pytest.raises(t.NotPrincipal):
                t.principal_function(c, divisor)
            # repair the class and continue with a principal divisor
            spot = Fraction(rng.randint(0, int(c) - 1))
            divisor += [(spot, 1), (spot + klass, -1)]
        f = t.principal_function(c, divisor)
        principal += 1
        h = t.modification_curve(circle, f)
        boundary = t.boundary_zero_cycle(h)
        expected = t.zero_cycle(
            K, [(circle.point_at(pos), -m) for pos, m in f.divisor()]
        )
        assert boundary == expected
    assert principal == 500
    report(8, "500 fuzzed divisors: principal iff class 0; boundary = pushed divisor",
           started)


def test_criterion_9_end_pairing_at_128_breakpoints():
    h = t2_modification(random.Random(128), 128, (1, 0))
    space, vectors = t.infinity_restriction(h, AREA)
    started = time.perf_counter()
    assert t.isotropy_check(h, AREA).passed
    result = t.roitman_bound_check(space, vectors)
    assert result.isotropic and result.satisfied
    assert (result.dim_W, result.bound) == (128, 128)
    report(9, "128 breakpoints on T^2: all 8256 wedge pairs 0, end rank 128 = bound",
           started, 1.5)


def test_criterion_10_sixteen_dimensional_torus(tmp_path, capsys):
    n = 16
    lattice = [[4 * (i == j) for j in range(n)] for i in range(n)]
    x = tuple(Fraction(k, 3) for k in range(-8, 8))
    torus16, cycle16 = str(tmp_path / "torus16.json"), str(tmp_path / "cycle16.json")
    io.dump_json(io.manifold_json(t.make_torus(lattice)), torus16)
    io.dump_json([{"point": io.vector_json(x), "mult": 1}], cycle16)
    started = time.perf_counter()
    T = t.make_torus(lattice)
    reduced = t.reduce_point(T, x)
    assert reduced == tuple(c % 4 for c in x)
    lifts = [tuple(c + 4 * ((i * k) % 5 - 2) for i, c in enumerate(x)) for k in range(6)]
    assert t.zero_cycle(T, [(p, 1) for p in lifts]).entries == ((reduced, 6),)
    g = T.deck_from_word("t1^-1 t16^-3")
    assert g == translation_deck((-4,) + (0,) * (n - 2) + (-12,))
    assert contains_deck(T, g) is True
    assert cli.run(["albanese", torus16, cycle16]) == 1
    assert "klein" in capsys.readouterr().err
    report(10, "16-dimensional torus: reduction, lifted 0-cycle, inverse deck word, "
           "albanese refusal", started, 2.0)


def test_criterion_11_invariant_forms_in_dimension_12():
    n, p = 12, 6
    subsets = list(combinations(range(n), p))
    flip = tuple(tuple((-1 if i == 0 else 1) * (i == j) for j in range(n)) for i in range(n))
    started = time.perf_counter()
    torus = t.invariant_forms(t.make_torus([[4 * (i == j) for j in range(n)] for i in range(n)]), p)
    flipped = t.invariant_forms(
        t.AffineQuotientManifold(n, (t.DeckElement(flip, (0,) * n),), ("g",), "general"), p
    )
    assert [f.coefficients for f in torus] == [tuple(int(S == T) for S in subsets) for T in subsets]
    assert len(flipped) == 462  # C(11, 6): the subsets missing the flipped coordinate
    assert all(not c for f in flipped for T, c in zip(subsets, f.coefficients) if 0 in T)
    report(11, "invariant 6-forms in dimension 12: all 924 on R^12/4Z^12, 462 under one "
           "coordinate flip", started, 3.0)
