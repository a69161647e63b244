"""Exact linear algebra: examples plus randomized cross-checks."""

import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    gcd_vector,
    hermite_kernel_oracle,
    hermite_oracle,
    integer_span_oracle,
    kernel_contains,
    kernel_from_oracle,
    leibniz_det,
    nullity_oracle,
    rank_oracle,
    rref_oracle,
)

from troplin import linalg
from troplin.errors import DimensionMismatch, IrrationalData, ZeroVector
from troplin.linalg import (
    Matrix,
    as_fraction,
    det,
    hermite_normal_form,
    in_integer_span,
    integer_kernel_basis,
    inverse,
    kernel_basis,
    matrix,
    primitive_part,
    rank,
    rref,
    solve_rational,
)


def matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def assert_hnf_shape(H):
    """Pivots positive, echelon staircase, entries above pivots reduced."""
    nrows, ncols = H.shape
    last_pivot = -1
    for i in range(nrows):
        row = [H[i][j] for j in range(ncols)]
        nonzero = [j for j in range(ncols) if row[j] != 0]
        if not nonzero:
            for k in range(i, nrows):
                assert all(H[k][j] == 0 for j in range(ncols)), "zero rows must be last"
            break
        piv = nonzero[0]
        assert piv > last_pivot, "pivot columns must move right"
        last_pivot = piv
        assert H[i][piv] > 0, "pivot must be positive"
        for k in range(i):
            assert 0 <= H[k][piv] < H[i][piv], "entries above pivots must be reduced"


class TestHermiteNormalForm:
    def test_worked_example(self):
        M = matrix([[2, 4], [1, 3]])
        H, U = hermite_normal_form(M)
        assert matmul(U, M) == H
        assert abs(linalg.det(U)) == 1
        assert_hnf_shape(H)
        # Frozen output of the stated normalization for this input.
        assert H == [[1, 1], [0, 2]]

    def test_identity(self):
        M = matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        H, U = hermite_normal_form(M)
        assert H == M
        assert U == M

    def test_zero(self):
        M = linalg.zeros(2, 2)
        H, U = hermite_normal_form(M)
        assert H == [[0, 0], [0, 0]]
        assert U == [[1, 0], [0, 1]]

    def test_non_integer_entries_are_refused(self):
        with pytest.raises(IrrationalData, match="not an integer matrix"):
            hermite_normal_form(matrix([[1, Fraction(1, 2)]]))

    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=1, max_size=5),
            min_size=1,
            max_size=5,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=150, deadline=None)
    def test_random(self, rows):
        M = matrix(rows)
        H, U = hermite_normal_form(M)
        assert matmul(U, M) == H
        assert abs(linalg.det(U)) == 1
        assert_hnf_shape(H)


class TestKernelBasis:
    def test_symmetric_example(self):
        assert kernel_basis([[1, -1]]) == [(1, 1)]

    def test_injective_integer(self):
        assert integer_kernel_basis([[2]]) == []

    def test_random_4x6_against_row_reduction(self):
        rng = random.Random(20240)
        for _ in range(25):
            rows = [[rng.randint(-5, 5) for _ in range(6)] for _ in range(4)]
            basis = kernel_basis(rows)
            assert len(basis) == 6 - rank_oracle(rows)
            for v in basis:
                assert kernel_contains(rows, v)
            ibasis = integer_kernel_basis(rows)
            assert len(ibasis) == len(basis)
            for v in ibasis:
                assert kernel_contains(rows, v)

    @given(
        st.lists(
            st.lists(st.integers(-6, 6), min_size=1, max_size=5),
            min_size=1,
            max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=120, deadline=None)
    def test_exactness_and_independence(self, rows):
        ncols = len(rows[0])
        for kernel in (kernel_basis, integer_kernel_basis):
            basis = kernel(rows)
            assert len(basis) == nullity_oracle(rows, ncols)
            for v in basis:
                assert kernel_contains(rows, v)
            if basis:
                assert rank_oracle([list(v) for v in basis]) == len(basis)

    @given(
        st.lists(
            st.lists(st.integers(-6, 6), min_size=2, max_size=4),
            min_size=1,
            max_size=3,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1),
        st.lists(st.integers(-4, 4), min_size=1, max_size=6),
    )
    @settings(max_examples=120, deadline=None)
    def test_integer_kernel_saturation(self, rows, coeffs):
        """Any integer vector of the rational kernel is an integer
        combination of the integer kernel basis."""
        basis = integer_kernel_basis(rows)
        if not basis:
            return
        # Random rational combination, scaled to an integer vector.
        combo = [Fraction(0)] * len(basis[0])
        for i, c in enumerate(coeffs[: len(basis)]):
            for j in range(len(combo)):
                combo[j] += Fraction(c, 3) * basis[i][j]
        scale = 1
        for x in combo:
            scale = scale * x.denominator // gcd(scale, x.denominator)
        w = [int(x * scale) for x in combo]
        assert kernel_contains(rows, w)
        assert in_integer_span(basis, w)


class TestIntegerSpan:
    def test_dimensions_must_agree(self):
        for basis, w in (([(1,)], (1, 5)), ([(1, 0)], (1,))):
            with pytest.raises(DimensionMismatch):
                in_integer_span(basis, w)

    def test_fractional_vector_is_outside_an_integer_lattice(self):
        assert not in_integer_span([(1, 0), (0, 1)], (Fraction(1, 2), 0))
        with pytest.raises(IrrationalData):
            in_integer_span([(Fraction(1, 2), 0)], (1, 0))

    def test_dependent_generators(self):
        assert in_integer_span([(2,), (3,)], (1,))  # 1 = 3 - 2
        assert not in_integer_span([(2,), (4,)], (1,))
        assert in_integer_span([(2, 0), (0, 2), (1, 1)], (1, -1))
        assert not in_integer_span([(2, 0), (0, 2), (1, 1)], (1, 0))
        assert in_integer_span([], (0, 0)) and not in_integer_span([], (0, 1))

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=4),
        st.lists(st.integers(-6, 6), min_size=n, max_size=n),
        st.lists(st.integers(-3, 3), min_size=4, max_size=4),
    )), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_determinantal_divisor_oracle(self, case, combine):
        basis, w, coeffs = case
        if combine:  # a vector of the lattice, which a dependent basis hides from solving
            w = [sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(len(w))]
        assert in_integer_span(basis, w) == integer_span_oracle(basis, w)
        if combine:
            assert in_integer_span(basis, w)


class TestPrimitivePart:
    def test_examples(self):
        assert primitive_part((2, 4)) == ((1, 2), 2)
        assert primitive_part((0, -3)) == ((0, -1), 3)
        assert primitive_part((1, 0)) == ((1, 0), 1)

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            primitive_part((0, 0))

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_gcd_property(self, v):
        if all(x == 0 for x in v):
            with pytest.raises(ZeroVector):
                primitive_part(v)
            return
        u, m = primitive_part(v)
        assert m > 0
        assert gcd_vector(u) == 1
        assert tuple(m * x for x in u) == tuple(v)


# Mostly zeros, then small ints and Fractions: sparse rows like the deformation constraints.
entries = st.one_of(
    st.just(0), st.just(0), st.integers(-5, 5),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
)


@st.composite
def sparse_matrices(draw, max_rows=6, max_cols=6):
    """(rows, ncols), including empty, zero, 1 x n, n x 1 and rank-deficient matrices."""
    ncols = draw(st.integers(0, max_cols))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=max_rows))
    if len(rows) >= 2 and draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[1])])
    return rows, ncols


square_matrices = st.integers(0, 6).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
)


@st.composite
def integer_matrices(draw):
    """(rows, ncols): tall, wide, empty and square shapes, with zero rows,
    zero columns and duplicate rows."""
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    row = st.lists(st.one_of(st.just(0), st.integers(-9, 9)), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    if rows and ncols and draw(st.booleans()):
        j = draw(st.integers(0, ncols - 1))
        for r in rows:
            r[j] = 0
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    return rows, ncols


class TestHermiteAgainstDenseOracle:
    """The sparse [M | I] Hermite form runs the dense oracle's row operations
    in the same order, so its outputs are identical, not merely equivalent."""

    @given(integer_matrices())
    @example(([[0, 2, 4], [0, 2, 4], [0, 0, 0], [0, -3, 1]], 3))
    @settings(max_examples=400, deadline=None)
    def test_hermite_normal_form_is_the_oracle(self, case):
        rows, ncols = case
        H, U = hermite_normal_form(Matrix(rows, ncols))
        assert (H, U) == hermite_oracle(rows, ncols)
        assert H.shape == (len(rows), ncols) and U.shape == (len(rows), len(rows))

    @given(st.one_of(integer_matrices(), sparse_matrices()))
    @settings(max_examples=400, deadline=None)
    def test_integer_kernel_is_the_oracle(self, case):
        rows, ncols = case
        assert integer_kernel_basis(Matrix(rows, ncols)) == hermite_kernel_oracle(rows, ncols)


class TestEliminationCore:
    @given(sparse_matrices())
    @settings(max_examples=300, deadline=None)
    def test_rref_matches_oracle(self, case):
        rows, ncols = case
        R, pivots = rref(Matrix(rows, ncols))
        expected_rows, expected_pivots = rref_oracle(rows)
        assert pivots == expected_pivots
        assert R == expected_rows
        assert R.shape == (len(rows), ncols)
        assert rank(Matrix(rows, ncols)) == len(expected_pivots)

    @given(sparse_matrices())
    @settings(max_examples=300, deadline=None)
    def test_kernel_is_the_oracle_rref_basis(self, case):
        """kernel_basis is the oracle's RREF basis and the dense view of the
        sparse _kernel, which holds only exact non-zero entries, ints where
        integral, whether the rows come dense or as dicts."""
        rows, ncols = case
        basis = kernel_basis(Matrix(rows, ncols))
        assert basis == kernel_from_oracle(rows, ncols)
        for M in (Matrix(rows, ncols), Matrix([dict(enumerate(r)) for r in rows], ncols)):
            sparse = linalg._kernel(M)
            assert [tuple(v.get(j, 0) for j in range(ncols)) for v in sparse] == basis
            assert all(x and type(x) is (int if x.denominator == 1 else Fraction)
                       for v in sparse for x in v.values())

    @given(square_matrices)
    @settings(max_examples=300, deadline=None)
    def test_det_matches_leibniz(self, rows):
        assert det(rows) == leibniz_det(rows)

    @given(square_matrices)
    @settings(max_examples=300, deadline=None)
    def test_inverse_exactly_when_leibniz_det_is_nonzero(self, rows):
        """inverse(M) M = I, with ints where integral; a singular M is refused."""
        if leibniz_det(rows) == 0:
            with pytest.raises(ValueError, match="singular"):
                inverse(rows)
            return
        inv, n = inverse(rows), len(rows)
        assert matmul(inv, rows) == [[int(i == j) for j in range(n)] for i in range(n)]
        assert all(type(x) is (int if x.denominator == 1 else Fraction) for row in inv for x in row)

    def test_rank_refuses_ragged_rows(self):
        with pytest.raises(ValueError, match="ragged"):
            rank([[1, 2], [3]])

    def test_det_of_a_rank_deficient_matrix(self):
        assert det([[1, 2, 3], [2, 4, 6], [0, 1, 5]]) == 0
        assert det([[0, 1], [1, 0]]) == -1
        for square_only in (det, inverse):
            with pytest.raises(ValueError, match="non-square"):
                square_only([[1, 2]])

    @given(sparse_matrices(max_rows=4, max_cols=4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_solve_rational(self, case, data):
        rows, ncols = case
        b = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
        x = solve_rational(Matrix(rows, ncols), b)
        consistent = rank_oracle([r + [y] for r, y in zip(rows, b)]) == rank_oracle(rows)
        assert (x is not None) == consistent
        if x is not None:
            assert [sum(Fraction(a) * c for a, c in zip(r, x)) for r in rows] == b

    def test_import_leaves_numpy_out(self):
        src = Path(linalg.__file__).resolve().parents[1]
        code = "import sys, troplin; print('numpy' in sys.modules)"
        result = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True,
                                text=True, env={"PYTHONPATH": str(src)}, check=True)
        assert result.stdout.strip() == "False"


class TestAsFraction:
    @given(st.one_of(
        st.from_regex(r"-?[0-9]{1,30}(/[0-9]{1,30})?", fullmatch=True),
        st.text(alphabet="0123456789-+/ _.e\u0663x", max_size=10),
    ))
    @example(" 2")
    @example("+3")
    @example("1_000")
    @example("1.5")
    @example("1e3")
    @example("3/0")
    @example("--1")
    @example("-0/5")
    @example("\u0663")  # ARABIC-INDIC DIGIT THREE
    @example("9" * 5000)  # beyond the interpreter's int-string limit
    @example("1e4300")  # parses, but its numerator has too many digits to print
    @settings(max_examples=400, deadline=None)
    def test_strings_parse_as_fraction_does(self, s):
        """The fast path for canonical "p/q" strings accepts, returns and
        refuses exactly what Fraction's own parser does."""
        try:
            expected = Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(IrrationalData) as info:
                as_fraction(s)
            assert type(info.value.__cause__) is type(exc)
        else:
            got = as_fraction(s)
            assert (type(got), got.numerator, got.denominator) == \
                (type(expected), expected.numerator, expected.denominator)

    @given(st.one_of(
        st.from_regex(r"-?[0-9]{1,30}(/[0-9]{1,30})?", fullmatch=True),
        st.text(alphabet="0123456789-+/ _.e", max_size=10),
        st.integers(-10**30, 10**30),
        st.fractions(),
    ))
    @example("9" * 5000)
    @example("-0/7")
    @example("12/-4")
    @settings(max_examples=300, deadline=None)
    def test_ratio_is_the_fraction_in_lowest_terms(self, x):
        """as_ratio gives as_fraction's numerator and denominator, or raises
        its error with its message."""
        try:
            q = as_fraction(x)
        except IrrationalData as exc:
            with pytest.raises(IrrationalData) as info:
                linalg.as_ratio(x)
            assert str(info.value) == str(exc)
            assert type(info.value.__cause__) is type(exc.__cause__)
        else:
            assert linalg.as_ratio(x) == (q.numerator, q.denominator)

    @pytest.mark.parametrize("flag", [True, False])
    def test_booleans_are_not_numbers(self, flag):
        for coerce in (as_fraction, linalg.as_ratio):
            with pytest.raises(IrrationalData, match=f"not an exact rational: {flag} \\(bool\\)"):
                coerce(flag)
        with pytest.raises(IrrationalData, match=f"not an integer: {flag}"):
            linalg.as_int(flag)
        with pytest.raises(IrrationalData):
            linalg.vector([1, flag])
