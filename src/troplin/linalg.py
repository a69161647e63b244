"""Exact integer and rational linear algebra.

Everything downstream (balancing residuals, kernels of boundary maps,
holonomy fixed spaces) must produce exact zeros, so no floating point is
used anywhere.  A :class:`Matrix` is a list of rows of Python ints and
Fractions; vectors at the API boundary are plain tuples.  One sparse,
integer-preserving elimination (gcd-normalised rows, after Bareiss, Math.
Comp. 1968) drives rref, rank, rational kernels, solving and det.  The
Hermite normal form, behind the saturated integer kernels, runs on the same
sparse rows, of [M | I] (the augmented form of Kannan and Bachem, 1979).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, Sequence

from .errors import DimensionMismatch, IrrationalData, ZeroVector

_CANONICAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


class Matrix(list):
    """A list of rows of exact entries that also knows its width."""

    def __init__(self, rows: Iterable = (), ncols: int | None = None):
        super().__init__(rows)
        self.ncols = ncols if ncols is not None else (len(self[0]) if self else 0)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self), self.ncols


def as_fraction(x) -> Fraction:
    """Coerce ``x`` to an exact Fraction.

    Accepts ints, Fractions and strings like ``"3/4"``.  Floats and
    booleans are rejected: floats would smuggle binary rounding into the
    exact core, and a JSON ``true`` is not a number.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(*as_ratio(x))
    raise IrrationalData(f"not an exact rational: {x!r} ({type(x).__name__})")


def as_ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of ``as_fraction(x)``.  A canonical ``"p/q"``
    string is read as two ints, without Fraction's parser or a Fraction."""
    if type(x) is int:
        return x, 1
    if type(x) is Fraction:
        return x.numerator, x.denominator
    if isinstance(x, str):
        try:
            if not _CANONICAL.fullmatch(x):
                q = Fraction(x)
                return q.numerator, q.denominator
            n, _, d = x.partition("/")
            n, d = int(n), int(d or 1)
            if not d:
                raise ZeroDivisionError(f"Fraction({n}, 0)")
        except (ValueError, ZeroDivisionError) as exc:
            raise IrrationalData(f"cannot parse rational from {x!r}") from exc
        g = gcd(n, d)
        return n // g, d // g
    q = as_fraction(x)
    return q.numerator, q.denominator


def as_int(x) -> int:
    """Coerce ``x`` to an int, requiring an integer value (not a bool)."""
    if type(x) is int:
        return x
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool) and x.denominator == 1:
        return int(x)
    raise IrrationalData(f"not an integer: {x!r}")


def _exact(q: Fraction):
    """An integral Fraction as an int, any other unchanged."""
    return q.numerator if q.denominator == 1 else q


def vector(entries: Iterable) -> tuple:
    """An immutable exact vector (tuple of ints/Fractions)."""
    return tuple(e if type(e) is int else _exact(as_fraction(e)) for e in entries)


def matrix(rows: Iterable[Sequence]) -> Matrix:
    """A Matrix from nested sequences of exact entries."""
    M = Matrix(list(vector(r)) for r in rows)
    if any(len(r) != M.ncols for r in M):
        raise ValueError("ragged rows")
    return M


def zeros(nrows: int, ncols: int) -> Matrix:
    return Matrix(([0] * ncols for _ in range(nrows)), ncols)


def mat_vec(M: Sequence[Sequence], v: Sequence) -> tuple:
    """Exact matrix-vector product as a tuple."""
    return tuple(sum(a * x for a, x in zip(row, v) if a) for row in M)


# ---------------------------------------------------------------------------
# The elimination core


def _integer_row(entries) -> tuple[dict[int, int], int]:
    """The nonzero entries of a row, dense or a ``{column: value}`` dict,
    times the lcm of their denominators."""
    items = entries.items() if isinstance(entries, dict) else enumerate(entries)
    row = {j: x for j, x in items if x}
    if all(type(x) is int for x in row.values()):
        return row, 1
    scale = lcm(*(x.denominator for x in row.values()))
    return {j: x.numerator * (scale // x.denominator) for j, x in row.items()}, scale


def _combine(row: dict, alpha: int, other: dict, beta: int) -> int:
    """Replace row by the primitive part of alpha*row - beta*other; return its content."""
    if alpha != 1:
        for j, x in row.items():
            row[j] = alpha * x
    for j, y in other.items():
        x = row.get(j, 0) - beta * y
        if x:
            row[j] = x
        else:
            del row[j]
    g = gcd(*row.values())
    if g > 1:
        for j, x in row.items():
            row[j] = x // g
    return g


def _echelon(rows: Iterable[Iterable]) -> tuple[dict[int, dict[int, int]], Fraction]:
    """Forward elimination over sparse integer rows, one row at a time.

    Returns ``(pivots, scale)``: ``pivots`` maps each pivot column, in input
    row order, to a primitive row whose first column it is and which is zero
    in every earlier-added pivot column; det(input) is scale * det(pivot rows).
    """
    pivots: dict[int, dict[int, int]] = {}
    num = den = 1  # det(input) = det(rows so far) * num / den
    for entries in rows:
        row, m = _integer_row(entries)
        den *= m
        # Reducing by pivot c adds entries right of c only, so take the smallest first.
        c = min((j for j in row if j in pivots), default=None)
        while c is not None:
            a, p = row[c], pivots[c][c]
            g = gcd(a, p)
            num *= _combine(row, p // g, pivots[c], a // g)
            den *= p // g
            c = min((j for j in row if j > c and j in pivots), default=None)
        if row:
            pivots[min(row)] = row
    return pivots, Fraction(num, den)


def _eliminate(rows: Iterable[Iterable]) -> dict[int, dict[int, int]]:
    """``_echelon`` then one back-substitution pass, right to left, that
    leaves each pivot row zero in every other pivot column: dividing by the
    pivot entries gives the unique reduced row echelon form."""
    pivots = _echelon(rows)[0]
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for d in [d for d in row if d != c and d in pivots]:
            other = pivots[d]
            g = gcd(row[d], other[d])
            _combine(row, other[d] // g, other, row[d] // g)
    return pivots


def det(M: Sequence[Sequence]) -> Fraction:
    """Exact determinant."""
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("determinant of a non-square matrix")
    pivots, scale = _echelon(M)
    if len(pivots) < n:
        return Fraction(0)
    # Ordered by pivot column the rows are upper triangular.
    order = list(pivots)
    inversions = sum(order[i] > order[j] for i in range(n) for j in range(i + 1, n))
    return scale * (-1) ** inversions * prod(row[c] for c, row in pivots.items())


def inverse(M: Sequence[Sequence]) -> Matrix:
    """Exact inverse, ints where integral: one elimination of [M | I] leaves
    row c of the inverse, times its pivot, beside pivot c."""
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("inverse of a non-square matrix")
    pivots = _eliminate([*row, *(int(i == j) for j in range(n))] for i, row in enumerate(M))
    if any(c >= n for c in pivots):
        raise ValueError("inverse of a singular matrix")
    return Matrix(([_exact(Fraction(row.get(n + j, 0), row[c])) for j in range(n)]
                   for c, row in sorted(pivots.items())), n)


def is_unimodular(M: Sequence[Sequence]) -> bool:
    """True iff M is a square integer matrix with determinant +-1."""
    if any(len(row) != len(M) or any(x.denominator != 1 for x in row) for row in M):
        return False
    return abs(det(M)) == 1


def rref(M: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form over the rationals and its pivot columns."""
    nrows, ncols = M.shape
    pivots = _eliminate(M)
    cols = sorted(pivots)
    R = zeros(nrows, ncols)
    for out, c in zip(R, cols):
        row = pivots[c]
        for j, x in row.items():
            out[j] = _exact(Fraction(x, row[c]))
    return R, cols


def rank(M: Sequence[Sequence]) -> int:
    if not isinstance(M, Matrix):
        M = matrix(M)
    return len(_echelon(M)[0])


def _integer_rows(M: Iterable) -> list[dict[int, int]]:
    """The sparse rows of an integer matrix; any other entry is refused."""
    rows = [_integer_row(entries) for entries in M]
    if any(scale != 1 for _, scale in rows):
        raise IrrationalData("not an integer matrix")
    return [row for row, _ in rows]


def _hermite(rows: list[dict[int, int]], ncols: int) -> list[dict[int, int]]:
    """Row-style Hermite normal form of sparse integer rows M, ncols wide, as
    the rows of [H | U]: row i is extended in place by 1 in column ncols + i,
    so U is unimodular, H = U M, and every row stays primitive (``_combine``
    never divides).  Euclid on each column below the current row leaves one
    entry, which is swapped up, made positive and reduces the entries above it
    into [0, pivot).  Zero rows of H are collected at the bottom.  The rows
    holding each column of M are indexed by position, so each step visits
    only the rows non-zero in its column."""
    holding: list[set[int]] = [set() for _ in range(ncols)]  # column -> row positions

    def track(i: int, columns) -> None:
        """Bring the index up to date for row i over the given columns."""
        for j in columns:
            if j < ncols:
                if j in rows[i]:
                    holding[j].add(i)
                else:
                    holding[j].discard(i)

    def combine(i: int, other: dict, beta: int) -> None:
        _combine(rows[i], 1, other, beta)
        track(i, other)  # only other's columns can enter or leave row i

    for i, row in enumerate(rows):
        row[ncols + i] = 1
        track(i, row)
    r = 0
    for c in range(ncols):
        while True:
            live = sorted((i for i in holding[c] if i >= r), key=lambda i: (abs(rows[i][c]), i))
            if len(live) < 2:
                break
            i, j = live[:2]
            combine(j, rows[i], rows[j][c] // rows[i][c])
        if live:
            if (s := live[0]) != r:
                rows[r], rows[s] = rows[s], rows[r]
                track(r, both := rows[r].keys() | rows[s].keys())
                track(s, both)
            if rows[r][c] < 0:
                _combine(rows[r], -1, {}, 0)
            for i in [i for i in holding[c] if i < r]:
                if q := rows[i][c] // rows[r][c]:
                    combine(i, rows[r], q)
            r += 1
    return rows


def hermite_normal_form(M: Matrix) -> tuple[Matrix, Matrix]:
    """Row-style Hermite normal form with transformation matrix.

    Returns ``(H, U)`` with ``U`` unimodular and ``H = U M``, where H is
    upper echelon with positive pivots and the entries above each pivot
    reduced into ``[0, pivot)``.  Zero rows are collected at the bottom.
    """
    nrows, ncols = M.shape
    rows = _hermite(_integer_rows(M), ncols)
    H = Matrix(([row.get(j, 0) for j in range(ncols)] for row in rows), ncols)
    U = Matrix(([row.get(ncols + j, 0) for j in range(nrows)] for row in rows), nrows)
    return H, U


def _kernel(M) -> list[dict]:
    """The rational null space of M as sparse vectors: one ``{column: value}``
    dict per free column f of the reduced row echelon form, holding 1 at f
    and, at each pivot column c whose row reaches f, minus that row's entry
    over its pivot; ints where integral.  Only non-zero entries are held,
    so a column a vector lacks is 0 in it.  ``kernel_basis`` is its dense view."""
    if not isinstance(M, Matrix):
        M = matrix(M)
    pivots = _eliminate(M)
    free = {f: {f: 1} for f in range(M.ncols) if f not in pivots}
    for c, row in pivots.items():
        p = row[c]
        for j, x in row.items():
            if j != c:
                q, r = divmod(-x, p)
                free[j][c] = Fraction(-x, p) if r else q
    return list(free.values())


def _dense(v: dict, width: int) -> list:
    """The sparse vector v as a list of the given width."""
    dense = [0] * width
    for j, x in v.items():
        dense[j] = x
    return dense


def kernel_basis(M) -> list[tuple]:
    """Basis of the rational null space of M, one vector per free column
    of the reduced row echelon form."""
    if not isinstance(M, Matrix):
        M = matrix(M)
    return [tuple(_dense(v, M.ncols)) for v in _kernel(M)]


def integer_kernel_basis(M) -> list[tuple]:
    """Basis of the integer null space of M: the rows of U beside the zero
    rows of H in the Hermite normal form of the transpose.  U is unimodular,
    so the basis is saturated: every integer vector of the rational kernel
    is an integer combination of it."""
    if not isinstance(M, Matrix):
        M = matrix(M)
    nrows, ncols = M.shape
    transpose: list[dict[int, int]] = [{} for _ in range(ncols)]
    for i, entries in enumerate(M):
        for j, x in _integer_row(entries)[0].items():  # clearing denominators keeps the kernel
            transpose[j][i] = x
    return [tuple([row.get(nrows + j, 0) for j in range(ncols)])
            for row in _hermite(transpose, nrows) if min(row) >= nrows]


def content(v: Sequence[int]) -> int:
    """Nonnegative gcd of the entries."""
    return gcd(*(as_int(e) for e in v))


def primitive_part(v: Sequence[int]) -> tuple[tuple, int]:
    """Factor a nonzero integer vector as m * u with u primitive, m > 0."""
    ints = [as_int(e) for e in v]
    m = content(ints)
    if m == 0:
        raise ZeroVector("primitive_part of the zero vector")
    return tuple(e // m for e in ints), m


def annihilator_basis(v: Sequence[int]) -> list[tuple]:
    """Saturated integer basis of the covectors vanishing on v."""
    return integer_kernel_basis(matrix([list(v)]))


def solve_rational(A: Matrix, b: Sequence) -> tuple | None:
    """One exact solution of A x = b, or None if inconsistent."""
    ncols = A.shape[1]
    pivots = _eliminate([*row, x] for row, x in zip(A, vector(b)))
    if ncols in pivots:
        return None
    x = [0] * ncols
    for c, row in pivots.items():
        x[c] = _exact(Fraction(row.get(ncols, 0), row[c]))
    return tuple(x)


def in_integer_span(basis: Sequence[Sequence[int]], w: Sequence[int]) -> bool:
    """True iff w is an integer combination of the basis vectors: the zero
    rows of the Hermite form of [basis; w] carry a saturated basis of the
    integer relations, and some relation is 1 on w iff their gcd there is 1."""
    B, w = matrix(basis), vector(w)
    if B and B.ncols != len(w):
        raise DimensionMismatch(f"{B.ncols}-dimensional basis, {len(w)}-dimensional vector")
    if any(type(x) is not int for x in w):
        return False
    rows = _hermite(_integer_rows([*B, w]), len(w))
    return gcd(*(row.get(len(w) + len(B), 0) for row in rows if min(row) >= len(w))) == 1
