"""Independent oracles used to cross-check library results.

Everything here is deliberately written from scratch on top of plain
Python Fractions so that a library bug cannot hide behind shared code:
row reduction for ranks, nullities and kernels, Leibniz determinants and
the tuple-by-tuple evaluation of forms and of the end pairing's report, a
dense Hermite normal form that keeps its transformation matrix beside it,
lattice membership by determinantal divisors, minor-based deformation
constraints, the position check, brute-force orbit enumeration on the
Klein deck group, deck groups enumerated in normal form for membership,
an arc-by-arc walk for functions on a circle, the document of a circle
modification written from its definition, the all-pairs,
elimination-based euclidean embeddedness check, and 0-cycles built point
by point in Fractions.
"""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, floor, gcd, prod

INF = float("inf")


def rref_oracle(rows):
    """Plain Gaussian elimination; returns (echelon rows, pivot columns)."""
    A = [[Fraction(x) for x in row] for row in rows]
    if not A:
        return [], []
    ncols = len(A[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(A)):
            if A[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        scale = A[r][c]
        A[r] = [x / scale for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c] != 0:
                factor = A[i][c]
                A[i] = [x - factor * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
        if r == len(A):
            break
    return A, pivots


def kernel_from_oracle(rows, ncols):
    """One kernel vector per free column of the oracle's RREF."""
    R, pivots = rref_oracle(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -R[r][f]
        basis.append(tuple(v))
    return basis


def rank_oracle(rows):
    return len(rref_oracle(rows)[1])


def nullity_oracle(rows, ncols=None):
    if not rows:
        assert ncols is not None
        return ncols
    return len(rows[0]) - rank_oracle(rows)


def kernel_contains(rows, vec):
    """Exact check that vec lies in the kernel of the row matrix."""
    return all(sum(Fraction(a) * Fraction(x) for a, x in zip(row, vec)) == 0 for row in rows)


def gcd_vector(v):
    g = 0
    for x in v:
        g = gcd(g, abs(int(x)))
    return g


def leibniz_det(rows):
    """Determinant as the signed sum over permutations (1 for 0 x 0)."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod((Fraction(rows[i][perm[i]]) for i in range(n)),
                                           start=Fraction(1))
    return total


def form_value_oracle(dim, degree, coefficients, vectors):
    """A p-covector on exactly p vectors: sum over p-subsets T of the
    coordinates of coefficient_T * det(coordinates T of the vectors)."""
    assert len(vectors) == degree
    return sum(
        (c * leibniz_det([[v[i] for v in vectors] for i in T])
         for c, T in zip(coefficients, combinations(range(dim), degree))),
        Fraction(0),
    )


def gram_oracle(dim, degree, coefficients, vectors):
    """The form on every p-tuple of the vectors, one tuple at a time."""
    return [form_value_oracle(dim, degree, coefficients, list(tup))
            for tup in combinations(vectors, degree)]


def isotropy_details_oracle(h, dim, degree, coefficients, basis):
    """The repr of ``isotropy_check(h, form).checks`` for one form on the
    dim-dimensional base, from a deformation basis of vertex-vector dicts
    (the public ``deformation_basis(h)``): every end adds sign * weight
    times the oracle Gram of the base parts of the basis at its tail."""
    total = [Fraction(0)] * comb(len(basis), degree)
    for e in h.abstract.infinite_edges():
        d = h.data(e.id)
        values = gram_oracle(dim, degree, coefficients, [D[e.tail][:-1] for D in basis])
        total = [a + d.direction[-1] * d.weight * v for a, v in zip(total, values)]
    tuples = combinations(range(len(basis)), degree)
    detail = ("; ".join(f"D{tup}={value}" for tup, value in zip(tuples, total))
              or "no tuples (deformation space too small)")
    status = "fail" if any(total) else "pass"
    name = f"form 0: all {degree}-tuples vanish"
    return f"[Check(name={name!r}, status={status!r}, detail={detail!r})]"


def pullback_oracle(dim, degree, coefficients, A):
    """Coefficients of w(A ., ..., A .): w on the columns of A indexed by S."""
    columns = [[A[i][j] for i in range(dim)] for j in range(dim)]
    return [form_value_oracle(dim, degree, coefficients, [columns[j] for j in S])
            for S in combinations(range(dim), degree)]


def fixed_form_rank_oracle(dim, degree, linear_parts):
    """Rank of the p-covectors fixed by every linear part, by row reduction."""
    k = comb(dim, degree)
    rows = []
    for A in linear_parts:
        # pullback of the t-th unit covector, read at the s-th coefficient
        images = [pullback_oracle(dim, degree, [int(u == t) for u in range(k)], A)
                  for t in range(k)]
        rows += [[images[t][s] - (t == s) for t in range(k)] for s in range(k)]
    return nullity_oracle(rows, k)


def hermite_oracle(rows, ncols):
    """Row-style Hermite normal form (H, U) of an integer matrix with H = U M,
    on dense lists with a separate U: Euclid on each column below the current
    row (smallest absolute value first, ties by row order), the survivor
    swapped up and made positive, entries above it reduced into [0, pivot)."""
    H = [[int(x) for x in row] for row in rows]
    nrows = len(H)
    U = [[int(i == j) for j in range(nrows)] for i in range(nrows)]

    def subtract(i, q, k):
        H[i] = [a - q * b for a, b in zip(H[i], H[k])]
        U[i] = [a - q * b for a, b in zip(U[i], U[k])]

    r = 0
    for c in range(ncols):
        while True:
            live = [i for i in range(r, nrows) if H[i][c] != 0]
            if not live:
                break
            if len(live) == 1:
                i = live[0]
                H[r], H[i] = H[i], H[r]
                U[r], U[i] = U[i], U[r]
                break
            live.sort(key=lambda i: abs(H[i][c]))
            i, j = live[0], live[1]
            subtract(j, H[j][c] // H[i][c], i)
        if r < nrows and H[r][c] != 0:
            if H[r][c] < 0:
                H[r] = [-x for x in H[r]]
                U[r] = [-x for x in U[r]]
            for i in range(r):
                q = H[i][c] // H[r][c]
                if q != 0:
                    subtract(i, q, r)
            r += 1
            if r == nrows:
                break
    return H, U


def hermite_kernel_oracle(rows, ncols):
    """Saturated integer kernel: each row scaled by the lcm of its
    denominators, then the rows of U beside the zero rows of H for the
    transpose."""
    scaled = []
    for row in rows:
        m = 1
        for x in row:
            m = m * Fraction(x).denominator // gcd(m, Fraction(x).denominator)
        scaled.append([int(Fraction(x) * m) for x in row])
    H, U = hermite_oracle([[row[j] for row in scaled] for j in range(ncols)], len(scaled))
    return [tuple(u) for h, u in zip(H, U) if not any(h)]


def _determinantal_divisor(rows, r):
    """gcd of the r x r minors of an integer matrix."""
    ncols = len(rows[0]) if rows else 0
    g = 0
    for R in combinations(range(len(rows)), r):
        for C in combinations(range(ncols), r):
            g = gcd(g, int(leibniz_det([[rows[i][j] for j in C] for i in R])))
    return g


def integer_span_oracle(basis, w):
    """w is an integer combination of the basis rows iff adding w keeps the
    rank r and the gcd of the r x r minors (the index of the lattice in
    its saturation)."""
    r = rank_oracle(basis) if basis else 0
    extended = [list(b) for b in basis] + [list(w)]
    if rank_oracle(extended) != r:
        return False
    if r == 0:
        return True
    return _determinantal_divisor(extended, r) == _determinantal_divisor(basis, r)


def deformation_nullity_minor_oracle(h):
    """Deformation dimension via 2x2-minor parallelism conditions.

    For each finite edge with deck linear part A and direction d, the
    condition (A u_tail - u_head) parallel to (A d) is encoded as the
    vanishing of all 2x2 minors against A d, a different (redundant)
    encoding than the annihilator basis used by the library.
    """
    n = h.manifold.dim
    vertices = list(h.abstract.vertices)
    offsets = {v: i * n for i, v in enumerate(vertices)}
    ncols = n * len(vertices)
    rows = []
    for e in h.abstract.finite_edges():
        data = h.data(e.id)
        A = [[Fraction(x) for x in row] for row in data.deck.linear]
        d = [sum(A[i][j] * data.direction[j] for j in range(n)) for i in range(n)]
        # w_i = (A u_tail)_i - (u_head)_i as a linear functional of the unknowns
        for i in range(n):
            for j in range(i + 1, n):
                row = [Fraction(0)] * ncols
                for col in range(n):
                    row[offsets[e.tail] + col] += d[j] * A[i][col] - d[i] * A[j][col]
                row[offsets[e.head] + i] += -d[j]
                row[offsets[e.head] + j] += d[i]
                rows.append(row)
    return nullity_oracle(rows, ncols)


def position_consistency_oracle(h):
    """(status, detail) of the position check in Fractions: for each finite
    edge, tail + length * direction, mapped by x -> A x + t of its deck,
    must equal the head."""
    mismatched = []
    for e in h.abstract.finite_edges():
        data = h.data(e.id)
        length = Fraction(data.image_length)
        end = [Fraction(p) + length * c for p, c in zip(h.position(e.tail), data.direction)]
        image = [sum(a * x for a, x in zip(row, end)) + Fraction(s)
                 for row, s in zip(data.deck.linear, data.deck.translation)]
        if image != [Fraction(q) for q in h.position(e.head)]:
            mismatched.append(f"{e.id}: tail + length*direction does not reach head")
    return ("fail" if mismatched else "pass"), "; ".join(mismatched)


def klein_orbit_points(x0, y0, point, window=5):
    """All images of a point under deck words b^k a^m with |k|,|m| <= window.

    Uses the closed form b^k a^m (x, y) = (x + k x0, (-1)^k (y + m y0))
    directly rather than any library composition."""
    x, y = Fraction(point[0]), Fraction(point[1])
    out = []
    for k in range(-window, window + 1):
        for m in range(-window, window + 1):
            sign = 1 if k % 2 == 0 else -1
            out.append((x + k * x0, sign * (y + m * y0)))
    return out


def deck_group_oracle(M, window=3):
    """Every element (linear part, translation) of M's deck group in normal
    form with exponents in [-window, window]: b^k a^m = (diag(1, (-1)^k),
    (k x0, (-1)^k m y0)) on a Klein bottle, t1^i1 ... tn^in = (I, sum i_j v_j)
    on a torus, only the identity on R^n, and the base's elements acting
    trivially on the last coordinate of a product with a line."""
    exponents = range(-window, window + 1)
    identity = tuple(tuple(int(i == j) for j in range(M.dim)) for i in range(M.dim))
    if M.kind == "euclidean":
        yield identity, (0,) * M.dim
    elif M.kind == "torus":
        for ks in product(exponents, repeat=M.dim):
            yield identity, tuple(sum(k * Fraction(g.translation[i]) for k, g in
                                      zip(ks, M.generators)) for i in range(M.dim))
    elif M.kind == "klein":
        x0, y0 = (Fraction(c) for c in M.klein_params)
        for k, m in product(exponents, repeat=2):
            sign = -1 if k % 2 else 1
            yield ((1, 0), (0, sign)), (k * x0, sign * m * y0)
    elif M.kind == "product_with_line":
        for A, t in deck_group_oracle(M.base, window):
            yield tuple(row + (0,) for row in A) + ((0,) * len(A) + (1,),), t + (0,)
    else:
        raise ValueError(f"no oracle deck group for kind {M.kind!r}")


def deck_membership_oracle(M, linear, translation, window=3):
    """Whether (linear, translation) is one of the enumerated deck elements;
    the window must cover the translation."""
    element = tuple(map(tuple, linear)), tuple(Fraction(c) for c in translation)
    return element in set(deck_group_oracle(M, window))


def klein_fiber_circumference_oracle(x0, y0, anchor, direction, window=5):
    """Minimal t > 0 with anchor + t*direction in the deck orbit of anchor."""
    x0, y0 = Fraction(x0), Fraction(y0)
    ax, ay = Fraction(anchor[0]), Fraction(anchor[1])
    dx, dy = direction
    best = None
    for px, py in klein_orbit_points(x0, y0, (ax, ay), window):
        wx, wy = px - ax, py - ay
        # solve (wx, wy) = t (dx, dy) exactly
        if dx == 0 and wx != 0:
            continue
        if dy == 0 and wy != 0:
            continue
        if dx != 0:
            t = wx / dx
        else:
            t = wy / dy
        if wx == t * dx and wy == t * dy and t > 0:
            best = t if best is None else min(best, t)
    return best


def circle_function_oracle(c, breakpoints, values, slopes, t):
    """Value at t of a piecewise linear function on the circle R / c Z.

    Shifts t into [0, c) one period at a time, then walks the arcs
    [b_i, b_(i+1)) in turn, the last one running past c to b_0 + c, until
    one holds t or t + c."""
    c, t = Fraction(c), Fraction(t)
    if not breakpoints:
        return Fraction(0)
    while t < 0:
        t += c
    while t >= c:
        t -= c
    k = len(breakpoints)
    for i in range(k):
        start = Fraction(breakpoints[i])
        end = Fraction(breakpoints[i + 1]) if i + 1 < k else Fraction(breakpoints[0]) + c
        for s in (t, t + c):
            if start <= s < end:
                return Fraction(values[i]) + slopes[i] * (s - start)
    raise AssertionError("no arc holds t")


def solve_oracle(rows, rhs):
    """One solution of rows x = rhs (free unknowns 0), or None if inconsistent."""
    ncols = len(rows[0])
    A, pivots = rref_oracle([list(row) + [b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(A, pivots):
        x[c] = row[-1]
    return x


def _point(entries):
    return tuple(x.numerator if x.denominator == 1 else x for x in map(Fraction, entries))


def segment_pair_intersections_oracle(p, dp, lp, q, dq, lq):
    """Intersection of two closed segments/rays by elimination on [dp, -dq].

    A list of points when finite, ``"overlap"`` when infinite; lengths
    equal to ``INF`` mark rays."""
    n = len(p)
    M = [[dp[i], -dq[i]] for i in range(n)]
    rhs = [Fraction(q[i]) - Fraction(p[i]) for i in range(n)]
    if rank_oracle(M) == 2:
        sol = solve_oracle(M, rhs)
        if sol is None:
            return []
        s, t = sol
        if s < 0 or (lp != INF and s > lp) or t < 0 or (lq != INF and t > lq):
            return []
        return [_point(Fraction(p[i]) + s * dp[i] for i in range(n))]
    # Parallel directions: either disjoint lines or a shared line.
    sol = solve_oracle([[dp[i]] for i in range(n)], rhs)
    if sol is None:
        return []
    s0 = sol[0]  # q = p + s0 dp
    lam = next(Fraction(dq[i], dp[i]) for i in range(n) if dp[i] != 0)  # dq = lam dp
    # parameter interval of q's edge along p's line, clipped to p's edge
    ends = [s0, s0 + lam * lq if lq != INF else (INF if lam > 0 else -INF)]
    lo, hi = max(Fraction(0), min(ends)), max(ends)
    if lp != INF:
        hi = min(hi, lp)
    if lo > hi:
        return []
    if lo == hi:
        return [_point(Fraction(p[i]) + lo * dp[i] for i in range(n))]
    return "overlap"


def embeddedness_oracle(h):
    """All-pairs euclidean embeddedness check of a parametrized curve.

    Returns ``(pairs, detail)``: ``(e.id, f.id, hits)`` for every edge pair
    that meets, in edge order, and the failure detail the validator gives."""
    pairs, overlaps = [], []
    for e, f in combinations(h.abstract.edges, 2):
        de, df = h.data(e.id), h.data(f.id)
        hits = segment_pair_intersections_oracle(
            h.position(e.tail), de.direction, de.image_length,
            h.position(f.tail), df.direction, df.image_length,
        )
        if not hits:
            continue
        pairs.append((e.id, f.id, hits))
        if hits == "overlap":
            overlaps.append(f"{e.id} and {f.id} overlap along a segment")
            continue
        shared = {e.tail, e.head} & {f.tail, f.head} - {None}
        allowed = {_point(h.position(v)) for v in shared}
        for pt in hits:
            if pt not in allowed:
                overlaps.append(f"{e.id} and {f.id} meet at {pt} away from a shared vertex")
    return pairs, "; ".join(overlaps)


def reduce_point_oracle(M, x):
    """Canonical representative of x by Fraction arithmetic, read off the
    manifold's fields: a torus point through its lattice coordinates mod 1,
    a Klein point by the floor of x / x0 and the parity it gives."""
    x = [Fraction(c) for c in x]
    if len(x) != M.dim:
        raise ValueError("point dimension mismatch")
    if M.kind == "product_with_line":
        return reduce_point_oracle(M.base, x[:-1]) + _point(x[-1:])
    if M.kind == "torus":
        V = [[g.translation[i] for g in M.generators] for i in range(M.dim)]
        c = [ci - floor(ci) for ci in solve_oracle(V, x)]
        x = [sum(Fraction(v) * cj for v, cj in zip(row, c)) for row in V]
    elif M.kind == "klein":
        x0, y0 = (Fraction(c) for c in M.klein_params)
        k = floor(x[0] / x0)
        y = -x[1] if k % 2 else x[1]
        x = [x[0] - k * x0, y - floor(y / y0) * y0]
    elif M.kind != "euclidean":
        raise ValueError(f"no oracle reduction for kind {M.kind!r}")
    return _point(x)


def zero_cycle_oracle(M, items):
    """The entries of the 0-cycle of (point, multiplicity) pairs: reduce each
    point, merge in a dict, drop zeros, sort the Fraction tuples."""
    acc = {}
    for p, m in items:
        q = reduce_point_oracle(M, p)
        acc[q] = acc.get(q, 0) + m
    return tuple(sorted((p, m) for p, m in acc.items() if m))


def _text(x):
    return str(Fraction(x))


def _deck_doc(linear, translation, line=False):
    """A deck element's document; ``line`` appends a coordinate it fixes."""
    rows = [list(row) + [0] * line for row in linear] + [[0] * len(linear) + [1]] * line
    return {"matrix": rows, "translation": [_text(c) for c in translation] + ["0"] * line}


def _manifold_doc(M, line=False):
    """The document of M, or of M x R when ``line``."""
    gens = [{"name": name, **_deck_doc(g.linear, g.translation, line)}
            for name, g in zip(M.names, M.generators)]
    if line:
        return {"kind": "product_with_line", "dim": M.dim + 1, "generators": gens,
                "base": _manifold_doc(M)}
    doc = {"kind": M.kind, "dim": M.dim, "generators": gens}
    if M.kind == "klein":
        doc["klein"] = {"x0": _text(M.klein_params[0]), "y0": _text(M.klein_params[1])}
    return doc


def modification_document_oracle(circle, f):
    """The parametrized-curve document of the modification of an embedded
    circle by a function f on it, written from the definition.

    Vertex v_i sits over breakpoint b_i at height f(b_i).  Edge arc_i runs
    from v_i to v_(i+1) along (u, s_i), u the circle's direction and s_i
    the slope after b_i; the last one runs past the circumference c to
    b_0 + c and carries the closing deck element, extended by the identity
    on the line.  Each breakpoint with slope change m = s_i - s_(i-1) has
    a vertical ray ray_i of weight |m|, downward when m > 0.  The zero
    function has one vertex over the anchor and one self-loop "loop" of
    length c.  Arcs come before rays; a deck is written only when it is
    not the identity."""
    c = Fraction(circle.circumference)
    anchor = [Fraction(a) for a in circle.anchor]
    u = list(circle.direction)
    n = len(u)
    bps = [Fraction(b) for b in f.breakpoints]
    k = len(bps)
    closing = circle.closing
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    turned = any(Fraction(x) != 0 for x in closing.translation) or (
        [list(row) for row in closing.linear] != identity)
    vertices, positions, edges, plus = [], {}, [], []

    def arc(eid, i, j, length, slope, wraps):
        edges.append({"id": eid, "tail": f"v{i}", "head": f"v{j}", "length": _text(length)})
        entry = {"id": eid, "direction": u + [slope], "weight": 1, "image_length": _text(length)}
        if wraps and turned:
            entry["deck"] = _deck_doc(closing.linear, closing.translation, line=True)
        plus.append(entry)

    if not bps:
        vertices.append("v0")
        positions["v0"] = [_text(a) for a in anchor] + ["0"]
        arc("loop", 0, 0, c, 0, True)
    for i, b in enumerate(bps):
        vertices.append(f"v{i}")
        positions[f"v{i}"] = [_text(a + b * d) for a, d in zip(anchor, u)] + [_text(f.values[i])]
        end = bps[i + 1] if i + 1 < k else bps[0] + c
        arc(f"arc{i}", i, (i + 1) % k, end - b, f.slopes[i], i + 1 == k)
    for i in range(k):
        m = f.slopes[i] - f.slopes[i - 1]
        edges.append({"id": f"ray{i}", "tail": f"v{i}", "boundary": True, "length": "inf"})
        plus.append({"id": f"ray{i}", "direction": [0] * n + [-1 if m > 0 else 1],
                     "weight": abs(m), "image_length": "inf"})
    return {"vertices": vertices, "edges": edges,
            "manifold": _manifold_doc(circle.manifold, line=True),
            "positions": positions, "edges+": plus}
