"""Independent answers that the benchmark compares troplin's outputs against.

Nothing here calls troplin.  The checks read the plain attributes of the
values troplin returns (positions, directions, deck matrices, report
checks) or the JSON the command line prints, and recompute what the
answer must be with Fractions and closed forms: a sparse elimination of
their own, 2x2-minor parallelism conditions, the closed-form reduction
into the Klein fundamental domain and the signed block pairing.  Every
check raises :class:`CheckFailed` on a wrong answer.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import comb, floor

EMBEDDEDNESS = "global embeddedness (euclidean)"


class CheckFailed(Exception):
    """A program output disagrees with the independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Exact elimination


def rank(rows) -> int:
    """Rank over Q of rows given as sequences or as {column: value} dicts."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        live = {c: Fraction(v) for c, v in items if v != 0}
        while live:
            c = min(live)
            pivot = pivots.get(c)
            if pivot is None:
                inv = 1 / live[c]
                pivots[c] = {cc: v * inv for cc, v in live.items()}
                break
            factor = live[c]
            for cc, v in pivot.items():
                new = live.get(cc, 0) - factor * v
                if new:
                    live[cc] = new
                else:
                    live.pop(cc, None)
    return len(pivots)


def _linear(deck) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in deck.linear]


def _edge_frame(curve, edge):
    """(A, A d) for a finite edge: deck linear part and transported direction."""
    data = curve.data(edge.id)
    A = _linear(data.deck)
    n = len(A)
    d = [sum(A[i][j] * data.direction[j] for j in range(n)) for i in range(n)]
    return A, d


def deformation_rows(curve) -> tuple[list[dict], int]:
    """Parallelism conditions as 2x2 minors, one unknown vector per vertex.

    For a finite edge with deck linear part A and direction d, the vector
    w = A u_tail - u_head must be parallel to A d, that is
    w_i (A d)_j - w_j (A d)_i = 0 for every i < j.
    """
    n = curve.manifold.dim
    offsets = {v: i * n for i, v in enumerate(curve.abstract.vertices)}
    rows = []
    for edge in curve.abstract.edges:
        if edge.head is None:
            continue
        A, d = _edge_frame(curve, edge)
        tail, head = offsets[edge.tail], offsets[edge.head]
        for i, j in combinations(range(n), 2):
            row: dict[int, Fraction] = {}
            for col in range(n):
                row[tail + col] = row.get(tail + col, 0) + d[j] * A[i][col] - d[i] * A[j][col]
            row[head + i] = row.get(head + i, 0) - d[j]
            row[head + j] = row.get(head + j, 0) + d[i]
            rows.append(row)
    return rows, n * len(offsets)


def deformation_dimension(curve) -> int:
    rows, ncols = deformation_rows(curve)
    return ncols - rank(rows)


def honeycomb_dimension(d: int) -> int:
    """Deformation dimension of a smooth plane curve of degree d.

    Smooth tropical plane curves are regular: the dimension is the number
    of lattice points of the Newton triangle minus one, plus the two
    translations, which is 3d + (d-1)(d-2)/2 - 1.
    """
    return 3 * d + (d - 1) * (d - 2) // 2 - 1


def check_deformation_basis(curve, basis, expected_dim: int) -> None:
    """Count, exact parallelism on every edge, and linear independence."""
    require(len(basis) == expected_dim,
            f"deformation dimension {len(basis)}, expected {expected_dim}")
    n = curve.manifold.dim
    for k, D in enumerate(basis):
        for edge in curve.abstract.edges:
            if edge.head is None:
                continue
            A, d = _edge_frame(curve, edge)
            tail = [Fraction(x) for x in D[edge.tail]]
            head = [Fraction(x) for x in D[edge.head]]
            w = [sum(A[i][j] * tail[j] for j in range(n)) - head[i] for i in range(n)]
            for i, j in combinations(range(n), 2):
                require(w[i] * d[j] == w[j] * d[i],
                        f"basis vector {k} breaks the parallelism of edge {edge.id}")
    vertices = curve.abstract.vertices
    flat = [[x for v in vertices for x in D[v]] for D in basis]
    require(rank(flat) == len(basis), "deformation basis vectors are dependent")


# ---------------------------------------------------------------------------
# Isotropy and the dimension bound


def check_isotropy_report(report, expected_dim: int) -> None:
    """One passing check per form, with every Gram value exactly 0."""
    require(report.passed, "isotropy report does not pass")
    require(len(report.checks) == 1, f"{len(report.checks)} checks, expected one form")
    check = report.checks[0]
    require(check.status == "pass", f"isotropy check status {check.status}")
    values = [entry.rsplit("=", 1)[1] for entry in check.detail.split("; ")]
    require(len(values) == comb(expected_dim, 2),
            f"{len(values)} Gram values, expected {comb(expected_dim, 2)}")
    require(all(Fraction(v) == 0 for v in values), "a Gram value is not 0")


def block_gram(blocks, vectors) -> list[Fraction]:
    """The signed block-diagonal 2-form on every pair of vectors.

    ``blocks`` is a list of (dimension, sign, coefficient) for blocks of
    dimension 2 carrying coefficient * dx ^ dy.
    """
    values = []
    for v, w in combinations(vectors, 2):
        total = Fraction(0)
        offset = 0
        for dim, sign, coeff in blocks:
            require(dim == 2, "block pairing is written for planar blocks")
            a, b = Fraction(v[offset]), Fraction(v[offset + 1])
            c, d = Fraction(w[offset]), Fraction(w[offset + 1])
            total += sign * coeff * (a * d - b * c)
            offset += dim
        values.append(total)
    return values


def check_roitman(blocks, vectors, result, expected_dim: int) -> None:
    """Isotropy of span(W), its dimension and the bound dim V - m."""
    require(len(vectors) == expected_dim,
            f"{len(vectors)} restricted vectors, expected {expected_dim}")
    total = sum(dim for dim, _, _ in blocks)
    require(all(len(v) == total for v in vectors), "restricted vector of the wrong length")
    require(all(x == 0 for x in block_gram(blocks, vectors)), "restriction is not isotropic")
    dim_w = rank(vectors)
    require(result.isotropic, "roitman_bound_check says not isotropic")
    require(result.dim_W == dim_w, f"dim W {result.dim_W}, expected {dim_w}")
    require(result.bound == total - len(blocks), f"bound {result.bound}")
    require(result.satisfied and dim_w <= result.bound, "dimension bound not satisfied")


# ---------------------------------------------------------------------------
# Points and 0-cycles


def klein_reduce(x0, y0, point) -> tuple[Fraction, Fraction]:
    """Closed-form representative in [0, x0) x [0, y0).

    b^k moves x by k x0 and flips y when k is odd; a moves y by y0.
    """
    x0, y0 = Fraction(x0), Fraction(y0)
    x, y = Fraction(point[0]), Fraction(point[1])
    k = floor(x / x0)
    x -= k * x0
    if k % 2:
        y = -y
    return x, y - floor(y / y0) * y0


def box_reduce(period, point) -> tuple[Fraction, ...]:
    """Representative of a point of R^n / period Z^n."""
    p = Fraction(period)
    return tuple(Fraction(x) - floor(Fraction(x) / p) * p for x in point)


def cycle(items, reduce) -> dict:
    """A 0-cycle as {canonical point: nonzero multiplicity}."""
    acc: dict = {}
    for point, mult in items:
        key = reduce(point)
        acc[key] = acc.get(key, 0) + mult
    return {p: m for p, m in acc.items() if m}


def curve_boundary(curve, reduce) -> dict:
    """(plus ends) - (minus ends) of a horizontal curve, from its raw data."""
    last = curve.manifold.dim - 1
    items = []
    for edge in curve.abstract.edges:
        if edge.head is not None:
            continue
        data = curve.data(edge.id)
        require(all(c == 0 for c in data.direction[:last]) and data.direction[last] in (1, -1),
                f"ray {edge.id} is not vertical")
        items.append((curve.position(edge.tail)[:last], data.direction[last] * data.weight))
    return cycle(items, reduce)


def zero_cycle_dict(z) -> dict:
    return {tuple(Fraction(x) for x in p): m for p, m in z.entries}


def check_witness(curve, boundary, expected: dict, reduce) -> None:
    """Both the program's boundary and one read off the curve equal ``expected``."""
    require(curve_boundary(curve, reduce) == expected, "witness rays do not give the cycle")
    require(zero_cycle_dict(boundary) == expected, "boundary_zero_cycle is not the cycle")


# ---------------------------------------------------------------------------
# Validation reports


def check_validation(report, embedded: bool) -> None:
    """Every check passes, except that a crossing copy fails embeddedness."""
    statuses = {c.name: c.status for c in report.checks}
    require(EMBEDDEDNESS in statuses, "global embeddedness was not checked")
    for name, status in statuses.items():
        want = "fail" if name == EMBEDDEDNESS and not embedded else "pass"
        require(status == want, f"check {name!r} is {status}, expected {want}")


# ---------------------------------------------------------------------------
# Command-line JSON


def json_documents(text: str) -> list:
    """Every JSON document printed one after another."""
    decoder = json.JSONDecoder()
    docs, i = [], 0
    text = text.strip()
    while i < len(text):
        doc, i = decoder.raw_decode(text, i)
        docs.append(doc)
        while i < len(text) and text[i].isspace():
            i += 1
    return docs


def check_json_report(doc: dict, embedded: bool) -> None:
    statuses = {c["name"]: c["status"] for c in doc["checks"]}
    require(EMBEDDEDNESS in statuses, "global embeddedness was not checked")
    for name, status in statuses.items():
        want = "fail" if name == EMBEDDEDNESS and not embedded else "pass"
        require(status == want, f"check {name!r} is {status}, expected {want}")


def json_curve_boundary(doc: dict, reduce) -> dict:
    """Boundary 0-cycle of a parametrized curve document, read off its rays."""
    rays = {e["id"]: e["tail"] for e in doc["edges"] if e.get("boundary")}
    items = []
    for entry in doc["edges+"]:
        if entry["id"] not in rays:
            continue
        direction = [int(c) for c in entry["direction"]]
        require(all(c == 0 for c in direction[:-1]) and direction[-1] in (1, -1),
                f"ray {entry['id']} is not vertical")
        point = [Fraction(x) for x in doc["positions"][rays[entry["id"]]]][:-1]
        items.append((point, direction[-1] * int(entry.get("weight", 1))))
    return cycle(items, reduce)


def json_cycle(entries) -> dict:
    return {tuple(Fraction(x) for x in e["point"]): int(e["mult"]) for e in entries}


def json_deformation_rows(doc: dict) -> tuple[list[dict], int, dict]:
    """Minor rows of a parametrized curve document with identity decks only."""
    n = int(doc["manifold"]["dim"])
    offsets = {v: i * n for i, v in enumerate(doc["vertices"])}
    data = {e["id"]: e for e in doc["edges+"]}
    rows = []
    for edge in doc["edges"]:
        if edge.get("boundary"):
            continue
        entry = data[edge["id"]]
        require("deck" not in entry or entry["deck"]["matrix"] == [
            [int(i == j) for j in range(n)] for i in range(n)
        ], "minor rows from JSON are written for translation decks")
        d = [int(c) for c in entry["direction"]]
        tail, head = offsets[edge["tail"]], offsets[edge["head"]]
        for i, j in combinations(range(n), 2):
            row: dict[int, Fraction] = {}
            for col, coeff in ((tail + i, d[j]), (tail + j, -d[i]),
                               (head + i, -d[j]), (head + j, d[i])):
                row[col] = row.get(col, 0) + coeff
            rows.append(row)
    return rows, n * len(offsets), offsets


def check_json_deformation(doc: dict, curve_doc: dict) -> None:
    rows, ncols, offsets = json_deformation_rows(curve_doc)
    expected = ncols - rank(rows)
    require(doc["dimension"] == expected == len(doc["basis"]),
            f"deform dimension {doc['dimension']}, expected {expected}")
    flat = []
    for D in doc["basis"]:
        vec = [Fraction(0)] * ncols
        for v, off in offsets.items():
            for j, x in enumerate(D[v]):
                vec[off + j] = Fraction(x)
        require(all(sum(c * vec[col] for col, c in row.items()) == 0 for row in rows),
                "deform basis vector breaks a parallelism condition")
        flat.append(vec)
    require(rank(flat) == len(flat), "deform basis vectors are dependent")


def homology_dimension(curve_doc: dict) -> int:
    """dim ker of the relative boundary map Q^E -> Q^V of a curve document."""
    index = {v: i for i, v in enumerate(curve_doc["vertices"])}
    columns = []
    for e in curve_doc["edges"]:
        col = {index[e["tail"]]: -1}
        if not e.get("boundary"):
            col[index[e["head"]]] = col.get(index[e["head"]], 0) + 1
        columns.append(col)
    # rank of the map equals the rank of its transpose: one row per edge
    return len(columns) - rank(columns)
