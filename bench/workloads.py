"""Seeded inputs and job lists of the four benchmark workloads.

Every input is made from the seed alone, with the same shape for every
seed (the same sizes, multiplicities, denominators and counts), so that
the cost of a job does not depend on the seed.  A job runs one question
through troplin's public API or command line; its check compares the
answer with the independent computations in ``checks.py``.  Expected
values that cost more than the job itself are computed once, when the
workload is built.
"""

from __future__ import annotations

import contextlib
import io as stdio
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable

import troplin as t
from troplin import cli, io
from troplin.manifold import translation_deck

import checks
from checks import require

AREA = t.TropicalForm(2, 2, (1,))
KLEIN_X0, KLEIN_Y0 = Fraction(2), Fraction(3)
TORUS_PERIOD = Fraction(4)

# Breakpoints of the torus circle modifications, per job class.
TORUS_SIZES = {"small": 8, "mid": 12, "large": 18}
TORUS_DIRECTIONS = {"small": (1, 0), "mid": (1, 1), "large": (2, 1)}
# Per round: how many distinct inputs of each class.
TORUS_COPIES = {"small": 3, "mid": 1, "large": 1}
KLEIN_WITNESSES = 4
KLEIN_CYCLE_POINTS = 3_000
KLEIN_RELATIONS = 100
KLEIN_BREAKPOINTS = 40
PLANE_DEGREES = {"small": 3, "mid": 5, "large": 7}
PLANE_COPIES = {"small": 3, "mid": 1, "large": 1}
CLI_CYCLE_POINTS = 5_000
ALBANESE_POINTS = 50
CHILD_TIMEOUT_S = 120


@dataclass
class Job:
    """One question: ``run`` is timed, ``check`` is not."""

    name: str
    klass: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    jobs: list[Job]
    # Peak resident memory in KiB of what the jobs ran in; None: this process.
    peak_rss_kb: Callable[[], int] | None = None
    # Checks too slow to run after every job; run once per benchmark run.
    final_check: Callable[[], None] | None = None


def klein_reduce(point):
    return checks.klein_reduce(KLEIN_X0, KLEIN_Y0, point)


def torus_reduce(point):
    return checks.box_reduce(TORUS_PERIOD, point)


# ---------------------------------------------------------------------------
# Generators


def principal_divisor(rng: random.Random, c: Fraction, k: int, denominator: int):
    """k grid points on a circle of circumference c with vanishing Jacobian class.

    In circle order the multiplicities are +1, +1, -1, -1, ... (ending +1, -1
    when k is 2 mod 4) for every seed, so slopes stay in a band of width 2
    and only the positions vary with the seed.
    """
    mults = [1 if i % 4 < 2 else -1 for i in range(k - k % 4)] + [1, -1][: k % 4]
    slots = int(c * denominator)
    while True:
        spots = sorted(Fraction(s, denominator) for s in rng.sample(range(slots), k - 1))
        last = (-sum(m * s for m, s in zip(mults, spots)) / mults[-1]) % c
        if last > spots[-1]:
            return list(zip(spots + [last], mults))


def torus_modification(rng: random.Random, k: int, direction):
    """Horizontal circle modification in T^2 x R, T^2 = R^2 / 4Z^2."""
    T = t.make_torus([(4, 0), (0, 4)])
    c = TORUS_PERIOD  # the return time of a primitive direction
    anchor = (Fraction(rng.randrange(8), 2), Fraction(rng.randrange(8), 2))
    closing = translation_deck((-c * direction[0], -c * direction[1]))
    circle = t.circle_embedding(T, anchor, direction, c, closing)
    divisor = principal_divisor(rng, c, k, 16)
    return t.modification_curve(circle, t.principal_function(c, divisor))


# Quarters in (0, y0) other than y0/2: heights off the special axis-2 fibres.
GENERIC_QUARTERS = [1, 2, 3, 4, 5, 7, 8, 9, 10, 11]


def klein_modification(rng: random.Random, K, k: int):
    """Modification over a generic long axis-2 fibre of the Klein bottle."""
    y = Fraction(rng.choice(GENERIC_QUARTERS), 4)
    circle = t.fiber_circle(K, 2, y)
    divisor = principal_divisor(rng, circle.circumference, k, 16)
    return t.modification_curve(circle, t.principal_function(circle.circumference, divisor))


def klein_point(rng: random.Random):
    """A point off the special fibres y = 0 and y = y0/2."""
    return (Fraction(rng.randrange(8), 4), Fraction(rng.choice(GENERIC_QUARTERS), 4))


def _grid(rng: random.Random, span: int, denominator: int) -> Fraction:
    return Fraction(rng.randrange(-span * denominator, span * denominator), denominator)


def _deck_lift(rng: random.Random, point):
    """An arbitrary lift: b^k a^m (x, y) = (x + k x0, (-1)^k (y + m y0))."""
    k, m = rng.randrange(-3, 4), rng.randrange(-3, 4)
    sign = -1 if k % 2 else 1
    return (point[0] + k * KLEIN_X0, sign * (point[1] + m * KLEIN_Y0))


def klein_relation(rng: random.Random, family: int) -> list:
    """Lifted points of a 0-cycle rationally equivalent to zero.

    Families: the two-torsion relation 2[iota p] - 2[p], the fibre
    relation 2[s(x)] - [p] - [iota p], and principal divisors on an
    axis-1 fibre (circumference y0) and on a long axis-2 fibre
    (circumference 2 x0).
    """
    p = (_grid(rng, 2, 64), _grid(rng, 3, 64))
    iota_p = (p[0], -p[1])
    if family == 0:
        return [(iota_p, 2), (p, -2)]
    if family == 1:
        return [((p[0], Fraction(0)), 2), (p, -1), (iota_p, -1)]
    if family == 2:
        ys = [_grid(rng, 3, 64) for _ in range(2)]
        last = ys[0] + ys[1] - p[1] + KLEIN_Y0 * rng.randrange(-2, 3)
        return [((p[0], ys[0]), 1), ((p[0], ys[1]), 1), ((p[0], last), -1), (p, -1)]
    ts = [_grid(rng, 2, 64) for _ in range(2)]
    last = ts[0] + ts[1] - p[0] + 2 * KLEIN_X0 * rng.randrange(-2, 3)
    return [((ts[0], p[1]), 1), ((ts[1], p[1]), 1), ((last, p[1]), -1), (p, -1)]


def klein_cycles(rng: random.Random, points: int):
    """(z1, z2, z3) as lifted point lists: z2 ~ z1 by construction, z3 is not.

    z2 moves every point of z1 by a deck element and adds relations; z3
    adds [q] - [p] to z2 with x(q) - x(p) outside x0 Z.
    """
    z1 = [((_grid(rng, 8, 64), _grid(rng, 8, 64)), rng.choice([-2, -1, 1, 2]))
          for _ in range(points)]
    z2 = [(_deck_lift(rng, p), m) for p, m in z1]
    for i in range(KLEIN_RELATIONS):
        z2 += [(_deck_lift(rng, p), m) for p, m in klein_relation(rng, i % 4)]
    p = (_grid(rng, 2, 64), _grid(rng, 3, 64))
    shift = KLEIN_X0 * (rng.randrange(-2, 3) + Fraction(rng.randrange(1, 8), 8))
    z3 = z2 + [((p[0] + shift, _grid(rng, 3, 64)), 1), (p, -1)]
    return z1, z2, z3


def _lifting(rng: random.Random, d: int) -> dict:
    """Concave lifting -64 q(i, j) + r(i, j), q = i^2 + ij + j^2, 0 <= r < 16.

    q folds every rhombus of two unit triangles by exactly 1 along its
    short diagonal, and r changes a fold by less than 64, so the regular
    subdivision stays the standard unimodular triangulation.
    """
    return {(i, j): -64 * (i * i + i * j + j * j) + rng.randrange(16)
            for i in range(d + 1) for j in range(d + 1 - i)}


def _dual_vertex(c: dict, tri) -> tuple[int, int]:
    """Point X where the three monomials of the triangle tie in max(c + m.X)."""
    (a, b, e) = tri
    # (b - a).X = c_a - c_b and (e - a).X = c_a - c_e; the matrix is unimodular.
    p, q = b[0] - a[0], b[1] - a[1]
    r, s = e[0] - a[0], e[1] - a[1]
    u, w = c[a] - c[b], c[a] - c[e]
    det = p * s - q * r
    return ((u * s - q * w) // det, (p * w - u * r) // det)


def honeycomb(rng: random.Random, d: int, crossing: bool = False):
    """Smooth tropical plane curve of degree d dual to the unimodular
    triangulation, optionally joined with a tropical line crossing it."""
    c = _lifting(rng, d)
    triangles = {}
    for i in range(d):
        for j in range(d - i):
            triangles[f"u{i}_{j}"] = ((i, j), (i + 1, j), (i, j + 1))
            if i + j <= d - 2:
                triangles[f"d{i}_{j}"] = ((i + 1, j), (i, j + 1), (i + 1, j + 1))
    positions = {name: _dual_vertex(c, tri) for name, tri in triangles.items()}
    sides: dict = {}
    for name, tri in triangles.items():
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2])):
            sides.setdefault(tuple(sorted((a, b))), []).append(name)
    edges_abs, edges_emb = [], {}
    for n, ((a, b), names) in enumerate(sorted(sides.items())):
        if len(names) == 2:
            tail, head = names
            dx = positions[head][0] - positions[tail][0]
            dy = positions[head][1] - positions[tail][1]
            g = gcd(dx, dy)
            if (dx * (b[0] - a[0]) + dy * (b[1] - a[1])) != 0 or g == 0:
                raise ValueError("lifting does not induce the unimodular triangulation")
            eid = f"e{n}"
            edges_abs.append((eid, tail, head, g))
            edges_emb[eid] = dict(direction=(dx // g, dy // g), image_length=g)
        else:
            direction = (0, -1) if a[1] == b[1] == 0 else (-1, 0) if a[0] == b[0] == 0 else (1, 1)
            eid = f"r{n}"
            edges_abs.append((eid, names[0], None, t.INF))
            edges_emb[eid] = dict(direction=direction, image_length=t.INF)
    vertices = sorted(triangles)
    if crossing:
        # A line whose vertex sits inside the hexagon of an interior lattice
        # point: its rays leave the bounded region, so they meet the curve.
        i = rng.randrange(1, d - 1)
        j = rng.randrange(1, d - i)
        around = [name for name, tri in triangles.items() if (i, j) in tri]
        centre = tuple(sum(Fraction(positions[v][k]) for v in around) / len(around)
                       for k in range(2))
        positions["L"] = centre
        vertices.append("L")
        for k, direction in enumerate([(-1, 0), (0, -1), (1, 1)]):
            edges_abs.append((f"L{k}", "L", None, t.INF))
            edges_emb[f"L{k}"] = dict(direction=direction, image_length=t.INF)
    return t.parametrized_curve(
        t.make_euclidean(2), t.abstract_curve(vertices, edges_abs), positions, edges_emb
    )


# ---------------------------------------------------------------------------
# Workloads


def torus_isotropy(seed: int, workdir: Path, root: Path, in_process: bool) -> Workload:
    rng = random.Random(seed)
    jobs = []
    for klass in ("small", "mid", "large"):
        k = TORUS_SIZES[klass]
        for copy in range(TORUS_COPIES[klass]):
            h = torus_modification(rng, k, TORUS_DIRECTIONS[klass])
            dim = checks.deformation_dimension(h)
            require(dim == k + 1, f"own elimination gives {dim}, theory {k + 1}")

            def run(h=h):
                report = t.isotropy_check(h, AREA)
                space, vectors = t.infinity_restriction(h, AREA)
                return report, space, vectors, t.roitman_bound_check(space, vectors)

            def check(out, dim=dim):
                report, space, vectors, result = out
                checks.check_isotropy_report(report, dim)
                blocks = [(b.dimension, b.sign, b.form.coefficients[0]) for b in space.blocks]
                checks.check_roitman(blocks, vectors, result, dim)

            jobs.append(Job(f"isotropy-k{k}-{copy}", klass, run, check))
    return Workload(_interleave(jobs))


def klein_bottle(seed: int, workdir: Path, root: Path, in_process: bool) -> Workload:
    rng = random.Random(seed)
    K = t.make_klein(KLEIN_X0, KLEIN_Y0)
    jobs = []
    for copy in range(KLEIN_WITNESSES):
        p = klein_point(rng)
        ip = (p[0], -p[1])
        two = checks.cycle([(ip, 2), (p, -2)], klein_reduce)
        fibre = checks.cycle([((p[0], 0), 2), (p, -1), (ip, -1)], klein_reduce)

        def run_two(p=p):
            h = t.witness_two_torsion(K, p)
            return h, t.boundary_zero_cycle(h)

        def run_fibre(p=p):
            h = t.witness_fiber_relation(K, p)
            return h, t.boundary_zero_cycle(h)

        jobs.append(Job(f"two-torsion-{copy}", "small", run_two,
                        lambda out, e=two: checks.check_witness(*out, e, klein_reduce)))
        jobs.append(Job(f"fibre-relation-{copy}", "fibre", run_fibre,
                        lambda out, e=fibre: checks.check_witness(*out, e, klein_reduce)))
    z1, z2, z3 = klein_cycles(rng, KLEIN_CYCLE_POINTS)
    for name, other, expected in (("chow-equivalent", z2, True), ("chow-inequivalent", z3, False)):
        def run(other=other):
            return t.chow_equivalent(K, t.zero_cycle(K, z1), t.zero_cycle(K, other))

        def check(out, expected=expected):
            require(out is expected, f"verdict {out}, expected {expected} by construction")

        jobs.append(Job(name, "mid", run, check))
    h = klein_modification(rng, K, KLEIN_BREAKPOINTS)
    dim = checks.deformation_dimension(h)
    require(dim == KLEIN_BREAKPOINTS + 1, f"own elimination gives {dim}")
    jobs.append(Job(f"deformation-k{KLEIN_BREAKPOINTS}", "large",
                    lambda: t.deformation_basis(h),
                    lambda basis: checks.check_deformation_basis(h, basis, dim)))
    return Workload(_interleave(jobs))


def plane_validate(seed: int, workdir: Path, root: Path, in_process: bool) -> Workload:
    rng = random.Random(seed)
    jobs = []
    for klass in ("small", "mid", "large"):
        d = PLANE_DEGREES[klass]
        for copy in range(PLANE_COPIES[klass]):
            for crossing in (False, True):
                h = honeycomb(rng, d, crossing)
                jobs.append(Job(
                    f"{'crossing' if crossing else 'honeycomb'}-d{d}-{copy}",
                    klass + ("-crossing" if crossing else ""),
                    lambda h=h: t.validate_parametrized(h),
                    lambda report, e=not crossing: checks.check_validation(report, e),
                ))

    def deformation_dimensions():
        # deformation_basis validates first, so the large degree would cost
        # more than a round; the small and mid degrees are checked.
        for d in (PLANE_DEGREES["small"], PLANE_DEGREES["mid"]):
            h = honeycomb(random.Random(seed), d)
            expected = checks.honeycomb_dimension(d)
            require(checks.deformation_dimension(h) == expected,
                    f"own elimination disagrees with the formula at degree {d}")
            checks.check_deformation_basis(h, t.deformation_basis(h), expected)

    return Workload(_interleave(jobs), final_check=deformation_dimensions)


# ---------------------------------------------------------------------------
# Command line


def _write(path: Path, doc) -> str:
    io.dump_json(doc, str(path))
    return str(path)


class CliRunner:
    """Runs ``troplin --json ...`` in a fresh interpreter, or in-process."""

    def __init__(self, root: Path, workdir: Path, in_process: bool):
        self.workdir = workdir
        self.in_process = in_process
        self.peak_kb = 0
        self.env = dict(os.environ, TROPLIN_COLOR="never")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def __call__(self, argv: list[str]):
        """(exit code, stdout, peak RSS of the child in KiB)."""
        argv = ["--json"] + argv
        if self.in_process:
            out = stdio.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(stdio.StringIO()):
                code = cli.run(argv)
            return code, out.getvalue(), 0
        stdout_path = self.workdir / "stdout.txt"
        with open(stdout_path, "w+b") as out, open(os.devnull, "wb") as err:
            child = subprocess.Popen([sys.executable, "-m", "troplin.cli"] + argv,
                                     stdout=out, stderr=err, env=self.env)
            # os.wait4 reaps the child and reports its own peak RSS; the
            # timer stops a child that hangs.
            guard = threading.Timer(CHILD_TIMEOUT_S, child.kill)
            guard.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                guard.cancel()
            child.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            text = out.read().decode()
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return child.returncode, text, usage.ru_maxrss


def cli_cold(seed: int, workdir: Path, root: Path, in_process: bool) -> Workload:
    rng = random.Random(seed)
    data = root / "src" / "troplin" / "data"
    K = t.make_klein(KLEIN_X0, KLEIN_Y0)
    run_cli = CliRunner(root, workdir, in_process)
    fig1a = str(data / "fig1a.json")
    klein = str(data / "klein.json")
    fig1a_doc = io.load_json(fig1a)

    tmod_doc = io.parametrized_curve_json(torus_modification(rng, 12, (1, 1)))
    tmod = _write(workdir / "torus-k12.json", tmod_doc)
    tmod_dim = checks.deformation_dimension(io.parse_parametrized_curve(tmod_doc))
    h8 = torus_modification(rng, 8, (1, 0))
    space, vectors = t.infinity_restriction(h8, AREA)
    graded = _write(workdir / "graded.json", io.graded_space_json(space, vectors))
    blocks = [(b.dimension, b.sign, b.form.coefficients[0]) for b in space.blocks]
    z1, z2, _ = klein_cycles(rng, CLI_CYCLE_POINTS)
    za = z1[:ALBANESE_POINTS]
    z1_path, z2_path, za_path = (
        _write(workdir / name, [{"point": io.vector_json(p), "mult": m} for p, m in z])
        for name, z in (("z1.json", z1), ("z2.json", z2), ("za.json", za))
    )
    p = klein_point(rng)
    point = f"{p[0]},{p[1]}"
    ip = (p[0], -p[1])

    def expect(code_wanted: int, inspect: Callable[[list], None]):
        def check(out):
            code, text, _ = out
            require(code == code_wanted, f"exit code {code}, expected {code_wanted}")
            inspect(checks.json_documents(text))
        return check

    def forms(rank):
        def inspect(docs):
            (doc,) = docs
            require(doc["rank"] == rank, f"rank {doc['rank']}, expected {rank}")
            if rank:
                require(doc["basis"][0]["coefficients"] in ([1, 0], [-1, 0]), "1-form is not dx")
        return inspect

    def homology(docs):
        (doc,) = docs
        want = checks.homology_dimension(fig1a_doc)
        require(doc["relative_h1_dimension"] == doc["locally_constant_forms_dimension"] == want,
                "homology dimensions disagree")

    def isotropy(docs):
        (doc,) = docs
        require(doc["status"] == "pass", "isotropy does not pass")
        dim = tmod_dim
        (check,) = doc["checks"]
        values = [e.rsplit("=", 1)[1] for e in check["detail"].split("; ")]
        require(len(values) == dim * (dim - 1) // 2 and all(v == "0" for v in values),
                "Gram values are not all 0")

    def roitman(docs):
        (doc,) = docs
        require(all(x == 0 for x in checks.block_gram(blocks, vectors)), "not isotropic")
        want = checks.rank(vectors)
        require(doc == {"isotropic": True, "dim_W": want, "bound": len(blocks),
                        "satisfied": want <= len(blocks)} and doc["satisfied"],
                f"roitman reports {doc}")

    def ev(docs):
        (doc,) = docs
        require(checks.json_cycle(doc["boundary"])
                == checks.json_curve_boundary(tmod_doc, torus_reduce),
                "boundary 0-cycle is not the one read off the rays")

    def albanese(docs):
        (doc,) = docs
        reduced = [(klein_reduce(p), m) for p, m in za]
        klass = sum(m * x for (x, _), m in reduced) % KLEIN_X0
        require((doc["degree"], Fraction(doc["class"]), Fraction(doc["modulus"]))
                == (sum(m for _, m in za), klass, KLEIN_X0), f"albanese reports {doc}")

    def chow(docs):
        (doc,) = docs
        require(doc["equivalent"] is True, "equivalent cycles reported inequivalent")

    def witness(expected):
        def inspect(docs):
            (doc,) = docs
            require(checks.json_curve_boundary(doc, klein_reduce) == expected,
                    "witness boundary is not the relation")
        return inspect

    # One call per subcommand (forms twice: degree 1 and degree 2).
    specs = [
        ("validate-fig1a", "small", ["validate", fig1a], 0,
         lambda docs: checks.check_json_report(docs[0], True)),
        ("homology-fig1a", "homology", ["homology", fig1a], 0, homology),
        ("forms-1", "forms", ["forms", klein, "--degree", "1"], 0, forms(1)),
        ("forms-2", "forms", ["forms", klein, "--degree", "2"], 0, forms(0)),
        ("deform-torus", "deform", ["deform", tmod], 0,
         lambda docs: checks.check_json_deformation(docs[0], tmod_doc)),
        ("ev-torus", "ev", ["ev", tmod], 0, ev),
        ("isotropy-torus", "isotropy", ["isotropy", tmod, "--form", str(data / "dxdy.json")],
         0, isotropy),
        ("roitman", "roitman", ["roitman", graded], 0, roitman),
        ("albanese", "albanese", ["albanese", klein, za_path], 0, albanese),
        ("chow-equiv", "large", ["chow-equiv", klein, z1_path, z2_path], 0, chow),
        ("witness-two-torsion", "witness",
         ["witness", klein, "--relation", "two-torsion", "--point", point], 0,
         witness(checks.cycle([(ip, 2), (p, -2)], klein_reduce))),
    ]
    jobs = [Job(name, klass, lambda argv=argv: run_cli(argv), expect(code, inspect))
            for name, klass, argv, code, inspect in specs]
    return Workload(jobs, peak_rss_kb=None if in_process else lambda: run_cli.peak_kb)


def _interleave(jobs: list[Job]) -> list[Job]:
    """Spread each class over the round instead of running it in one block."""
    by_class: dict[str, list[Job]] = {}
    for job in jobs:
        by_class.setdefault(job.klass, []).append(job)
    queues = list(by_class.values())
    out = []
    while any(queues):
        for q in queues:
            if q:
                out.append(q.pop(0))
    return out


WORKLOADS = {
    "torus-isotropy": torus_isotropy,
    "klein-bottle": klein_bottle,
    "plane-validate": plane_validate,
    "cli-cold": cli_cold,
}
