"""The troplin command line.

Exit codes: 0 when every check passes, 1 for usage or parse errors, 2 when
a mathematical check fails.  Reports go to stdout as text, or as JSON with
``--json``.  Coloring follows the TROPLIN_COLOR environment variable
(auto, always, never).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import io
from .curve import relative_h1_basis, validate_abstract
from .embedded import (
    boundary_zero_cycle,
    deformation_basis,
    evaluate_at_infinity,
    validate_parametrized,
)
from .errors import InputError, TroplinError
from .klein import albanese_class, chow_comparison, witness_fiber_relation, witness_two_torsion
from .manifold import invariant_forms
from .pairing import isotropy_check, roitman_bound_check
from .report import FAIL, Report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MATH = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; the contract says 1
        raise _UsageError(message)


def _paint(text: str, ok: bool) -> str:
    """Green or red text as TROPLIN_COLOR says: always, never, or (auto)
    only when stdout is a terminal."""
    mode = os.environ.get("TROPLIN_COLOR", "auto")
    if mode not in ("always", "never"):
        tty = hasattr(sys.stdout, "isatty") and sys.stdout.isatty()
        mode = "always" if tty else "never"
    if mode == "never":
        return text
    code = "32" if ok else "31"
    return f"\x1b[{code}m{text}\x1b[0m"


def _verdict(ok: bool) -> int:
    return EXIT_OK if ok else EXIT_MATH


def _report(report: Report):
    """A report's JSON object and text lines; the text colors each status."""
    lines = [f"{report.subject}: {_paint(report.status, report.passed)}"]
    for check in report.checks:
        line = f"  [{_paint(check.status, check.status != FAIL)}] {check.name}"
        lines.append(f"{line} -- {check.detail}" if check.detail else line)
    return report.to_json(), lines


def _load_curve(path: str):
    doc = io.load_json(path)
    if io.is_parametrized_doc(doc):
        return io.parse_parametrized_curve(doc)
    return io.parse_abstract_curve(doc)


def _load_parametrized(path: str):
    curve = _load_curve(path)
    if not hasattr(curve, "manifold"):
        raise ValueError(f"{path} has no embedding data; this command needs a parametrized curve")
    return curve


def _cmd_validate(args):
    reports = []
    for path in args.files:
        curve = _load_curve(path)
        validate = validate_parametrized if hasattr(curve, "manifold") else validate_abstract
        report = validate(curve)
        report.subject = path
        reports.append(report)
    return _verdict(all(r.passed for r in reports)), [_report(r) for r in reports]


def _cmd_homology(args):
    curve = _load_curve(args.file)
    abstract = curve.abstract if hasattr(curve, "abstract") else curve
    cycles = [io.vector_json(v) for v in relative_h1_basis(abstract)]  # also the forms' basis
    doc = {
        "relative_h1_dimension": len(cycles),
        "locally_constant_forms_dimension": len(cycles),
        "cycle_basis": cycles,
    }
    lines = [f"relative H1 dimension: {len(cycles)}",
             f"locally constant 1-forms dimension: {len(cycles)}"]
    lines += [f"  cycle {v}" for v in cycles]
    return EXIT_OK, [(doc, lines)]


def _cmd_forms(args):
    manifold = io.parse_manifold(io.load_json(args.file))
    basis = [io.form_json(f) for f in invariant_forms(manifold, args.degree)]
    lines = [f"invariant {args.degree}-forms: rank {len(basis)}"]
    lines += [f"  coefficients {f['coefficients']}" for f in basis]
    return EXIT_OK, [({"rank": len(basis), "basis": basis}, lines)]


def _cmd_deform(args):
    curve = _load_parametrized(args.file)
    basis = [{v: io.vector_json(vec) for v, vec in D.items()} for D in deformation_basis(curve)]
    lines = [f"deformation space dimension: {len(basis)}"]
    lines += [f"  D{i}: " + ", ".join(f"{v}->{vec}" for v, vec in sorted(D.items()))
              for i, D in enumerate(basis)]
    return EXIT_OK, [({"dimension": len(basis), "basis": basis}, lines)]


def _cmd_ev(args):
    curve = _load_parametrized(args.file)
    minus, plus = evaluate_at_infinity(curve)
    doc = {
        "minus": io.cycle_json(minus),
        "plus": io.cycle_json(plus),
        "boundary": io.cycle_json(boundary_zero_cycle(curve)),
    }
    lines = [f"minus ends: {doc['minus']}", f"plus ends:  {doc['plus']}",
             f"boundary 0-cycle: {doc['boundary']}"]
    return EXIT_OK, [(doc, lines)]


def _cmd_isotropy(args):
    curve = _load_parametrized(args.file)
    form = io.parse_form(io.load_json(args.form)) if args.form else None
    report = isotropy_check(curve, form, degree=args.degree)
    return _verdict(report.passed), [_report(report)]


def _cmd_roitman(args):
    space, vectors = io.parse_graded_space(io.load_json(args.file))
    result = roitman_bound_check(space, vectors)
    doc = {
        "isotropic": result.isotropic,
        "dim_W": result.dim_W,
        "bound": result.bound,
        "satisfied": result.satisfied,
    }
    line = (f"isotropic: {result.isotropic}; dim W = {result.dim_W} "
            f"<= bound {result.bound}: {result.satisfied}")
    return _verdict(result.satisfied), [(doc, [line])]


def _cmd_albanese(args):
    manifold = io.parse_manifold(io.load_json(args.manifold))
    cycle = io.parse_cycle(io.load_json(args.cycle), manifold)
    degree, klass = albanese_class(manifold, cycle)
    doc = {"degree": degree, "class": io.frac_str(klass),
           "modulus": io.frac_str(manifold.klein_params[0])}
    line = f"degree {degree}, albanese class {doc['class']} (mod {doc['modulus']})"
    return EXIT_OK, [(doc, [line])]


def _cmd_chow_equiv(args):
    manifold = io.parse_manifold(io.load_json(args.manifold))
    z1 = io.parse_cycle(io.load_json(args.z1), manifold)
    z2 = io.parse_cycle(io.load_json(args.z2), manifold)
    equivalent, (d1, c1), (d2, c2) = chow_comparison(manifold, z1, z2)
    c1, c2, x0 = (io.frac_str(x) for x in (c1, c2, manifold.klein_params[0]))
    doc = {
        "equivalent": equivalent,
        "degrees": [d1, d2],
        "classes": [c1, c2],
        "modulus": x0,
    }
    verdict, vs = ("equivalent", "=") if equivalent else ("not equivalent", " vs ")
    line = f"{verdict}: degree {d1}{vs}{d2}, class {c1}{vs}{c2} (mod {x0})"
    return _verdict(equivalent), [(doc, [line])]


def _cmd_witness(args):
    """The curve as JSON text, or the ``--output`` message: the same text in
    both modes, so no JSON object (the curve is serialized once)."""
    manifold = io.parse_manifold(io.load_json(args.manifold))
    point = tuple(io.parse_frac(part) for part in args.point.split(","))
    witness = witness_two_torsion if args.relation == "two-torsion" else witness_fiber_relation
    curve = witness(manifold, point)
    text = io.dump_json(io.parametrized_curve_json(curve), args.output)
    if args.output is not None:
        text = f"witness written to {args.output}"
    return EXIT_OK, [(None, [text])]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="troplin", description=__doc__)
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate abstract or parametrized curves")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("homology", help="relative H1 and locally constant 1-forms")
    p.add_argument("file")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("forms", help="invariant p-forms of a manifold")
    p.add_argument("file")
    p.add_argument("--degree", "-p", type=int, required=True)
    p.set_defaults(func=_cmd_forms)

    p = sub.add_parser("deform", help="deformation space of a parametrized curve")
    p.add_argument("file")
    p.set_defaults(func=_cmd_deform)

    p = sub.add_parser("ev", help="evaluation at infinity and the boundary 0-cycle")
    p.add_argument("file")
    p.set_defaults(func=_cmd_ev)

    p = sub.add_parser("isotropy", help="exact vanishing of the end pairing")
    p.add_argument("file")
    p.add_argument("--form")
    p.add_argument("--degree", "-p", type=int, default=2)
    p.set_defaults(func=_cmd_isotropy)

    p = sub.add_parser("roitman", help="isotropy and the dimension bound on a graded space")
    p.add_argument("file")
    p.set_defaults(func=_cmd_roitman)

    p = sub.add_parser("albanese", help="degree and albanese class of a 0-cycle")
    p.add_argument("manifold")
    p.add_argument("cycle")
    p.set_defaults(func=_cmd_albanese)

    p = sub.add_parser("chow-equiv", help="decide rational equivalence on a Klein bottle")
    p.add_argument("manifold")
    p.add_argument("z1")
    p.add_argument("z2")
    p.set_defaults(func=_cmd_chow_equiv)

    p = sub.add_parser("witness", help="emit a witness curve for a Klein relation")
    p.add_argument("manifold")
    p.add_argument("--relation", choices=["two-torsion", "fiber"], required=True)
    p.add_argument("--point", required=True, help='for example "1/2,1"')
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_witness)
    return parser


def run(argv) -> int:
    """Parse argv (without the program name), execute one subcommand and
    print the (JSON object, text lines) documents its handler returns: as
    JSON under ``--json``, else as text, and as text in both modes when the
    JSON object is None.  This is the one place that writes stdout."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code, documents = args.func(args)
        for doc, lines in documents:
            if args.json and doc is not None:
                print(json.dumps(doc, indent=2))
            else:
                print("\n".join(lines))
        return code
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except (InputError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TroplinError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_MATH


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
