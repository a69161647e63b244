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
from .curve import locally_constant_forms, relative_h1_basis, validate_abstract
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


def _use_color(stream) -> bool:
    mode = os.environ.get("TROPLIN_COLOR", "auto")
    if mode == "always":
        return True
    if mode == "never":
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _paint(text: str, ok: bool, stream) -> str:
    if not _use_color(stream):
        return text
    code = "32" if ok else "31"
    return f"\x1b[{code}m{text}\x1b[0m"


def _print_report(report: Report, as_json: bool) -> None:
    out = sys.stdout
    if as_json:
        print(json.dumps(report.to_json(), indent=2))
        return
    print(f"{report.subject}: {_paint(report.status, report.passed, out)}")
    for check in report.checks:
        ok = check.status != FAIL
        line = f"  [{_paint(check.status, ok, out)}] {check.name}"
        if check.detail:
            line += f" -- {check.detail}"
        print(line)


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


def _cmd_validate(args) -> int:
    reports = []
    for path in args.files:  # every file is read before any report is printed
        curve = _load_curve(path)
        if hasattr(curve, "manifold"):
            report = validate_parametrized(curve)
        else:
            report = validate_abstract(curve)
        report.subject = path
        reports.append(report)
    code = EXIT_OK
    for report in reports:
        _print_report(report, args.json)
        if not report.passed:
            code = EXIT_MATH
    return code


def _cmd_homology(args) -> int:
    curve = _load_curve(args.file)
    abstract = curve.abstract if hasattr(curve, "abstract") else curve
    cycles = relative_h1_basis(abstract)
    forms = locally_constant_forms(abstract)
    if args.json:
        print(json.dumps({
            "relative_h1_dimension": len(cycles),
            "locally_constant_forms_dimension": len(forms),
            "cycle_basis": [io.vector_json(v) for v in cycles],
        }, indent=2))
    else:
        print(f"relative H1 dimension: {len(cycles)}")
        print(f"locally constant 1-forms dimension: {len(forms)}")
        for v in cycles:
            print(f"  cycle {io.vector_json(v)}")
    return EXIT_OK if len(cycles) == len(forms) else EXIT_MATH


def _cmd_forms(args) -> int:
    manifold = io.parse_manifold(io.load_json(args.file))
    basis = invariant_forms(manifold, args.degree)
    if args.json:
        print(json.dumps({"rank": len(basis), "basis": [io.form_json(f) for f in basis]},
                         indent=2))
    else:
        print(f"invariant {args.degree}-forms: rank {len(basis)}")
        for f in basis:
            print(f"  coefficients {list(f.coefficients)}")
    return EXIT_OK


def _cmd_deform(args) -> int:
    curve = _load_parametrized(args.file)
    basis = deformation_basis(curve)
    if args.json:
        print(json.dumps({
            "dimension": len(basis),
            "basis": [{v: io.vector_json(vec) for v, vec in D.items()} for D in basis],
        }, indent=2))
    else:
        print(f"deformation space dimension: {len(basis)}")
        for i, D in enumerate(basis):
            parts = ", ".join(f"{v}->{io.vector_json(vec)}" for v, vec in sorted(D.items()))
            print(f"  D{i}: {parts}")
    return EXIT_OK


def _cmd_ev(args) -> int:
    curve = _load_parametrized(args.file)
    minus, plus = evaluate_at_infinity(curve)
    boundary = boundary_zero_cycle(curve)
    if args.json:
        print(json.dumps({
            "minus": io.cycle_json(minus),
            "plus": io.cycle_json(plus),
            "boundary": io.cycle_json(boundary),
        }, indent=2))
    else:
        print(f"minus ends: {io.cycle_json(minus)}")
        print(f"plus ends:  {io.cycle_json(plus)}")
        print(f"boundary 0-cycle: {io.cycle_json(boundary)}")
    return EXIT_OK


def _cmd_isotropy(args) -> int:
    curve = _load_parametrized(args.file)
    form = io.parse_form(io.load_json(args.form)) if args.form else None
    report = isotropy_check(curve, form, degree=args.degree)
    _print_report(report, args.json)
    return EXIT_OK if report.passed else EXIT_MATH


def _cmd_roitman(args) -> int:
    space, vectors = io.parse_graded_space(io.load_json(args.file))
    result = roitman_bound_check(space, vectors)
    payload = {
        "isotropic": result.isotropic,
        "dim_W": result.dim_W,
        "bound": result.bound,
        "satisfied": result.satisfied,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"isotropic: {result.isotropic}; dim W = {result.dim_W} "
            f"<= bound {result.bound}: {result.satisfied}"
        )
    return EXIT_OK if result.satisfied else EXIT_MATH


def _cmd_albanese(args) -> int:
    manifold = io.parse_manifold(io.load_json(args.manifold))
    cycle = io.parse_cycle(io.load_json(args.cycle), manifold)
    degree, klass = albanese_class(manifold, cycle)
    x0 = manifold.klein_params[0]
    if args.json:
        print(json.dumps({"degree": degree, "class": io.frac_str(klass),
                          "modulus": io.frac_str(x0)}, indent=2))
    else:
        print(f"degree {degree}, albanese class {io.frac_str(klass)} (mod {io.frac_str(x0)})")
    return EXIT_OK


def _cmd_chow_equiv(args) -> int:
    manifold = io.parse_manifold(io.load_json(args.manifold))
    z1 = io.parse_cycle(io.load_json(args.z1), manifold)
    z2 = io.parse_cycle(io.load_json(args.z2), manifold)
    equivalent, (d1, c1), (d2, c2) = chow_comparison(manifold, z1, z2)
    x0 = manifold.klein_params[0]
    if args.json:
        print(json.dumps({
            "equivalent": equivalent,
            "degrees": [d1, d2],
            "classes": [io.frac_str(c1), io.frac_str(c2)],
            "modulus": io.frac_str(x0),
        }, indent=2))
    else:
        verdict = "equivalent" if equivalent else "not equivalent"
        print(
            f"{verdict}: degree {d1}={d2}, class {io.frac_str(c1)}={io.frac_str(c2)} "
            f"(mod {io.frac_str(x0)})"
            if equivalent
            else f"{verdict}: degree {d1} vs {d2}, class {io.frac_str(c1)} vs "
            f"{io.frac_str(c2)} (mod {io.frac_str(x0)})"
        )
    return EXIT_OK if equivalent else EXIT_MATH


def _cmd_witness(args) -> int:
    manifold = io.parse_manifold(io.load_json(args.manifold))
    point = tuple(io.parse_frac(part) for part in args.point.split(","))
    if args.relation == "two-torsion":
        curve = witness_two_torsion(manifold, point)
    else:
        curve = witness_fiber_relation(manifold, point)
    text = io.dump_json(io.parametrized_curve_json(curve), args.output)
    if args.output is None:
        print(text)
    else:
        print(f"witness written to {args.output}")
    return EXIT_OK


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
    """Parse argv (without the program name) and execute one subcommand."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
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
