"""Command-line surface: catalog listing, verification, evaluation, reports.

Exit codes: 0 all requested checks pass, 1 a check failed, 2 usage error,
3 internal error.  All probabilistic commands take --seed (default from
POLYLOG_SEED) and echo it in the report so runs are reproducible.

Each command imports the modules it runs, so that ``verify --mode
symbolic`` loads no numeric kernel, and ``check`` on a group, orbit or
q-equation claim (as ``report --only 3,4``) loads neither the numeric kernel
nor the kernel test.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from fractions import Fraction

from . import __version__
from .catalog import equation_names, get_equation
from .exact import DomainError

USAGE_ERROR, CHECK_FAILED, INTERNAL_ERROR = 2, 1, 3

_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
# a real part must end where a sign or the text does, so that '2i' and
# '1e-5i' read as purely imaginary
_COMPLEX_RE = re.compile(rf"(?P<re>[+-]?{_NUMBER}(?=[+-]|$))?(?:(?P<im>[+-]?(?:{_NUMBER})?)i)?")


def _part(literal: str) -> float:
    """A decimal literal as the nearest float; one with a nonzero digit that
    rounds to 0.0 raises ValueError."""
    value = float(literal)
    if not value and re.search(r"[1-9]", re.split(r"[eE]", literal)[0]):
        raise ValueError(f"need a finite nonzero double for {literal!r}, which rounds to 0.0")
    return value


def parse_complex_literal(text: str) -> complex:
    """Parse 'a+bi' with decimal components (also plain reals, 'bi' and 'i')."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    m = _COMPLEX_RE.fullmatch(s)
    if m is None:
        raise ValueError(f"bad complex literal {text!r}")
    im = m.group("im")
    if im is None:
        imag = 0.0
    else:
        imag = _part(im + "1" if im in ("", "+", "-") else im)
    return complex(_part(m.group("re") or "0"), imag)


def _policy(args):
    from .numeric import PrecisionPolicy

    return PrecisionPolicy.for_digits(args.precision)


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("POLYLOG_SEED")
    return int(env) if env else 0


def _emit(args, report) -> int:
    if args.json:
        print(report.render_json())
    else:
        print(report.render_text())
    return 0 if report.all_passed() else CHECK_FAILED


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def cmd_list(args) -> int:
    for name in equation_names():
        eq = get_equation(name)
        kind = "equation" if eq.is_equation else "building block"
        mode = " (numeric-only)" if eq.numeric_only else ""
        print(f"{name:<22} weight {eq.weight}, {len(eq.sum):>3} terms, {kind}{mode}")
    return 0


def cmd_show(args) -> int:
    eq = get_equation(args.equation)
    if args.json:
        print(json.dumps(eq.to_json(), indent=2, sort_keys=True))
    else:
        print(f"name: {eq.name}")
        print(f"weight: {eq.weight}")
        print(f"variables: {', '.join(eq.variables)}")
        print(f"constraints: {eq.constraints}")
        print(f"reference: {eq.reference}")
        print(f"terms ({len(eq.sum)}):")
        for coeff, arg in eq.sum:
            print(f"  {str(coeff):>8} * [{arg.serialize()}]")
    return 0


def cmd_verify(args) -> int:
    from .criterion import kernel_test
    from .runreport import RunReport

    eq = get_equation(args.equation)
    seed = _seed(args)
    if not eq.is_equation:
        print(
            f"{eq.name} is a building block, not a functional equation; "
            "verification applies to the relations built from it",
            file=sys.stderr,
        )
        return USAGE_ERROR
    report = RunReport(command=f"verify {eq.name}", seed=seed)
    t0 = time.time()
    if args.mode in ("symbolic", "both"):
        if eq.numeric_only:
            print(f"{eq.name} is numeric-only; use --mode numeric", file=sys.stderr)
            return USAGE_ERROR
        verdict = kernel_test(
            eq.sum,
            eq.weight,
            trials=args.trials,
            functionals=args.functionals,
            height=args.height,
            seed=seed,
            specialization_height=7 if eq.weight >= 7 else None,
        )
        report.add(
            "symbolic",
            f"{eq.name} kernel test (weight {eq.weight})",
            verdict.passed,
            verdict.to_json(),
            t0,
        )
    if args.mode in ("numeric", "both"):
        from .verify import verify_numeric

        t0 = time.time()
        verdict = verify_numeric(
            eq, points=args.points, policy=_policy(args), seed=seed
        )
        report.add(
            "numeric",
            f"{eq.name} numeric vanishing at {args.points} points",
            verdict.passed,
            verdict.to_json(),
            t0,
        )
    report.policy = {"precision": args.precision}
    return _emit(args, report)


def cmd_eval_cl(args) -> int:
    from .numeric import cl_m, decimal_str

    policy = _policy(args)
    z = parse_complex_literal(args.z)
    print(decimal_str(cl_m(args.m, z, policy), args.precision))
    return 0


def cmd_eval_li(args) -> int:
    from .numeric import decimal_str, li_m

    policy = _policy(args)
    z = parse_complex_literal(args.z)
    print(decimal_str(li_m(args.m, z, policy), args.precision))
    return 0


def cmd_roots(args) -> int:
    from .numeric import decimal_str, from_fixed_pair, poly_roots

    policy = _policy(args)
    coeffs = []
    for chunk in args.coefficients.split(","):
        chunk = chunk.strip()
        if "i" in chunk or "j" in chunk:
            coeffs.append(parse_complex_literal(chunk.replace("j", "i")))
            continue
        try:
            coeffs.append(Fraction(chunk))
        except ZeroDivisionError:  # Fraction("1/0")
            raise DomainError(f"coefficient {chunk!r} has a zero denominator") from None
    for r in poly_roots(coeffs, policy):
        print(decimal_str(from_fixed_pair(*r.pair, policy.prec), args.precision))
    return 0


def cmd_check(args) -> int:
    from .checks import check_names, find_check
    from .runreport import RunReport

    name = args.name
    check = find_check(name)
    if check is None:
        print(f"unknown check {name!r}; known: {', '.join(check_names())}", file=sys.stderr)
        return USAGE_ERROR
    report = RunReport(command=f"check {name}", seed=_seed(args))
    t0 = time.time()
    rep = check()
    if name == "xi7-term-count":
        print(rep.details["count"])
    report.add(name, name, rep.passed, rep.details, t0)
    return _emit(args, report)


def cmd_report(args) -> int:
    if not args.all and not args.only:
        print("report needs --all or --only", file=sys.stderr)
        return USAGE_ERROR
    from .report import run_acceptance

    only = [cid.strip() for cid in args.only.split(",")] if args.only else None
    report = run_acceptance(seed=_seed(args), only=only)
    return _emit(args, report)


def cmd_export(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    for name in equation_names():
        eq = get_equation(name)
        path = os.path.join(args.out, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(eq.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"wrote {len(equation_names())} equation files to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyrel",
        description="verification engine and catalog for polylogarithm functional equations",
    )
    parser.add_argument("--version", action="version", version=f"polyrel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list catalog equations")
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("show", help="print one equation")
    p.add_argument("equation")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("verify", help="verify an equation symbolically and/or numerically")
    p.add_argument("--equation", required=True)
    p.add_argument("--mode", choices=["symbolic", "numeric", "both"], default="both")
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--functionals", type=int, default=5)
    p.add_argument("--height", type=int, default=40)
    p.add_argument("--precision", type=int, default=50)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("eval-cl", help="evaluate the one-valued CL_m")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--z", required=True, help="complex literal a+bi, e.g. --z=-0.25+0.5i")
    p.add_argument("--precision", type=int, default=50)
    p.set_defaults(func=cmd_eval_cl)

    p = sub.add_parser("eval-li", help="evaluate the principal-branch Li_m")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--z", required=True, help="complex literal a+bi, e.g. --z=-0.25+0.5i")
    p.add_argument("--precision", type=int, default=50)
    p.set_defaults(func=cmd_eval_li)

    p = sub.add_parser("roots", help="roots of a polynomial (ascending coefficients)")
    p.add_argument(
        "--coefficients",
        required=True,
        help="comma-separated, e.g. --coefficients=-1,0,1 for x^2-1 (a leading minus needs the =)",
    )
    p.add_argument("--precision", type=int, default=50)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("check", help="run a named structural check")
    p.add_argument("--name", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("report", help="run the acceptance suite")
    p.add_argument("--all", action="store_true")
    p.add_argument("--only", default=None, help="comma-separated criterion ids")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("export", help="write the catalog JSON artifacts")
    p.add_argument("--out", default="data/catalog")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # pragma: no cover - internal errors
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
