"""Command-line front end.

Exit codes: 0 success, 1 domain error (parse failure, non-rational roots,
cap exceeded, ...), 2 verification failure.  All potentially large JSON
integers are decimal strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .counting import (
    DEFAULT_CAP,
    brute_counts_upto,
    check_counts,
    poincare_counts,
    solution_counts,
    tree_counts,
)
from .errors import InvariantViolation, LocalZetaError, NonIntegralCount, PoleAtPoint
from .errors import RecursionDepthExceeded
from .lfsr import Lfsr, lfsr_run, period_of
from .padic import PAdicContext
from .polynomials import (
    DensePoly,
    FactoredPoly,
    as_integer_poly,
    compute_lf,
    find_rational_roots,
    parse_poly,
    reduce_to_integral_roots,
)
from .ratfunc import decimal, poly_add, poly_mul, rf_equal, rf_eval, rf_format, rf_to_json
from .tree import build_tree, tree_to_dot, tree_to_json, tree_to_text
from .zeta import compute_zeta, normalize, poincare, zeta_text, zeta_to_json

ENV_BRUTE_CAP = "LOCALZETA_BRUTE_CAP"


def _brute_cap(flag: int | None, p: int) -> int:
    """--brute-cap if given, else $LOCALZETA_BRUTE_CAP, else DEFAULT_CAP.

    A cap the user sets must be at least p.  The default is never compared
    with p: zeta, poincare and tree never run the oracle, and the oracle
    raises CapExceeded itself for a depth the cap does not reach.
    """
    if flag is None:
        value = os.environ.get(ENV_BRUTE_CAP)
        if not value:
            return DEFAULT_CAP
        try:
            flag = int(value)
        except ValueError:
            raise LocalZetaError(
                f"{ENV_BRUTE_CAP} must be an integer, got {value!r}"
            ) from None
    if flag < p:
        raise LocalZetaError("brute cap must be at least p")
    return flag


def _factored(f: DensePoly | FactoredPoly) -> FactoredPoly:
    """f with its rational roots found, for the commands that run both evaluators."""
    return find_rational_roots(f) if isinstance(f, DensePoly) else f


# each handler returns its exit status and its output: the text, or the JSON
# document that main writes


def _cmd_zeta(args: argparse.Namespace, ctx: PAdicContext) -> tuple[int, str | dict]:
    z = compute_zeta(parse_poly(args.poly), ctx, method=args.method)
    return 0, zeta_to_json(z) if args.format == "json" else zeta_text(z)


def _cmd_poincare(args: argparse.Namespace, ctx: PAdicContext) -> tuple[int, str | dict]:
    h = poincare(compute_zeta(parse_poly(args.poly), ctx, method=args.method))
    if args.format == "json":
        return 0, {"p": str(ctx.p), **rf_to_json(h)}
    return 0, f"H = {rf_format(h)}, t = {ctx.p}^(-s)"


def _cmd_count(args: argparse.Namespace, ctx: PAdicContext) -> tuple[int, str | dict]:
    f = parse_poly(args.poly)
    if args.method != "all":
        # c_m = (p*N_m - N_(m+1)) / p**(m+1) needs N_(m+1): the evaluators give
        # one level more so c_max_m is printed, the oracle stops at the cap's depth
        depth = args.max_m + (args.method != "brute")
        counts = solution_counts(f, ctx, depth, args.method, cap=args.brute_cap)
        shown = counts[: args.max_m + 1]
        if args.format == "json":
            p = ctx.p
            coeffs = (
                Fraction(p * counts[m] - counts[m + 1], p ** (m + 1)) for m in range(depth)
            )
            return 0, {
                "p": str(p),
                "counts": [decimal(v) for v in shown],
                "coeffs": [decimal(c) for c in coeffs],
            }
        return 0, "\n".join(f"N_{m} = {decimal(v)}" for m, v in enumerate(shown))
    dense = as_integer_poly(f)  # IntegralityError comes before the factorisation
    factored = _factored(f)
    columns = {}
    for method in ("tree", "spf", "brute"):
        g = dense if method == "brute" else factored
        columns[method] = solution_counts(g, ctx, args.max_m, method, cap=args.brute_cap)
    agree = columns["tree"] == columns["spf"] == columns["brute"]
    if args.format == "json":
        return (0 if agree else 2), {
            "p": str(ctx.p),
            "methods": {k: [decimal(v) for v in vs] for k, vs in columns.items()},
            "agree": agree,
        }
    lines = ["m\ttree\tspf\tbrute"]
    for m in range(args.max_m + 1):
        row = (decimal(columns[method][m]) for method in ("tree", "spf", "brute"))
        lines.append("\t".join((str(m), *row)))
    lines.append("all methods agree" if agree else "METHOD MISMATCH")
    return (0 if agree else 2), "\n".join(lines)


def _cmd_keystream(args: argparse.Namespace, ctx: PAdicContext) -> tuple[int, str | dict]:
    values = solution_counts(parse_poly(args.poly), ctx, args.max_m, args.method, cap=args.brute_cap)
    if args.format == "json":
        return 0, {"p": str(ctx.p), "u": args.max_m, "values": [decimal(v) for v in values]}
    return 0, "\n".join(map(decimal, values))


def _cmd_tree(args: argparse.Namespace, ctx: PAdicContext) -> tuple[int, str | dict]:
    reduced = reduce_to_integral_roots(parse_poly(args.poly), ctx)
    tree = build_tree(reduced.fplus, ctx, compute_lf(reduced.fplus, ctx))
    render = {"json": tree_to_json, "dot": tree_to_dot, "text": tree_to_text}[args.format]
    return 0, render(tree)


def _cmd_lfsr(args: argparse.Namespace, ctx: PAdicContext) -> tuple[int, str | dict]:
    register = Lfsr(ctx, args.taps, args.init)  # main has proved p
    outputs = lfsr_run(register.copy(), args.steps)
    period = period_of(register) if args.period else None
    if args.format == "json":
        doc = {
            "p": str(ctx.p),
            "taps": list(args.taps),
            "init": list(args.init),
            "outputs": [str(v) for v in outputs],
        }
        if period is not None:
            doc["period"] = period
        return 0, doc
    lines = ["output: " + " ".join(str(v) for v in outputs)]
    if period is not None:
        lines.append(f"period: {period}")
    return 0, "\n".join(lines)


# errors only a fault in the package raises: verify reports them as failed checks
_FAULTS = (InvariantViolation, NonIntegralCount, PoleAtPoint, RecursionDepthExceeded)


def _cmd_verify(args: argparse.Namespace, ctx: PAdicContext) -> tuple[int, str]:
    """All cross-checks on one input, one PASS/FAIL line per check.

    Each value is computed by the first check that needs it and kept.  A
    ``_FAULTS`` error fails the check that meets it, with the error on the
    line below, and so every check that needs the value it came from; the
    other checks still run.  A domain error ends the command.
    """
    f = parse_poly(args.poly)
    factored = _factored(f)
    memo: dict = {}

    def once(make):  # make() on the first call and its value after; a raise is not kept
        return lambda: memo[make] if make in memo else memo.setdefault(make, make())

    z_tree = once(lambda: compute_zeta(factored, ctx, method="tree"))
    rf_tree = once(lambda: normalize(z_tree()))
    h = once(lambda: poincare(z_tree()))
    # N_0..N_(max_m+1) carry the same information as c_0..c_max_m
    expanded = once(lambda: tree_counts(z_tree(), args.max_m + 1))
    lines: list[str] = []

    def check(name, run):
        try:
            ok, detail = run()
        except _FAULTS as exc:
            lines.append(f"FAIL  {name}\n      error: {type(exc).__name__}: {exc}")
            return
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else ""))

    def identity():
        # (1 - t)H + tZ = 1, cross-multiplied by both denominators
        hn, hd = h().numerator, h().denominator
        zn, zd = rf_tree().numerator, rf_tree().denominator
        lhs = poly_add(poly_mul([1, -1], poly_mul(hn, zd)), poly_mul([0, 1], poly_mul(zn, hd)))
        return lhs == poly_mul(hd, zd), rf_format(h())

    def bounds():
        counts = expanded()[: args.max_m + 1]
        check_counts(counts, ctx.p)  # NonIntegralCount on a violation
        return True, " ".join(map(decimal, counts))

    check("tree and residue-recursion methods agree", lambda: (
        rf_equal(rf_tree(), normalize(compute_zeta(factored, ctx, method="spf"))),
        rf_format(rf_tree())))
    check("Z(1) = 1", lambda: ((z1 := rf_eval(rf_tree(), 1)) == 1, f"Z(1) = {z1}"))
    check("(1 - t)H + tZ = 1", identity)
    try:  # an integral f has shift >= 0, so only a rational one skips the counts
        series = z_tree().shift >= 0
    except _FAULTS:
        series = True  # the checks below need Z too and fail on its fault
    if series:
        # the H(pu) side divides num' by the binomials of den'
        check("term expansion equals long-division series", lambda: (
            expanded() == poincare_counts(h(), ctx.p, args.max_m + 1), ""))
        if f.is_integral():
            check("counts are integral and within lifting bounds", bounds)
            n_brute = 0
            while n_brute < args.max_m and ctx.p ** (n_brute + 1) <= args.brute_cap:
                n_brute += 1
            check(f"brute-force counts match up to m = {n_brute}", lambda: (
                brute_counts_upto(f, ctx, n_brute, cap=args.brute_cap) == expanded()[: n_brute + 1],
                ""))

    failed = sum(line.startswith("FAIL") for line in lines)
    total = f"{len(lines) - failed}/{len(lines)}" if failed else f"all {len(lines)}"
    return (2 if failed else 0), "\n".join([*lines, f"{total} checks passed"])


def _csv_ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip() != "")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="localzeta",
        description="Exact local zeta functions, solution counts and LFSR keystreams "
        "of univariate polynomials with rational roots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_poly_command(name, handler, help_text, max_m_flag=None,
                         methods=("tree", "spf"), formats=("text", "json")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(handler=handler)
        cmd.add_argument("--poly", required=True,
                         help="polynomial text; one that starts with '-' goes in as --poly=-x^2+1")
        cmd.add_argument("--prime", required=True, type=int)
        if max_m_flag:
            cmd.add_argument(max_m_flag, dest="max_m", type=int, required=True)
        if methods:
            cmd.add_argument("--method", choices=methods, default="tree")
        cmd.add_argument("--format", choices=formats, default="text")
        cmd.add_argument("--brute-cap", dest="brute_cap", type=int)

    add_poly_command("zeta", _cmd_zeta, "compute Z(t, f) and its normalized form")
    add_poly_command("poincare", _cmd_poincare, "compute the Poincare series H(t, f)")
    add_poly_command("count", _cmd_count, "solution counts N_0..N_max_m", "--max-m",
                     ("tree", "spf", "brute", "all"))
    add_poly_command("keystream", _cmd_keystream, "keystream N_0..N_u", "--length",
                     ("tree", "spf", "brute"))
    add_poly_command("tree", _cmd_tree, "dump the weighted residue-class tree",
                     None, (), ("text", "json", "dot"))
    add_poly_command("verify", _cmd_verify, "run all cross-checks on one input",
                     "--max-m", ())

    lfsr_cmd = sub.add_parser("lfsr", help="simulate a linear feedback shift register")
    lfsr_cmd.set_defaults(handler=_cmd_lfsr)
    lfsr_cmd.add_argument("--prime", required=True, type=int)
    lfsr_cmd.add_argument("--taps", required=True, type=_csv_ints)
    lfsr_cmd.add_argument("--init", required=True, type=_csv_ints)
    lfsr_cmd.add_argument("--steps", type=int, default=16)
    lfsr_cmd.add_argument("--period", action="store_true")
    lfsr_cmd.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; returns the exit status."""
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "max_m", 0) < 0:
            raise LocalZetaError("max-m/length must be nonnegative")
        ctx = PAdicContext(args.prime)
        if hasattr(args, "brute_cap"):  # every command but lfsr
            args.brute_cap = _brute_cap(args.brute_cap, ctx.p)
        status, output = args.handler(args, ctx)
        if not isinstance(output, str):  # a JSON document: it fails only past the digit limit
            output = decimal(output, lambda doc: json.dumps(doc, indent=2))
        if output:
            print(output, flush=True)
    except LocalZetaError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader left; point stdout at devnull so exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
