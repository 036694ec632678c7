"""Command-line front end.

Exit codes: 0 success, 1 domain error (parse failure, non-rational roots,
cap exceeded, ...), 2 verification failure.  All potentially large JSON
integers are decimal strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

from .counting import (
    DEFAULT_CAP,
    brute_counts_upto,
    coeff_stream,
    count_sequence,
    counts_from_coeffs,
)
from .errors import LocalZetaError
from .lfsr import Lfsr, keystream, lfsr_run, period_of
from .padic import PAdicContext
from .polynomials import (
    FactoredPoly,
    as_integer_poly,
    compute_lf,
    find_rational_roots,
    parse_poly,
    reduce_to_integral_roots,
)
from .ratfunc import (
    RF_ONE,
    rf_add,
    rf_equal,
    rf_eval,
    rf_format,
    rf_from_poly,
    rf_mul,
    rf_series,
)
from .tree import build_tree, tree_to_dot, tree_to_json, tree_to_text
from .zeta import compute_zeta, normalize, poincare, zeta_text, zeta_to_json

ENV_BRUTE_CAP = "LOCALZETA_BRUTE_CAP"


@dataclass
class RunConfig:
    command: str
    poly: str | None = None
    prime: int = 2
    max_m: int = 8
    method: str = "tree"
    format: str = "text"
    brute_cap: int = DEFAULT_CAP
    taps: tuple[int, ...] = field(default_factory=tuple)
    init: tuple[int, ...] = field(default_factory=tuple)
    steps: int = 16
    period: bool = False


def _default_cap() -> int:
    value = os.environ.get(ENV_BRUTE_CAP)
    return int(value) if value else DEFAULT_CAP


def _reduced(config: RunConfig, ctx: PAdicContext):
    f = parse_poly(config.poly)
    factored = f if isinstance(f, FactoredPoly) else find_rational_roots(f)
    return f, reduce_to_integral_roots(factored, ctx)


def _cmd_zeta(config: RunConfig, ctx: PAdicContext) -> str:
    z = compute_zeta(parse_poly(config.poly), ctx, method=config.method)
    if config.format == "json":
        return json.dumps(zeta_to_json(z), indent=2)
    return zeta_text(z)


def _cmd_poincare(config: RunConfig, ctx: PAdicContext) -> str:
    z = compute_zeta(parse_poly(config.poly), ctx, method=config.method)
    h = poincare(z)
    if config.format == "json":
        return json.dumps(
            {
                "p": str(ctx.p),
                "num": [str(c) for c in h.numerator],
                "den": [str(c) for c in h.denominator],
            },
            indent=2,
        )
    return f"H = {rf_format(h)}, t = {ctx.p}^(-s)"


def _cmd_count(config: RunConfig, ctx: PAdicContext) -> tuple[int, str]:
    f = parse_poly(config.poly)
    if config.method != "all":
        seq = count_sequence(f, ctx, config.max_m, config.method, cap=config.brute_cap)
        if config.format == "json":
            doc = {
                "p": str(ctx.p),
                "counts": [str(v) for v in seq.counts],
                "coeffs": [str(c) for c in seq.coeffs],
            }
            return 0, json.dumps(doc, indent=2)
        return 0, "\n".join(f"N_{m} = {v}" for m, v in enumerate(seq.counts))
    columns = {}
    for method in ("tree", "spf", "brute"):
        columns[method] = count_sequence(
            f, ctx, config.max_m, method, cap=config.brute_cap
        ).counts
    agree = columns["tree"] == columns["spf"] == columns["brute"]
    if config.format == "json":
        doc = {
            "p": str(ctx.p),
            "methods": {k: [str(v) for v in vs] for k, vs in columns.items()},
            "agree": agree,
        }
        return (0 if agree else 2), json.dumps(doc, indent=2)
    lines = ["m\ttree\tspf\tbrute"]
    for m in range(config.max_m + 1):
        lines.append(
            f"{m}\t{columns['tree'][m]}\t{columns['spf'][m]}\t{columns['brute'][m]}"
        )
    lines.append("all methods agree" if agree else "METHOD MISMATCH")
    return (0 if agree else 2), "\n".join(lines)


def _cmd_keystream(config: RunConfig, ctx: PAdicContext) -> str:
    ks = keystream(
        parse_poly(config.poly), ctx, config.max_m, config.method, cap=config.brute_cap
    )
    if config.format == "json":
        return json.dumps(ks.to_json(), indent=2)
    return ks.to_text()


def _cmd_tree(config: RunConfig, ctx: PAdicContext) -> str:
    _, reduced = _reduced(config, ctx)
    l_f = compute_lf(reduced.fplus, ctx)
    tree = build_tree(reduced.fplus, ctx, l_f)
    if config.format == "json":
        return json.dumps(tree_to_json(tree), indent=2)
    if config.format == "dot":
        return tree_to_dot(tree)
    return tree_to_text(tree)


def _cmd_lfsr(config: RunConfig, ctx: PAdicContext) -> str:
    register = Lfsr(ctx.p, config.taps, config.init)
    outputs = lfsr_run(register.copy(), config.steps)
    period = period_of(register) if config.period else None
    if config.format == "json":
        doc = {
            "p": str(ctx.p),
            "taps": list(config.taps),
            "init": list(config.init),
            "outputs": [str(v) for v in outputs],
        }
        if period is not None:
            doc["period"] = period
        return json.dumps(doc, indent=2)
    lines = ["output: " + " ".join(str(v) for v in outputs)]
    if period is not None:
        lines.append(f"period: {period}")
    return "\n".join(lines)


def _cmd_verify(config: RunConfig, ctx: PAdicContext) -> tuple[int, str]:
    """All cross-checks on one input, one PASS/FAIL line per check."""
    f = parse_poly(config.poly)
    checks: list[tuple[str, bool, str]] = []

    z_tree = compute_zeta(f, ctx, method="tree")
    z_spf = compute_zeta(f, ctx, method="spf")
    rf_tree = normalize(z_tree)
    rf_spf = normalize(z_spf)
    checks.append(("tree and residue-recursion methods agree",
                   rf_equal(rf_tree, rf_spf), rf_format(rf_tree)))
    z1 = rf_eval(rf_tree, 1)
    checks.append(("Z(1) = 1", z1 == 1, f"Z(1) = {z1}"))
    h = poincare(z_tree)
    identity = rf_add(
        rf_mul(rf_from_poly([1, -1]), h), rf_mul(rf_from_poly([0, 1]), rf_tree)
    )
    checks.append(("(1 - t)H + tZ = 1", rf_equal(identity, RF_ONE), rf_format(h)))

    if z_tree.shift >= 0:
        expanded = coeff_stream(z_tree, config.max_m)
        divided = rf_series(rf_tree, config.max_m + 1)
        checks.append(
            ("term expansion equals long-division series", expanded == divided, "")
        )
    try:
        dense = as_integer_poly(f)
    except LocalZetaError:
        dense = None
    if dense is not None and z_tree.shift >= 0:
        counts = counts_from_coeffs(expanded, ctx, config.max_m)
        ok = all(
            0 <= counts[n + 1] <= ctx.p * counts[n] for n in range(len(counts) - 1)
        )
        checks.append(("counts are integral and within lifting bounds", ok,
                       " ".join(str(v) for v in counts)))
        n_brute = 0
        while n_brute < config.max_m and ctx.p ** (n_brute + 1) <= config.brute_cap:
            n_brute += 1
        brute = brute_counts_upto(dense, ctx, n_brute, cap=config.brute_cap)
        checks.append(
            (f"brute-force counts match up to m = {n_brute}",
             brute == counts[: n_brute + 1], "")
        )

    lines = []
    failed = 0
    for name, ok, detail in checks:
        tag = "PASS" if ok else "FAIL"
        failed += 0 if ok else 1
        suffix = f"  [{detail}]" if detail else ""
        lines.append(f"{tag}  {name}{suffix}")
    lines.append(
        f"{len(checks) - failed}/{len(checks)} checks passed"
        if failed
        else f"all {len(checks)} checks passed"
    )
    return (2 if failed else 0), "\n".join(lines)


def run(config: RunConfig) -> tuple[int, str]:
    """Execute one command; returns (exit status, rendered output)."""
    if config.max_m < 0:
        raise LocalZetaError("max-m/length must be nonnegative")
    ctx = PAdicContext(config.prime)
    if config.brute_cap < ctx.p:
        raise LocalZetaError("brute cap must be at least p")
    if config.command == "zeta":
        return 0, _cmd_zeta(config, ctx)
    if config.command == "poincare":
        return 0, _cmd_poincare(config, ctx)
    if config.command == "count":
        return _cmd_count(config, ctx)
    if config.command == "keystream":
        return 0, _cmd_keystream(config, ctx)
    if config.command == "tree":
        return 0, _cmd_tree(config, ctx)
    if config.command == "lfsr":
        return 0, _cmd_lfsr(config, ctx)
    if config.command == "verify":
        return _cmd_verify(config, ctx)
    raise LocalZetaError(f"unknown command {config.command!r}")


def _csv_ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip() != "")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localzeta",
        description="Exact local zeta functions, solution counts and LFSR keystreams "
        "of univariate polynomials with rational roots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_poly_command(name, help_text, max_m_flag=None,
                         methods=("tree", "spf"), formats=("text", "json")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--poly", required=True, help="polynomial text")
        cmd.add_argument("--prime", required=True, type=int)
        if max_m_flag:
            cmd.add_argument(max_m_flag, dest="max_m", type=int, required=True)
        if methods:
            cmd.add_argument("--method", choices=methods, default="tree")
        cmd.add_argument("--format", choices=formats, default="text")
        cmd.add_argument("--brute-cap", dest="brute_cap", type=int,
                         default=_default_cap())
        return cmd

    add_poly_command("zeta", "compute Z(t, f) and its normalized form")
    add_poly_command("poincare", "compute the Poincare series H(t, f)")
    add_poly_command("count", "solution counts N_0..N_max_m", "--max-m",
                     ("tree", "spf", "brute", "all"))
    add_poly_command("keystream", "keystream N_0..N_u", "--length",
                     ("tree", "spf", "brute"))
    add_poly_command("tree", "dump the weighted residue-class tree", None, (),
                     ("text", "json", "dot"))
    add_poly_command("verify", "run all cross-checks on one input", "--max-m", ())

    lfsr_cmd = sub.add_parser("lfsr", help="simulate a linear feedback shift register")
    lfsr_cmd.add_argument("--prime", required=True, type=int)
    lfsr_cmd.add_argument("--taps", required=True, type=_csv_ints)
    lfsr_cmd.add_argument("--init", required=True, type=_csv_ints)
    lfsr_cmd.add_argument("--steps", type=int, default=16)
    lfsr_cmd.add_argument("--period", action="store_true")
    lfsr_cmd.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        poly=getattr(args, "poly", None),
        prime=args.prime,
        max_m=getattr(args, "max_m", 8),
        method=getattr(args, "method", "tree"),
        format=getattr(args, "format", "text"),
        brute_cap=getattr(args, "brute_cap", _default_cap()),
        taps=getattr(args, "taps", ()),
        init=getattr(args, "init", ()),
        steps=getattr(args, "steps", 16),
        period=getattr(args, "period", False),
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status, output = run(config_from_args(args))
    except LocalZetaError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if output:
        print(output)
    return status


if __name__ == "__main__":
    sys.exit(main())
