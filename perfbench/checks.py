"""Check one case's CLI outputs against the references in ``oracle``.

Each function returns a list of problems; an empty list means the
outputs passed.  Sweeps stay shallow (at most SWEEP_RESIDUES residues);
``class_counts`` covers every depth the program reported.
"""

from __future__ import annotations

import json
from fractions import Fraction

import oracle
from corpus import Case

SWEEP_RESIDUES = 1 << 15
POINTS = (Fraction(1, 2), Fraction(-2, 7))


def _sweep_depth(p: int, limit: int) -> int:
    n = 0
    while n < limit and p ** (n + 1) <= SWEEP_RESIDUES:
        n += 1
    return n


def _counts_problems(case: Case, counts: list[int], label: str) -> list[str]:
    poly = case.poly
    p, n = poly.p, len(counts) - 1
    problems = []
    if not oracle.lifting_bounds_hold(counts, p):
        problems.append(f"{label}: counts break N_0 = 1 or N_(m+1) <= p N_m")
    if counts != oracle.class_counts(poly.unit, poly.roots, p, n):
        problems.append(f"{label}: counts differ from the root-class oracle")
    shallow = _sweep_depth(p, n)
    if counts[: shallow + 1] != oracle.sweep_counts(poly.unit, poly.roots, p, shallow):
        problems.append(f"{label}: counts differ from the residue sweep up to m = {shallow}")
    return problems


def _zeta_problems(doc: dict, label: str) -> list[str]:
    """Z(1) = 1, the term sum equals the normal form, and no t-shift (the
    corpus has integral roots and a unit prime to p)."""
    problems = []
    if doc["shift"] != 0:
        problems.append(f"{label}: shift {doc['shift']} != 0")
    if oracle.rf_eval(doc["z"], Fraction(1)) != 1:
        problems.append(f"{label}: Z(1) != 1")
    for t in POINTS:
        if oracle.terms_value(doc["p"], doc["shift"], doc["terms"], t) != oracle.rf_eval(doc["z"], t):
            problems.append(f"{label}: the term sum and the normal form differ at t = {t}")
    return problems


def check_zeta(case: Case, outputs: list[str]) -> list[str]:
    """zeta tree, zeta spf, poincare tree (json), poincare spf (json)."""
    p = case.poly.p
    tree, spf = (oracle.parse_zeta_text(out) for out in outputs[:2])
    problems = _zeta_problems(tree, "zeta tree") + _zeta_problems(spf, "zeta spf")
    if not oracle.rf_equal(tree["z"], spf["z"]):
        problems.append("tree and spf normal forms differ")
    hs = []
    for out in outputs[2:]:
        doc = json.loads(out)
        if int(doc["p"]) != p:
            problems.append("poincare reports another prime")
        hs.append(([int(c) for c in doc["num"]], [int(c) for c in doc["den"]]))
    if not oracle.rf_equal(hs[0], hs[1]):
        problems.append("tree and spf Poincare series differ")
    (hn, hd), (zn, zd) = hs[0], tree["z"]
    lhs = oracle.poly_add(
        oracle.poly_mul(oracle.poly_mul([1, -1], hn), zd),
        oracle.poly_mul(oracle.poly_mul([0, 1], zn), hd),
    )
    if oracle.poly_trim(lhs) != oracle.poly_trim(oracle.poly_mul(hd, zd)):
        problems.append("(1 - t)H + tZ != 1")
    depth = 12
    series = oracle.rf_series(tree["z"], depth)
    problems += _counts_problems(case, oracle.counts_from_series(series, p, depth), "Z series")
    return problems


def check_dense(case: Case, outputs: list[str]) -> list[str]:
    """zeta tree and zeta spf against the closed form for separated roots."""
    expected = oracle.closed_form_zeta(case.poly.p, case.poly.roots)
    problems = []
    docs = [oracle.parse_zeta_text(out) for out in outputs]
    for method, doc in zip(("tree", "spf"), docs):
        problems += _zeta_problems(doc, f"zeta {method}")
        if not oracle.rf_equal(doc["z"], expected):
            problems.append(f"zeta {method}: Z differs from the closed form")
    return problems


def check_cross(case: Case, outputs: list[str]) -> list[str]:
    """verify and count --method all at the brute depth."""
    n = case.info["depth"]
    problems = []
    lines = outputs[0].strip().splitlines()
    if not lines[-1].startswith("all ") or any(not ln.startswith("PASS") for ln in lines[:-1]):
        problems.append("verify reported a failed check")
    if f"PASS  brute-force counts match up to m = {n}" not in lines:
        problems.append(f"verify did not compare brute-force counts up to m = {n}")
    marker = "PASS  counts are integral and within lifting bounds  ["
    reported = [ln[len(marker):-1] for ln in lines if ln.startswith(marker)]
    if len(reported) != 1:
        problems.append("verify printed no counts")
    else:
        counts = [int(v) for v in reported[0].split()]
        problems += _counts_problems(case, counts, "verify")
    rows = outputs[1].strip().splitlines()
    if rows[0] != "m\ttree\tspf\tbrute" or rows[-1] != "all methods agree":
        problems.append("count --method all did not report agreement")
    columns = list(zip(*[[int(v) for v in row.split("\t")] for row in rows[1:-1]]))
    if list(columns[0]) != list(range(n + 1)):
        problems.append("count --method all printed the wrong depths")
    for name, column in zip(("tree", "spf", "brute"), columns[1:]):
        problems += _counts_problems(case, list(column), f"count {name}")
    return problems


def check_stream(case: Case, outputs: list[str]) -> list[str]:
    """keystream tree and keystream spf, N_0..N_u."""
    u = case.info["depth"]
    problems = []
    streams = [[int(v) for v in out.split()] for out in outputs]
    if streams[0] != streams[1]:
        problems.append("tree and spf keystreams differ")
    if len(streams[0]) != u + 1:
        problems.append(f"keystream has {len(streams[0])} values, not {u + 1}")
    else:
        problems += _counts_problems(case, streams[0], "keystream")
    return problems


def check_lfsr(case: Case, outputs: list[str]) -> list[str]:
    op = case.ops[0]
    lines = outputs[0].strip().splitlines()
    expected = oracle.register_outputs(op.p, list(op.taps), list(op.init), op.steps)
    problems = []
    if lines[0] != "output: " + " ".join(map(str, expected)):
        problems.append("register outputs differ from the recurrence")
    period = oracle.register_period(op.p, list(op.taps), list(op.init))
    if lines[1:] != [f"period: {period}"]:
        problems.append(f"register period differs from the cycle search ({period})")
    return problems


CHECKS = {
    "zeta": check_zeta,
    "dense": check_dense,
    "cross": check_cross,
    "stream": check_stream,
    "lfsr": check_lfsr,
}


def check_case(case: Case, outputs: list[str]) -> list[str]:
    try:
        return CHECKS[case.check](case, outputs)
    except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
