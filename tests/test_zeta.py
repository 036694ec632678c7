import ast
import inspect
import itertools
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import localzeta
import localzeta.padic
import localzeta.polynomials
import localzeta.zeta

from localzeta import (
    RF_ONE,
    FactoredPoly,
    PAdicContext,
    RationalFunctionT,
    ZetaFunction,
    ZetaTerm,
    build_tree,
    compute_lf,
    compute_zeta,
    generating_function,
    make_ratfunc,
    normalize,
    parse_poly,
    poincare,
    reduce_to_integral_roots,
    rf_add,
    rf_equal,
    rf_eval,
    rf_format,
    rf_from_poly,
    rf_mul,
    rf_series,
    solution_counts,
    spf_eval,
    vp,
    zeta_from_json,
    zeta_text,
    zeta_to_json,
)
from localzeta.cli import main
from localzeta.errors import (
    CapExceeded,
    InvariantViolation,
    MalformedDocument,
    PoleAtPoint,
    RecursionDepthExceeded,
)
from localzeta.ratfunc import poly_add, poly_is_zero, poly_mul, poly_trim
from localzeta.zeta import _separation_depth, _spf_terms
from spf_reference import classify_residues, dilate, spf_terms as reference_spf_terms
from tree_reference import (
    fraction_term,
    minimal_weight_one_set,
    term_coeff,
    tree_terms,
    vertex_term,
)

F = Fraction


def poly_sub(a, b):
    return poly_add(a, [-F(c) for c in b])


def poly_shift(a, k):
    """Multiply by t**k."""
    if poly_is_zero(a):
        return [F(0)]
    return poly_trim([F(0)] * k + [F(c) for c in a])


def poly_divmod(a, b):
    """Quotient and remainder over Q; b must be nonzero."""
    rem = poly_trim(a)
    den = poly_trim(b)
    if poly_is_zero(den):
        raise ZeroDivisionError("polynomial division by zero")
    quot = [F(0)] * max(len(rem) - len(den) + 1, 1)
    while not poly_is_zero(rem) and len(rem) >= len(den):
        shift = len(rem) - len(den)
        factor = rem[-1] / den[-1]
        quot[shift] = factor
        for i, c in enumerate(den):
            rem[shift + i] -= factor * c
        # exact arithmetic: the leading term cancels, so the degree drops
        rem = poly_trim(rem[: len(den) + shift - 1] or [F(0)])
    return poly_trim(quot), rem


def worked_setup():
    ctx = PAdicContext(3)
    f = FactoredPoly(F(1), ((F(1), 2), (F(4), 1)))
    l_f = compute_lf(f, ctx)
    tree = build_tree(f, ctx, l_f)
    return ctx, f, l_f, tree


def term_set(z):
    return [(term_coeff(t, z.ctx.p), t.t_pow, t.den_pow) for t in z.sorted_terms()]


# ---------------------------------------------------------------------------
# vertex terms
# ---------------------------------------------------------------------------


def test_vertex_term_examples():
    ctx, _, l_f, tree = worked_setup()
    by_key = {(v.level, v.residue): v for v in tree.vertices}
    minimal = minimal_weight_one_set(tree)

    root = by_key[(0, 0)]
    assert vertex_term(root, ctx, l_f, root.id in minimal) == ZetaTerm(2, 1, 0, 0)

    v = by_key[(2, 4)]
    assert v.id in minimal
    assert vertex_term(v, ctx, l_f, True) == ZetaTerm(2, 3, 4, 1)

    v = by_key[(3, 1)]
    assert vertex_term(v, ctx, l_f, v.id in minimal) == ZetaTerm(2, 4, 7, 2)

    # weight-1 vertex below another weight-1 vertex contributes nothing
    v = by_key[(3, 4)]
    assert vertex_term(v, ctx, l_f, v.id in minimal) is None


def test_full_valence_vertices_are_omitted():
    # x(x-1) at p=2 covers every residue: the root term has coefficient 0
    ctx = PAdicContext(2)
    f = FactoredPoly(F(1), ((F(0), 1), (F(1), 1)))
    z = generating_function(build_tree(f, ctx, compute_lf(f, ctx)))
    assert all(t.c != 0 for t in z.terms)
    assert rf_eval(normalize(z), 1) == 1


# ---------------------------------------------------------------------------
# generating function
# ---------------------------------------------------------------------------


def test_worked_example_term_multiset():
    ctx, _, _, tree = worked_setup()
    z = generating_function(tree)
    assert term_set(z) == [
        (F(2, 3), 0, 0),
        (F(1, 9), 3, 0),
        (F(2, 27), 4, 1),
        (F(2, 27), 5, 0),
        (F(2, 81), 7, 2),
    ]


def test_linear_normalizes_to_geometric_series():
    # c_m = (1 - 1/5) 5^-m sums to 4/(5 - t)
    ctx = PAdicContext(5)
    z = compute_zeta(parse_poly("x"), ctx)
    assert normalize(z) == RationalFunctionT((4,), (5, -1))


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("e", [1, 2, 3, 4, 5])
def test_pure_power_normal_form(p, e):
    ctx = PAdicContext(p)
    z = compute_zeta(FactoredPoly(F(1), ((F(0), e),)), ctx)
    expected = make_ratfunc([p - 1], [p] + [0] * (e - 1) + [-1])
    assert normalize(z) == expected


# ---------------------------------------------------------------------------
# residue-class recursion
# ---------------------------------------------------------------------------


def test_classification_of_paired_digit_roots():
    # five integer roots at p = 11 built from digits 1..10,0: the reduction
    # has residues 1 (mult 4), 2 (simple) and 3 (mult 3)
    p = 11
    a, b, c, d, g, h, k, l, m, n, r = 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0
    roots = (
        (F(a + d * p + k * p**2), 1),
        (F(a + d * p + l * p**2), 3),
        (F(b + g * p + m * p**2), 1),
        (F(c + h * p + n * p**2), 2),
        (F(c + h * p + r * p**2), 1),
    )
    cls = classify_residues(roots, PAdicContext(p))
    assert cls.nu == p - 3
    assert cls.delta == 1
    assert [(xi, e) for xi, e, _ in cls.groups] == [(1, 4), (3, 3)]


def test_single_root_closed_form():
    ctx = PAdicContext(7)
    z = spf_eval(((F(13), 4),), ctx)
    assert term_set(z) == [(F(6, 7), 0, 4)]


def test_methods_agree_on_worked_example():
    ctx, f, _, tree = worked_setup()
    assert rf_equal(
        normalize(generating_function(tree)), normalize(spf_eval(f.roots, ctx))
    )


def test_methods_agree_on_deep_towers():
    # roots 0 and 3^10 only separate at level 11; recursion runs that deep
    ctx = PAdicContext(3)
    f = FactoredPoly(F(1), ((F(0), 2), (F(3**10), 1)))
    z_tree = compute_zeta(f, ctx, method="tree")
    z_spf = compute_zeta(f, ctx, method="spf")
    assert rf_equal(normalize(z_tree), normalize(z_spf))
    assert rf_eval(normalize(z_tree), 1) == 1


def test_methods_agree_at_larger_prime():
    ctx = PAdicContext(1009)
    f = FactoredPoly(F(1), ((F(1), 1), (F(1010), 2)))
    assert rf_equal(
        normalize(compute_zeta(f, ctx, method="tree")),
        normalize(compute_zeta(f, ctx, method="spf")),
    )


@pytest.mark.parametrize("call, error, message", [
    (lambda: FactoredPoly(0, ((1, 1),)), ValueError, "unit must be nonzero"),
    (lambda: FactoredPoly(1, ((1, 0),)), ValueError, "multiplicities must be >= 1"),
    (lambda: build_tree(FactoredPoly(1, ((1, 1),)), PAdicContext(3), 0),
     ValueError, "separation depth must be >= 1"),
    (lambda: compute_zeta(parse_poly("x"), PAdicContext(3), method="brute"),
     ValueError, "unknown method 'brute'"),
    (lambda: solution_counts(parse_poly("x"), PAdicContext(3), 2, method="all"),
     ValueError, "unknown method 'all'"),
    (lambda: make_ratfunc([1], [0, 0]), ZeroDivisionError, "zero denominator"),
    (lambda: rf_series(RationalFunctionT((1,), (0, 1)), 3),
     PoleAtPoint, "nonzero constant denominator term"),
], ids=["zero-unit", "multiplicity-0", "l_f-0", "zeta-method", "count-method",
        "zero-denominator", "series-at-a-pole"])
def test_library_calls_refuse_invalid_arguments(call, error, message):
    with pytest.raises(error, match=message):
        call()


BOUND = localzeta.zeta._MAX_DENSE_DEGREE


@pytest.mark.parametrize("shift, t_pow, den_pow", [
    (BOUND, 0, 0), (-BOUND, 0, 0), (0, BOUND, 0), (0, 0, BOUND), (-3, BOUND - 7, 4),
])
def test_normal_form_reaches_its_dense_degree_bound_and_no_further(shift, t_pow, den_pow):
    # the dense degree is max(t_pow) + sum(den_pows) + |shift|: the bound
    # itself is normalized, and one more anywhere is refused before a list
    # is built, by the Poincare series too
    ctx = PAdicContext(3)
    z = ZetaFunction(ctx, shift, (ZetaTerm(2, 1, t_pow, den_pow), ZetaTerm(1, 1, 0, 0)))
    assert rf_eval(normalize(z), 1) == F(2, 3) / (F(2, 3) if den_pow else 1) + F(1, 3)
    message = f"dense degree {BOUND + 1}, past the bound {BOUND}"
    for past in (replace(z, shift=shift + (1 if shift >= 0 else -1)),
                 replace(z, terms=(ZetaTerm(2, 1, t_pow + 1, den_pow), z.terms[1]))):
        for form in (normalize, poincare):
            with pytest.raises(CapExceeded, match=message):
                form(past)


@pytest.mark.parametrize("terms, shift", [
    ([{"coeff": "1", "t_pow": 0, "den_pow": 0}], 10**30),
    ([], 10**30),
    ([], BOUND + 1),
])
def test_normal_form_of_a_document_with_a_huge_shift_is_refused_at_once(terms, shift):
    # [0] * 10**30 raised OverflowError: cannot fit 'int' into an index-sized
    # integer; with no terms, the shift alone is the dense degree
    doc = {"p": "3", "shift": shift, "terms": terms}
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match=f"dense degree {shift}, past the bound {BOUND}"):
        normalize(zeta_from_json(doc))
    assert time.perf_counter() - start < 1


def test_unit_with_p_content_shifts_the_counts():
    # f = 3 x^2 at p = 3: Z = t (1 - 1/3)/(1 - t^2/3), N_1 = 3
    from localzeta import brute_counts_upto, coeff_stream, counts_from_coeffs

    ctx = PAdicContext(3)
    z = compute_zeta(parse_poly("3*x^2"), ctx)
    assert z.shift == 1
    counts = counts_from_coeffs(coeff_stream(z, 6), ctx, 6)
    assert counts == brute_counts_upto(parse_poly("3*x^2"), ctx, 6)
    assert counts[:3] == [1, 3, 3]


@pytest.mark.parametrize("a, b", [(1, F(2, 2)), (F(1, 2), "2/4")])
def test_spf_eval_rejects_equal_roots_written_differently(a, b):
    with pytest.raises(ValueError, match="roots must be pairwise distinct"):
        spf_eval(((a, 1), (F(4), 1), (b, 2)), PAdicContext(3))


def test_spf_eval_reads_integer_and_text_roots():
    ctx = PAdicContext(3)
    assert spf_eval(((1, 2), ("4", 1)), ctx) == spf_eval(((F(1), 2), (F(4), 1)), ctx)


def test_recursion_depth_guard():
    # past the bound the level raises before it appends a term to the list
    out = []
    with pytest.raises(RecursionDepthExceeded):
        _spf_terms(((0, 2), (9, 1)), 3, depth=5, limit=4, t_pow=0, out=out)
    assert out == []


def test_spf_eval_checks_its_depth_bound(monkeypatch):
    # x^2 (x - 9) at p = 3: with a bound of 1 both roots reduce to 0 mod 3,
    # share every residue from then on, and only the guard ends the recursion
    monkeypatch.setattr(localzeta.zeta, "_separation_depth", lambda roots, ctx: 1)
    with pytest.raises(RecursionDepthExceeded):
        spf_eval(((F(0), 2), (F(9), 1)), PAdicContext(3))


def _pairwise_lf(roots, ctx):
    """The definition l_f = 1 + max v_p(a - b) over all root pairs, or 1 if r < 2."""
    rs = [r for r, _ in roots]
    if len(rs) < 2:
        return 1
    return 1 + max(vp(a - b, ctx) for a, b in itertools.combinations(rs, 2))


@st.composite
def separation_cases(draw):
    """A prime and distinct roots with v_p >= 0: integers, rationals with
    denominators prime to p, and towers a + p**k over an earlier root."""
    p = draw(st.sampled_from([2, 3, 5, 101, 10**12 + 39]))
    roots = {}
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["integer", "rational", "tower"]))
        a = F(draw(st.integers(-10**6, 10**6)))
        if kind == "rational":
            a /= draw(st.integers(1, 10**4).filter(lambda d: d % p))
        elif kind == "tower" and roots:
            a = draw(st.sampled_from(sorted(roots))) + p ** draw(st.integers(1, 60))
        roots[a] = draw(st.integers(1, 4))
    return PAdicContext(p), tuple(roots.items())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(separation_cases())
def test_depth_bound_covers_the_separation_depth(case):
    ctx, roots = case
    assert _separation_depth(roots, ctx) >= _pairwise_lf(roots, ctx)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(separation_cases())
def test_compute_lf_matches_the_pairwise_definition(case):
    ctx, roots = case
    assert compute_lf(FactoredPoly(F(1), roots), ctx) == _pairwise_lf(roots, ctx)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(separation_cases())
def test_spf_eval_matches_the_fraction_recursion(case):
    ctx, roots = case
    assert list(spf_eval(roots, ctx).terms) == reference_spf_terms(roots, ctx)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(separation_cases())
def test_generating_function_matches_the_search_from_the_root(case):
    ctx, roots = case
    f = FactoredPoly(F(1), roots)
    tree = build_tree(f, ctx, compute_lf(f, ctx))
    assert list(generating_function(tree).terms) == tree_terms(tree)


@pytest.mark.parametrize("poly, tree_expected, spf_expected", [
    # the root has v_p < 0, so the tree has no roots: its root term p/p is 1
    ("(x - 1/3)", [ZetaTerm(1, 0, 0, 0)], [ZetaTerm(1, 0, 0, 0)]),
    # every residue mod 3 holds one simple root: spf's p(p - 1)/p**2 is 2/3
    ("(x - 0)*(x - 1)*(x - 2)", [ZetaTerm(2, 2, 1, 1)] * 3, [ZetaTerm(2, 1, 1, 1)]),
])
def test_evaluators_emit_lowest_terms(poly, tree_expected, spf_expected):
    ctx = PAdicContext(3)
    fplus = reduce_to_integral_roots(parse_poly(poly), ctx).fplus
    tree = build_tree(fplus, ctx, compute_lf(fplus, ctx))
    assert list(generating_function(tree).terms) == tree_terms(tree) == tree_expected
    spf = list(spf_eval(fplus.roots, ctx).terms)
    assert spf == reference_spf_terms(fplus.roots, ctx) == spf_expected


def test_compute_lf_checks_its_depth_bound(monkeypatch):
    # (x - 1)(x - 10) at p = 3 has l_f = 3; a bound of 1 must not go unnoticed
    monkeypatch.setattr(localzeta.polynomials, "_separation_depth", lambda roots, ctx: 1)
    with pytest.raises(InvariantViolation, match="compute_lf"):
        compute_lf(FactoredPoly(F(1), ((F(1), 1), (F(10), 1))), PAdicContext(3))


def test_spf_agrees_with_the_tree_on_a_deep_tower():
    # (x - 1)^3 (x - 1 - 3^40)^2: the two roots separate only at level 41
    ctx = PAdicContext(3)
    f = FactoredPoly(F(1), ((F(1), 3), (F(1 + 3**40), 2)))
    assert compute_lf(f, ctx) == 41
    assert rf_equal(
        normalize(compute_zeta(f, ctx, method="tree")),
        normalize(compute_zeta(f, ctx, method="spf")),
    )


def _tower_lines(capsys, argv, prefix):
    """The lines that start with prefix in the output of a successful CLI call."""
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = [line for line in captured.out.splitlines() if line.startswith(prefix)]
    assert lines
    return lines


@pytest.mark.parametrize("L", [1000, 3000])
def test_routes_agree_on_towers_past_the_recursion_limit(capsys, L):
    # A = 1 + 3^L separates from 1 only at level L + 1, deeper than Python's
    # default recursion limit of 1000; the spf walk keeps its levels on a stack
    argv = ["--prime", "3", "--poly", f"(x-1)^2*(x-{1 + 3**L})^3"]
    for command, prefix in [("zeta", "Z = "), ("poincare", "H = ")]:
        tree = _tower_lines(capsys, [command, *argv], prefix)
        assert _tower_lines(capsys, [command, "--method", "spf", *argv], prefix) == tree
    counts = _tower_lines(capsys, ["count", "--max-m", "50", *argv], "N_")
    assert len(counts) == 51
    assert _tower_lines(capsys, ["count", "--max-m", "50", "--method", "spf", *argv], "N_") == counts


def test_verify_passes_on_a_tower_past_the_recursion_limit(capsys):
    argv = ["verify", "--max-m", "5", "--prime", "3", "--poly", f"(x-1)^2*(x-{1 + 3**1000})^3"]
    assert _tower_lines(capsys, argv, "all ") == ["all 6 checks passed"]


def test_count_routes_agree_on_a_tower_past_the_digit_limit():
    # 3^10000 has 4772 digits, past the CLI's 4300-digit limit, so only in process
    ctx = PAdicContext(3)
    f = FactoredPoly(F(1), ((F(1), 2), (F(1 + 3**10_000), 3)))
    spf = solution_counts(f, ctx, 50, "spf")
    assert spf == solution_counts(f, ctx, 50, "tree")
    # below level L the two roots act as one of multiplicity 5: x = 1 mod 3^ceil(m/5)
    assert spf == [3 ** (m - (m + 4) // 5) for m in range(51)]


def test_spf_eval_needs_no_call_stack_for_its_levels():
    # 3001 levels under a recursion limit 50 frames above the caller's depth:
    # levels 0..L-1 hold both roots in one class of multiplicity 5, and level
    # L splits them into the classes of 1 (xi = 0) and A (xi = 1)
    L = 3000
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        terms = spf_eval(((F(1), 2), (F(1 + 3**L), 3)), PAdicContext(3)).terms
    finally:
        sys.setrecursionlimit(limit)
    assert list(terms) == [
        *(ZetaTerm(2, d + 1, 5 * d, 0) for d in range(L)),
        ZetaTerm(1, L + 1, 5 * L, 0),
        *(ZetaTerm(2, L + 2, 5 * L + e, e) for e in (2, 3)),
    ]


def _callee(call):
    """The name a call goes by: f for f(...), self.f(...) and cls.f(...), else None."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr if getattr(func.value, "id", None) in ("self", "cls") else None
    return getattr(func, "id", None)


def test_no_function_in_the_library_calls_itself():
    calls = []
    for path in sorted(Path(localzeta.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls += [
                    f"{path.name}:{call.lineno} {node.name}"
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call) and _callee(call) == node.name
                ]
    assert calls == []


def test_spf_does_not_compute_the_separation_depth(monkeypatch):
    def forbidden(*args):
        raise AssertionError("spf called compute_lf")

    monkeypatch.setattr(localzeta.zeta, "compute_lf", forbidden)
    z = compute_zeta(parse_poly("(x-1)^2*(x-4)*(x-10)^3"), PAdicContext(3), method="spf")
    assert rf_eval(normalize(z), 1) == 1


def test_recursion_identity_direct():
    # the tree generating function satisfies the residue-class recursion:
    # G(f) = nu/p + delta (1-1/p)(t/p)/(1-t/p) + sum_xi t^e_xi / p * G(f_xi)
    rng = random.Random(41)
    for _ in range(25):
        p = rng.choice([2, 3, 5])
        ctx = PAdicContext(p)
        roots = {}
        while len(roots) < rng.randint(2, 4):
            roots[F(rng.randint(-25, 25))] = rng.randint(1, 3)
        f = FactoredPoly(F(1), tuple(roots.items()))
        lhs = normalize(generating_function(build_tree(f, ctx, compute_lf(f, ctx))))

        cls = classify_residues(f.roots, ctx)
        terms = []
        if cls.nu:
            terms.append(fraction_term(F(cls.nu, p), 0, 0, p))
        if cls.delta:
            terms.append(fraction_term(F(cls.delta * (p - 1), p * p), 1, 1, p))
        for xi, e_xi, members in cls.groups:
            sub_roots = dilate(members, xi, ctx)
            sub = FactoredPoly(F(1), sub_roots)
            sub_tree = build_tree(sub, ctx, compute_lf(sub, ctx))
            for t in generating_function(sub_tree).terms:
                terms.append(fraction_term(term_coeff(t, p) / p, t.t_pow + e_xi, t.den_pow, p))
        rhs = normalize(ZetaFunction(ctx, 0, tuple(terms)))
        assert rf_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# normalization and the Poincare series
# ---------------------------------------------------------------------------


def test_normalize_constant_only():
    ctx = PAdicContext(3)
    z = ZetaFunction(ctx, 0, (ZetaTerm(2, 1, 0, 0),))
    assert normalize(z) == RationalFunctionT((2,), (3,))


def test_normalize_worked_example_cross_multiplied():
    ctx, _, _, tree = worked_setup()
    z = generating_function(tree)
    rf = normalize(z)
    assert rf.denominator == (27, -9, -9, 3)
    # cross-multiplied equality against the sum of the individual terms
    total = make_ratfunc([0], [1])
    for t in z.terms:
        den = [F(1)] + [F(0)] * (t.den_pow - 1) + [F(-1, 3)] if t.den_pow else [F(1)]
        num = [F(0)] * t.t_pow + [term_coeff(t, 3)]
        total = rf_add(total, make_ratfunc(num, den))
    assert rf_equal(rf, total)


def test_normalize_negative_shift_moves_into_denominator():
    ctx = PAdicContext(5)
    z = compute_zeta(parse_poly("3*(x - 1/5)*(x - 2)"), ctx)
    assert z.shift == -1
    rf = normalize(z)
    assert rf.denominator[0] == 0  # one factor of t
    assert rf_eval(rf, 1) == 1
    # Z = 4/(5t - t^2), and the formal Poincare identity still holds
    assert rf_equal(rf, RationalFunctionT((4,), (0, 5, -1)))
    h = poincare(z)
    identity = rf_add(
        rf_mul(rf_from_poly([1, -1]), h), rf_mul(rf_from_poly([0, 1]), rf)
    )
    assert rf_equal(identity, RF_ONE)


def test_denominator_factors_come_from_top_weights():
    rng = random.Random(59)
    for _ in range(30):
        p = rng.choice([2, 3, 5])
        ctx = PAdicContext(p)
        roots = {}
        while len(roots) < rng.randint(1, 3):
            roots[F(rng.randint(-20, 20))] = rng.randint(1, 4)
        f = FactoredPoly(F(1), tuple(roots.items()))
        l_f = compute_lf(f, ctx)
        tree = build_tree(f, ctx, l_f)
        rf = normalize(generating_function(tree))
        candidate = [1]
        top_weights = {
            tree.vertices[i].weight
            for i in [v.id for v in tree.vertices if v.level == l_f + 1]
            if tree.vertices[i].weight >= 2
        }
        for b in {1} | top_weights:
            candidate = poly_mul(candidate, [p] + [0] * (b - 1) + [-1])
        _, rem = poly_divmod(candidate, rf.denominator)
        assert poly_is_zero(rem)


def test_unit_on_the_integers_gives_one():
    # 5x - 1 at p = 5: the only root has negative valuation, so |f| = 1
    # on the integers and Z is the constant 1 (empty integral-root set)
    ctx = PAdicContext(5)
    for method in ("tree", "spf"):
        z = compute_zeta(parse_poly("5*x - 1"), ctx, method=method)
        assert z.shift == 0
        assert normalize(z) == RationalFunctionT((1,), (1,))
    from localzeta import counts_from_coeffs, coeff_stream, brute_counts_upto

    z = compute_zeta(parse_poly("5*x - 1"), ctx)
    counts = counts_from_coeffs(coeff_stream(z, 3), ctx, 3)
    assert counts == [1, 0, 0, 0]
    assert brute_counts_upto(parse_poly("5*x - 1"), ctx, 3) == counts


def test_poincare_examples():
    ctx = PAdicContext(5)
    z = compute_zeta(parse_poly("x"), ctx)
    assert poincare(z) == RationalFunctionT((5,), (5, -1))


def test_poincare_identity():
    rng = random.Random(61)
    for _ in range(25):
        p = rng.choice([2, 3, 5, 7])
        ctx = PAdicContext(p)
        roots = {}
        while len(roots) < rng.randint(1, 3):
            roots[F(rng.randint(-20, 20), rng.choice([1, 1, 2, 3]))] = rng.randint(1, 3)
        f = FactoredPoly(F(1), tuple(roots.items()))
        if any(r.denominator % p == 0 for r, _ in f.roots):
            continue
        z = compute_zeta(f, ctx)
        h = poincare(z)
        identity = rf_add(
            rf_mul(rf_from_poly([1, -1]), h),
            rf_mul(rf_from_poly([0, 1]), normalize(z)),
        )
        assert rf_equal(identity, RF_ONE)


def test_poincare_square_series_matches_counts():
    # f = x^2 at p = 3: H = (3 + t)/(3 - t^2); series terms are N_m / 3^m
    ctx = PAdicContext(3)
    z = compute_zeta(parse_poly("x^2"), ctx)
    h = poincare(z)
    assert rf_equal(h, RationalFunctionT((3, 1), (3, 0, -1)))
    series = rf_series(h, 6)
    counts = [1, 1, 3, 3, 9, 9]
    assert series == [F(n, 3**m) for m, n in enumerate(counts)]


@st.composite
def zeta_cases(draw):
    """Z of a random root multiset: towers a, a + p**k, roots with p in the
    denominator (a negative shift), a unit with p-content, either method.

    Every term of a computed Z has a positive coefficient, so no factor
    p - t**b of its denominator ever cancels.  To reach that branch, some
    cases get three extra terms that sum to zero:
    c t**a / (1 - t**b/p) - (c/p) t**(a+b) / (1 - t**b/p) - c t**a.
    """
    p = draw(st.sampled_from([2, 3, 5, 101]))
    roots = {}
    for _ in range(draw(st.integers(1, 4))):
        a = F(draw(st.integers(-30, 30)))
        kind = draw(st.sampled_from(["integer", "tower", "p-denominator"]))
        if kind == "tower" and roots:
            a = draw(st.sampled_from(sorted(roots))) + p ** draw(st.integers(1, 5))
        elif kind == "p-denominator":
            a = a / p ** draw(st.integers(1, 2))
        roots[a] = draw(st.integers(1, 4))
    unit = draw(st.sampled_from([F(1), F(p), F(1, p)]))
    method = draw(st.sampled_from(["tree", "spf"]))
    z = compute_zeta(FactoredPoly(unit, tuple(roots.items())), PAdicContext(p), method)
    if draw(st.booleans()):
        c = F(draw(st.integers(-50, 50).filter(bool)), p ** draw(st.integers(0, 3)))
        a, b = draw(st.integers(0, 6)), draw(st.integers(1, 7))
        zero = tuple(
            fraction_term(coeff, t_pow, den_pow, p)
            for coeff, t_pow, den_pow in ((c, a, b), (-c / p, a + b, b), (-c, a, 0))
        )
        z = replace(z, terms=z.terms + zero)
    return z


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(zeta_cases())
def test_sorted_terms_matches_the_fraction_keyed_sort(z):
    p = z.ctx.p
    by_fraction = sorted(z.terms, key=lambda t: (t.t_pow, t.den_pow, term_coeff(t, p)))
    assert z.sorted_terms() == tuple(by_fraction)


def folded_normal_form(z):
    """Each term as its own rational function, summed with rf_add."""
    p = z.ctx.p
    total = make_ratfunc([0], [1])
    for t in z.terms:
        den = [F(1)] + [F(0)] * (t.den_pow - 1) + [F(-1, p)] if t.den_pow else [F(1)]
        total = rf_add(total, make_ratfunc([F(0)] * t.t_pow + [term_coeff(t, p)], den))
    if z.shift >= 0:
        return rf_mul(total, rf_from_poly([0] * z.shift + [1]))
    return rf_mul(total, make_ratfunc([1], [0] * -z.shift + [1]))


def divided_poincare(rf):
    """(1 - t*Z)/(1 - t) by polynomial division over Q, then make_ratfunc."""
    quot, rem = poly_divmod(poly_sub(rf.denominator, poly_shift(rf.numerator, 1)), [1, -1])
    assert poly_is_zero(rem)
    return make_ratfunc(quot, rf.denominator)


def cancelled_factors(z, rf):
    """Which known denominator factors, t or some p - t**b, rf has lost."""
    p = z.ctx.p
    lost = set()
    if z.shift < 0 and next(i for i, c in enumerate(rf.denominator) if c) < -z.shift:
        lost.add("t")
    for b in {t.den_pow for t in z.terms if t.den_pow}:
        _, rem = poly_divmod(rf.denominator, [p] + [0] * (b - 1) + [-1])
        if not poly_is_zero(rem):
            lost.add("p - t^b")
    return lost


# den_pows {1, 2, 3, 5, 6}, past the four of the benchmark corpus
WIDE_DEN_POWS = parse_poly("(x-1)^5*(x-4)^6*(x-7)^3*(x-2)^2*(x-5)"), PAdicContext(3)
# den_pow 1 alone: the den_pow-0 bucket that _combined starts from is empty
NO_DEN_POW_ZERO = parse_poly("x^2 - x"), PAdicContext(2)
# den_pow 4 is new to WIDE_DEN_POWS' Z, so only the added terms fill its bucket:
# zero coefficients, or c t/(1 - t^4/3) - (c/3) t^5/(1 - t^4/3) - c t with
# c = 2, whose bucket 2t (3 - t^4) has a negative coefficient; p - t^4
# cancels from Z and H in both, and only a trial division finds it
ZERO_BUCKET = (ZetaTerm(0, 0, 1, 4), ZetaTerm(0, 0, 3, 4))
NEGATIVE_BUCKET = (ZetaTerm(2, 0, 1, 4), ZetaTerm(-2, 1, 5, 4), ZetaTerm(-2, 0, 1, 0))


def with_terms(z, extra):
    return replace(z, terms=z.terms + extra)


def test_normal_form_matches_generic_fold():
    reached = dict.fromkeys(["Z t", "Z p - t^b", "H t", "H p - t^b"], 0)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(zeta_cases())
    @example(compute_zeta(*WIDE_DEN_POWS, "tree"))
    @example(compute_zeta(*WIDE_DEN_POWS, "spf"))
    @example(compute_zeta(*NO_DEN_POW_ZERO, "tree"))
    @example(compute_zeta(*NO_DEN_POW_ZERO, "spf"))
    @example(with_terms(compute_zeta(*WIDE_DEN_POWS, "spf"), ZERO_BUCKET))
    @example(with_terms(compute_zeta(*WIDE_DEN_POWS, "tree"), NEGATIVE_BUCKET))
    def check(z):
        rf = folded_normal_form(z)
        h = poincare(z)
        assert normalize(z) == rf
        assert h == divided_poincare(rf)
        for name, value in (("Z", rf), ("H", h)):
            for factor in cancelled_factors(z, value):
                reached[f"{name} {factor}"] += 1

    check()
    assert all(reached.values()), reached


def test_poincare_measure_check_survives_optimize():
    # Z = 1/3 has total measure 1/3; the check must not be a bare assert
    code = (
        "from localzeta import InvariantViolation, PAdicContext, ZetaFunction, ZetaTerm, poincare\n"
        "z = ZetaFunction(PAdicContext(3), 0, (ZetaTerm(1, 1, 0, 0),))\n"
        "try:\n"
        "    poincare(z)\n"
        "except InvariantViolation as exc:\n"
        "    print('raised:', exc)\n"
    )
    src = str(Path(localzeta.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.startswith("raised: poincare: total measure is not 1")


def test_make_ratfunc_checks_the_gcd_division(monkeypatch):
    # a wrong G with the quotients of a G that divides: make_ratfunc divides by G itself
    monkeypatch.setattr(localzeta.ratfunc, "poly_gcd", lambda a, b: ([1, 1], [1], [2, 1]))
    with pytest.raises(InvariantViolation, match="make_ratfunc"):
        make_ratfunc([1], [2, 1])


def test_tree_evaluation_proves_the_prime_once(monkeypatch, capsys):
    p = 1000000000039
    calls = []
    is_prime = localzeta.padic.is_prime
    monkeypatch.setattr(localzeta.padic, "is_prime", lambda n: calls.append(n) or is_prime(n))
    argv = ["zeta", "--poly", "(x-1)^2*(x-4)", "--prime", str(p), "--brute-cap", str(p)]
    assert main(argv) == 0
    assert calls == [p]
    assert "Z = " in capsys.readouterr().out


def test_rf_eval_examples():
    ctx, _, _, tree = worked_setup()
    rf = normalize(generating_function(tree))
    assert rf_eval(rf, 1) == 1
    assert rf_eval(rf, 0) == F(2, 3)
    assert F(2, 3) + F(1, 9) + F(1, 9) + F(2, 27) + F(1, 27) == 1
    with pytest.raises(PoleAtPoint):
        rf_eval(RationalFunctionT((1,), (5, -1)), 5)


def test_rf_equal_examples():
    a = RationalFunctionT((4,), (5, -1))
    b = RationalFunctionT((8,), (10, -2))
    c = RationalFunctionT((4,), (5, 1))
    assert rf_equal(a, b)
    assert not rf_equal(a, c)


# ---------------------------------------------------------------------------
# rendering and JSON
# ---------------------------------------------------------------------------


def test_rf_format_of_zero():
    # no Z or H is zero, so no command prints it
    assert rf_format(RationalFunctionT((0,), (1,))) == "0"


def test_zeta_text_contains_normal_form():
    ctx = PAdicContext(5)
    z = compute_zeta(parse_poly("x"), ctx)
    text = zeta_text(z)
    assert text.splitlines()[-1] == "Z = 4/(5 - t), t = 5^(-s)"
    assert "(4/25)*t / (1 - t/5)" in text
    # a document may hold any coefficients: a negative or fractional one is
    # parenthesised before a power of t, an integer one is not
    z = ZetaFunction(ctx, 0, (ZetaTerm(-2, 0, 2, 1), ZetaTerm(3, 0, 1, 0), ZetaTerm(-1, 1, 0, 0)))
    assert zeta_text(z).splitlines()[2:5] == ["  -1/5", "  3*t", "  (-2)*t^2 / (1 - t/5)"]


def test_zeta_json_round_trip():
    ctx, f, _, tree = worked_setup()
    z = generating_function(tree)
    doc = zeta_to_json(z)
    assert doc["p"] == "3"
    assert doc["normalized"]["den"] == ["27", "-9", "-9", "3"]
    assert zeta_from_json(json.dumps(doc)) == z


def test_zeta_from_json_rejects_negative_exponents():
    doc = {"p": "3", "shift": 0, "terms": [{"coeff": "1", "t_pow": -2, "den_pow": 0}]}
    with pytest.raises(MalformedDocument, match="zeta_from_json"):
        zeta_from_json(doc)
    doc["terms"] = [{"coeff": "1", "t_pow": 0, "den_pow": -1}]
    with pytest.raises(MalformedDocument, match="zeta_from_json"):
        zeta_from_json(doc)


def test_zeta_from_json_rejects_missing_fields():
    with pytest.raises(MalformedDocument, match="zeta_from_json"):
        zeta_from_json('{"p": "3"}')


@pytest.mark.parametrize("terms", [{}, "", None, 0, {"coeff": "1", "t_pow": 0, "den_pow": 0}])
def test_zeta_from_json_refuses_terms_that_are_no_list(terms):
    # {} and "" used to read as a Z with no terms
    with pytest.raises(MalformedDocument, match="^zeta_from_json: terms must be a list$"):
        zeta_from_json({"p": "3", "shift": 0, "terms": terms})


def test_zeta_from_json_rejects_a_non_numeric_coefficient():
    doc = {"p": "3", "shift": 0, "terms": [{"coeff": "x", "t_pow": 0, "den_pow": 0}]}
    with pytest.raises(MalformedDocument, match="zeta_from_json"):
        zeta_from_json(doc)


def worked_zeta_doc(edit):
    """{"p": "3", "shift": 1, "terms": [(2/3) t / (1 - t/3)]} after edit(doc, term)."""
    doc = {"p": "3", "shift": 1, "terms": [{"coeff": "2/3", "t_pow": 1, "den_pow": 1}]}
    edit(doc, doc["terms"][0])
    return doc


@pytest.mark.parametrize("field", ["p", "shift", "t_pow", "den_pow"])
@pytest.mark.parametrize("value", [0.5, 1.7, 1.0, True, False, None, "1.5", " 1", "+1", "0x1", [1]])
def test_zeta_from_json_refuses_a_number_it_would_truncate(field, value):
    def edit(doc, term):
        (doc if field in doc else term)[field] = value

    name = field if field in ("p", "shift") else f"term 0 {field}"
    with pytest.raises(MalformedDocument, match=f"zeta_from_json: {name} must be an integer"):
        zeta_from_json(worked_zeta_doc(edit))


@pytest.mark.parametrize("value", [0.5, 1.0, True, None, [1]])
def test_zeta_from_json_refuses_a_coefficient_that_is_no_string(value):
    doc = worked_zeta_doc(lambda doc, term: term.update(coeff=value))
    with pytest.raises(MalformedDocument, match="zeta_from_json: term 0 coeff must be"):
        zeta_from_json(doc)


def test_zeta_from_json_reads_integers_and_decimal_strings_alike():
    z = zeta_from_json(worked_zeta_doc(lambda doc, term: None))
    assert (z.ctx.p, z.shift, z.terms) == (3, 1, (ZetaTerm(2, 1, 1, 1),))
    as_strings = worked_zeta_doc(
        lambda doc, term: (doc.update(p=3, shift="1"), term.update(t_pow="1", den_pow="1"))
    )
    assert zeta_from_json(as_strings) == z
    integral = worked_zeta_doc(lambda doc, term: term.update(coeff=2))
    assert zeta_from_json(integral).terms == (ZetaTerm(2, 0, 1, 1),)
    negative = worked_zeta_doc(lambda doc, term: doc.update(shift="-2"))
    assert zeta_from_json(negative).shift == -2
