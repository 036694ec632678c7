import copy
import itertools
import json
import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localzeta import (
    CapExceeded,
    DensePoly,
    FactoredPoly,
    IntegralityError,
    InvariantViolation,
    LocalZetaError,
    MalformedDocument,
    NegativeShift,
    NonIntegralCount,
    PAdicContext,
    RationalFunctionT,
    ZetaFunction,
    ZetaTerm,
    as_integer_poly,
    brute_counts_upto,
    coeff_stream,
    compute_zeta,
    counts_from_coeffs,
    normalize,
    parse_poly,
    poincare,
    reduce_to_integral_roots,
    rf_eval,
    rf_series,
    solution_counts,
    spf_eval,
    vp,
    zeta_from_json,
    zeta_to_json,
)
from localzeta.counting import check_counts, poincare_counts, tree_counts
from localzeta.polynomials import roots_mod
from localzeta.zeta import _div_binomial
from poincare_reference import dense_poincare_counts
from spf_reference import spf_terms as reference_spf_terms

F = Fraction


def test_coeff_stream_worked_example():
    ctx = PAdicContext(3)
    z = compute_zeta(parse_poly("(x-1)^2*(x-4)"), ctx)
    assert coeff_stream(z, 5) == [F(2, 3), 0, 0, F(1, 9), F(2, 27), F(8, 81)]


def test_coeff_stream_linear_is_geometric():
    for p in (2, 5, 13):
        ctx = PAdicContext(p)
        z = compute_zeta(parse_poly("x"), ctx)
        assert coeff_stream(z, 6) == [F(p - 1, p) * F(1, p**m) for m in range(7)]


def test_constant_coefficient_is_value_at_zero():
    rng = random.Random(101)
    for _ in range(20):
        p = rng.choice([2, 3, 5])
        ctx = PAdicContext(p)
        roots = {}
        while len(roots) < rng.randint(1, 3):
            roots[F(rng.randint(-15, 15))] = rng.randint(1, 3)
        z = compute_zeta(FactoredPoly(F(1), tuple(roots.items())), ctx)
        assert coeff_stream(z, 0)[0] == rf_eval(normalize(z), 0)


def test_coeff_stream_rejects_negative_shift():
    ctx = PAdicContext(5)
    z = compute_zeta(parse_poly("3*(x - 1/5)*(x - 2)"), ctx)
    with pytest.raises(NegativeShift):
        coeff_stream(z, 4)


def test_counts_from_coeffs_examples():
    ctx = PAdicContext(3)
    z = compute_zeta(parse_poly("(x-1)^2*(x-4)"), ctx)
    assert counts_from_coeffs(coeff_stream(z, 5), ctx, 5) == [1, 1, 3, 9, 18, 36]

    ctx5 = PAdicContext(5)
    z5 = compute_zeta(parse_poly("x"), ctx5)
    assert counts_from_coeffs(coeff_stream(z5, 8), ctx5, 8) == [1] * 9

    ctx2 = PAdicContext(2)
    z2 = compute_zeta(parse_poly("x^2 - 1"), ctx2)
    assert counts_from_coeffs(coeff_stream(z2, 3), ctx2, 3) == [1, 1, 2, 4]


def test_counts_from_coeffs_rejects_bad_streams():
    ctx = PAdicContext(3)
    with pytest.raises(NonIntegralCount):
        counts_from_coeffs([F(1, 2)], ctx, 1)  # denominator not a power of 3
    with pytest.raises(NonIntegralCount):
        counts_from_coeffs([F(-1, 3)], ctx, 1)
    with pytest.raises(NonIntegralCount, match=r"^N_2 = -3 is not a nonnegative integer$"):
        counts_from_coeffs([F(2, 3), F(2, 3)], ctx, 2)  # the measures add up past 1
    with pytest.raises(ValueError):
        counts_from_coeffs([F(1, 3)], ctx, 2)


def test_brute_count_examples():
    ctx = PAdicContext(2)
    assert brute_counts_upto(parse_poly("x^2 - 1"), ctx, 3)[-1] == 4
    assert {x for x in range(8) if (x * x - 1) % 8 == 0} == {1, 3, 5, 7}
    for p in (3, 7):
        assert brute_counts_upto(parse_poly("x"), PAdicContext(p), 4)[-1] == 1
    ctx3 = PAdicContext(3)
    f = parse_poly("(x-1)^2*(x-4)")
    assert brute_counts_upto(f, ctx3, 4)[-1] == 18
    # p above the block size: the p lifts of the one class mod p**0 are
    # formed in several blocks
    assert brute_counts_upto(parse_poly("x^2 - 1"), PAdicContext(1000003), 1) == [1, 2]


def test_brute_count_guards():
    ctx = PAdicContext(2)
    with pytest.raises(CapExceeded):
        brute_counts_upto(parse_poly("x"), ctx, 40)
    with pytest.raises(IntegralityError):
        brute_counts_upto(DensePoly((F(1, 2), F(1))), ctx, 2)


def test_brute_counts_upto_matches_single_counts():
    ctx = PAdicContext(3)
    f = parse_poly("x^3 - x")
    upto = brute_counts_upto(f, ctx, 5)
    assert upto == [brute_counts_upto(f, ctx, n)[-1] for n in range(6)]


def direct_roots(coeffs: list[int], q: int) -> list[int]:
    """The x in range(q) with f(x) = 0 mod q, f evaluated exactly at every x.

    f(0), f(1), ... come from the differences Delta^j f(0), j <= deg f,
    summed up deg f times by itertools.accumulate, so a sweep of 10**6
    residues stays in C.
    """
    d = len(coeffs) - 1
    values = [sum(c * x**i for i, c in enumerate(coeffs)) for x in range(d + 1)]
    diffs = []  # Delta^j f(0)
    for _ in range(d + 1):
        diffs.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    seq = itertools.repeat(diffs[d], q)  # Delta^d f is constant
    for j in range(d - 1, -1, -1):
        seq = itertools.accumulate(seq, initial=diffs[j])
    return [x for x, value in enumerate(itertools.islice(seq, q)) if not value % q]


SWEEP_PRIMES = (2, 7, 47, 53, 101, 1009, 1000003)


def test_brute_python_fallback_agrees(monkeypatch):
    # the walk finds each class polynomial's roots with roots_mod, by the
    # residue scan below polynomials._KERNEL_FROM and by the gcd kernel from
    # there on: force each at every p, against a direct count mod p**j; f has
    # a double root, and a triple one mod 7
    import localzeta.polynomials as polynomials

    coeffs = poly_mul_int(poly_mul_int([-6, 1], [-6, 1]), [1, 1])
    f = DensePoly(tuple(F(c) for c in coeffs))
    for p in SWEEP_PRIMES:
        n = max(n for n in range(1, 9) if p**n <= 10**6 + 3)
        expected = [1] + [len(direct_roots(coeffs, p**j)) for j in range(1, n + 1)]
        for start in (0, 10**13):
            monkeypatch.setattr(polynomials, "_KERNEL_FROM", start)
            assert brute_counts_upto(f, PAdicContext(p), n, cap=p**n) == expected, (p, start)


def test_root_sweeps_agree_on_both_sides_of_the_array_threshold(monkeypatch):
    # roots_mod scans the residues below polynomials._KERNEL_FROM and splits
    # gcd(g, x^p - x) from there on: force each at every p, on random
    # polynomials and on products with repeated roots, against a direct sweep
    import localzeta.polynomials as polynomials

    rng = random.Random(5)
    for p in SWEEP_PRIMES:
        big = p > 10**6
        for i in range(2 if big else 6):
            if i % 2:
                coeffs = [rng.randint(1, 9)]
                for r in [rng.randrange(p) for _ in range(rng.randint(1, 3))] * 2:
                    coeffs = poly_mul_int(coeffs, [-r, 1])
            else:
                coeffs = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(2, 4 if big else 8))]
            coeffs += [p * rng.randint(1, 9)] if i % 3 == 2 else []  # a leading zero mod p
            expected = direct_roots(coeffs, p)
            for start in (0, 10**13):
                monkeypatch.setattr(polynomials, "_KERNEL_FROM", start)
                assert list(roots_mod(coeffs, p)) == expected, (p, coeffs, start)


def test_root_kernel_raises_rather_than_miscount(monkeypatch):
    # the kernel checks its roots by evaluation against deg gcd(g, x^p - x):
    # a gcd with a spurious factor x - 5, or an evaluation that never
    # vanishes, raises InvariantViolation instead of returning roots
    import localzeta.polynomials as polynomials

    coeffs, p = [6, -5, 1], 1000003  # (x - 2)(x - 3)
    assert list(roots_mod(coeffs, p)) == [2, 3]
    gcd = polynomials._gcd_mod
    calls = []

    def spurious(a, b, q):
        h = gcd(a, b, q)
        if calls:
            return h
        calls.append(h)
        return [c % q for c in poly_mul_int(h, [-5, 1])]

    for name, fake in (("_gcd_mod", spurious), ("_value_mod", lambda ints, x, m: 1)):
        with monkeypatch.context() as patch:
            patch.setattr(polynomials, name, fake)
            with pytest.raises(InvariantViolation, match="roots_mod"):
                list(roots_mod(coeffs, p))
    assert calls == [[6, 999998, 1]]


def test_count_sequence_methods_agree():
    ctx = PAdicContext(3)
    f = parse_poly("(x-1)^2*(x-4)")
    results = {
        m: solution_counts(f, ctx, 6, method=m) for m in ("tree", "spf", "brute")
    }
    for counts in results.values():
        assert counts[:6] == [1, 1, 3, 9, 18, 36]
    assert results["tree"] == results["spf"]
    assert results["brute"] == results["tree"]


def test_count_sequence_requires_integer_coefficients():
    ctx = PAdicContext(3)
    with pytest.raises(IntegralityError):
        solution_counts(parse_poly("(x - 1/2)^2"), ctx, 3)


def test_series_and_expansion_agree():
    rng = random.Random(73)
    for _ in range(40):
        p = rng.choice([2, 3, 5, 7])
        ctx = PAdicContext(p)
        roots = {}
        while len(roots) < rng.randint(1, 4):
            den = rng.choice([1, 1, 1, 2, 3])
            if den % p == 0:
                den = 1
            roots[F(rng.randint(-25, 25), den)] = rng.randint(1, 3)
        f = FactoredPoly(F(1), tuple(roots.items()))
        z = compute_zeta(f, ctx)
        assert coeff_stream(z, 25) == rf_series(normalize(z), 26)


def test_partial_sums_and_lifting_bounds():
    rng = random.Random(79)
    for _ in range(30):
        p = rng.choice([2, 3, 5])
        ctx = PAdicContext(p)
        roots = {}
        while len(roots) < rng.randint(1, 3):
            roots[F(rng.randint(-20, 20))] = rng.randint(1, 4)
        f = FactoredPoly(F(1), tuple(roots.items()))
        counts = solution_counts(f, ctx, 9)
        # c_0 + ... + c_8 = 1 - N_9 / p**9
        total = 1 - F(counts[9], p**9)
        assert 0 <= total <= 1
        for n in range(8):
            assert counts[n + 1] <= p * counts[n]
            assert counts[n] <= p**n


def test_poincare_series_consistency():
    # (1 - t)H + tZ expands to the series 1, 0, 0, ...
    from localzeta import poincare, rf_add, rf_from_poly, rf_mul

    ctx = PAdicContext(3)
    z = compute_zeta(parse_poly("(x-1)^2*(x-4)"), ctx)
    combined = rf_add(
        rf_mul(rf_from_poly([1, -1]), poincare(z)),
        rf_mul(rf_from_poly([0, 1]), normalize(z)),
    )
    assert rf_series(combined, 12) == [F(1)] + [F(0)] * 11


def test_coefficient_tail_is_normalized_count():
    # 1 - sum_{m <= M} c_m = N_{M+1} / p^{M+1}, so the partial sums approach 1
    ctx = PAdicContext(3)
    z = compute_zeta(parse_poly("(x-1)^2*(x-4)"), ctx)
    coeffs = coeff_stream(z, 20)
    counts = counts_from_coeffs(coeffs, ctx, 21)
    assert 1 - sum(coeffs) == F(counts[21], 3**21)
    assert sum(coeffs[:10]) < sum(coeffs) <= 1


def test_brute_count_zero_level():
    assert brute_counts_upto(parse_poly("x^2 - 1"), PAdicContext(2), 0) == [1]


def test_keystream_length_zero():
    assert tuple(solution_counts(parse_poly("x^2 - 1"), PAdicContext(2), 0)) == (1,)


def test_check_counts():
    assert check_counts([1, 2, 6, 0], 3) == [1, 2, 6, 0]
    with pytest.raises(NonIntegralCount, match="N_0 must be 1"):
        check_counts([2], 3)
    with pytest.raises(NonIntegralCount, match="N_1 violates the lifting bound"):
        check_counts([1, 7], 3)  # N_1 > p*N_0
    with pytest.raises(NonIntegralCount, match="N_2 violates the lifting bound"):
        check_counts([1, 2, -1], 3)


def test_brute_counts_upto_rejects_negative_depth():
    with pytest.raises(LocalZetaError, match="max-m/length must be nonnegative"):
        brute_counts_upto(parse_poly("x"), PAdicContext(3), -1)


@pytest.mark.parametrize("method", ["tree", "spf", "brute"])
def test_count_sequence_rejects_negative_depth(method):
    with pytest.raises(LocalZetaError, match="max-m/length must be nonnegative"):
        solution_counts(parse_poly("x"), PAdicContext(3), -1, method=method)


def test_keystream_rejects_negative_depth():
    with pytest.raises(LocalZetaError, match="max-m/length must be nonnegative"):
        solution_counts(parse_poly("x"), PAdicContext(3), -2, method="brute")


# ---------------------------------------------------------------------------
# the two integer count routes
# ---------------------------------------------------------------------------


@st.composite
def route_cases(draw, primes=(2, 3, 5, 101), max_u=200):
    """(f, p, u, kind): an integer polynomial with rational roots, u <= max_u.

    Roots are integers, fractions with denominators prime to p, or a tower
    (x - 1)^3 (x - 1 - p^k)^2 whose roots agree to k digits.
    """
    p = draw(st.sampled_from(primes))
    kind = draw(st.sampled_from(["integral", "rational", "tower"]))
    if kind == "tower":
        roots = {F(1): 3, F(1 + p ** draw(st.integers(1, 12))): 2}
    else:
        roots = {}
        for _ in range(draw(st.integers(1, 5))):
            den = 1
            if kind == "rational":
                den = draw(st.integers(1, 12).filter(lambda d: d % p))
            roots[F(draw(st.integers(-60, 60)), den)] = draw(st.integers(1, 3))
    lead = math.prod(r.denominator**e for r, e in roots.items())
    f = FactoredPoly(F(lead), tuple(sorted(roots.items())))
    return f, p, draw(st.integers(0, max_u)), kind


def test_integer_routes_match_the_rational_reference():
    reached = {"integral": 0, "rational": 0, "tower": 0, "brute": 0}

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(route_cases())
    def check(case):
        f, p, u, kind = case
        ctx = PAdicContext(p)
        z = compute_zeta(f, ctx, method="tree")
        tree = tree_counts(z, u)
        spf = poincare_counts(poincare(compute_zeta(f, ctx, method="spf")), p, u)
        assert tree == spf == counts_from_coeffs(coeff_stream(z, u), ctx, u)
        for method in ("tree", "spf"):
            assert solution_counts(f, ctx, u, method) == tree
        n = min(u, max(n for n in range(21) if p**n <= 10**6))
        assert brute_counts_upto(f, ctx, n, cap=10**6) == tree[: n + 1]
        reached[kind] += 1
        reached["brute"] += n >= 3

    check()
    assert all(reached.values()), reached


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(route_cases(), st.sampled_from(["tree", "spf"]))
def test_zeta_json_round_trips_on_both_evaluators(case, method):
    f, p, _, _ = case
    z = compute_zeta(f, PAdicContext(p), method=method)
    assert zeta_from_json(json.dumps(zeta_to_json(z))) == z


# values a field of a zeta document may be edited to: right and wrong types,
# coefficients with and without a power of p below, and nested junk (copied
# on each draw, since later edits may change it in place)
JUNK = st.sampled_from([
    None, True, 1.5, "", "x", "1/0", "0x1", " 1", "0.5", "1e2", "-2/9", "7/4", [], {}, [1],
    {"coeff": "1", "t_pow": 0, "den_pow": 0}, -2, -1, 0, 1, 3, "10", 10**30,
]).map(copy.deepcopy)


@st.composite
def edited_zeta_documents(draw):
    """(doc, z): zeta_to_json of a route case's Z, and z, after zero to three edits.

    z is None once the document is edited.  p is edited only to a prime or
    to a value that is no integer: an integer that is not prime raises
    InvalidPrime, the command line's error for it, as in tree_from_json.
    """
    f, p, _, _ = draw(route_cases())
    z = compute_zeta(f, PAdicContext(p), method=draw(st.sampled_from(["tree", "spf"])))
    doc = json.loads(json.dumps(zeta_to_json(z)))
    for _ in range(draw(st.integers(0, 3))):
        z = None
        terms = doc.get("terms")
        kind = draw(st.sampled_from(["p", "shift", "terms", "term", "drop"]))
        if kind == "p":
            doc["p"] = draw(st.sampled_from([2, "3", 5, "101", 1.5, "x", None, [3], "0x3"]))
        elif kind == "shift":
            doc["shift"] = draw(JUNK | st.integers(-10, 10))
        elif kind == "drop":
            doc.pop(draw(st.sampled_from(["p", "shift", "terms", "normalized"])), None)
        elif kind == "terms" or not isinstance(terms, list) or not terms:
            doc["terms"] = draw(JUNK | st.lists(JUNK, max_size=2))
        elif draw(st.booleans()):
            term = terms[draw(st.integers(0, len(terms) - 1))]
            if isinstance(term, dict):
                field = draw(st.sampled_from(["coeff", "t_pow", "den_pow"]))
                if draw(st.booleans()):
                    term[field] = draw(JUNK | st.integers(-3, 40))
                else:
                    term.pop(field, None)
        else:
            i = draw(st.integers(0, len(terms) - 1))
            terms.insert(draw(st.integers(0, len(terms))), terms.pop(i) if draw(st.booleans()) else terms[i])
    return doc, z


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(edited_zeta_documents())
def test_zeta_reader_gives_a_zeta_function_or_a_malformed_document(case):
    # an unedited document round-trips; an edited one is read or refused, and
    # a Z it reads has one term per listed term, each c/p**j in lowest terms
    # with both exponents >= 0
    doc, z = case
    try:
        read = zeta_from_json(doc)
    except MalformedDocument:
        assert z is None
        return
    assert z is None or read == z
    assert isinstance(doc["terms"], list) and len(read.terms) == len(doc["terms"])
    p = read.ctx.p
    for term in read.terms:
        assert min(term.j, term.t_pow, term.den_pow) >= 0 and (term.j == 0 or term.c % p), term


@pytest.mark.parametrize("coeff", ["1e10000000", "0.5", "1/0", "+1", " 1"])
def test_zeta_reader_takes_a_coeff_by_the_decimal_rule(coeff):
    # a coeff is an integer or integer/positive integer; exponent notation
    # would build a ten-million-digit integer before any check ran
    doc = {"p": "3", "shift": 0, "terms": [{"coeff": coeff, "t_pow": 0, "den_pow": 0}]}
    start = time.perf_counter()
    with pytest.raises(MalformedDocument, match="term 0 coeff must be an integer or integer/positive integer"):
        zeta_from_json(doc)
    assert time.perf_counter() - start < 0.1
    doc["terms"][0]["coeff"] = "-2/27"
    assert zeta_from_json(doc).terms == (ZetaTerm(-2, 3, 0, 0),)


def test_keystream_needs_no_fraction_and_no_normal_form(monkeypatch):
    import localzeta.counting as counting
    import localzeta.zeta as zeta

    f = parse_poly("5*(x-1)^3*(x-4)^2*(x+7)*(x - 2/5)")
    ctx = PAdicContext(3)
    expected = {m: tuple(solution_counts(f, ctx, 80, method=m)) for m in ("tree", "spf")}

    def forbidden(*args, **kwargs):
        raise AssertionError("called on the keystream path")

    monkeypatch.setattr(zeta, "normalize", forbidden)
    monkeypatch.setattr(counting, "coeff_stream", forbidden)
    monkeypatch.setattr(counting, "Fraction", forbidden)
    monkeypatch.setattr(zeta, "Fraction", forbidden)
    monkeypatch.setattr(FactoredPoly, "expand", forbidden)
    for method, values in expected.items():
        assert tuple(solution_counts(f, ctx, 80, method=method)) == values
    assert expected["tree"] == expected["spf"]


def test_poincare_counts_rejects_a_corrupted_denominator(monkeypatch):
    import localzeta.counting as counting

    ctx = PAdicContext(3)
    f = parse_poly("(x-1)^2*(x-4)")
    h = poincare(compute_zeta(f, ctx, method="spf"))
    assert poincare_counts(h, 3, 5) == [1, 1, 3, 9, 18, 36]
    for lead in (2 * h.denominator[0], 0):
        bad = RationalFunctionT(h.numerator, (lead,) + h.denominator[1:])
        with pytest.raises(NonIntegralCount):
            poincare_counts(bad, 3, 5)
    # through the pipeline: a wrong den'_0 is caught, not rounded
    doubled = RationalFunctionT(h.numerator, tuple(2 * c if i == 0 else c
                                                   for i, c in enumerate(h.denominator)))
    monkeypatch.setattr(counting, "poincare", lambda z: doubled)
    with pytest.raises(NonIntegralCount):
        solution_counts(f, ctx, 5, method="spf")


def test_tree_counts_reject_coefficients_off_the_p_scale():
    ctx = PAdicContext(3)
    # c_0 = 1/2: a term c/3**j cannot hold it, and the JSON reader refuses it
    doc = {"p": "3", "shift": 0, "terms": [{"coeff": "1/2", "t_pow": 0, "den_pow": 0}]}
    with pytest.raises(MalformedDocument, match="denominator a power of 3"):
        zeta_from_json(doc)
    # c_0 = 1/9: 3 * c_0 is not an integer
    with pytest.raises(NonIntegralCount, match="not an integer"):
        tree_counts(ZetaFunction(ctx, 0, (ZetaTerm(1, 2, 0, 0),)), 2)
    with pytest.raises(NegativeShift):
        tree_counts(ZetaFunction(ctx, -1, (ZetaTerm(1, 0, 0, 0),)), 2)
    # the geometric term (2/3)/(1 - t/3) of f = x: N_m = 1 at every level
    z = ZetaFunction(ctx, 0, (ZetaTerm(2, 1, 0, 1),))
    assert tree_counts(z, 6) == [1] * 7


def peeled_denominator(h, p):
    """What is left of h's denominator after every binomial p - t**b comes off."""
    den, b = list(h.denominator), 1
    while b < len(den):
        quot = _div_binomial(den, p, b)
        den, b = (den, b + 1) if quot is None else (quot, b)
    return den


def test_deep_routes_match_the_dense_division():
    reached = {"integral": 0, "rational": 0, "tower": 0, "deep": 0}

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(route_cases(primes=(2, 3, 101), max_u=600))
    def check(case):
        f, p, u, kind = case
        ctx = PAdicContext(p)
        z = compute_zeta(f, ctx, method="tree")
        h = poincare(compute_zeta(f, ctx, method="spf"))
        dense = dense_poincare_counts(h, p, u)
        assert poincare_counts(h, p, u) == dense
        assert tree_counts(z, u) == dense
        assert counts_from_coeffs(coeff_stream(z, u), ctx, u) == dense
        # a poincare denominator is a constant times its binomials
        assert len(peeled_denominator(h, p)) == 1
        reached[kind] += 1
        reached["deep"] += u >= 400

    check()
    assert all(reached.values()), reached


def peeled_binomials(monkeypatch):
    """The list that collects each b whose p - t**b poincare_counts divides off."""
    import localzeta.counting as counting

    hits = []

    def spy(a, p, b):
        quot = _div_binomial(a, p, b)
        hits.extend([b] if quot is not None else [])
        return quot

    monkeypatch.setattr(counting, "_div_binomial", spy)
    return hits


def test_poincare_counts_divide_a_repeated_binomial(monkeypatch):
    # den = (3 - t^2)^2, so H(3u) = 9 / (9 (1 - 3u^2)^2) = sum (k + 1) 3^k u^(2k)
    h = RationalFunctionT((9,), (9, 0, -6, 0, 1))
    assert peeled_denominator(h, 3) == [1]
    hits = peeled_binomials(monkeypatch)
    expected = [(m // 2 + 1) * 3 ** (m // 2) if m % 2 == 0 else 0 for m in range(41)]
    assert poincare_counts(h, 3, 40) == dense_poincare_counts(h, 3, 40) == expected
    assert hits == [2, 2]  # both copies come off, so what is left is a constant


def test_poincare_counts_divide_a_leftover_that_is_no_binomial(monkeypatch):
    # den = (3 - t)(1 + t + t^2): 3 - t comes off, and what is left is no
    # constant, which a poincare denominator never leaves
    # (test_deep_routes_match_the_dense_division), so the division stops;
    # only the dense reference divides such a leftover
    den = (3, 2, 2, -1)
    h = RationalFunctionT((3, 1), den)
    assert peeled_denominator(h, 3) == [1, 1, 1]
    expected = [3**m * c for m, c in enumerate(rf_series(h, 41))]
    assert all(c.denominator == 1 for c in expected)
    assert dense_poincare_counts(h, 3, 40) == expected
    hits = peeled_binomials(monkeypatch)
    with pytest.raises(NonIntegralCount, match="no constant times binomials p - t\\^b"):
        poincare_counts(h, 3, 40)
    assert hits == [1]
    # numerator 1: H(3u) = 1/(3 (1 - u)) keeps a factor 1/3, so N_0 = 1/3
    with pytest.raises(NonIntegralCount, match="N_0 is not an integer"):
        poincare_counts(RationalFunctionT((1,), (3, -1)), 3, 5)


def test_evaluator_normal_forms_try_no_binomial(monkeypatch):
    # every term of an evaluator's Z has c > 0, so no p - t**b can divide the
    # numerator of its Z or H, and the normal form tries none of them; the
    # spf terms, each formed once at its own level, are the reference's
    import localzeta.zeta as zeta

    calls = []

    def spy(a, p, b):
        calls.append(b)
        return _div_binomial(a, p, b)

    monkeypatch.setattr(zeta, "_div_binomial", spy)
    reached = {"integral": 0, "rational": 0, "tower": 0, "big p": 0}

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(route_cases(primes=(2, 3, 101, 10**12 + 39), max_u=0))
    def check(case):
        f, p, _, kind = case
        ctx = PAdicContext(p)
        for method in ("tree", "spf"):
            z = compute_zeta(f, ctx, method=method)
            normalize(z)
            poincare(z)
        assert calls == []
        roots = reduce_to_integral_roots(f, ctx).fplus.roots
        assert list(spf_eval(roots, ctx).terms) == reference_spf_terms(roots, ctx)
        reached[kind] += 1
        reached["big p"] += p > 10**6

    check()
    assert all(reached.values()), reached
    # a bucket of zero coefficients is tried: here 3 - t cancels from Z = 1
    z = ZetaFunction(PAdicContext(3), 0, (ZetaTerm(1, 0, 0, 0), ZetaTerm(0, 0, 0, 1)))
    assert normalize(z) == RationalFunctionT((1,), (1,))
    assert calls == [1]


@st.composite
def shifted_cases(draw):
    """(f, p, kind): a route case times a root a/p**k and a unit p**j.

    kind names what the draw holds: a root with p in its denominator, a
    unit that carries a power of p beyond what that root needs, a tower,
    or none of these.  f is integral exactly when j >= k*e, e the new
    root's multiplicity.
    """
    f, p, _, kind = draw(route_cases(primes=(2, 3, 5)))
    roots = dict(f.roots)
    k, e = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    if k:  # a is prime to p, so a/p**k is a new root
        roots[F(draw(st.integers(-60, 60).filter(lambda a: a % p)), p**k)] = e
    j = draw(st.integers(0, k * e + 2))
    if k and j >= k * e:
        kind = "p in a denominator"
    elif j > k * e:
        kind = "unit with a power of p"
    return FactoredPoly(f.unit * p**j, tuple(sorted(roots.items()))), p, kind


def test_every_evaluator_shift_is_the_content_valuation():
    # f = (unit/prod b^e) prod (b x - a)^e, and |b x - a|_p = 1 on Z_p when
    # p | b, so Z has the shift v_p(unit/prod b^e); for an integral f it is
    # an integer's valuation, >= 0, and both count routes take f as it is
    reached = {"p in a denominator": 0, "unit with a power of p": 0, "tower": 0, "other": 0}

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(shifted_cases())
    def check(case):
        f, p, kind = case
        ctx = PAdicContext(p)
        content = f.unit / math.prod(r.denominator**e for r, e in f.roots)
        for method in ("tree", "spf"):
            assert compute_zeta(f, ctx, method=method).shift == vp(content, ctx)
        if f.is_integral():
            assert content.denominator == 1 and vp(content, ctx) >= 0
            assert solution_counts(f, ctx, 8, "spf") == solution_counts(f, ctx, 8, "tree")
            reached[kind if kind in reached else "other"] += 1

    check()
    assert all(reached.values()), reached


# ---------------------------------------------------------------------------
# the lift against the definition and against the tree
# ---------------------------------------------------------------------------


def poly_mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def residue_sweep(coeffs, p, n):
    """N_0..N_n from one pass over the residues mod p**n.

    f(x) mod p**m depends only on x mod p**m, so each solution mod p**m
    has p**(n-m) representatives below p**n.
    """
    top = p**n
    hits = [0] * (n + 1)
    for x in range(top):
        value = 0
        for c in reversed(coeffs):
            value = (value * x + c) % top
        v = 0
        while v < n and value % p ** (v + 1) == 0:
            v += 1
        hits[v] += 1
    counts, at_least = [], 0
    for m in range(n, -1, -1):
        at_least += hits[m]
        counts.append(at_least // p ** (n - m))
    return counts[::-1]


@st.composite
def lift_cases(draw):
    """(p, coefficients, n, content): degree 1-6, p**n <= 4096.

    A few integer roots with multiplicity make deep lifts; the content
    p**k makes f vanish at every residue mod p**k.
    """
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    roots = draw(st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 3)), max_size=3))
    coeffs = [1]
    for r, mult in roots:
        for _ in range(mult):
            if len(coeffs) < 7:
                coeffs = poly_mul_int(coeffs, [-r, 1])
    rest = draw(st.integers(max(0, 2 - len(coeffs)), 7 - len(coeffs)))
    cofactor = draw(st.lists(st.integers(-40, 40), min_size=rest, max_size=rest))
    cofactor.append(draw(st.integers(-9, 9).filter(bool)))
    content = draw(st.sampled_from([0, 0, 0, 1, 2]))
    coeffs = [c * p**content for c in poly_mul_int(coeffs, cofactor)]
    n_max = max(n for n in range(13) if p**n <= 4096)
    return p, coeffs, draw(st.integers(0, n_max)), content


def test_lift_matches_definition():
    reached = {"content": 0, "deep": 0}

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(lift_cases())
    def check(case):
        p, coeffs, n, content = case
        f = DensePoly(tuple(F(c) for c in coeffs))
        assert 1 <= f.degree <= 6
        counts = brute_counts_upto(f, PAdicContext(p), n)
        assert counts == residue_sweep(coeffs, p, n)
        reached["content"] += content > 0 and n > content
        reached["deep"] += n >= 2 and 1 < counts[-1] < p**n

    check()
    assert all(reached.values()), reached


def has_rational_root(coeffs):
    """The rational root test on a factor with small coefficients."""
    if coeffs[0] == 0:
        return True

    def divisors(c):
        return [d for d in range(1, abs(c) + 1) if c % d == 0]

    return any(
        sum(c * F(sign * a, b) ** i for i, c in enumerate(coeffs)) == 0
        for a in divisors(coeffs[0]) for b in divisors(coeffs[-1]) for sign in (1, -1)
    )


@st.composite
def oracle_cases(draw):
    """(p, coefficients, n, labels): products of random factors, p**n <= 2**14.

    Each factor has degree 1-3, small random coefficients and multiplicity
    1-3, so f may have no rational root, squared factors, and a content
    p**k; none of these needs f to split over Q.
    """
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    coeffs, labels = [1], set()
    rooted = False
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(1, 3))
        factor = draw(st.lists(st.integers(-20, 20), min_size=degree, max_size=degree))
        factor.append(draw(st.integers(-6, 6).filter(bool)))
        mult = draw(st.integers(1, 3))
        if len(coeffs) - 1 + degree * mult > 8:
            continue
        for _ in range(mult):
            coeffs = poly_mul_int(coeffs, factor)
        rooted |= has_rational_root(factor)
        if mult > 1:
            labels.add("squared factor")
    content = draw(st.sampled_from([0, 0, 0, 1, 2, 3]))
    coeffs = [c * p**content for c in coeffs]
    n = draw(st.integers(0, max(n for n in range(15) if p**n <= 2**14)))
    if not rooted and len(coeffs) > 1:
        labels.add("no rational root")
    if content and n > content:
        labels.add("content")
    if p**n > 4096:
        labels.add("past 4096 residues")
    return p, coeffs, n, labels


def test_lift_matches_a_residue_sweep_without_rational_roots():
    # the tree and spf routes need f to split over Q; the oracle does not
    reached = dict.fromkeys(
        ["no rational root", "squared factor", "content", "past 4096 residues"], 0
    )

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(oracle_cases())
    def check(case):
        p, coeffs, n, labels = case
        f = DensePoly(tuple(F(c) for c in coeffs))
        assert brute_counts_upto(f, PAdicContext(p), n) == residue_sweep(coeffs, p, n)
        for label in labels:
            reached[label] += 1

    check()
    assert all(reached.values()), reached


@st.composite
def tree_cases(draw):
    """(f, p, n): integer roots, n = 40 when they are distinct.

    Distinct roots keep N_m bounded past l_f; with multiplicities up to 3,
    N_m grows like p**(m*(1 - 1/3)), so n stops at p**n <= 2**20.
    """
    p = draw(st.sampled_from([2, 3, 5, 7]))
    roots = draw(st.dictionaries(st.integers(-40, 40), st.integers(1, 3),
                                 min_size=1, max_size=5))
    if draw(st.booleans()):
        roots = dict.fromkeys(roots, 1)
    lead = draw(st.sampled_from([1, -1, 2, 3, 6]))
    f = FactoredPoly(F(lead), tuple((F(r), m) for r, m in sorted(roots.items())))
    n = 40 if set(roots.values()) == {1} else max(
        n for n in range(21) if p**n <= 2**20
    )
    return f, p, n


def test_lift_matches_tree_counts():
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(tree_cases())
    def check(case):
        f, p, n = case
        ctx = PAdicContext(p)
        tree = solution_counts(f, ctx, n, method="tree")
        assert brute_counts_upto(f, ctx, n, cap=p**40) == tree

    check()


def test_lift_on_the_worst_tower_stays_small():
    # every root is 1 mod 3, so every residue 1 mod 3 survives every level
    f = parse_poly("(x-1)^5*(x-4)^5*(x-7)^5*(x-10)^5*(x-13)^5")
    ctx = PAdicContext(3)
    tracemalloc.start()
    try:
        counts = brute_counts_upto(f, ctx, 14, cap=3**14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == solution_counts(f, ctx, 14)
    assert peak < 32 * 2**20


def scans(monkeypatch) -> list[tuple[int, int, list[int]]]:
    """(m, w, g mod p) for each class x0 + p**m Z the oracle's walk scans for roots.

    The walk calls roots_mod once per class that can still hold deeper
    solutions, with f(x0 + p**m y) = p**w g(y); m and w are read from the
    walk's frame.
    """
    import localzeta.counting as counting

    seen = []

    def spy(gbar, p):
        walk = sys._getframe(1).f_locals
        seen.append((walk["m"], walk["w"], list(gbar)))
        return roots_mod(gbar, p)

    monkeypatch.setattr(counting, "roots_mod", spy)
    return seen


def test_settle_counts_a_class_of_constant_valuation(monkeypatch):
    # f = x^3, p = 2: on 2Z the content gives v_2(f) >= 3, and of its
    # classes mod 4 only 0 + 4Z is a root of g = y^3 mod 2; on 2 + 4Z,
    # v_2(f) = 3, so that class holds 2 solutions mod 8 and none mod 16
    seen = scans(monkeypatch)
    counts = brute_counts_upto(parse_poly("x^3"), PAdicContext(2), 10, cap=2**10)
    assert counts == [2 ** (j - -(-j // 3)) for j in range(11)]
    assert seen == [(m, 3 * m, [0, 0, 0, 1]) for m in range(4)]


def test_hensel_step_lifts_solutions_to_solutions(monkeypatch):
    # every class the walk scans is x0 + p**m Z for a solution x0 mod p**m,
    # and it carries that class's polynomial: f(x0 + p**m y) = p**w g(y)
    seen = scans(monkeypatch)
    for text, p, n, levels in [("x^2 + 1", 5, 8, [0]), ("x^3 - 2", 5, 6, [0]),
                               ("(x-3)^2*(x+4)*(x-10)", 7, 6, [0, 1]),
                               ("x^2 - 17", 2, 12, [0, 1]), ("49*x^2 - 98", 7, 5, [0])]:
        coeffs = [int(c) for c in as_integer_poly(parse_poly(text)).coefficients]
        counts = brute_counts_upto(parse_poly(text), PAdicContext(p), n)
        for j in range(min(n, 4) + 1):
            assert counts[j] == sum(
                sum(c * x**i for i, c in enumerate(coeffs)) % p**j == 0 for x in range(p**j)
            ), (text, j)
        assert [m for m, _, _ in seen] == levels, text
        for m, w, gbar in seen:
            assert w >= m, (text, m)
            assert any(
                [c % p ** (w + 1) for c in _shifted(coeffs, x0, p**m)]
                == [p**w * c for c in gbar] + [0] * (len(coeffs) - len(gbar))
                for x0 in range(p**m)
            ), (text, m)
        seen.clear()


def _shifted(coeffs: list[int], x0: int, q: int) -> list[int]:
    """The coefficients of f(x0 + q*y), by Horner's rule in y."""
    out = [0] * len(coeffs)
    for c in reversed(coeffs):
        out = [a * x0 + b * q for a, b in zip(out, [0, *out])]
        out[0] += c
    return out


def test_lift_follows_only_unsettled_classes(monkeypatch):
    seen = scans(monkeypatch)
    # v_3(f) >= 25 on all of 1 + 3Z, so only Z_p itself is scanned,
    # although every residue 1 mod 3 is a solution at every level
    f = parse_poly("(x-1)^5*(x-4)^5*(x-7)^5*(x-10)^5*(x-13)^5")
    assert brute_counts_upto(f, PAdicContext(3), 14, cap=3**14)[-1] == 3**13
    assert [m for m, _, _ in seen] == [0]
    # a constant is counted on Z_p itself, and nothing is scanned
    seen.clear()
    assert brute_counts_upto(parse_poly("12"), PAdicContext(2), 5) == [1, 2, 4, 0, 0, 0]
    assert brute_counts_upto(parse_poly("0"), PAdicContext(2), 5) == [1, 2, 4, 8, 16, 32]
    assert seen == []
    # five simple roots, four of them 0 mod 8: one class per level is scanned
    # until they part mod 64, and each simple root then goes on in closed form
    seen.clear()
    f = FactoredPoly(F(1), tuple((F(r), 1) for r in (0, 1, 8, -8, 40)))
    counts = brute_counts_upto(f, PAdicContext(2), 30, cap=2**30)
    assert counts == solution_counts(f, PAdicContext(2), 30)
    assert [m for m, _, _ in seen] == [0, 1, 2, 3, 4, 5]


def test_no_level_scans_more_classes_than_the_degree(monkeypatch):
    # a child's g mod p has degree at most the multiplicity of its root, so
    # the degrees of the classes at one level add up to at most deg f
    seen = scans(monkeypatch)
    rng = random.Random(3)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        roots = [rng.choice([0, 1, p, p + 1, p**2, 1 + p**3, rng.randint(-20, 20)])
                 for _ in range(rng.randint(1, 6))]
        f = FactoredPoly(F(1), tuple((F(r), rng.randint(1, 3)) for r in set(roots)))
        degree = sum(m for _, m in f.roots)
        brute_counts_upto(f, PAdicContext(p), 20, cap=p**20)
        per_level = {}
        for m, _, gbar in seen:
            per_level[m] = per_level.get(m, 0) + len(gbar) - 1
        assert max(per_level.values()) <= degree, (f, p, per_level)
        seen.clear()


def test_walk_reaches_depth_1000_in_under_a_second():
    # one class per level and multiple root: the walk costs O(deg f) steps
    # per level, where lifting every solution cost quadratically in the depth
    f = parse_poly("(x-1)^3*(x-10)^2*(x-4)")
    ctx = PAdicContext(3)
    start = time.perf_counter()
    counts = brute_counts_upto(f, ctx, 1000, cap=3**1000)
    elapsed = time.perf_counter() - start
    assert counts == solution_counts(f, ctx, 1000, "tree")
    assert elapsed < 1.0, elapsed


def test_class_shift_matches_horner_at_the_digit_bound():
    # the walk forms g(k + p*y) from the base-2**K digits of one product;
    # with every coefficient p**e - 1 and k = p - 1 each digit is as large
    # as the bound behind K allows, so a digit that carried would show
    from localzeta.counting import _shifted_class

    rng = random.Random(7)
    for p in (2, 3, 101, 1000003):
        for d in (1, 2, 7, 40):
            for e in (1, 2, 30, 1000):
                mod = p**e
                for g, k in (([mod - 1] * (d + 1), p - 1),
                             ([rng.randrange(mod) for _ in range(d)] + [1], rng.randrange(p))):
                    expected = [c % mod for c in _shifted(g, k, p)]
                    while len(expected) > 1 and not expected[-1]:
                        expected.pop()
                    assert _shifted_class(g, k, p, mod) == expected, (p, d, e, k)


def test_oracle_matches_direct_counts_and_the_tree_on_both_sides_of_the_kernel():
    # small cases against a direct count mod p**j, and route cases 60 levels
    # deep against the tree's counts, at primes below and above the
    # threshold where roots_mod switches from the scan to the kernel
    reached = {"direct": 0, "direct above": 0, "tree": 0, "tree above": 0}

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(oracle_cases(), st.booleans())
    def direct(case, above):
        p, coeffs, n, _ = case
        if above:
            p, n = 1009, min(n, 1)
        f = DensePoly(tuple(F(c) for c in coeffs))
        expected = [1] + [len(direct_roots(coeffs, p**j)) for j in range(1, n + 1)]
        assert brute_counts_upto(f, PAdicContext(p), n, cap=p**n) == expected
        reached["direct above" if above else "direct"] += n > 0

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(route_cases(primes=(2, 3, 101, 1000003), max_u=60))
    def tree(case):
        f, p, u, _ = case
        ctx = PAdicContext(p)
        assert brute_counts_upto(f, ctx, u, cap=p**u) == solution_counts(f, ctx, u, "tree")
        reached["tree above" if p > 1000 else "tree"] += u > 0

    direct()
    tree()
    assert min(reached.values()) >= 10, reached


def test_oracle_at_a_prime_above_a_million_runs_in_under_50_ms():
    # each class at a multiple root takes the kernel's O(d**2 log p) steps,
    # where a sweep of the 1000003 residues took about half a second
    f = parse_poly("(x-1)^2*(x-4)*(x-10)^3")
    ctx = PAdicContext(1000003)
    start = time.perf_counter()
    counts = brute_counts_upto(f, ctx, 30, cap=1000003**30)
    elapsed = time.perf_counter() - start
    assert counts == solution_counts(f, ctx, 30, "spf")
    assert elapsed < 0.05, elapsed
