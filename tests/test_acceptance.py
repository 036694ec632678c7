"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
Every expected value here is either computed by an independent oracle
(enumeration, direct recurrence replay, series division) or asserted
exactly; time budgets are enforced with perf_counter.
"""

import random
import time
from fractions import Fraction

from localzeta import (
    FactoredPoly,
    PAdicContext,
    RationalFunctionT,
    RF_ONE,
    Lfsr,
    ZetaFunction,
    ZetaTerm,
    brute_counts_upto,
    build_tree,
    coeff_stream,
    compute_lf,
    compute_zeta,
    counts_from_coeffs,
    generating_function,
    lfsr_from_rational,
    lfsr_generating_function,
    lfsr_run,
    make_ratfunc,
    normalize,
    parse_poly,
    period_of,
    poincare,
    rf_add,
    rf_equal,
    rf_eval,
    rf_from_poly,
    rf_mul,
    rf_series,
    series_mod_p,
)
from spf_reference import classify_residues, dilate
from tree_reference import fraction_term, term_coeff

F = Fraction
BRUTE_BOUND = 10**5


def checked(label, budget, body):
    """Run one criterion, print its PASS/FAIL line, enforce the time budget."""
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"FAIL  {label}")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < budget else "FAIL"
    print(f"{status}  {label}  ({elapsed:.3f}s, budget {budget}s)")
    assert elapsed < budget, f"{label}: {elapsed:.3f}s exceeded {budget}s"


def max_exponent(p, bound):
    """Largest n with p**n <= bound."""
    n = 0
    while p ** (n + 1) <= bound:
        n += 1
    return n


def test_criterion_1_linear_case():
    def body():
        f = parse_poly("x")
        for p in (2, 3, 5, 7, 11):
            ctx = PAdicContext(p)
            for method in ("tree", "spf"):
                z = compute_zeta(f, ctx, method=method)
                assert normalize(z) == RationalFunctionT((p - 1,), (p, -1))
                counts = counts_from_coeffs(coeff_stream(z, 8), ctx, 8)
                assert counts == [1] * 9
            n = min(8, max_exponent(p, BRUTE_BOUND))
            assert brute_counts_upto(f, ctx, n) == [1] * (n + 1)

    checked("criterion 1: linear case over five primes", 0.1, body)


def test_criterion_2_pure_powers():
    def body():
        for p in (2, 3, 5):
            ctx = PAdicContext(p)
            for e in range(1, 6):
                f = FactoredPoly(F(1), ((F(0), e),))
                z = compute_zeta(f, ctx)
                expected = make_ratfunc([p - 1], [p] + [0] * (e - 1) + [-1])
                assert normalize(z) == expected
                n = max_exponent(p, BRUTE_BOUND)
                counts = counts_from_coeffs(coeff_stream(z, n), ctx, n)
                assert counts == brute_counts_upto(f, ctx, n)

    checked("criterion 2: pure powers x^e", 1.0, body)


def test_criterion_3_worked_instance():
    def body():
        ctx = PAdicContext(3)
        z = compute_zeta(parse_poly("(x-1)^2*(x-4)"), ctx)
        assert z.sorted_terms() == (
            ZetaTerm(2, 1, 0, 0),
            ZetaTerm(1, 2, 3, 0),
            ZetaTerm(2, 3, 4, 1),
            ZetaTerm(2, 3, 5, 0),
            ZetaTerm(2, 4, 7, 2),
        )
        counts = counts_from_coeffs(coeff_stream(z, 5), ctx, 5)
        assert counts == [1, 1, 3, 9, 18, 36]
        assert brute_counts_upto(parse_poly("(x-1)^2*(x-4)"), ctx, 5) == counts

    checked("criterion 3: worked instance (x-1)^2 (x-4) at p=3", 0.1, body)


def test_criterion_4_paired_digit_roots_at_p11():
    def body():
        p = 11
        ctx = PAdicContext(p)
        a, b, c, d, g, h, k, l, m, n, r = 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0
        roots = (
            (F(a + d * p + k * p**2), 1),
            (F(a + d * p + l * p**2), 3),
            (F(b + g * p + m * p**2), 1),
            (F(c + h * p + n * p**2), 2),
            (F(c + h * p + r * p**2), 1),
        )
        f = FactoredPoly(F(1), roots)
        # first-level classification: 3 residues, one simple
        cls = classify_residues(roots, ctx)
        assert (cls.nu, cls.delta) == (p - 3, 1)
        assert [(xi, e) for xi, e, _ in cls.groups] == [(1, 4), (3, 3)]
        # closed form assembled term by term, using t = p^(-s):
        #   p^-1(p-3) + (1-1/p) t/p / (1 - t/p) + (p-1)/p^2 t^4
        #   + (p-1)/p^2 t^3 + (p-2)/p^3 t^8 + (p-1)/p^4 t^9 / (1 - t/p)
        #   + (p-1)/p^4 t^11 / (1 - t^3/p) + (p-2)/p^3 t^6
        #   + (p-1)/p^4 t^7 / (1 - t/p) + (p-1)/p^4 t^8 / (1 - t^2/p)
        hand = ZetaFunction(
            ctx,
            0,
            (
                ZetaTerm(p - 3, 1, 0, 0),
                ZetaTerm(p - 1, 2, 1, 1),
                ZetaTerm(p - 1, 2, 4, 0),
                ZetaTerm(p - 1, 2, 3, 0),
                ZetaTerm(p - 2, 3, 8, 0),
                ZetaTerm(p - 1, 4, 9, 1),
                ZetaTerm(p - 1, 4, 11, 3),
                ZetaTerm(p - 2, 3, 6, 0),
                ZetaTerm(p - 1, 4, 7, 1),
                ZetaTerm(p - 1, 4, 8, 2),
            ),
        )
        expected = normalize(hand)
        for method in ("tree", "spf"):
            assert rf_equal(normalize(compute_zeta(f, ctx, method=method)), expected)
        # the dense pipeline (expansion, then root finding) agrees too
        assert rf_equal(normalize(compute_zeta(f.expand(), ctx)), expected)
        counts = counts_from_coeffs(coeff_stream(compute_zeta(f, ctx), 4), ctx, 4)
        assert counts == brute_counts_upto(f, ctx, 4)

    checked("criterion 4: five paired-digit roots at p=11", 1.0, body)


def random_instance(rng, p):
    """Distinct rational roots (|num| <= 50, den coprime to p), total degree <= 8.

    The unit clears all root denominators so the expansion is integral.
    """
    roots = {}
    degree = 0
    for _ in range(rng.randint(1, 4)):
        mult = rng.randint(1, 4)
        if degree + mult > 8:
            break
        while True:
            den = rng.randint(1, 12)
            if den % p:
                break
        root = F(rng.randint(-50, 50), den)
        if root in roots:
            continue
        roots[root] = mult
        degree += mult
    if not roots:
        roots[F(rng.randint(-50, 50))] = 1
    unit = rng.choice([1, 2, 3, p])
    for root, mult in roots.items():
        unit *= root.denominator**mult
    return FactoredPoly(F(unit), tuple(roots.items()))


def test_criterion_5_property_suite():
    def body():
        rng = random.Random(20260810)
        for _ in range(200):
            p = rng.choice([2, 3, 5, 7])
            ctx = PAdicContext(p)
            f = random_instance(rng, p)
            z_tree = compute_zeta(f, ctx, method="tree")
            z_spf = compute_zeta(f, ctx, method="spf")
            rf = normalize(z_tree)
            # (a) the two evaluators agree
            assert rf_equal(rf, normalize(z_spf))
            # (b) total measure
            assert rf_eval(rf, 1) == 1
            # (c) term expansion vs long division
            coeffs = coeff_stream(z_tree, 25)
            assert coeffs == rf_series(rf, 26)
            # (d) Poincare identity
            h = poincare(z_tree)
            identity = rf_add(
                rf_mul(rf_from_poly([1, -1]), h), rf_mul(rf_from_poly([0, 1]), rf)
            )
            assert rf_equal(identity, RF_ONE)
            # (e) counts are integers within the lifting bounds
            n = max_exponent(p, BRUTE_BOUND)
            counts = counts_from_coeffs(coeff_stream(z_tree, n), ctx, n)
            for i in range(n):
                assert 0 <= counts[i + 1] <= p * counts[i]
            # (f) brute-force agreement
            assert counts == brute_counts_upto(f, ctx, n)

    checked("criterion 5: property suite, 200 random instances", 60.0, body)


def test_criterion_6_recursion_identity():
    def body():
        rng = random.Random(60)
        for _ in range(50):
            p = rng.choice([2, 3, 5])
            ctx = PAdicContext(p)
            roots = {}
            while len(roots) < rng.randint(2, 4):
                den = rng.randint(1, 6)
                if den % p == 0:
                    den = 1
                roots[F(rng.randint(-30, 30), den)] = rng.randint(1, 3)
            f = FactoredPoly(F(1), tuple(roots.items()))
            tree = build_tree(f, ctx, compute_lf(f, ctx))
            lhs = normalize(generating_function(tree))
            cls = classify_residues(f.roots, ctx)
            terms = []
            if cls.nu:
                terms.append(fraction_term(F(cls.nu, p), 0, 0, p))
            if cls.delta:
                terms.append(fraction_term(F(cls.delta * (p - 1), p * p), 1, 1, p))
            for xi, e_xi, members in cls.groups:
                sub = FactoredPoly(F(1), dilate(members, xi, ctx))
                sub_tree = build_tree(sub, ctx, compute_lf(sub, ctx))
                for t in generating_function(sub_tree).terms:
                    coeff = term_coeff(t, p) / p
                    terms.append(fraction_term(coeff, t.t_pow + e_xi, t.den_pow, p))
            rhs = normalize(ZetaFunction(ctx, 0, tuple(terms)))
            assert rf_equal(lhs, rhs)

    checked("criterion 6: residue-class recursion identity, 50 instances", 10.0, body)


def test_criterion_7_lfsr():
    def body():
        # connection polynomial x^4 + x + 1 over F_2: maximal period attained
        taps = (1, 0, 0, 1)
        for state in range(1, 16):
            bits = tuple((state >> i) & 1 for i in range(4))
            assert period_of(Lfsr(2, taps, bits)) == 15
        rng = random.Random(70)
        for _ in range(100):
            p = rng.choice([2, 3, 5])
            r = rng.randint(1, 4)
            q = tuple(rng.randrange(p) for _ in range(r - 1)) + (rng.randrange(1, p),)
            init = tuple(rng.randrange(p) for _ in range(r))
            register = Lfsr(p, q, init)
            g = lfsr_generating_function(register)
            back = lfsr_from_rational(g, p)
            assert back.taps == register.taps and back.state == register.state
            assert series_mod_p(g, p, 16) == lfsr_run(register.copy(), 16)

    checked("criterion 7: register periods and round trips", 5.0, body)


def test_criterion_8_timing_smoke():
    def pipeline(f):
        # dense input: factorization, reduction, tree, terms, normal form
        return normalize(compute_zeta(f, PAdicContext(101)))

    rng = random.Random(80)
    roots_50 = rng.sample(range(-100, 101), 50)
    roots_100 = rng.sample(range(-100, 101), 100)
    f50 = FactoredPoly(F(1), tuple((F(v), 1) for v in roots_50)).expand()
    f100 = FactoredPoly(F(1), tuple((F(v), 1) for v in roots_100)).expand()

    def measure(f):
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            rf = pipeline(f)
            best = min(best, time.perf_counter() - start)
            assert rf_eval(rf, 1) == 1
        return best

    t50 = measure(f50)
    t100 = measure(f100)
    ok = t50 < 1.0 and t100 < 20 * t50
    print(
        f"{'PASS' if ok else 'FAIL'}  criterion 8: timing smoke "
        f"(degree 50: {t50:.3f}s, degree 100: {t100:.3f}s, ratio {t100 / t50:.1f}x)"
    )
    assert t50 < 1.0, f"degree-50 pipeline took {t50:.3f}s"
    assert t100 < 20 * t50, f"degree doubling ratio {t100 / t50:.1f}x"
