import random
from fractions import Fraction

import pytest

from localzeta import (
    CapExceeded,
    CountSequence,
    DensePoly,
    FactoredPoly,
    IntegralityError,
    NegativeShift,
    NonIntegralCount,
    PAdicContext,
    brute_counts_upto,
    coeff_stream,
    compute_zeta,
    count_sequence,
    counts_from_coeffs,
    normalize,
    parse_poly,
    rf_eval,
    rf_series,
)

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


def test_brute_python_fallback_agrees():
    import localzeta.counting as counting

    ctx = PAdicContext(7)
    f = DensePoly(tuple(F(c) for c in (-36, 0, 1)))
    fast = brute_counts_upto(f, ctx, 4)
    old = counting._VECTOR_LIMIT
    counting._VECTOR_LIMIT = 1  # force the scalar path
    try:
        slow = brute_counts_upto(f, ctx, 4)
    finally:
        counting._VECTOR_LIMIT = old
    assert fast == slow


def test_count_sequence_methods_agree():
    ctx = PAdicContext(3)
    f = parse_poly("(x-1)^2*(x-4)")
    results = {
        m: count_sequence(f, ctx, 5, method=m) for m in ("tree", "spf", "brute")
    }
    for seq in results.values():
        assert seq.counts == (1, 1, 3, 9, 18, 36)
    assert results["tree"].coeffs == results["spf"].coeffs
    assert results["brute"].coeffs == results["tree"].coeffs[:5]


def test_count_sequence_requires_integer_coefficients():
    ctx = PAdicContext(3)
    with pytest.raises(IntegralityError):
        count_sequence(parse_poly("(x - 1/2)^2"), ctx, 3)


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
        seq = count_sequence(f, ctx, 8)
        total = sum(seq.coeffs)
        assert 0 <= total <= 1
        for n in range(8):
            assert seq.counts[n + 1] <= p * seq.counts[n]
            assert seq.counts[n] <= p**n


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
    from localzeta import keystream

    assert keystream(parse_poly("x^2 - 1"), PAdicContext(2), 0).values == (1,)


def test_count_sequence_validation():
    with pytest.raises(NonIntegralCount):
        CountSequence(p=3, coeffs=(F(1, 2),), counts=(1,))
    with pytest.raises(NonIntegralCount):
        CountSequence(p=3, coeffs=(), counts=(2,))
    with pytest.raises(NonIntegralCount):
        CountSequence(p=3, coeffs=(), counts=(1, 7))
