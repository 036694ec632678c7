import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from localzeta import (
    INFINITY,
    InvalidPrime,
    NegativeValuation,
    PAdicContext,
    is_prime,
    vp,
)
import localzeta.padic
from localzeta.padic import (
    _SMALL_PRIMES,
    _is_strong_lucas_probable_prime,
    _is_strong_probable_prime,
    residue,
)


def test_context_accepts_primes():
    for p in (2, 3, 5, 7, 11, 101, 1_000_003):
        assert PAdicContext(p).p == p


def test_context_rejects_composites_and_small_values():
    for bad in (0, 1, 4, 9, 1001, 10**6):
        with pytest.raises(InvalidPrime):
            PAdicContext(bad)


def test_primality_beyond_trial_division():
    # 2^61 - 1 is prime, 2^59 - 1 = 179951 * 3203431780337 is not
    assert is_prime(2**61 - 1)
    assert not is_prime(2**59 - 1)


# Composite terms of OEIS A014233: the least strong pseudoprime to all of the
# first k prime bases, k = 1..13.  The last is a strong pseudoprime to every
# base up to 41, so only the Lucas step rejects it.
A014233_COMPOSITES = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)

# A217255: the odd composites below 10^5 that pass the strong Lucas test
# with Selfridge's parameters.
STRONG_LUCAS_PSEUDOPRIMES = (
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439,
)


def _sieve(n):
    flags = bytearray([1]) * n
    flags[:2] = b"\0\0"
    for q in range(2, math.isqrt(n - 1) + 1):
        if flags[q]:
            flags[q * q :: q] = bytes(len(range(q * q, n, q)))
    return flags


def test_strong_pseudoprimes_to_the_first_prime_bases_are_rejected():
    # 318665857834031151167461 = 399165290221 * 798330580441 passes the
    # strong tests to every prime base up to 37
    assert 399165290221 * 798330580441 == A014233_COMPOSITES[-2]
    for n in A014233_COMPOSITES:
        assert not is_prime(n)
        with pytest.raises(InvalidPrime):
            PAdicContext(n)


def test_each_term_of_a014233_passes_its_bases_so_the_bound_is_strict():
    # psi_k is a strong pseudoprime to the first k prime bases, so n < psi_k
    # and not n <= psi_k is what makes k strong tests a proof
    first_k = {psi: k for k, psi in enumerate(localzeta.padic._A014233, 1)}
    assert sorted(first_k) == list(A014233_COMPOSITES)
    for psi, k in first_k.items():
        assert all(_is_strong_probable_prime(psi, a) for a in _SMALL_PRIMES[:k]), psi
        assert not is_prime(psi)


@pytest.mark.parametrize(
    "n, strong, lucas",
    [
        (1000003, 2, 0),  # below A014233(2) = 1373653
        (10000019, 3, 0),  # below A014233(3) = 25326001
        (1000000000039, 5, 0),  # below A014233(5) = 2152302898747
        (3317044064679887385961981, 13, 1),  # A014233(13): only the Lucas test rejects it
    ],
)
def test_is_prime_runs_the_tests_its_band_needs(monkeypatch, n, strong, lucas):
    calls = Counter()

    def spy(name):
        test = getattr(localzeta.padic, name)
        monkeypatch.setattr(
            localzeta.padic, name, lambda *args: calls.update([name]) or test(*args)
        )

    spy("_is_strong_probable_prime")
    spy("_is_strong_lucas_probable_prime")
    assert is_prime(n) == (n != A014233_COMPOSITES[-1])
    assert calls["_is_strong_probable_prime"] == strong
    assert calls["_is_strong_lucas_probable_prime"] == lucas


def test_strong_lucas_pseudoprimes_below_1e5():
    prime = _sieve(10**5)
    passing = [
        n for n in range(3, 10**5, 2) if not prime[n] and _is_strong_lucas_probable_prime(n)
    ]
    assert passing == list(STRONG_LUCAS_PSEUDOPRIMES)
    assert all(_is_strong_lucas_probable_prime(n) for n in range(3, 10**5, 2) if prime[n])


def _primality_oracle_inputs():
    rng = random.Random(2024)
    yield from range(2 * 10**5)
    for lo, hi in ((10**11, 10**13), (2**64, 2**100)):
        for _ in range(2000):
            yield rng.randrange(lo, hi) | 1
    # Carmichael numbers
    yield from (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041,
                62745, 63973, 75361, 101101, 126217, 172081, 188461, 252601, 278545,
                294409, 314821, 334153, 340561, 399001, 410041, 449065, 488881, 512461)
    yield 2199733160881  # 7 * 13 * 19 * 37 * 73 * 109 * 163, Carmichael
    # squares of primes above the trial-division range
    for q in (43, 47, 1093, 3511, 1000003, 2**31 - 1, 2**61 - 1):
        yield q * q
    yield from (2**61 - 1, 2**89 - 1, 2**127 - 1, (2**89 - 1) * (2**107 - 1))
    yield from A014233_COMPOSITES


def _band_samples():
    """200 random odd n on each side of every term of A014233, within a factor 2."""
    rng = random.Random(23)
    for psi in A014233_COMPOSITES:
        for _ in range(200):
            yield rng.randrange(psi // 2, psi) | 1
            yield rng.randrange(psi + 1, 2 * psi) | 1


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for n in itertools.chain(_primality_oracle_inputs(), _band_samples()):
        assert is_prime(n) == bool(sympy.isprime(n)), n
    from sympy.ntheory.primetest import is_strong_lucas_prp

    for n in range(3, 10**4, 2):
        assert _is_strong_lucas_probable_prime(n) == is_strong_lucas_prp(n), n


def test_vp_examples():
    assert vp(12, PAdicContext(2)) == 2
    assert vp(Fraction(5, 6), PAdicContext(3)) == -1
    assert vp(0, PAdicContext(7)) == INFINITY


def test_residue_examples():
    # 1/2 = 2 + 3 + 9 + 27 + ... at p = 3, and 2 * 41 = 82 = 1 mod 81
    assert residue(Fraction(1, 2), PAdicContext(3), 4) == 41
    assert residue(5, PAdicContext(2), 4) == 5
    assert residue(-1, PAdicContext(5), 3) == 124
    assert residue(0, PAdicContext(5), 5) == 0
    assert residue(Fraction(7, 5), PAdicContext(3), 0) == 0


def test_residue_rejects_negative_valuation():
    with pytest.raises(NegativeValuation):
        residue(Fraction(1, 3), PAdicContext(3), 2)


def test_expansion_round_trip():
    # the residue mod p**m is the p-adic expansion truncated to m digits
    rng = random.Random(7)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        ctx = PAdicContext(p)
        den = rng.randint(1, 60)
        while den % p == 0:
            den = rng.randint(1, 60)
        gamma = Fraction(rng.randint(-200, 200), den)
        m = rng.randint(0, 8)
        r = residue(gamma, ctx, m)
        assert 0 <= r < p**m
        assert vp(gamma - r, ctx) >= m


def test_valuation_is_ultrametric():
    rng = random.Random(11)
    ctx = PAdicContext(3)
    for _ in range(300):
        x = Fraction(rng.randint(-100, 100), rng.randint(1, 50))
        y = Fraction(rng.randint(-100, 100), rng.randint(1, 50))
        assert vp(x * y, ctx) == vp(x, ctx) + vp(y, ctx)
        assert vp(x + y, ctx) >= min(vp(x, ctx), vp(y, ctx))
        if vp(x, ctx) != vp(y, ctx):
            assert vp(x + y, ctx) == min(vp(x, ctx), vp(y, ctx))
