"""Exact p-adic primitives over arbitrary-precision rationals.

A rational x = a/b is handled through its p-adic order
v_p(x) = v_p(a) - v_p(b), with |x|_p = p**(-v_p(x)).  The order of zero is
the explicit sentinel ``INFINITY`` (never a large integer).  A rational
whose denominator is coprime to p is a p-adic integer, and ``residue``
reduces it modulo p**m with one modular inverse; that residue is all the
tree and the residue recursion read from a root.

The prime is validated once, when a context is built (``is_prime``): the
check runs only the strong tests that are a proof at the size of p, up to
3317044064679887385961981, and the Baillie-PSW test from that bound up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidPrime, NegativeValuation

#: Sentinel value of v_p(0).
INFINITY = math.inf

# The first 13 primes: trial divisors and strong-test bases alike.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# OEIS A014233: the k-th entry is the least strong pseudoprime to the first
# k prime bases (Jaeschke, Math. Comp. 61, 1993; Sorenson and Webster,
# Math. Comp. 86, 2017), so below it strong tests to those k bases are a proof.
_A014233 = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)


def _is_strong_probable_prime(n: int, a: int) -> bool:
    """Strong (Miller-Rabin) test of odd n > a to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _is_strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test of odd n > 2 with Selfridge's parameters.

    D is the first of 5, -7, 9, -11, ... with Jacobi symbol (D/n) = -1,
    P = 1 and Q = (1 - D)/4; writing n + 1 = d * 2**s with d odd, n passes
    when U_d = 0 or V_{d*2**r} = 0 (mod n) for some 0 <= r < s.  Squares
    fail (no such D exists), and so does n sharing a factor with some D.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while True:
        g = math.gcd(D, n)
        if 1 < g < n:
            return False
        if _jacobi(D, n) == -1:
            break
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # binary ladder over the bits of d: (U_k, V_k, Q**k) with P = 1
    u, v, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = u + v, D * u + v
            u = (u + n if u % 2 else u) // 2 % n
            v = (v + n if v % 2 else v) // 2 % n
            qk = qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality by trial division, strong tests and a strong Lucas test.

    After trial division by the primes up to 41, n takes strong tests to
    the first k of those bases, for the least k with n < A014233(k): a
    proof, at 5 tests near 10**12.  From 3317044064679887385961981 up, n
    takes all 13 and one strong Lucas test with Selfridge's parameters,
    the Baillie-PSW test, which has no known counterexample.
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    for a, bound in zip(_SMALL_PRIMES, _A014233):
        if not _is_strong_probable_prime(n, a):
            return False
        if n < bound:
            return True
    return _is_strong_lucas_probable_prime(n)


@dataclass(frozen=True)
class PAdicContext:
    """A fixed prime p; every valuation and residue is relative to it."""

    p: int

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or self.p < 2 or not is_prime(self.p):
            raise InvalidPrime(f"modulus must be prime, got {self.p!r}")


def _int_vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp(x: Fraction | int, ctx: PAdicContext) -> int | float:
    """p-adic order of x; ``INFINITY`` when x = 0."""
    x = Fraction(x)
    if x == 0:
        return INFINITY
    return _int_vp(x.numerator, ctx.p) - _int_vp(x.denominator, ctx.p)


def residue(x: Fraction | int, ctx: PAdicContext, m: int) -> int:
    """x modulo p**m, in {0, ..., p**m - 1}, for x with v_p(x) >= 0.

    Writing x = a/b with p coprime to b, the residue is a * b**-1 mod p**m,
    the unique r in range with v_p(x - r) >= m.
    """
    a, b = x.numerator, x.denominator
    if b % ctx.p == 0:
        raise NegativeValuation(f"v_{ctx.p}({x}) < 0, no residue mod {ctx.p}^{m}")
    q = ctx.p**m
    return a * pow(b, -1, q) % q
