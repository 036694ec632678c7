"""Polynomial input model: dense/factored forms, parsing, and factorization.

Dense polynomials store exact rational coefficients, constant term first.
Factored polynomials are unit * prod (x - root_i)**mult_i with pairwise
distinct roots, which is the canonical input for everything downstream.
Factorization over Q is complete for the supported input class (all roots
rational): candidates a/b with a dividing the primitive integer form's
constant coefficient, b its leading coefficient and |a/b| within
Fujiwara's root bound are tested smallest first, in integers, and divided
out to full multiplicity.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CandidateOverflow,
    ConstantPolynomial,
    IntegralityError,
    ParseError,
    SplittingFieldNotQ,
    ZeroPolynomial,
)
from .padic import PAdicContext, is_prime, vp

PAIR_CAP = 10**6  # candidate (numerator, denominator) pairs tried before giving up
_SMALL_CANDIDATE = 1000  # phase-1 direct divisor scan bound
_RHO_BUDGET = 1 << 21


# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensePoly:
    """Coefficients c_0..c_d, constant term first, trailing zeros stripped."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        cs = [Fraction(c) for c in self.coefficients]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        object.__setattr__(self, "coefficients", tuple(cs))

    @property
    def is_zero(self) -> bool:
        return self.coefficients == (Fraction(0),)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return -1 if self.is_zero else len(self.coefficients) - 1

    def __call__(self, x: Fraction | int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def is_integral(self) -> bool:
        """True when every coefficient is an integer."""
        return all(c.denominator == 1 for c in self.coefficients)


@dataclass(frozen=True)
class FactoredPoly:
    """unit * prod (x - root)**mult with pairwise distinct roots."""

    unit: Fraction
    roots: tuple[tuple[Fraction, int], ...]

    def __post_init__(self) -> None:
        unit = Fraction(self.unit)
        if unit == 0:
            raise ValueError("unit must be nonzero")
        roots = tuple(
            sorted((Fraction(r), int(e)) for r, e in self.roots)
        )
        if any(e < 1 for _, e in roots):
            raise ValueError("multiplicities must be >= 1")
        if len({r for r, _ in roots}) != len(roots):
            raise ValueError("roots must be pairwise distinct")
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "roots", roots)

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.roots)

    def expand(self) -> DensePoly:
        """Multiply the factorization back out."""
        coeffs = [self.unit]
        for root, mult in self.roots:
            for _ in range(mult):
                coeffs = [Fraction(0)] + coeffs
                for i in range(len(coeffs) - 1):
                    coeffs[i] -= root * coeffs[i + 1]
        return DensePoly(tuple(coeffs))

    def __call__(self, x: Fraction | int) -> Fraction:
        value = self.unit
        for root, mult in self.roots:
            value *= (Fraction(x) - root) ** mult
        return value


@dataclass(frozen=True)
class ReducedInput:
    """Non-integral content split off as a t-power: Z(t,f) = t**shift * Z(t,fplus)."""

    shift: int
    fplus: FactoredPoly


def as_integer_poly(f: DensePoly | FactoredPoly) -> DensePoly:
    """Dense integer-coefficient form of f, or IntegralityError.

    Solution counts modulo p**m are defined only for integer coefficients.
    """
    dense = f.expand() if isinstance(f, FactoredPoly) else f
    if not dense.is_integral():
        raise IntegralityError("polynomial does not have integer coefficients")
    return dense


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN_CHARS = {"+", "-", "*", "^", "/", "(", ")"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch == "x":
            tokens.append(("x", ch, i))
            i += 1
        elif ch in _TOKEN_CHARS:
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self, kind: str, expected: str) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(f"expected {expected}", tok[2])
        self.pos += 1
        return tok

    def number(self, allow_sign: bool = False) -> Fraction:
        sign = 1
        if allow_sign and self.peek()[0] in ("+", "-"):
            if self.peek()[0] == "-":
                sign = -1
            self.pos += 1
        num = int(self.take("int", "a number")[1])
        if self.peek()[0] == "/":
            self.pos += 1
            tok = self.take("int", "a denominator")
            den = int(tok[1])
            if den == 0:
                raise ParseError("zero denominator", tok[2])
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    def exponent(self) -> int:
        self.take("^", "'^'")
        return int(self.take("int", "an exponent")[1])


def _parse_expression(p: _Parser) -> DensePoly:
    coeffs: dict[int, Fraction] = {}
    sign = 1
    if p.peek()[0] in ("+", "-"):
        sign = -1 if p.peek()[0] == "-" else 1
        p.pos += 1
    while True:
        tok = p.peek()
        if tok[0] == "int":
            c = p.number()
            if p.peek()[0] == "*":
                p.pos += 1
                p.take("x", "'x'")
                k = p.exponent() if p.peek()[0] == "^" else 1
            else:
                k = 0
        elif tok[0] == "x":
            p.pos += 1
            c = Fraction(1)
            k = p.exponent() if p.peek()[0] == "^" else 1
        else:
            raise ParseError("expected a term", tok[2])
        coeffs[k] = coeffs.get(k, Fraction(0)) + sign * c
        tok = p.peek()
        if tok[0] == "end":
            break
        if tok[0] in ("+", "-"):
            sign = -1 if tok[0] == "-" else 1
            p.pos += 1
        else:
            raise ParseError("expected '+', '-' or end of input", tok[2])
    degree = max(coeffs) if coeffs else 0
    return DensePoly(tuple(coeffs.get(k, Fraction(0)) for k in range(degree + 1)))


def _parse_factored(p: _Parser) -> FactoredPoly:
    unit = Fraction(1)
    if p.peek()[0] in ("+", "-"):
        unit = -unit if p.peek()[0] == "-" else unit
        p.pos += 1
    if p.peek()[0] == "int":
        unit *= p.number()
        p.take("*", "'*' after the unit")
    roots: dict[Fraction, int] = {}
    while True:
        p.take("(", "'('")
        p.take("x", "'x'")
        tok = p.peek()
        if tok[0] not in ("+", "-"):
            raise ParseError("expected '-' or '+' inside factor", tok[2])
        outer = -1 if tok[0] == "+" else 1
        p.pos += 1
        root = outer * p.number(allow_sign=True)
        p.take(")", "')'")
        if p.peek()[0] == "^":
            tok = p.peek()
            mult = p.exponent()
            if mult < 1:
                raise ParseError("factor exponent must be >= 1", tok[2])
        else:
            mult = 1
        roots[root] = roots.get(root, 0) + mult
        tok = p.peek()
        if tok[0] == "end":
            break
        p.take("*", "'*' between factors")
    if unit == 0:
        raise ZeroPolynomial("zero unit")
    return FactoredPoly(unit, tuple(roots.items()))


def parse_poly(text: str) -> DensePoly | FactoredPoly:
    """Parse polynomial text; factored inputs stay factored.

    Expression form: sum of terms ``c``, ``c*x^k``, ``x^k``, ``x`` joined by
    '+'/'-'.  Factored form: optional ``c*`` prefix, then ``(x - c)^k``
    factors joined by '*'.  ``c`` is an integer or ``a/b`` fraction;
    whitespace is ignored.  Duplicate factors are merged.
    """
    parser = _Parser(text)
    factored = any(tok[0] == "(" for tok in parser.tokens)
    result = _parse_factored(parser) if factored else _parse_expression(parser)
    parser.take("end", "end of input")
    return result


# ---------------------------------------------------------------------------
# rational-root factorization
# ---------------------------------------------------------------------------


def _scaled_value(ints: list[int], a: int, b: int) -> int:
    """b**d * P(a/b) for the integer polynomial P of degree d."""
    acc = ints[-1]
    scale = 1
    for c in reversed(ints[:-1]):
        scale *= b
        acc = acc * a + c * scale
    return acc


def _values_at_one(ints: list[int]) -> tuple[int, int]:
    """(P(1), P(-1)) for the integer polynomial P."""
    return sum(ints), sum(ints[0::2]) - sum(ints[1::2])


def _divide_linear(ints: list[int], a: int, b: int) -> list[int]:
    """P / (b*x - a) for an integer P with P(a/b) = 0 and b*x - a primitive."""
    quotient = [0] * (len(ints) - 1)
    acc = 0
    for i in range(len(ints) - 1, 0, -1):
        acc = (ints[i] + a * acc) // b
        quotient[i - 1] = acc
    return quotient


def _brent_rho(n: int) -> int:
    """A nontrivial factor of composite odd n, or 0 if the budget runs out."""
    if n % 2 == 0:
        return 2
    for c in range(1, 20):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = 0
        steps = 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
            steps += r
            if steps > _RHO_BUDGET:
                return 0
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    return 0


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1; CandidateOverflow if infeasible."""
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    f = 7
    increments = itertools.cycle((4, 2, 4, 2, 4, 6, 2, 6))
    while f * f <= n and f < 10**4:
        while n % f == 0:
            factors[f] = factors.get(f, 0) + 1
            n //= f
        f += next(increments)
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _brent_rho(m)
        if d in (0, m):
            raise CandidateOverflow(f"cannot factor {m} to enumerate root candidates")
        stack.append(d)
        stack.append(m // d)
    return factors


def _divisors_upto(factors: dict[int, int], limit: int) -> list[int]:
    """Sorted divisors d <= limit, pruned as they are built.

    Stops with CandidateOverflow once more than PAIR_CAP divisors qualify,
    so a full divisor set of 2**k (k distinct primes) is never formed.
    """
    out = [1]
    for p, e in factors.items():
        grown = []
        for d in out:
            for _ in range(e + 1):
                if d > limit:
                    break
                grown.append(d)
                d *= p
        if len(grown) > PAIR_CAP:
            raise CandidateOverflow(
                f"more than {PAIR_CAP} divisors up to {limit}"
            )
        out = grown
    return sorted(out)


def _small_divisors(n: int, bound: int) -> list[int]:
    return [d for d in range(1, min(n, bound) + 1) if n % d == 0] or [1]


def _iroot_ceil(n: int, k: int) -> int:
    """The least r >= 0 with r**k >= n."""
    if n <= 1:
        return max(n, 0)
    r = 1 << -(-n.bit_length() // k)  # r**k > n
    while True:  # integer Newton from above converges to floor(n**(1/k))
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            break
        r = s
    return r if r**k >= n else r + 1


def _root_bound(ints: list[int]) -> int:
    """An integer B with |z| <= B for every complex root z (Fujiwara's bound).

    B = 2 * max(|c_{d-1}/c_d|, |c_{d-2}/c_d|**(1/2), ..., |c_0/(2 c_d)|**(1/d)),
    with each term rounded up to an integer.
    """
    d = len(ints) - 1
    lead = abs(ints[-1])
    best = 0
    for i in range(1, d + 1):
        scale = 2 * lead if i == d else lead
        best = max(best, _iroot_ceil(-(-abs(ints[d - i]) // scale), i))
    return 2 * best


def _candidate_values(ints: list[int]):
    """Positive candidate roots (a, b), coprime, a | c_0, b | c_d, small a/b first.

    Only pairs with a/b within the root bound are produced.  Phase 1 scans
    divisors up to a fixed bound without factoring anything; phase 2
    (reached only when phase 1 was not enough) factors c_0 and c_d and
    builds only the divisors of c_0 up to the root bound times the largest
    divisor of c_d, so only pairs that could be roots count against the
    pair cap.
    """
    c0, cd = abs(ints[0]), abs(ints[-1])
    bound = _root_bound(ints)
    tried = 0

    def pairs(nums, dens, skip_small):
        nonlocal tried
        values = []
        for b in dens:
            for a in nums:  # ascending
                if a > bound * b:
                    break
                if math.gcd(a, b) != 1:
                    continue
                if skip_small and a <= _SMALL_CANDIDATE and b <= _SMALL_CANDIDATE:
                    continue
                values.append((a, b))
        # distinct a/b with b <= D differ by at least 1/D**2, so scaling by
        # 2*D**2 and flooring keeps their order exactly
        scale = 2 * max(dens) ** 2
        values.sort(key=lambda ab: ab[0] * scale // ab[1])
        for value in values:
            tried += 1
            if tried > PAIR_CAP:
                raise CandidateOverflow(
                    f"more than {PAIR_CAP} root candidates; giving up"
                )
            yield value

    yield from pairs(_small_divisors(c0, _SMALL_CANDIDATE),
                     _small_divisors(cd, _SMALL_CANDIDATE), False)
    dens = _divisors_upto(_factorize(cd), cd)
    nums = _divisors_upto(_factorize(c0), bound * dens[-1])
    if sum(bisect.bisect_right(nums, bound * b) for b in dens) > PAIR_CAP:
        raise CandidateOverflow(
            f"more than {PAIR_CAP} divisor pairs of {c0} and {cd} "
            f"below the root bound {bound}"
        )
    yield from pairs(nums, dens, True)


def _primitive_integer_form(coeffs: list[Fraction]) -> list[int]:
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in coeffs]
    g = 0
    for c in ints:
        g = math.gcd(g, abs(c))
    return [c // g for c in ints]


def find_rational_roots(f: DensePoly) -> FactoredPoly:
    """Complete factorization unit * prod (x - a_i)**e_i over Q.

    Raises SplittingFieldNotQ when a nonconstant factor with no rational
    root remains, so a successful return always accounts for the full
    degree.
    """
    if f.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if f.degree == 0:
        raise ConstantPolynomial("cannot factor a constant polynomial")
    unit = f.coefficients[-1]
    roots: list[tuple[Fraction, int]] = []
    work = list(f.coefficients)
    zeros = 0
    while work[0] == 0:
        work.pop(0)
        zeros += 1
    if zeros:
        roots.append((Fraction(0), zeros))
    if len(work) > 1:
        # Test a/b on the primitive integer form P by b**d * P(a/b) = 0 and
        # divide by (b*x - a); by Gauss's lemma each quotient is again a
        # primitive integer polynomial.  So P = (b*x - a) * Q with Q in Z[x],
        # and a root needs (b - a) | P(1) and (b + a) | P(-1): two integer
        # remainders that drop most candidates before the Horner test.
        work = _primitive_integer_form(work)
        at_one, at_minus_one = _values_at_one(work)
        for num, b in _candidate_values(work):
            for a in (num, -num):
                # a/b = 1 or -1 makes a divisor 0; that test is skipped
                if at_one % (b - a or 1) or at_minus_one % (b + a or 1):
                    continue
                mult = 0
                while len(work) > 1 and _scaled_value(work, a, b) == 0:
                    work = _divide_linear(work, a, b)
                    mult += 1
                if mult:
                    roots.append((Fraction(a, b), mult))
                    at_one, at_minus_one = _values_at_one(work)
            if len(work) == 1:
                break
    if len(work) > 1:
        raise SplittingFieldNotQ(
            f"a degree-{len(work) - 1} factor has no rational roots"
        )
    return FactoredPoly(unit, tuple(roots))


# ---------------------------------------------------------------------------
# reduction to integral roots and the separation depth
# ---------------------------------------------------------------------------


def reduce_to_integral_roots(
    f: DensePoly | FactoredPoly, ctx: PAdicContext
) -> ReducedInput:
    """Factor f if dense, then split off roots with v_p < 0.

    Those roots contribute absolute values that are constant on Z_p, so
    the returned shift satisfies Z(t, f) = t**shift * Z(t, fplus), and
    fplus keeps exactly the roots with v_p >= 0 (and the prime-to-p part
    of the unit).
    """
    if isinstance(f, DensePoly):
        f = find_rational_roots(f)
    unit_v = vp(f.unit, ctx)
    shift = unit_v
    keep = []
    for root, mult in f.roots:
        v = vp(root, ctx)
        if v < 0:
            shift += mult * v
        else:
            keep.append((root, mult))
    unit = f.unit / Fraction(ctx.p) ** unit_v
    return ReducedInput(int(shift), FactoredPoly(unit, tuple(keep)))


def compute_lf(fplus: FactoredPoly, ctx: PAdicContext) -> int:
    """Depth at which the roots separate: 1 + max v_p(a_i - a_j), or 1 if r < 2."""
    rs = [r for r, _ in fplus.roots]
    if len(rs) < 2:
        return 1
    best = max(vp(a - b, ctx) for a, b in itertools.combinations(rs, 2))
    return 1 + best
