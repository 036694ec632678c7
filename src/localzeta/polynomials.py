"""Polynomial input model: dense/factored forms, parsing, and factorization.

Dense polynomials store exact rational coefficients, constant term first.
Factored polynomials are unit * prod (x - root_i)**mult_i with pairwise
distinct roots, which is the canonical input for everything downstream.
Factorization over Q is complete for the supported input class (all roots
rational) and takes time polynomial in the degree and the coefficient
size; no integer is factored.  Following Loos (SIAM J. Comput. 12, 1983),
the roots of the squarefree part mod the least prime q at which they are
all simple are Newton-lifted q-adically until a bound on the root size is
passed, and each lift is tested exactly.  The count oracle finds its
roots mod p with the same ``roots_mod``: a residue scan for small q and
a self-checking gcd(g, x**q - x) kernel for large q.  ``poly_gcd`` hands
back G = gcd(P, P') with the squarefree part P / G, and a root's
multiplicity is read off G, so P itself is never divided.

A well-formed factored text is read by one regex match per factor; any
other text goes to the token walk, which produces every parse error.
"""

from __future__ import annotations

import math
import random
import re
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import (
    ConstantPolynomial,
    IntegralityError,
    InvariantViolation,
    ParseError,
    SplittingFieldNotQ,
    ZeroPolynomial,
)
from .padic import PAdicContext, is_prime, residue, vp
from .ratfunc import _divide_exact, _primitive, _scaled_value, _trimmed, poly_gcd, poly_trim


# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensePoly:
    """Coefficients c_0..c_d, constant term first, trailing zeros stripped."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", tuple(poly_trim(self.coefficients)))

    @property
    def is_zero(self) -> bool:
        return self.coefficients == (Fraction(0),)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return -1 if self.is_zero else len(self.coefficients) - 1

    def is_integral(self) -> bool:
        """True when every coefficient is an integer."""
        return all(c.denominator == 1 for c in self.coefficients)


def _fraction(x: Fraction | int | str) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class FactoredPoly:
    """unit * prod (x - root)**mult with pairwise distinct roots."""

    unit: Fraction
    roots: tuple[tuple[Fraction, int], ...]

    def __post_init__(self) -> None:
        """Coerce to Fractions, then sort the roots on an integer key.

        With D the largest denominator, a/b sorts on a * D**2 // b.  Two
        distinct roots a/b and c/d differ by at least 1/(b*d) >= 1/D**2,
        so their keys differ by at least 1 and keep their order, while
        equal roots get equal keys and end up adjacent.  The key has about
        twice the bits of D, where a key over the lcm of the denominators
        grows with the number of distinct denominators.
        """
        unit = _fraction(self.unit)
        if unit == 0:
            raise ValueError("unit must be nonzero")
        roots = [(_fraction(r), int(e)) for r, e in self.roots]
        if any(e < 1 for _, e in roots):
            raise ValueError("multiplicities must be >= 1")
        scale = max((r.denominator for r, _ in roots), default=1) ** 2
        keyed = sorted((r.numerator * scale // r.denominator, r, e) for r, e in roots)
        if any(a[0] == b[0] for a, b in zip(keyed, keyed[1:])):
            raise ValueError("roots must be pairwise distinct")
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "roots", tuple((r, e) for _, r, e in keyed))

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.roots)

    def expand(self) -> DensePoly:
        """Multiply the factorization back out.

        The integer factors (b*x - a)**e of the roots a/b are multiplied
        first, and the product is scaled once by unit / prod b**e.
        """
        coeffs, scale = [1], 1
        for root, mult in self.roots:
            a, b = root.numerator, root.denominator
            for _ in range(mult):
                coeffs = [b * hi - a * lo for lo, hi in zip(coeffs + [0], [0] + coeffs)]
            scale *= b**mult
        unit = self.unit / scale
        return DensePoly(tuple(unit * c for c in coeffs))

    def is_integral(self) -> bool:
        """Whether expand() is in Z[x]: by Gauss's lemma, iff unit / prod b**e is an integer."""
        scale = math.prod(root.denominator**mult for root, mult in self.roots)
        return self.unit.numerator % (self.unit.denominator * scale) == 0

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


def require_integral(f: DensePoly | FactoredPoly) -> None:
    """IntegralityError unless f is in Z[x]: counts mod p**m need integer coefficients."""
    if not f.is_integral():
        raise IntegralityError("polynomial does not have integer coefficients")


def as_integer_poly(f: DensePoly | FactoredPoly) -> DensePoly:
    """Dense integer-coefficient form of f, or IntegralityError (tested before expanding)."""
    require_integral(f)
    return f.expand() if isinstance(f, FactoredPoly) else f


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# A token is its text: a maximal run of decimal digits (exactly the digits
# int() reads) or one of x+-*^/(), and the end of input is "".
_TOKEN = re.compile(r"\d+|\S")
_STRAY = re.compile(r"[^\s\dx+\-*^/()]")


class _Parser:
    def __init__(self, text: str):
        stray = _STRAY.search(text)
        if stray:
            raise ParseError(f"unexpected character {stray.group()!r}", stray.start())
        self.text = text
        self.tokens = _TOKEN.findall(text) + [""]
        self.pos = 0

    def where(self, i: int | None = None) -> int:
        """The position of token i (the next one by default), worked out only to raise."""
        starts = [m.start() for m in _TOKEN.finditer(self.text)] + [len(self.text)]
        return starts[self.pos if i is None else i]

    def peek(self) -> str:
        return self.tokens[self.pos]

    def take(self, tok: str, expected: str) -> None:
        if self.tokens[self.pos] != tok:
            raise ParseError(f"expected {expected}", self.where())
        self.pos += 1

    def integer(self, expected: str) -> int:
        """The next integer literal."""
        tok = self.tokens[self.pos]
        if not tok.isdecimal():
            raise ParseError(f"expected {expected}", self.where())
        try:
            value = int(tok)
        except ValueError:  # past the interpreter's int-to-str digit limit
            raise ParseError(
                f"integer literal of {len(tok)} digits is past the limit of "
                f"{sys.get_int_max_str_digits()} digits",
                self.where(),
            ) from None
        self.pos += 1
        return value

    def sign(self) -> int:
        """Consume an optional '+' or '-'; -1 for '-', else 1."""
        tok = self.tokens[self.pos]
        if tok in ("+", "-"):
            self.pos += 1
        return -1 if tok == "-" else 1

    def pair(self) -> tuple[int, int]:
        """The next number as a reduced pair (a, b) with b > 0, meaning a/b."""
        num = self.integer("a number")
        if self.peek() == "/":
            self.pos += 1
            den = self.integer("a denominator")
            if den == 0:
                raise ParseError("zero denominator", self.where(self.pos - 1))
            g = math.gcd(num, den)
            return num // g, den // g
        return num, 1

    def exponent(self) -> int:
        self.take("^", "'^'")
        return self.integer("an exponent")


def _parse_expression(p: _Parser) -> DensePoly:
    coeffs: dict[int, tuple[int, int]] = {}  # degree -> (a, b), meaning a/b
    sign = p.sign()
    while True:
        tok = p.peek()
        if tok.isdecimal():
            c, d = p.pair()
            if p.peek() == "*":
                p.pos += 1
                p.take("x", "'x'")
                k = p.exponent() if p.peek() == "^" else 1
            else:
                k = 0
        elif tok == "x":
            p.pos += 1
            c, d = 1, 1
            k = p.exponent() if p.peek() == "^" else 1
        else:
            raise ParseError("expected a term", p.where())
        a, b = coeffs.get(k, (0, d))
        if b != d:  # over the lcm of the two denominators
            g = math.gcd(b, d)
            a, c, b = a * (d // g), c * (b // g), b // g * d
        coeffs[k] = (a + sign * c, b)
        tok = p.peek()
        if not tok:
            break
        if tok not in ("+", "-"):
            raise ParseError("expected '+', '-' or end of input", p.where())
        sign = p.sign()
    degree = max(coeffs) if coeffs else 0
    return DensePoly(tuple(Fraction(*coeffs.get(k, (0, 1))) for k in range(degree + 1)))


def _parse_factored(p: _Parser) -> FactoredPoly:
    sign = p.sign()
    unit = (sign, 1)
    if p.peek().isdecimal():
        a, b = p.pair()
        unit = (sign * a, b)
        p.take("*", "'*' after the unit")
    roots: dict[tuple[int, int], int] = {}  # reduced (a, b) -> multiplicity
    while True:
        p.take("(", "'('")
        p.take("x", "'x'")
        if p.peek() not in ("+", "-"):
            raise ParseError("expected '-' or '+' inside factor", p.where())
        outer = -p.sign()
        inner = p.sign()
        a, b = p.pair()
        root = (outer * inner * a, b)
        p.take(")", "')'")
        if p.peek() == "^":
            at = p.pos
            mult = p.exponent()
            if mult < 1:
                raise ParseError("factor exponent must be >= 1", p.where(at))
        else:
            mult = 1
        roots[root] = roots.get(root, 0) + mult
        if not p.peek():
            break
        p.take("*", "'*' between factors")
    if unit[0] == 0:
        raise ZeroPolynomial("zero unit")
    return _factored(unit, roots)


# The factored form in one match per factor, with the walk's token classes:
# the optional unit prefix, then (x -/+ a[/b])[^e] followed by '*' or the end.
_UNIT = re.compile(r"\s*([+-]?)\s*(?:(\d+)\s*(?:/\s*(\d+)\s*)?\*)?")
_FACTOR = re.compile(
    r"\s*\(\s*x\s*([+-])\s*(\d+)\s*(?:/\s*(\d+)\s*)?\)\s*(?:\^\s*(\d+)\s*)?(\*|\Z)"
)


def _read_factored(text: str) -> FactoredPoly | None:
    """A well-formed factored text read from its match groups, or None for the walk.

    None is returned where the pattern does not match (any malformed text,
    and a doubled sign such as ``(x - - 1)``, which the walk reads), on an
    int() past the digit limit, a zero denominator, an exponent below 1 and
    a zero unit.  So every error comes from the walk.
    """
    m = _UNIT.match(text)
    sign, num, den = m.groups()
    roots: dict[tuple[int, int], int] = {}  # reduced (a, b) -> multiplicity
    try:
        a, b = int(num or 1), int(den or 1)
        if a == 0 or b == 0:
            return None
        pos, more = m.end(), True
        while more:
            m = _FACTOR.match(text, pos)
            if m is None:
                return None
            op, c, d, e, more = m.groups()
            c, d, mult = int(c), int(d or 1), int(e or 1)
            if d == 0 or mult < 1:
                return None
            g = math.gcd(c, d)
            root = (c // g if op == "-" else -c // g, d // g)
            roots[root] = roots.get(root, 0) + mult
            pos = m.end()
    except ValueError:  # past the interpreter's int-to-str digit limit
        return None
    g = math.gcd(a, b)
    return _factored((-a // g if sign == "-" else a // g, b // g), roots)


def _factored(unit: tuple[int, int], roots: dict[tuple[int, int], int]) -> FactoredPoly:
    """The FactoredPoly of a reduced unit pair and {(a, b): multiplicity}."""
    return FactoredPoly(
        Fraction(*unit),
        tuple((Fraction(a) if b == 1 else Fraction(a, b), e) for (a, b), e in roots.items()),
    )


def parse_poly(text: str) -> DensePoly | FactoredPoly:
    """Parse polynomial text; factored inputs stay factored.

    Expression form: sum of terms ``c``, ``c*x^k``, ``x^k``, ``x`` joined by
    '+'/'-'.  Factored form: optional ``c*`` prefix, then ``(x - c)^k``
    factors joined by '*'.  ``c`` is an integer or ``a/b`` fraction;
    whitespace is ignored.  Duplicate factors are merged on the reduced
    value, so ``(x - 1/2)*(x - 2/4)`` is ``(x - 1/2)^2``.

    A well-formed factored text is read by one regex match per factor.
    Anything else goes to the token walk, which produces every
    ``ParseError`` (with its position) and every ``ZeroPolynomial``.
    """
    if "(" in text:
        f = _read_factored(text)
        if f is not None:
            return f
    parser = _Parser(text)
    result = _parse_factored(parser) if "(" in parser.tokens else _parse_expression(parser)
    parser.take("", "end of input")
    return result


# ---------------------------------------------------------------------------
# rational-root factorization
# ---------------------------------------------------------------------------


def _value_mod(ints: list[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(ints):
        acc = (acc * x + c) % m
    return acc


def roots_mod(coeffs: list[int], q: int) -> Iterator[int]:
    """The roots mod the prime q of coeffs (constant term first), ascending and one at a time.

    Below _KERNEL_FROM Horner's rule runs on each of the q residues.  From
    there on the roots are the split linear factors of gcd(g, x**q - x),
    g = coeffs mod q (``_kernel_roots``), at O(d**2 log q) steps for g of
    degree d in place of O(d q).  The zero polynomial has every residue.
    """
    if q >= _KERNEL_FROM:
        yield from _kernel_roots(coeffs, q)
        return
    cs = [c % q for c in reversed(coeffs)]
    for x in range(q):
        acc = 0
        for c in cs:
            acc = (acc * x + c) % q
        if not acc:
            yield x


# per call the kernel beats the scan from q = 200-500 at degree <= 8, but only
# near q = 1000 on g of degree 25 with 25 roots mod q, as the root search's s is
_KERNEL_FROM = 1000


def _kernel_roots(coeffs: list[int], q: int) -> list[int] | range:
    """The roots of coeffs mod the prime q, ascending, checked before they are returned.

    Rabin (SIAM J. Comput. 9, 1980) and Cantor and Zassenhaus (Math. Comp.
    36, 1981): for monic g mod q, h = gcd(g, x**q - x) is the product of
    x - r over the distinct roots r, x**q mod g coming from repeated
    squaring.  h splits as gcd(h, (x + a)**((q - 1)/2) - 1) times the
    quotient for some a mod q, drawn from a fixed seed, and each part is
    split again until it is linear.  deg h = q only for h = x**q - x.  The
    roots must number deg h and each must be a root of coeffs by Horner's
    rule, or InvariantViolation is raised: the kernel never miscounts in
    silence.
    """
    g = _trimmed_mod(coeffs, q)
    if len(g) == 1:
        return range(q) if g[0] == 0 else []
    g = _monic(g, q)
    xq = _pow_shifted(0, q, g, q) + [0, 0]  # x**q - x mod g, with room for the x term
    xq[1] -= 1
    h = _gcd_mod(g, xq, q)
    pending, roots, rng = [h], [], random.Random(0)
    while pending:
        part = pending.pop()
        d = len(part) - 1
        if d == q:
            roots.extend(range(q))
        elif d == 1:
            roots.append(-part[0] % q)
        elif d > 1:
            while True:
                w = _pow_shifted(rng.randrange(q), (q - 1) // 2, part, q)
                w[0] -= 1
                factor = _gcd_mod(part, w, q)
                if 1 < len(factor) < len(part):
                    pending += [factor, _divmod_mod(part, factor, q)[0]]
                    break
    roots.sort()
    if len(roots) != len(h) - 1 or len(set(roots)) != len(roots) or any(
        _value_mod(coeffs, r, q) for r in roots
    ):
        raise InvariantViolation(f"roots_mod: the roots {roots[:8]} do not split gcd(g, x^q - x) mod {q}")
    return roots


def _trimmed_mod(coeffs: list[int], q: int) -> list[int]:
    return _trimmed([c % q for c in coeffs] or [0])


def _monic(g: list[int], q: int) -> list[int]:
    inv = pow(g[-1], -1, q)
    return [c * inv % q for c in g]


def _divmod_mod(a: list[int], g: list[int], q: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by the monic g mod q, the remainder trimmed."""
    a, d = list(a), len(g) - 1
    quot = [0] * max(len(a) - d, 1)
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i] % q
        if c:
            quot[i - d] = c
            a[i - d : i] = [x - c * y for x, y in zip(a[i - d : i], g)]
    return quot, _trimmed_mod(a[:d], q)


def _gcd_mod(a: list[int], b: list[int], q: int) -> list[int]:
    """The monic gcd of a and b mod q, a nonzero."""
    a, b = _monic(_trimmed_mod(a, q), q), _trimmed_mod(b, q)
    while b != [0]:
        b = _monic(b, q)
        a, b = b, _divmod_mod(a, b, q)[1]
    return a


def _pow_shifted(a: int, e: int, g: list[int], q: int) -> list[int]:
    """(x + a)**e mod the monic g mod q, e >= 1, by left-to-right squaring."""
    acc = _divmod_mod([a, 1], g, q)[1]
    for bit in bin(e)[3:]:
        square = [0] * (2 * len(acc) - 1)
        for i, x in enumerate(acc):
            if x:
                for j, y in enumerate(acc, i):
                    square[j] += x * y
        acc = _divmod_mod(square, g, q)[1]
        if bit == "1":  # times x + a: one shift and one reduction step
            acc = _divmod_mod([a * c + b for b, c in zip([0, *acc], [*acc, 0])], g, q)[1]
    return acc


def _simple_roots_mod(s: list[int], ds: list[int]) -> tuple[int, list[int]]:
    """The least prime q with every root of s mod q simple, and those roots.

    q must not divide lc(s) either.  Such a q exists for squarefree s,
    since the primes that fail divide lc(s) * disc(s) != 0.
    """
    q = 1
    while True:
        q += 1
        if not is_prime(q) or s[-1] % q == 0:
            continue
        dcs = [c % q for c in ds]  # reduced once, not at every root
        roots = []
        for x in roots_mod(s, q):
            if _value_mod(dcs, x, q) == 0:
                break  # a multiple root mod q: try the next prime
            roots.append(x)
        else:
            return q, roots


def _lift_root(s: list[int], ds: list[int], rho: int, q: int) -> Fraction | None:
    """The rational root of s congruent to the simple root rho mod q, if any.

    Newton's iteration doubles the q-adic precision of rho.  A rational
    root a/b of the primitive s has b | lc, so lc*a/b is an integer, and
    by Cauchy's bound |lc*a/b| <= |lc| + max|s_i|; once q**k exceeds twice
    that, the symmetric residue of lc*x mod q**k is lc*a/b itself.  Each
    precision tests its candidate exactly, so the search stops at the
    first hit: a simple root mod q has exactly one q-adic lift.
    """
    lc = s[-1]
    bound = 2 * (abs(lc) + max(map(abs, s)))
    x, m = rho, q
    while True:
        y = lc * x % m
        if 2 * y > m:
            y -= m
        if _scaled_value(s, y, lc) == 0:
            return Fraction(y, lc)
        if m > bound:
            return None
        m *= m
        x = (x - _value_mod(s, x, m) * pow(_value_mod(ds, x, m), -1, m)) % m


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
    zeros = next(i for i, c in enumerate(f.coefficients) if c)
    roots: list[tuple[Fraction, int]] = [(Fraction(0), zeros)] if zeros else []
    work = _primitive(f.coefficients[zeros:])
    left = len(work) - 1  # the degree no root found so far accounts for
    if left:
        # The roots of P, the primitive integer form, are those of its
        # squarefree part S = P / G, G = gcd(P, P'), whose roots mod a
        # suitable prime q are simple and so lift q-adically (see
        # _lift_root).  A root a/b of multiplicity e in P has multiplicity
        # e - 1 in G, so e is 1 plus the number of times G divides by
        # (b*x - a); by Gauss's lemma each quotient stays in Z[x].
        g, s, _ = poly_gcd(work, [i * c for i, c in enumerate(work)][1:])
        ds = [i * c for i, c in enumerate(s)][1:]
        q, residues = _simple_roots_mod(s, ds)
        for rho in residues:
            root = _lift_root(s, ds, rho, q)
            if root is None:
                continue
            factor, mult = [-root.numerator, root.denominator], 1
            while (quotient := _divide_exact(g, factor)) is not None:
                g, mult = quotient, mult + 1
            roots.append((root, mult))
            left -= mult
    if left:
        raise SplittingFieldNotQ(f"a degree-{left} factor has no rational roots")
    return FactoredPoly(unit, tuple(roots))


# ---------------------------------------------------------------------------
# reduction to integral roots; the separation depth in O(r * l_f) residue steps
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
        if root.denominator % ctx.p:  # reduced, so v_p < 0 iff p | denominator
            keep.append((root, mult))
        else:
            shift += mult * vp(root, ctx)
    if unit_v == 0 and len(keep) == len(f.roots):
        return ReducedInput(0, f)
    unit = f.unit / Fraction(ctx.p) ** unit_v
    return ReducedInput(int(shift), FactoredPoly(unit, tuple(keep)))


def _separation_depth(roots: tuple[tuple[Fraction, int], ...], ctx: PAdicContext) -> int:
    """A bound on l_f that needs no root pairs: least k >= 1 with p**k > 2*N*D.

    For a = n/d and b = n'/d' with p prime to d and d',
    v_p(a - b) <= v_p(n*d' - n'*d) <= log_p(2*N*D), where N and D are the
    largest |numerator| and denominator, so 1 + max v_p(a - b) <= k.
    """
    n = max((abs(r.numerator) for r, _ in roots), default=0)
    d = max((r.denominator for r, _ in roots), default=1)
    k, power = 1, ctx.p
    while power <= 2 * n * d:
        k, power = k + 1, power * ctx.p
    return k


def compute_lf(fplus: FactoredPoly, ctx: PAdicContext) -> int:
    """Depth at which the roots separate: 1 + max v_p(a_i - a_j), or 1 if r < 2.

    Reduce first (v_p < 0 raises ``NegativeValuation``).  Level m keeps the
    residues mod p**k, k = ``_separation_depth``, that share a class mod p**m.
    """
    k = _separation_depth(fplus.roots, ctx)
    xs = [residue(r, ctx, k) for r, _ in fplus.roots]
    for level in range(1, k + 1):
        q = ctx.p**level
        sizes = Counter(x % q for x in xs)
        xs = [x for x in xs if sizes[x % q] > 1]
        if not xs:
            return level
    raise InvariantViolation(f"compute_lf: roots share a class mod {ctx.p}^{k}")
