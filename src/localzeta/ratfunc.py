"""Exact rational functions in one variable t over the integers.

Polynomials are coefficient sequences, constant term first.  The canonical
form of a rational function clears all denominators, removes the
polynomial gcd over Q, divides out the joint integer content, and makes
the lowest-order nonzero denominator coefficient positive — so two equal
functions have bit-identical representations, and cross-multiplied
equality is available for everything else.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import CapExceeded, InvariantViolation, PoleAtPoint

Coeffs = Sequence[Fraction | int]


def _trimmed(out: list) -> list:
    """out without its trailing zeros, keeping at least one coefficient."""
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def poly_trim(coeffs: Coeffs) -> list[Fraction]:
    return _trimmed([Fraction(c) for c in coeffs] or [Fraction(0)])


def poly_is_zero(coeffs: Coeffs) -> bool:
    return all(c == 0 for c in coeffs)


def poly_add(a: Coeffs, b: Coeffs) -> list:
    """a + b, with coefficients of the inputs' type: ints in, ints out."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trimmed(out or [0])


def poly_mul(a: Coeffs, b: Coeffs) -> list:
    """a * b, with coefficients of the inputs' type: ints in, ints out."""
    zero = 0 * a[0] * b[0] if a and b else 0
    if poly_is_zero(a) or poly_is_zero(b):
        return [zero]
    out = [zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trimmed(out)


def poly_eval(a: Coeffs, x: Fraction | int) -> Fraction | int:
    """a(x) by Horner's rule, an int for integer coefficients at an integer x."""
    acc = 0
    for c in reversed(list(a)):
        acc = acc * x + c
    return acc


def _primitive(coeffs: Coeffs) -> list[int]:
    """Integer multiple of coeffs with content 1 and positive leading coefficient."""
    lcm = math.lcm(*(c.denominator for c in coeffs))
    ints = _trimmed([c.numerator * (lcm // c.denominator) for c in coeffs])
    g = math.gcd(*ints) or 1
    if ints[-1] < 0:
        g = -g
    return [c // g for c in ints]


def _divide_exact(a: list[int], b: list[int]) -> list[int] | None:
    """a / b in Z[x] when b divides a there, else None; a and b nonzero."""
    rem = list(a)
    quot = [0] * (len(a) - len(b) + 1)
    for i in reversed(range(len(quot))):
        q, r = divmod(rem[i + len(b) - 1], b[-1])
        if r:
            return None
        quot[i] = q
        for j, c in enumerate(b):
            rem[i + j] -= q * c
    return None if not quot or any(rem) else quot


def _scaled_value(ints: list[int], a: int, b: int) -> int:
    """b**d * P(a/b) for the integer polynomial P of degree d."""
    acc = ints[-1]
    scale = 1
    for c in reversed(ints[:-1]):
        scale *= b
        acc = acc * a + c * scale
    return acc


def poly_gcd(a: Coeffs, b: Coeffs) -> tuple[list[int], list[int], list[int]]:
    """(G, x/G, y/G): the gcd over Q of the primitive forms x, y of a, b.

    G is primitive over Z with positive leading coefficient.  Heuristic gcd
    (GCDHEU; Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989): with
    xi >= 2*min(|x|, |y|) + 2 (max norms), read gcd(x(xi), y(xi)) as
    symmetric base-xi digits.  If the primitive part G of that polynomial
    divides both x and y, G is their gcd, proved by the quotients returned
    with it.  Otherwise the spurious factor divides the resultant of the
    cofactors, so a large enough xi succeeds and xi grows without a cap.
    """
    if poly_is_zero(a):
        return ([1], [0], [0]) if poly_is_zero(b) else (_primitive(b), [0], [1])
    if poly_is_zero(b):
        return _primitive(a), [1], [0]
    x, y = _primitive(a), _primitive(b)
    xi = 2 * min(max(map(abs, x)), max(map(abs, y))) + 2
    while True:
        gamma = math.gcd(_scaled_value(x, xi, 1), _scaled_value(y, xi, 1))
        digits = []
        while gamma:
            d = gamma % xi
            if 2 * d > xi:
                d -= xi
            digits.append(d)
            gamma = (gamma - d) // xi
        g = _primitive(digits)
        qx, qy = (x, y) if len(g) == 1 else (_divide_exact(x, g), _divide_exact(y, g))
        if qx is not None and qy is not None:
            return g, qx, qy
        xi = 2 * xi + 1


@dataclass(frozen=True)
class RationalFunctionT:
    """A rational function over Q: integer coefficients, constant term first.

    Values produced by make_ratfunc are canonical.
    """

    numerator: tuple[int, ...]
    denominator: tuple[int, ...]


def make_ratfunc(num: Coeffs, den: Coeffs) -> RationalFunctionT:
    """Canonical rational function from rational coefficient sequences.

    Every step scales numerator and denominator jointly, so the value is
    preserved exactly.
    """
    n = poly_trim(num)
    d = poly_trim(den)
    if poly_is_zero(d):
        raise ZeroDivisionError("zero denominator")
    if poly_is_zero(n):
        return RationalFunctionT((0,), (1,))
    lcm = math.lcm(*(c.denominator for c in n + d))
    ni = [int(c * lcm) for c in n]
    di = [int(c * lcm) for c in d]
    g, _, _ = poly_gcd(ni, di)
    if len(g) > 1:
        # Gauss: a primitive divisor over Q divides in Z[x] as well
        qn, qd = _divide_exact(ni, g), _divide_exact(di, g)
        if qn is None or qd is None:
            raise InvariantViolation("make_ratfunc: the gcd does not divide exactly in Z[x]")
        ni, di = qn, qd
    scale = math.gcd(*ni, *di)
    if next(x for x in di if x != 0) < 0:
        scale = -scale
    ni = [x // scale for x in ni]
    di = [x // scale for x in di]
    return RationalFunctionT(tuple(ni), tuple(di))


def rf_equal(r1: RationalFunctionT, r2: RationalFunctionT) -> bool:
    """True iff n1*d2 = n2*d1 as integer polynomials."""
    lhs = poly_mul(r1.numerator, r2.denominator)
    rhs = poly_mul(r2.numerator, r1.denominator)
    return lhs == rhs


def rf_eval(r: RationalFunctionT, t0: Fraction | int) -> Fraction:
    """Exact evaluation; PoleAtPoint when the denominator vanishes."""
    den = poly_eval(r.denominator, t0)
    if den == 0:
        raise PoleAtPoint(f"pole at t = {t0}")
    return Fraction(poly_eval(r.numerator, t0), den)


def rf_add(r1: RationalFunctionT, r2: RationalFunctionT) -> RationalFunctionT:
    return make_ratfunc(
        poly_add(
            poly_mul(r1.numerator, r2.denominator),
            poly_mul(r2.numerator, r1.denominator),
        ),
        poly_mul(r1.denominator, r2.denominator),
    )


def rf_mul(r1: RationalFunctionT, r2: RationalFunctionT) -> RationalFunctionT:
    return make_ratfunc(
        poly_mul(r1.numerator, r2.numerator),
        poly_mul(r1.denominator, r2.denominator),
    )


def rf_from_poly(coeffs: Coeffs) -> RationalFunctionT:
    return make_ratfunc(coeffs, [1])


RF_ONE = RationalFunctionT((1,), (1,))


def rf_series(r: RationalFunctionT, count: int) -> list[Fraction]:
    """First `count` power-series coefficients, by exact long division."""
    den = list(r.denominator)
    if den[0] == 0:
        raise PoleAtPoint("series expansion needs a nonzero constant denominator term")
    num = list(r.numerator)
    out: list[Fraction] = []
    for k in range(count):
        c = Fraction(num[k]) if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            c -= den[j] * out[k - j]
        out.append(c / den[0])
    return out


def decimal(value: object, render: Callable[[object], str] = str) -> str:
    """render(value), str(value) by default, or CapExceeded past the int-to-str digit limit.

    render may raise ValueError for that limit only: str does on an int or
    a Fraction, and json.dumps on a document built of str, int, bool, None,
    lists and dicts.  The limit itself is left as it is.  Interpreters
    before 3.10.7 have no limit (and no sys.get_int_max_str_digits), so
    render never fails there and the handler is reached only where the
    limit exists.
    """
    try:
        return render(value)
    except ValueError:
        raise CapExceeded(
            "a value has more decimal digits than the int-to-str limit of "
            f"{sys.get_int_max_str_digits()}"
        ) from None


def poly_format(coeffs: Sequence[int]) -> str:
    """Human-readable polynomial, lowest degree first: e.g. '5 - t + 2*t^3'."""
    if poly_is_zero(coeffs):
        return "0"
    parts = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = decimal(abs(c))
        if k == 0:
            body = f"{mag}"
        elif k == 1:
            body = "t" if mag == "1" else f"{mag}*t"
        else:
            body = f"t^{k}" if mag == "1" else f"{mag}*t^{k}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def rf_to_json(r: RationalFunctionT) -> dict[str, list[str]]:
    """{"num", "den"}: the coefficients as decimal strings, constant term first."""
    return {"num": [decimal(c) for c in r.numerator], "den": [decimal(c) for c in r.denominator]}


def rf_format(r: RationalFunctionT) -> str:
    num = poly_format(r.numerator)
    if r.denominator == (1,):
        return num
    den = poly_format(r.denominator)
    if len(r.numerator) > 1:
        num = f"({num})"
    if len(r.denominator) > 1 or r.denominator[0] < 0:
        den = f"({den})"
    return f"{num}/{den}"
