"""Solution counts N_m, series coefficients c_m, and the brute-force oracle.

c_m is the measure of {x : v_p(f(x)) = m}, i.e. the t**m coefficient of
Z(t, f), and N_(m+1) = p*N_m - p**(m+1)*c_m with N_0 = 1.  The counts are
computed in integers on two independent routes:

* tree: the terms of the tree evaluator are expanded geometrically, with
  p**(m+1)*c_m kept as an integer at one common scale, by one recurrence
  per den_pow b (``tree_counts``);
* spf: sum N_m u**m = H(pu), so the counts are the series of the residue
  recursion's Poincare series with its coefficients rescaled by powers of
  p; its denominator's factors p - t**b are found by trial division, and
  each is divided out in one pass (``poincare_counts``).

Either route costs O(u*|B|) big-integer steps for N_0..N_u, B the set of
den_pow values.

``solution_counts`` gives N_0..N_u by either route or by the oracle
below, all checked by the same integer test (``check_counts``).  The
counts are the only count type: c_m = (p*N_m - N_(m+1)) / p**(m+1) is
formed only where the ``count`` command prints it.  ``coeff_stream``
and ``counts_from_coeffs`` keep the rational-arithmetic reference.  The
brute-force oracle counts the solutions of f = 0 mod p**m directly, in
one walk over the residue classes that hold them: each class carries its
own polynomial, its content counts the whole class at once, and only the
classes at a multiple root mod p (found by ``polynomials.roots_mod``, the
root search's residue scan for small p and a gcd(g, x**p - x) kernel for
large p) are walked a digit deeper, so at most deg f classes are live
per level.  A class costs a polynomial number of steps in deg f, the
depth and log p.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import islice
from operator import add

from .errors import CapExceeded, LocalZetaError, NegativeShift, NonIntegralCount
from .padic import PAdicContext
from .polynomials import DensePoly, FactoredPoly, as_integer_poly, require_integral, roots_mod
from .polynomials import _trimmed_mod
from .ratfunc import RationalFunctionT, _trimmed
from .zeta import ZetaFunction, _div_binomial, compute_zeta, poincare

DEFAULT_CAP = 10**7


def check_counts(counts: list[int], p: int) -> list[int]:
    """The counts unchanged, after checking N_0 = 1 and 0 <= N_(n+1) <= p*N_n.

    With p**(n+1)*c_n = p*N_n - N_(n+1), integer counts that pass are
    exactly those of coefficients with 0 <= c_n, p**(n+1)*c_n in Z and
    partial sums at most 1.  A violation means an upstream bug and raises
    NonIntegralCount.
    """
    if counts[0] != 1:
        raise NonIntegralCount("N_0 must be 1")
    for n in range(1, len(counts)):
        if not 0 <= counts[n] <= p * counts[n - 1]:
            raise NonIntegralCount(f"N_{n} violates the lifting bound")
    return counts


def tree_counts(z: ZetaFunction, n: int) -> list[int]:
    """N_0..N_n from the terms of Z, in integers and without normalizing Z.

    A term c*t**a/(1 - t**b/p) puts c/p**y at exponent a + y*b.  With
    S_m = p**(m+1)*c_m, N_(m+1) = p*N_m - S_m.  The terms are summed per
    den_pow b into P_b (indexed by exponent, the shift included), and the
    share of bucket b in S_m obeys U_b(m) = p**(m+1)*P_b[m] +
    p**(b-1)*U_b(m-b) (the second summand only for b >= 1).  P_b has a
    term at few exponents, so p**(m+1)*P_b[m] is formed only there, each
    p**(m+1) once; bucket 0 adds only at its terms, and the pass of a
    bucket b >= 1 starts at its first term: O(n) big-integer steps per
    den_pow.  The sums run at the terms' common scale p**E, E the largest
    j of a coefficient c/p**j (``ZetaFunction.scaled_coeffs``), and each
    S_m is divided by p**E exactly at the end; a remainder raises
    NonIntegralCount.
    """
    if z.shift < 0:
        raise NegativeShift(f"shift {z.shift} < 0: not a power series in t")
    p = z.ctx.p
    scale, cs = z.scaled_coeffs
    buckets: dict[int, dict[int, int]] = {}
    for term, c in zip(z.terms, cs):
        start = term.t_pow + z.shift
        if start < n:
            bucket = buckets.setdefault(term.den_pow, {})
            bucket[start] = bucket.get(start, 0) + c
    powers = {m: p ** (m + 1) for bucket in buckets.values() for m in bucket}
    total = [0] * n  # p**E * S_m
    for b, bucket in buckets.items():
        if not b:
            for m, c in bucket.items():
                total[m] += c * powers[m]
            continue
        share = [0] * n  # p**E * U_b
        for m, c in bucket.items():
            share[m] = c * powers[m]
        first, step = min(bucket), p ** (b - 1)
        for m, behind in zip(range(first + b, n), islice(share, first, None)):
            share[m] += step * behind
        total[first:] = map(add, total[first:], share[first:])
    counts = [1]
    for m in range(n):
        s, rest = divmod(total[m], scale)
        if rest:
            raise NonIntegralCount(f"p^{m + 1} * c_{m} is not an integer")
        counts.append(p * counts[m] - s)
    return counts


def poincare_counts(h: RationalFunctionT, p: int, n: int) -> list[int]:
    """N_0..N_n as the series of H(pu) = sum N_m u**m, by exact division.

    With H = num/den, num'_i = p**i*num_i.  A factor p - t**b of den turns
    into p*(1 - p**(b-1)*u**b) in u, and dividing a series by
    1 - p**(b-1)*u**b is the in-place pass x_m += p**(b-1)*x_(m-b).  A
    ``poincare`` denominator is a constant times prod_(b in B) (p - t**b),
    the b distinct (see ``zeta``), so its lowest power of t past the
    constant is t**min(B): the factors are found by trial division by
    p - t**b for that lowest b, repeated on the quotient until a constant
    is left, and that constant times p**k, for the k factors peeled, is
    divided out once per m.  N_0..N_n cost O(n*|B|) big-integer steps.  A
    denominator that is no constant times such binomials, or a division
    that is not exact, raises NonIntegralCount.
    """
    den, peeled = list(h.denominator), []
    while any(den[1:]):  # b = den's lowest power of t past the constant
        b = next(i for i, c in enumerate(den) if i and c)
        den = _div_binomial(den, p, b)
        if den is None:
            raise NonIntegralCount("H(pu): the denominator is no constant times binomials p - t^b")
        peeled.append(b)
    x = [c * p**i for i, c in enumerate(h.numerator[: n + 1])]
    x += [0] * (n + 1 - len(x))
    for b in peeled:
        step = p ** (b - 1)
        for m, behind in zip(range(b, n + 1), x):  # reads x_(m-b) after its update
            x[m] += step * behind
    lead = den[0] * p ** len(peeled)
    counts: list[int] = []
    for m, acc in enumerate(x):
        value, remainder = divmod(acc, lead)
        if remainder:
            raise NonIntegralCount(f"N_{m} is not an integer: den'_0 does not divide")
        counts.append(value)
    return counts


def coeff_stream(z: ZetaFunction, max_m: int) -> list[Fraction]:
    """c_0..c_max_m by expanding each term's geometric series.

    A term c*t**a/(1 - t**b/p) contributes c/p**y at exponent a + y*b for
    every y >= 0; the global shift offsets all exponents.
    """
    if z.shift < 0:
        raise NegativeShift(f"shift {z.shift} < 0: not a power series in t")
    p = z.ctx.p
    out = [Fraction(0)] * (max_m + 1)
    for term in z.terms:
        coeff = Fraction(term.c, p**term.j)
        start = term.t_pow + z.shift
        if term.den_pow == 0:
            if start <= max_m:
                out[start] += coeff
            continue
        y = 0
        while start + y * term.den_pow <= max_m:
            out[start + y * term.den_pow] += coeff / p**y
            y += 1
    return out


def counts_from_coeffs(
    coeffs: list[Fraction], ctx: PAdicContext, n: int
) -> list[int]:
    """N_0..N_n from c_0..c_{n-1} via N_n = p**n (1 - sum c_{j-1}).

    Every p**n * c_{j-1} must be a nonnegative integer; a violation means
    an upstream bug and raises NonIntegralCount.
    """
    if len(coeffs) < n:
        raise ValueError(f"need at least {n} coefficients, got {len(coeffs)}")
    p = ctx.p
    counts = [1]
    total = Fraction(0)
    for k in range(1, n + 1):
        c = coeffs[k - 1]
        if c < 0 or p**k % c.denominator != 0:
            raise NonIntegralCount(f"p^{k} * c_{k - 1} = p^{k} * {c} not in N")
        total += c
        value = p**k * (1 - total)
        if value.denominator != 1 or value < 0:
            raise NonIntegralCount(f"N_{k} = {value} is not a nonnegative integer")
        counts.append(int(value))
    return counts


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


def brute_counts_upto(
    f: DensePoly | FactoredPoly, ctx: PAdicContext, n: int, cap: int = DEFAULT_CAP
) -> list[int]:
    """All of N_0..N_n by one walk over the residue classes that hold solutions.

    Panayi's recursion (as in Berthomieu, Lecerf and Quintin, AAECC 24,
    2013), turned into a counter.  A class x0 + p**m Z is walked as
    (m, g, w) with g(y) = f(x0 + p**m y) / p**w, starting from (0, f, 0).
    Let p**v be the content of g, capped at p**(n - w): every residue of
    the class solves f = 0 mod p**j for w < j <= w + v, which adds
    p**(j - m) to N_j.  Divided by p**v, with w raised by v, g keeps
    deeper solutions only at its roots k mod p (``roots_mod``: a residue
    scan below polynomials._KERNEL_FROM, and from there on the split
    factors of gcd(g, x**p - x), so each class costs O(d**2 log p) steps,
    not O(d p)).  A simple root goes on one digit at a time in closed
    form, adding p**(w - m) to every N_j with j > w: one entry at w + 1
    in a suffix sum added once at the end.  A multiple root k is walked as
    (m + 1, g(k + p*y), w), formed by one Kronecker product
    (``_shifted_class``: its base-2**K digits, K = bits(max g) +
    d*bits(k + p) + bits(d + 1), never carry).  The child's g mod p has
    degree at most the multiplicity of k, so at most deg f classes are
    live per level.  g is kept mod p**(n - w), the only part the counts
    read, so no coefficient exceeds p**n, and its zero top coefficients
    are dropped: the polynomial is the same, and the classes below work at
    the degree that survives.  Coefficient j of g(k + p*y) is p**j times
    an integer, so that degree is below n - w.  The cap on p**n does not
    bound the time; it stays as the command line's contract.  The oracle
    never sees the factorisation or Z.
    """
    if n < 0:
        raise LocalZetaError("max-m/length must be nonnegative")
    coeffs = [int(c) for c in as_integer_poly(f).coefficients]
    p = ctx.p
    powers = [1]  # p**0..p**n, built once for every level
    for _ in range(n):  # stops once past the cap, so p**n is never formed for a huge n
        powers.append(powers[-1] * p)
        if powers[-1] > cap:
            size = f"p^{n}"
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
            # p**n has at least n*(bits(p) - 1) bits, and over a quarter as many digits
            if n * (p.bit_length() - 1) < 4 * limit:
                try:
                    size = f"p^{n} = {p**n}"
                except ValueError:  # p**n is past the int-to-str digit limit
                    pass
            raise CapExceeded(f"{size} exceeds the cap {cap}")
    counts = [1] + [0] * n
    closed = [0] * (n + 1)  # closed[j]: what every N_i, i >= j, gains from simple roots
    classes = [(0, _trimmed_mod(coeffs, powers[n]), 0)]
    while classes:
        m, g, w = classes.pop()
        content, v = math.gcd(*g), 0
        while v < n - w and content % p == 0:  # a zero g takes the cap
            content //= p
            v += 1
        for j in range(w + 1, w + v + 1):
            counts[j] += powers[j - m]
        w += v
        if w == n:
            continue
        g = [c // powers[v] for c in g]
        gbar = _trimmed_mod(g, p)
        if len(gbar) == 1:  # a unit mod p: no deeper solutions
            continue
        for k in roots_mod(gbar, p):
            slope = 0  # g'(k) mod p
            for i in range(len(gbar) - 1, 0, -1):
                slope = (slope * k + i * gbar[i]) % p
            if slope:
                closed[w + 1] += powers[w - m]
                continue
            classes.append((m + 1, _shifted_class(g, k, p, powers[n - w]), w))
    total = 0
    for j in range(1, n + 1):
        total += closed[j]
        counts[j] += total
    return counts


def _shifted_class(g: list[int], k: int, p: int, mod: int) -> list[int]:
    """g(k + p*y) mod `mod`, trailing zeros trimmed, for g != 0 with 0 <= g_i and 0 <= k.

    One Kronecker substitution (Harvey, J. Symb. Comput. 44, 2009): the
    coefficients of g(k + p*y) are the base-2**K digits of g(X) at
    X = k + p*2**K, formed by d Horner steps that each take one shift and
    two products by small integers.  Digit j is sum_i g_i C(i, j)
    k**(i - j) p**j <= max(g) (d + 1) (k + p)**d, so K = bits(max g) +
    d*bits(k + p) + bits(d + 1) keeps every digit below 2**K and none
    carries into the next.
    """
    shift = max(g).bit_length() + (len(g) - 1) * (k + p).bit_length() + len(g).bit_length()
    acc = 0
    for c in reversed(g):
        acc = (acc * p << shift) + acc * k + c
    mask, child = (1 << shift) - 1, []
    while acc:
        child.append((acc & mask) % mod)
        acc >>= shift
    return _trimmed(child)


# ---------------------------------------------------------------------------
# assembled counts
# ---------------------------------------------------------------------------


def solution_counts(
    f: DensePoly | FactoredPoly,
    ctx: PAdicContext,
    u: int,
    method: str = "tree",
    cap: int = DEFAULT_CAP,
) -> list[int]:
    """N_0..N_u for f in Z[x] by the chosen method, in integers and checked.

    `tree` expands the tree terms and `spf` divides H(pu) from the residue
    recursion by its binomials (see ``tree_counts`` and
    ``poincare_counts``); `brute` counts the solutions by walking the
    residue classes that hold them, so it never sees the zeta function at
    all.  Integrality is the only precondition: for f in Z[x] the shift is
    v_p(unit/prod b**e) >= 0 (Gauss's lemma, b the root denominators), so
    no route meets a negative one.  Every route's counts pass
    ``check_counts``.  No coefficient c_m is formed.
    """
    if u < 0:
        raise LocalZetaError("max-m/length must be nonnegative")
    require_integral(f)
    if method == "brute":
        counts = brute_counts_upto(f, ctx, u, cap=cap)
    elif method == "tree":
        counts = tree_counts(compute_zeta(f, ctx, method="tree"), u)
    elif method == "spf":
        counts = poincare_counts(poincare(compute_zeta(f, ctx, method="spf")), ctx.p, u)
    else:
        raise ValueError(f"unknown method {method!r}")
    return check_counts(counts, ctx.p)
