"""Series coefficients c_m, solution counts N_n, and the brute-force oracle.

c_m is the measure of {x : v_p(f(x)) = m}, i.e. the t**m coefficient of
Z(t, f); the counts follow from N_n = p**n (1 - sum_{j<=n} c_{j-1}).  Two
independent coefficient routes are implemented (term-by-term geometric
expansion, and long division of the normalized rational function) and the
brute-force oracle simply evaluates f over Z/p**n Z.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapExceeded, NegativeShift, NonIntegralCount
from .padic import PAdicContext
from .polynomials import DensePoly, FactoredPoly, as_integer_poly
from .ratfunc import rf_series
from .zeta import ZetaFunction, compute_zeta, normalize

DEFAULT_CAP = 10**7
_VECTOR_LIMIT = 2**31  # int64 stays exact: residues and products < 2**62
_BLOCK = 1 << 18


@dataclass(frozen=True)
class CountSequence:
    """Exact streams c_0..c_M and N_0..N_u for one polynomial and prime."""

    p: int
    coeffs: tuple[Fraction, ...]
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        total = Fraction(0)
        for m, c in enumerate(self.coeffs):
            if c < 0 or c > 1 or self.p ** (m + 1) % c.denominator != 0:
                raise NonIntegralCount(f"c_{m} = {c} is out of range")
            total += c
            if total > 1:
                raise NonIntegralCount("partial coefficient sums exceed 1")
        if self.counts:
            if self.counts[0] != 1:
                raise NonIntegralCount("N_0 must be 1")
            for n in range(1, len(self.counts)):
                if not 0 <= self.counts[n] <= self.p * self.counts[n - 1]:
                    raise NonIntegralCount(f"N_{n} violates the lifting bound")


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
        start = term.t_pow + z.shift
        if term.den_pow == 0:
            if start <= max_m:
                out[start] += term.coeff
            continue
        y = 0
        while start + y * term.den_pow <= max_m:
            out[start + y * term.den_pow] += term.coeff / p**y
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


def _zero_profile(coeffs: list[int], q: int, p: int, n: int) -> list[int]:
    """#{x mod q : f(x) = 0 mod p**m} for m = 1..n, with q = p**n."""
    zeros = [0] * n
    moduli = [p**m for m in range(1, n + 1)]
    if q <= _VECTOR_LIMIT:
        cs = [c % q for c in coeffs]
        for start in range(0, q, _BLOCK):
            xs = np.arange(start, min(start + _BLOCK, q), dtype=np.int64)
            acc = np.zeros_like(xs)
            for c in reversed(cs):
                acc = (acc * xs + c) % q
            for i, pm in enumerate(moduli):
                zeros[i] += int((acc % pm == 0).sum())
    else:
        for x in range(q):
            acc = 0
            for c in reversed(coeffs):
                acc = (acc * x + c) % q
            for i, pm in enumerate(moduli):
                if acc % pm == 0:
                    zeros[i] += 1
    return zeros


def brute_counts_upto(
    f: DensePoly | FactoredPoly, ctx: PAdicContext, n: int, cap: int = DEFAULT_CAP
) -> list[int]:
    """All of N_0..N_n from a single sweep modulo p**n.

    A residue class mod p**m lifts to exactly p**(n-m) classes mod p**n,
    so one pass over Z/p**n Z yields every smaller-level count.
    """
    coeffs = [int(c) for c in as_integer_poly(f).coefficients]
    q = ctx.p**n
    if q > cap:
        raise CapExceeded(f"p^{n} = {q} exceeds the cap {cap}")
    if n == 0:
        return [1]
    zeros = _zero_profile(coeffs, q, ctx.p, n)
    return [1] + [zeros[m - 1] // ctx.p ** (n - m) for m in range(1, n + 1)]


# ---------------------------------------------------------------------------
# assembled sequences
# ---------------------------------------------------------------------------


def count_sequence(
    f: DensePoly | FactoredPoly,
    ctx: PAdicContext,
    max_m: int,
    method: str = "tree",
    cap: int = DEFAULT_CAP,
) -> CountSequence:
    """c_0..c_max_m and N_0..N_max_m for f in Z[x], by the chosen method.

    `tree` expands the tree terms; `spf` long-divides the normalized
    recursive evaluation (a fully independent coefficient route); `brute`
    enumerates residues and derives the coefficients from the counts
    (c_{j-1} = N_{j-1}/p**(j-1) - N_j/p**j), so it never sees the zeta
    function at all.
    """
    dense = as_integer_poly(f)
    p = ctx.p
    if method == "brute":
        counts = brute_counts_upto(dense, ctx, max_m, cap=cap)
        coeffs = [
            Fraction(counts[j - 1], p ** (j - 1)) - Fraction(counts[j], p**j)
            for j in range(1, max_m + 1)
        ]
        return CountSequence(p=p, coeffs=tuple(coeffs), counts=tuple(counts))
    if method == "tree":
        z = compute_zeta(f, ctx, method="tree")
        coeffs = coeff_stream(z, max_m)
    elif method == "spf":
        z = compute_zeta(f, ctx, method="spf")
        if z.shift < 0:
            raise NegativeShift(f"shift {z.shift} < 0: not a power series in t")
        coeffs = rf_series(normalize(z), max_m + 1)
    else:
        raise ValueError(f"unknown method {method!r}")
    counts = counts_from_coeffs(coeffs, ctx, max_m)
    return CountSequence(p=p, coeffs=tuple(coeffs), counts=tuple(counts))
