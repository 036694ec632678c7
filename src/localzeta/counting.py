"""Series coefficients c_m, solution counts N_n, and the brute-force oracle.

c_m is the measure of {x : v_p(f(x)) = m}, i.e. the t**m coefficient of
Z(t, f); the counts follow from N_n = p**n (1 - sum_{j<=n} c_{j-1}).  Two
independent coefficient routes are implemented (term-by-term geometric
expansion, and long division of the normalized rational function).  The
brute-force oracle counts the solutions of f = 0 mod p**m directly, by
lifting the solutions mod p**m to those mod p**(m+1) one digit at a time,
and counts a residue class outright once the Taylor coefficients of f fix
v_p(f) on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapExceeded, LocalZetaError, NegativeShift, NonIntegralCount
from .padic import PAdicContext
from .polynomials import DensePoly, FactoredPoly, as_integer_poly
from .ratfunc import rf_series
from .zeta import ZetaFunction, compute_zeta, normalize

DEFAULT_CAP = 10**7
_VECTOR_LIMIT = 2**31  # int64 stays exact: residues < 2**31, products < 2**62
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


def brute_counts_upto(
    f: DensePoly | FactoredPoly, ctx: PAdicContext, n: int, cap: int = DEFAULT_CAP
) -> list[int]:
    """All of N_0..N_n by lifting the solutions one p-adic digit at a time.

    A solution mod p**(m+1) reduces to a solution mod p**m, so the
    solutions at level m + 1 are among the p lifts x0 + k*p**m
    (k = 0..p-1) of the N_m solutions x0 at level m.  Before a level is
    lifted, _settle counts outright every class x0 + p**m Z on which
    v_p(f) is already fixed, so only the classes near a root are lifted
    further.  Each level evaluates f on the remaining lifts mod
    q = p**(m+1), by Horner's rule on whole arrays, and keeps the zeros;
    the last level only counts them.  Residues are int64 while
    p**n <= _VECTOR_LIMIT and Python ints above.  At most _BLOCK lifts
    are formed at a time, and there are at most
    p*(N_0 + ... + N_(n-1)) <= 2*p**n of them, so the cap on p**n bounds
    both time and memory.  The oracle never sees the factorisation or Z.
    """
    if n < 0:
        raise LocalZetaError("max-m/length must be nonnegative")
    coeffs = [int(c) for c in as_integer_poly(f).coefficients]
    p = ctx.p
    if p**n > cap:
        raise CapExceeded(f"p^{n} = {p**n} exceeds the cap {cap}")
    dtype = np.int64 if p**n <= _VECTOR_LIMIT else object
    counts = [1] + [0] * n
    survivors = np.zeros(1, dtype=dtype)  # the single class mod p**0
    for m in range(n):
        survivors = _settle(survivors, coeffs, p, m, n, counts)
        if not len(survivors):
            break
        q, place = p ** (m + 1), p**m
        cs = [c % q for c in coeffs]
        kept = []
        lifts = len(survivors) * p
        for start in range(0, lifts, _BLOCK):
            idx = np.arange(start, min(start + _BLOCK, lifts))
            xs = survivors[idx // p] + (idx % p).astype(dtype, copy=False) * place
            acc = np.full_like(xs, cs[-1])
            for c in reversed(cs[:-1]):
                acc *= xs
                acc += c
                acc %= q
            zero = acc == 0
            counts[m + 1] += int(np.count_nonzero(zero))
            if m + 1 < n:
                kept.append(xs[zero])
        survivors = np.concatenate(kept) if kept else survivors[:0]
    return counts


def _settle(
    survivors: np.ndarray, coeffs: list[int], p: int, m: int, n: int, counts: list[int]
) -> np.ndarray:
    """Count the classes x0 + p**m Z whose solutions are known; return the rest.

    On such a class f(x0 + p**m t) = sum_k a_k p**(m*k) t**k, with a_k the
    Taylor coefficients of f at x0.  If v_p(a_0) = w is below every
    v_p(a_k) + m*k (k >= 1), then v_p(f) = w on the whole class; if every
    a_k p**(m*k) is 0 mod p**n, then v_p(f) >= n = w on it.  Either way
    the class holds p**(j-m) solutions mod p**j for m < j <= w and none
    beyond, which go straight into counts[j].  The a_k are formed mod p**n
    by repeated synthetic division, one pass per k, and only while some
    class still in the running has m*k below its w + 1.
    """
    top = p**n
    powers = np.array([p**j for j in range(n + 1)], dtype=survivors.dtype)
    live = []
    step = max(1, _BLOCK // len(coeffs))
    for start in range(0, len(survivors), step):
        x0 = survivors[start:start + step]
        a = [c % top for c in coeffs[:-1]] + [np.full_like(x0, coeffs[-1] % top)]
        settled = np.ones(len(x0), dtype=bool)
        for k in range(len(a)):
            for i in range(len(a) - 2, k - 1, -1):
                a[i] = a[i] + a[i + 1] * x0
                a[i] %= top
            if k == 0:
                w = np.searchsorted(powers, np.gcd(a[0], top))  # min(v_p(f(x0)), n)
                reach = np.minimum(w + 1, n)  # what each v_p(a_k) + m*k must reach
            else:
                settled &= a[k] % powers[np.maximum(reach - m * k, 0)] == 0
            if not (settled & (reach > m * (k + 1))).any():
                break  # every later a_k passes wherever it is still tested
        if settled.any():
            tally = np.bincount(w[settled], minlength=n + 1)
            at_least = 0
            for j in range(n, m, -1):
                at_least += int(tally[j])
                counts[j] += at_least * p ** (j - m)
        live.append(x0[~settled])
    return np.concatenate(live) if live else survivors


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
    counts the solutions by lifting them digit by digit and derives the
    coefficients from the counts (c_{j-1} = N_{j-1}/p**(j-1) - N_j/p**j),
    so it never sees the zeta function at all.
    """
    if max_m < 0:
        raise LocalZetaError("max-m/length must be nonnegative")
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
