"""Dense long division of H(pu): a reference for the tests.

``counting.poincare_counts`` peels the binomial factors p - t**b off the
denominator and divides each out in one sparse pass.  This module keeps
the plain long division by the whole denominator, one inner product of
length deg den per coefficient.
"""

from __future__ import annotations

from localzeta import NonIntegralCount, RationalFunctionT


def dense_poincare_counts(h: RationalFunctionT, p: int, n: int) -> list[int]:
    """N_0..N_n as the series of H(pu) = sum N_m u**m, by exact long division.

    With H = num/den, num'_i = p**i*num_i and den'_j = p**j*den_j, so
    N_m = (num'_m - sum_(j >= 1) den'_j*N_(m-j)) / den'_0.  A division that
    is not exact raises NonIntegralCount.
    """
    num = [c * p**i for i, c in enumerate(h.numerator[: n + 1])]
    num += [0] * (n + 1 - len(num))
    den = [c * p**j for j, c in enumerate(h.denominator[: n + 1])]
    lead, den = den[0], den[1:]
    if lead == 0:
        raise NonIntegralCount("H(pu) has a denominator with zero constant term")
    counts: list[int] = []
    for m in range(n + 1):
        acc = num[m] - sum(d * c for d, c in zip(den, reversed(counts)))
        value, rest = divmod(acc, lead)
        if rest:
            raise NonIntegralCount(f"N_{m} is not an integer: den'_0 does not divide")
        counts.append(value)
    return counts
