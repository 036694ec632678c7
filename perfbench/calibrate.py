"""Fixed reference kernels that track how fast the host runs right now.

The host this benchmark was tuned on changes speed under it: the same op
took 1.5-2x longer for minutes at a time, with CPU time moving as much as
wall time.  Each workload therefore interleaves a fixed kernel with its
rounds, written here in the benchmark so that no change to the program
moves it, and built from the same kind of work as the workload's
dominant stage.  The op timings are scaled by
NOMINAL_S / (median kernel time of the run), which reads them at the
speed the kernel had when NOMINAL_S was measured.

The kernel and the program slow down by similar, not equal, factors on
a busy host, so the correction removes most of the drift, not all of
it; the raw values stay in the result file's ``detail`` block.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

import numpy as np

import oracle


def fraction_polys() -> None:
    """A normal form's work: 28 terms c t**a / (1 - t**b / p) over a common
    denominator, with t-powers up to 162 and 3-power denominators."""
    p = 3
    bs = (1, 2, 3, 4)
    factors = {b: [Fraction(1)] + [Fraction(0)] * (b - 1) + [Fraction(-1, p)] for b in bs}
    total = [Fraction(0)]
    for k in range(28):
        part = [Fraction(0)] * (6 * k) + [Fraction(2 * k + 1, p ** (k % 9 + 1))]
        for b in bs:
            if b != k % 4 + 1:
                part = oracle.poly_mul(part, factors[b])
        total = oracle.poly_add(total, part)


def trial_division() -> None:
    """Trial division of a 13-digit prime, then Fraction polynomial evaluation."""
    n = 1_000_000_000_039
    f = 3
    while f < 300_000:
        if n % f == 0:
            break
        f += 2
    coeffs = [Fraction((-1) ** k * (7 * k + 3), k + 1) for k in range(14)]
    for a in range(1, 60):
        oracle.poly_eval(coeffs, Fraction(a, 7))


def residue_sweep() -> None:
    """Horner evaluation of a degree-9 polynomial over 2**18 residues mod 2**20."""
    q = 1 << 20
    xs = np.arange(1 << 18, dtype=np.int64)
    acc = np.zeros_like(xs)
    for c in range(1, 11):
        acc = (acc * xs + c * 7919) % q
    for m in range(1, 13):
        int((acc % (1 << m) == 0).sum())


def fraction_series() -> None:
    """Long division of a rational function into a 260-term exact series."""
    den = [3**8] + [(-1) ** k * 3 ** (8 - k % 5) for k in range(1, 12)]
    num = [7 * k + 1 for k in range(20)]
    total = Fraction(0)
    for c in oracle.rf_series((num, den), 260):
        total += c


KERNELS = {
    "zeta-wide": fraction_polys,
    "dense-bigp": trial_division,
    "crosscheck": residue_sweep,
    "stream": fraction_series,
}

# Kernel times in seconds on the reference host (2-core VM, Python 3.11.7,
# numpy 2.4), rounded from their medians; they only fix the scale.
NOMINAL_S = {
    "zeta-wide": 0.012,
    "dense-bigp": 0.013,
    "crosscheck": 0.035,
    "stream": 0.020,
}


def timed(workload: str) -> float:
    start = perf_counter()
    KERNELS[workload]()
    return perf_counter() - start
