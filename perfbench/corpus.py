"""Seeded corpora: one round of CLI operations per workload.

The same seed gives the same round.  The shape of a round is fixed per
workload: root counts, multiplicities, degrees, depths and prime bands.
For the factored and dense inputs, the roots themselves come from a fixed
skeleton per size, and the seed only moves them in ways that keep the
work the same:

* zeta-wide and stream map every root a to u*a + c, with u = +-1 and a
  shift c drawn from the seed.  Every v_p(a_i - a_j) is kept, so the
  tree, the term list and Z(t) are the same for every seed and only the
  numbers differ.
* dense-bigp draws the sign of every root and the prime in its band.
  The rational-root search tries the same candidates, with both signs,
  whatever the signs are, and the primality proof costs the same for
  every prime in a band.

Drawing the skeleton per seed instead made the same-size op vary by a
CV of 0.15-0.5 from seed to seed, which the ten-seed spread could not
absorb.  The skeleton roots are drawn once, from a fixed seed, with l_f
pinned to the value typical for their count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from oracle import Roots, class_counts, int_vp, is_probable_prime

WORKLOADS = ("zeta-wide", "dense-bigp", "crosscheck", "stream")
SIZES = ("full", "smoke")
METHODS = ("tree", "spf")


@dataclass(frozen=True)
class Poly:
    """f = unit * prod (x - a)**e at prime p, and the text the CLI receives."""

    p: int
    unit: Fraction
    roots: Roots
    text: str


@dataclass(frozen=True)
class Op:
    """One CLI call."""

    command: str
    p: int
    poly: Poly | None = None
    method: str | None = None
    fmt: str | None = None
    depth: int | None = None
    cap: int | None = None
    taps: tuple[int, ...] = ()
    init: tuple[int, ...] = ()
    steps: int = 0

    def argv(self) -> list[str]:
        if self.command == "lfsr":
            # the lfsr command has no --brute-cap flag
            return [
                "lfsr", "--prime", str(self.p),
                "--taps", ",".join(map(str, self.taps)),
                "--init", ",".join(map(str, self.init)),
                "--steps", str(self.steps), "--period",
            ]
        argv = [self.command, "--poly", self.poly.text, "--prime", str(self.p)]
        if self.depth is not None:
            flag = "--length" if self.command == "keystream" else "--max-m"
            argv += [flag, str(self.depth)]
        if self.method:
            argv += ["--method", self.method]
        if self.fmt:
            argv += ["--format", self.fmt]
        return argv + ["--brute-cap", str(self.cap)]


@dataclass
class Case:
    """Ops whose outputs are checked together, and the check to apply."""

    check: str
    ops: list[Op]
    poly: Poly | None = None
    info: dict = field(default_factory=dict)


def round_ops(cases: list[Case]) -> list[tuple[int, Op]]:
    """The round in call order, each op with the index of its case."""
    return [(i, op) for i, case in enumerate(cases) for op in case.ops]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def multiplicities(rng: random.Random, r: int, cycle: tuple[int, ...]) -> list[int]:
    mults = [cycle[i % len(cycle)] for i in range(r)]
    rng.shuffle(mults)
    return mults


def _deepest_pair(roots: list[int], p: int) -> tuple[int, int]:
    """The deepest pairwise valuation and the index of one root in that pair."""
    best, index = -1, 0
    for i in range(len(roots)):
        for j in range(i):
            v = int_vp(roots[i] - roots[j], p)
            if v > best:
                best, index = v, i
    return best, index


def pinned_roots(rng: random.Random, p: int, r: int, lo: int, hi: int) -> list[int]:
    """r distinct integers in [lo, hi] whose deepest pairwise valuation
    is the typical one, floor(log_p(r(r-1)/2)), so that l_f is fixed."""
    pairs = r * (r - 1) // 2
    target = 0
    while p ** (target + 1) <= pairs:
        target += 1
    roots = rng.sample(range(lo, hi + 1), r)
    for _ in range(100_000):
        deepest, i = _deepest_pair(roots, p)
        if deepest == target or r < 2:
            return roots
        if deepest > target:
            roots[i] = rng.randint(lo, hi)
        else:
            i, j = rng.sample(range(r), 2)
            step = p**target * rng.choice([k for k in range(1, p + 1) if k % p])
            roots[i] = roots[j] + step if roots[j] + step <= hi else roots[j] - step
        if len(set(roots)) < r or not lo <= roots[i] <= hi:
            roots[i] = rng.randint(lo, hi)
    raise RuntimeError("could not pin the separation depth")


def factored(p: int, roots: list[int], mults: list[int]) -> Poly:
    pairs = tuple((Fraction(a), e) for a, e in zip(roots, mults))
    text = "*".join(
        f"(x-{a})" + (f"^{e}" if e > 1 else "") if a >= 0
        else f"(x+{-a})" + (f"^{e}" if e > 1 else "")
        for a, e in zip(roots, mults)
    )
    return Poly(p, Fraction(1), pairs, text)


def expanded(p: int, roots: Roots) -> Poly:
    """prod (b x - a)**e multiplied out, in expression form."""
    coeffs = [1]
    unit = Fraction(1)
    for root, mult in roots:
        a, b = root.numerator, root.denominator
        unit *= b**mult
        for _ in range(mult):
            out = [0] * (len(coeffs) + 1)
            for k, c in enumerate(coeffs):
                out[k] -= a * c
                out[k + 1] += b * c
            coeffs = out
    parts = []
    for k, c in enumerate(coeffs):
        if c:
            term = str(abs(c)) if k == 0 else f"{abs(c)}*x^{k}"
            parts.append(("- " if c < 0 else "+ ") + term)
    text = " ".join(parts)
    text = text[2:] if text.startswith("+ ") else "-" + text[2:]
    return Poly(p, unit, tuple(roots), text)


def _next_prime(n: int) -> int:
    while not is_probable_prime(n):
        n += 1
    return n


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# (p, r): six-digit integer roots, multiplicities 1-4.  Three inputs of the
# largest size make the heaviest ops 15 % of the round, so the p91 tail
# falls inside that class rather than on its edge.
ZETA_WIDE = {
    "full": ((3, 12), (3, 24), (3, 36), (3, 48), (3, 48), (3, 48),
             (101, 25), (101, 50), (101, 75), (101, 100)),
    "smoke": ((3, 6), (101, 8)),
}
# (base, spread, roots): one prime per input in [base, base + spread); two
# thirds of the inputs sit near 10**12, so the median op pays the primality proof
DENSE_BIGP = {
    "full": tuple((base, spread, r)
                  for r in (3, 4, 5)
                  for base, spread in ((10**6, 10**5), (10**12, 10**8), (10**12, 10**8))),
    "smoke": ((10**6, 10**5, 2), (10**12, 10**8, 2)),
}
DENSE_TOP = (89, 97, 101, 103, 107, 109, 113)
DENSE_NUMS = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83)
DENSE_DENS = (2, 3, 5, 7)
# (p, depth, degree): brute sweep of p**depth residues
CROSSCHECK = {
    "full": tuple((p, n, d) for p, n in ((2, 20), (3, 12), (5, 8), (7, 7))
                  for d in (6, 9, 12)),
    "smoke": ((2, 10, 4), (5, 4, 5)),
}
# (p, length u, roots per input, register length)
STREAM = {
    "full": ((2, 600, (4, 6, 8), 12), (3, 400, (4, 6, 8), 7), (101, 200, (4, 6, 8), 2)),
    "smoke": ((2, 40, (3,), 5), (101, 20, (3,), 2)),
}


def skeleton(name: str, p: int, r: int, lo: int, hi: int) -> tuple[list[int], list[int]]:
    """The fixed roots and multiplicities of one input size."""
    rng = random.Random(f"{name}:skeleton:{p}:{r}")
    return pinned_roots(rng, p, r, lo, hi), multiplicities(rng, r, (1, 2, 3, 4))


def _moved(rng: random.Random, roots: list[int], lo: int, hi: int) -> list[int]:
    """u*a + c with u = +-1 and c drawn so that the results lie in [lo, hi]."""
    u = rng.choice((-1, 1))
    moved = [u * a for a in roots]
    shift = rng.randint(lo - min(moved), hi - max(moved))
    return [a + shift for a in moved]


def zeta_wide(rng: random.Random, size: str) -> list[Case]:
    cases = []
    for slot, (p, r) in enumerate(ZETA_WIDE[size]):
        roots, mults = skeleton(f"zeta-wide:{slot}", p, r, 0, 449_999)
        poly = factored(p, _moved(rng, roots, 100_000, 999_999), mults)
        ops = [Op("zeta", p, poly, m, cap=10**6) for m in METHODS]
        ops += [Op("poincare", p, poly, m, "json", cap=10**6) for m in METHODS]
        cases.append(Case("zeta", ops, poly))
    return cases


def dense_bigp(rng: random.Random, size: str) -> list[Case]:
    """Roots +-a/b with distinct primes a and distinct b in DENSE_DENS.

    The largest root has a numerator in DENSE_TOP.  The skeleton of each
    input slot is fixed; the seed draws the signs and the prime.
    """
    cases = []
    for slot, (base, spread, r) in enumerate(DENSE_BIGP[size]):
        fixed = random.Random(f"dense-bigp:skeleton:{slot}:{r}")
        nums = [fixed.choice(DENSE_TOP)] + fixed.sample(DENSE_NUMS, r - 1)
        dens = [1] + fixed.sample(DENSE_DENS, r - 1)
        mults = multiplicities(fixed, r, (1, 2, 3))
        p = _next_prime(base + rng.randrange(spread))
        roots = tuple(
            (Fraction(rng.choice((-1, 1)) * a, b), e) for a, b, e in zip(nums, dens, mults)
        )
        poly = expanded(p, roots)
        ops = [Op("zeta", p, poly, m, cap=p) for m in METHODS]
        cases.append(Case("dense", ops, poly))
    return cases


def crosscheck(rng: random.Random, size: str) -> list[Case]:
    cases = []
    for p, n, degree in CROSSCHECK[size]:
        chosen: dict[int, int] = {}
        while sum(chosen.values()) < degree:
            a = rng.randint(-12, 12)
            chosen[a] = chosen.get(a, 0) + 1
        poly = expanded(p, tuple((Fraction(a), e) for a, e in chosen.items()))
        ops = [
            Op("verify", p, poly, depth=n, cap=p**n),
            Op("count", p, poly, "all", depth=n, cap=p**n),
        ]
        cases.append(Case("cross", ops, poly, {"depth": n}))
    return cases


def stream(rng: random.Random, size: str) -> list[Case]:
    cases = []
    for p, u, root_counts, reg in STREAM[size]:
        for r in root_counts:
            roots, mults = skeleton("stream", p, r, 0, 4_999)
            poly = factored(p, _moved(rng, roots, -4_999, 9_999), mults)
            ops = [Op("keystream", p, poly, m, depth=u, cap=10**6) for m in METHODS]
            cases.append(Case("stream", ops, poly, {"depth": u}))
            if r == root_counts[0] or r == root_counts[-1]:
                # a register whose taps and state are keystream values mod p
                values = [v % p for v in class_counts(poly.unit, poly.roots, p, 2 * reg)]
                taps = values[1:reg + 1]
                taps[-1] = taps[-1] or 1
                init = tuple(values[reg + 1:2 * reg + 1])
                op = Op("lfsr", p, taps=tuple(taps), init=init, steps=200)
                cases.append(Case("lfsr", [op]))
    return cases


GENERATORS = {
    "zeta-wide": zeta_wide,
    "dense-bigp": dense_bigp,
    "crosscheck": crosscheck,
    "stream": stream,
}


def build(workload: str, seed: int, size: str = "full") -> list[Case]:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), size)
