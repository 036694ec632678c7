"""Linear feedback shift registers over F_p.

A register of length r with taps q_1..q_r produces a_n = -(q_1*a_{n-1} +
... + q_r*a_{n-r}) mod p and outputs a_0, a_1, ... in order.  Its
generating function g(x) = sum a_i x**i satisfies g(x) * R(x) = L(x) with
R(x) = 1 + q_1 x + ... + q_r x**r and deg L < r, which pins the
correspondence between registers with q_r != 0 and such rational
functions.  The keystream of a polynomial is its count sequence N_0..N_u,
``counting.solution_counts``.
"""

from __future__ import annotations

import copy
from operator import mul

from .errors import (
    CapExceeded,
    DegenerateTaps,
    DegreeViolation,
    LocalZetaError,
)
from .padic import PAdicContext
from .ratfunc import _trimmed

CoeffPair = tuple[tuple[int, ...], tuple[int, ...]]  # (L, R) coefficients mod p

PERIOD_STEP_BUDGET = 10**6  # register steps period_of may take before CapExceeded


class Lfsr:
    """Mutable register state; stepping is single-owner, everything else copies.

    The modulus p is a prime int, proved here (InvalidPrime otherwise), or
    a PAdicContext, whose p is already proved.  `init` holds the first r
    outputs a_0..a_{r-1}; the live state is the sliding window of the next
    r outputs.
    """

    def __init__(
        self,
        p: int | PAdicContext,
        taps: list[int] | tuple[int, ...],
        init: list[int] | tuple[int, ...],
    ):
        if len(taps) < 1:
            raise LocalZetaError("register length must be >= 1")
        if len(init) != len(taps):
            raise LocalZetaError("state length must equal the register length")
        ctx = p if isinstance(p, PAdicContext) else PAdicContext(p)  # InvalidPrime unless prime
        self.p = ctx.p
        self.taps = tuple(q % ctx.p for q in taps)
        self._aligned = self.taps[::-1]  # q_r..q_1, against the window oldest first
        self._window = tuple(a % ctx.p for a in init)

    @property
    def r(self) -> int:
        return len(self.taps)

    @property
    def state(self) -> tuple[int, ...]:
        """Current cell contents: the next r outputs, oldest first."""
        return self._window

    def copy(self) -> "Lfsr":
        return copy.copy(self)  # shares the immutable taps and window

    def step(self) -> int:
        """Emit the oldest cell and feed back the new element."""
        window = self._window
        feedback = -sum(map(mul, self._aligned, window)) % self.p
        self._window = window[1:] + (feedback,)
        return window[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Lfsr):
            return NotImplemented
        return (self.p, self.taps, self.state) == (other.p, other.taps, other.state)

    def __repr__(self) -> str:
        return f"Lfsr(p={self.p}, taps={self.taps}, state={self.state})"


def lfsr_run(register: Lfsr, steps: int) -> list[int]:
    """The next `steps` outputs (advances the register)."""
    if steps < 0:
        raise LocalZetaError("steps must be nonnegative")
    return [register.step() for _ in range(steps)]


def period_of(register: Lfsr) -> int:
    """Eventual period of the output sequence, by Brent's cycle detection.

    The state is a window of the output sequence, so the cycle length of
    the state orbit equals the eventual output period.  Brent's method
    keeps two states, not the orbit, and takes fewer than
    2*max(tail + 1, period) + period steps; past PERIOD_STEP_BUDGET steps
    it raises CapExceeded.
    """
    sim = register.copy()
    saved = sim.state
    sim.step()
    power = period = steps = 1
    while sim.state != saved:
        if steps >= PERIOD_STEP_BUDGET:
            raise CapExceeded(
                f"no period found within the budget of {PERIOD_STEP_BUDGET} register steps"
            )
        if period == power:
            saved, power, period = sim.state, 2 * power, 0
        sim.step()
        period += 1
        steps += 1
    return period


def lfsr_generating_function(register: Lfsr) -> CoeffPair:
    """g = L/R over F_p as the pair (L, R), R = 1 + q_1 x + ... + q_r x**r.

    Coefficients in {0..p-1}, constant term first, deg L < r; the
    canonical reduction over Q does not apply mod p.
    """
    if register.taps[-1] == 0:
        raise DegenerateTaps("q_r = 0: no length-r rational correspondence")
    p = register.p
    r = register.r
    a = register.state
    den = (1,) + register.taps
    num = [
        (a[n] + sum(register.taps[i - 1] * a[n - i] for i in range(1, n + 1))) % p
        for n in range(r)
    ]
    return tuple(_trimmed(num)), den


def series_mod_p(g: CoeffPair, p: int, count: int) -> list[int]:
    """First `count` power-series coefficients of g = (L, R) over F_p."""
    num = [c % p for c in g[0]]
    den = [c % p for c in g[1]]
    if den[0] == 0:
        raise DegreeViolation("denominator has zero constant term mod p")
    inv0 = pow(den[0], -1, p)
    out: list[int] = []
    for k in range(count):
        c = num[k] if k < len(num) else 0
        for j in range(1, min(k, len(den) - 1) + 1):
            c -= den[j] * out[k - j]
        out.append(c * inv0 % p)
    return out


def lfsr_from_rational(g: CoeffPair, p: int) -> Lfsr:
    """The unique register with q_r != 0 whose generating function is g = (L, R).

    Requires deg(numerator) < deg(denominator) = r with a nonzero
    degree-r denominator coefficient mod p (otherwise the sequence is
    only eventually periodic and no length-r register realizes it).
    """
    ctx = PAdicContext(p)  # InvalidPrime before any other error
    num = _trimmed([c % p for c in g[0]])
    den = _trimmed([c % p for c in g[1]])
    r = len(den) - 1
    if r < 1:
        raise DegreeViolation("denominator must have degree >= 1 mod p")
    init = series_mod_p((num, den), p, r)  # rejects a zero constant term
    if len(num) - 1 >= r and any(num):
        raise DegreeViolation("numerator degree must be below denominator degree")
    inv0 = pow(den[0], -1, p)
    taps = [den[i] * inv0 % p for i in range(1, r + 1)]
    return Lfsr(ctx, taps, init)
