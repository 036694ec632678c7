"""Reference answers computed apart from the program under test.

Nothing here imports localzeta.  Every check starts from what the corpus
generator knows about an input (its prime, unit and roots a_i/b_i) or
from properties any correct output must have, never from a stored copy
of earlier output.

* ``sweep_counts`` evaluates v_p(f(x)) = v_p(u) + sum e_i v_p(b_i x - a_i)
  for every x mod p**n with numpy and counts the x with v_p(f(x)) >= m.
* ``class_counts`` computes the same N_m at any depth by descending the
  residue classes that contain roots; the other classes have constant
  valuation and are counted in one step.
* ``closed_form_zeta`` is Z(t) for roots that are integral and pairwise
  distinct mod p.
* ``register_outputs`` and ``register_period`` re-implement the register
  recurrence and a state-cycle search.

Rational functions are pairs (num, den) of coefficient lists, constant
term first, compared by cross-multiplication.
"""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np

Roots = tuple[tuple[Fraction, int], ...]


# ---------------------------------------------------------------------------
# p-adic valuations
# ---------------------------------------------------------------------------


def int_vp(n: int, p: int) -> int:
    """v_p of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp(x: Fraction, p: int) -> int:
    """v_p of a nonzero rational."""
    return int_vp(x.numerator, p) - int_vp(x.denominator, p)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases (exact below 3.3e24)."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in small:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# solution counts N_0..N_n from the known roots
# ---------------------------------------------------------------------------


def sweep_counts(unit: Fraction, roots: Roots, p: int, n: int) -> list[int]:
    """N_0..N_n by evaluating v_p(f(x)) for every x in 0..p**n - 1.

    f = unit * prod (x - a/b)**e = u * prod (b x - a)**e with
    u = unit / prod b**e.
    Valuations are capped at n; f must have integer coefficients, so the
    condition v_p(f(x)) >= m depends only on x mod p**m.
    """
    q = p**n
    xs = np.arange(q, dtype=np.int64)
    u = unit
    for root, mult in roots:
        u /= root.denominator**mult
    total = np.full(q, vp(u, p), dtype=np.int64)
    for root, mult in roots:
        value = root.denominator * xs - root.numerator
        v = np.zeros(q, dtype=np.int64)
        divisible = np.ones(q, dtype=bool)
        for _ in range(n):
            divisible &= value % p == 0
            value //= p
            v += divisible
        total += mult * v
    return [1] + [
        int((total >= m).sum()) // p ** (n - m) for m in range(1, n + 1)
    ]


def _residue(root: Fraction, modulus: int) -> int:
    return root.numerator * pow(root.denominator, -1, modulus) % modulus


def class_counts(unit: Fraction, roots: Roots, p: int, n: int) -> list[int]:
    """N_0..N_n exactly, for any depth n, by descending root classes.

    A class x0 + p**k Z_p with no root in it has constant valuation; a
    class holding exactly one root a with multiplicity e has valuation
    V + e v_p(x - a), whose level sets are balls.  Only classes holding
    two or more roots are split, so the work is about p * r * l_f.
    """
    base = vp(unit, p)
    integral = []
    for root, mult in roots:
        v = vp(root, p) if root else 1
        if v < 0:
            base += mult * v
        else:
            integral.append((root, mult))
    flat: list[tuple[int, int, int]] = []  # (count, level, valuation)
    balls: list[tuple[int, int, int]] = []  # (level, valuation off the root, mult)

    def descend(level: int, members: list[tuple[Fraction, int]], outside: int) -> None:
        if not members:
            flat.append((1, level, outside))
            return
        if len(members) == 1:
            balls.append((level, outside, members[0][1]))
            return
        groups: dict[int, list[tuple[Fraction, int]]] = {}
        modulus = p ** (level + 1)
        for root, mult in members:
            groups.setdefault(_residue(root, modulus), []).append((root, mult))
        weight = sum(mult for _, mult in members)
        if len(groups) < p:
            flat.append((p - len(groups), level + 1, outside + level * weight))
        for group in groups.values():
            rest = weight - sum(mult for _, mult in group)
            descend(level + 1, group, outside + level * rest)

    descend(0, integral, base)
    counts = []
    for m in range(n + 1):
        measure = Fraction(0)
        for count, level, value in flat:
            if value >= m:
                measure += Fraction(count, p**level)
        for level, value, mult in balls:
            need = -((value - m) // mult)  # ceil((m - value) / mult)
            measure += Fraction(1, p ** max(level, need))
        total = measure * p**m
        if total.denominator != 1:
            raise ValueError(f"N_{m} = {total} is not an integer")
        counts.append(int(total))
    return counts


# ---------------------------------------------------------------------------
# polynomials and rational functions in t
# ---------------------------------------------------------------------------


def poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_add(a: list, b: list) -> list:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return out


def poly_trim(a: list) -> list:
    out = list(a)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def poly_eval(a: list, t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * t + c
    return acc


def rf_equal(x: tuple[list, list], y: tuple[list, list]) -> bool:
    return poly_trim(poly_mul(x[0], y[1])) == poly_trim(poly_mul(y[0], x[1]))


def rf_eval(rf: tuple[list, list], t: Fraction) -> Fraction:
    return poly_eval(rf[0], t) / poly_eval(rf[1], t)


def rf_series(rf: tuple[list, list], count: int) -> list[Fraction]:
    """First `count` power-series coefficients by long division."""
    num, den = rf
    out: list[Fraction] = []
    for k in range(count):
        c = Fraction(num[k]) if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            c -= den[j] * out[k - j]
        out.append(c / den[0])
    return out


def counts_from_series(coeffs: list[Fraction], p: int, n: int) -> list[int]:
    """N_0..N_n from c_0..c_{n-1}: N_m = p**m (1 - c_0 - ... - c_{m-1})."""
    counts, total = [1], Fraction(0)
    for m in range(1, n + 1):
        total += coeffs[m - 1]
        value = p**m * (1 - total)
        if value.denominator != 1:
            raise ValueError(f"N_{m} = {value} is not an integer")
        counts.append(int(value))
    return counts


def closed_form_zeta(p: int, roots: Roots) -> tuple[list, list]:
    """Z(t) = (p - r)/p + sum (p - 1) t**e / (p**2 (1 - t**e / p)).

    Valid when every root is integral at p and the roots are pairwise
    distinct mod p (no t-shift then).  Each term is carried as
    ((p - 1)/p) t**e / (p - t**e).
    """
    num: list = [Fraction(p - len(roots), p)]
    den: list = [Fraction(1)]
    for _, e in roots:
        term_num = [0] * e + [Fraction(p - 1, p)]
        term_den = [p] + [0] * (e - 1) + [-1]
        num = poly_add(poly_mul(num, term_den), poly_mul(term_num, den))
        den = poly_mul(den, term_den)
    return num, den


# ---------------------------------------------------------------------------
# parsing the program's text and JSON output
# ---------------------------------------------------------------------------

_TERM = re.compile(r"^(\d*)(\*?)(t(?:\^(\d+))?)?$")


def parse_poly_text(text: str) -> list[int]:
    """Inverse of the program's polynomial rendering, e.g. '5 - t + 2*t^3'."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    tokens = text.split()
    coeffs: dict[int, int] = {}
    sign = 1
    for i, tok in enumerate(tokens):
        if i % 2 == 1:
            if tok not in ("+", "-"):
                raise ValueError(f"bad operator {tok!r} in {text!r}")
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -sign, tok[1:]
        match = _TERM.match(tok)
        if not match or not (match.group(1) or match.group(3)):
            raise ValueError(f"bad term {tok!r} in {text!r}")
        mag = int(match.group(1)) if match.group(1) else 1
        power = 0 if not match.group(3) else int(match.group(4) or 1)
        coeffs[power] = coeffs.get(power, 0) + sign * mag
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return out


def parse_rf_text(text: str) -> tuple[list, list]:
    """'(num)/(den)' or 'num/den' or a bare polynomial."""
    depth = 0
    for i, ch in enumerate(text):
        depth += ch == "("
        depth -= ch == ")"
        if ch == "/" and depth == 0:
            return parse_poly_text(text[:i]), parse_poly_text(text[i + 1:])
    return parse_poly_text(text), [1]


_ZETA_TERM = re.compile(
    r"^(?:\((?P<pc>-?\d+(?:/\d+)?)\)|(?P<c>-?\d+(?:/\d+)?))"
    r"(?:\*t(?:\^(?P<a>\d+))?)?"
    r"(?: / \(1 - t(?:\^(?P<b>\d+))?/(?P<p>\d+)\))?$"
)


def parse_zeta_text(text: str) -> dict:
    """The `zeta` command's text: shift, term list and normalized Z."""
    lines = text.strip().splitlines()
    head = re.match(r"^p = (\d+), shift = (-?\d+)$", lines[0])
    if not head or lines[1] != "terms:":
        raise ValueError("unexpected zeta header")
    p, shift = int(head.group(1)), int(head.group(2))
    terms = []
    for line in lines[2:-1]:
        match = _ZETA_TERM.match(line.strip())
        if not match:
            raise ValueError(f"bad zeta term {line!r}")
        coeff = Fraction(match.group("pc") or match.group("c"))
        has_t = "*t" in line
        a = int(match.group("a") or 1) if has_t else 0
        b = 0
        if match.group("p"):
            b = int(match.group("b") or 1)
            if int(match.group("p")) != p:
                raise ValueError(f"term {line!r} uses another prime")
        terms.append((coeff, a, b))
    last = re.match(r"^Z = (.*), t = (\d+)\^\(-s\)$", lines[-1])
    if not last or int(last.group(2)) != p:
        raise ValueError("unexpected Z line")
    return {"p": p, "shift": shift, "terms": terms, "z": parse_rf_text(last.group(1))}


def terms_value(p: int, shift: int, terms: list, t: Fraction) -> Fraction:
    """t**shift * sum coeff t**a / (1 - t**b / p) at one point."""
    total = Fraction(0)
    for coeff, a, b in terms:
        value = coeff * t**a
        if b:
            value /= 1 - t**b / p
        total += value
    return total * t**shift


# ---------------------------------------------------------------------------
# the register layer
# ---------------------------------------------------------------------------


def register_outputs(p: int, taps: list[int], init: list[int], steps: int) -> list[int]:
    """a_0, a_1, ... with a_n = -(q_1 a_{n-1} + ... + q_r a_{n-r}) mod p."""
    seq = [a % p for a in init]
    while len(seq) < steps:
        n = len(seq)
        seq.append(-sum(q * seq[n - i] for i, q in enumerate(taps, 1)) % p)
    return seq[:steps]


def register_period(p: int, taps: list[int], init: list[int]) -> int:
    """Eventual period of the output sequence, by a search over states."""
    r = len(taps)
    state = tuple(a % p for a in init)
    seen: dict[tuple[int, ...], int] = {}
    i = 0
    while state not in seen:
        seen[state] = i
        nxt = -sum(q * state[r - i2] for i2, q in enumerate(taps, 1)) % p
        state = state[1:] + (nxt,)
        i += 1
    return i - seen[state]


def lifting_bounds_hold(counts: list[int], p: int) -> bool:
    """N_0 = 1 and 0 <= N_{m+1} <= p N_m."""
    return counts[:1] == [1] and all(
        0 <= b <= p * a for a, b in zip(counts, counts[1:])
    )


def bits(values) -> int:
    """Largest bit length among integers or rationals."""
    best = 0
    for v in values:
        v = Fraction(v)
        best = max(best, abs(v.numerator).bit_length(), v.denominator.bit_length())
    return best
