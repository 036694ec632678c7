"""The local zeta function of a univariate polynomial with rational roots.

Two independent evaluators are kept deliberately as mutual oracles:

* ``generating_function`` sums one closed-form term per vertex of the
  weighted residue-class tree, in one pass over the vertices: a weight-1
  vertex counts when its parent's weight is not 1, since weights never
  grow below level 1;
* ``spf_eval`` reduces each root once mod p**k and recurses on residue
  classes mod p (unit-locus count nu, simple-root count delta, and a
  sub-problem on the residues x // p per multiple root), closing
  single-root integrals in closed form; each term is formed once, at its
  own level, with the scale of the levels above it passed down.

Both emit ``ZetaTerm``s (c, j, t_pow, den_pow), meaning
``c/p**j * t**t_pow / (1 - t**den_pow / p)`` in t = p**(-s) (no
denominator when den_pow = 0).  Every coefficient denominator is thus a
power of p, the consumers share the one scale p**max(j), and a
``Fraction`` is formed only to print or read a coefficient.  The result is
a ``ZetaFunction``, a t-power shift plus the terms.  ``normalize`` combines
them into a single canonical rational function, and ``poincare`` derives
the generating series of the normalized solution counts from it.

``normalize`` and ``poincare`` work in integers only.  With
1 - t**b/p = (p - t**b)/p, the term sum is
num / (L * t**k * prod_b (p - t**b)) for one integer scale L and k the
negated shift (when negative).  Each t**b - p is Eisenstein at p, hence
irreducible over Q, and distinct b give distinct factors, so the
denominator's factorisation is known and its gcd with num needs no
Euclid: one exact division by each p - t**b that divides num, and
min(k, ord_t num) powers of t.  num itself is the sum of the per-den_pow
buckets, each times every binomial but its own; ``_combined`` folds the
buckets in Horner fashion, k(k+1)/2 binomial products for k den_pows in
place of k**2.  Mod t**b - p all of num but bucket b vanishes, and bucket b
reduces to sums of positive multiples of its coefficients, so p - t**b is
tried only when bucket b has a negative coefficient or none but 0.  The
evaluators emit c > 0 throughout, so their Z and H run no division.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, zip_longest
from operator import attrgetter
from typing import NamedTuple

from .errors import CapExceeded, InvariantViolation, MalformedDocument, RecursionDepthExceeded
from .padic import PAdicContext, residue, vp
from .polynomials import (
    DensePoly,
    FactoredPoly,
    _fraction,
    _separation_depth,
    compute_lf,
    reduce_to_integral_roots,
)
from .ratfunc import RationalFunctionT, _trimmed, decimal, rf_format, rf_to_json
from .tree import WeightedTree, build_tree, json_int

Roots = tuple[tuple[Fraction, int], ...]

# the largest dense degree, max(t_pow) + sum(den_pows) + |shift|, of a normal
# form: the spf terms of (x - 1)**(10**5) reach it, and their normal form and
# Poincare series take about 0.1 s and 25 MB
_MAX_DENSE_DEGREE = 10**5


class ZetaTerm(NamedTuple):
    """c/p**j * t**t_pow / (1 - t**den_pow / p), kept in lowest terms (p ∤ c if j > 0)."""

    c: int
    j: int
    t_pow: int
    den_pow: int


@dataclass(frozen=True)
class ZetaFunction:
    ctx: PAdicContext
    shift: int
    terms: tuple[ZetaTerm, ...]

    @cached_property
    def scaled_coeffs(self) -> tuple[int, list[int]]:
        """(p**J, [c * p**(J - j) per term]), J the largest j: one common scale.

        Formed on the first read and kept (the same list, not to be
        modified): sorting the terms, the normal form and the tree counts
        all read it.
        """
        p, top = self.ctx.p, max((t.j for t in self.terms), default=0)
        shifts = {j: p ** (top - j) for j in {t.j for t in self.terms}}
        return p**top, [t.c * shifts[t.j] for t in self.terms]

    def sorted_terms(self) -> tuple[ZetaTerm, ...]:
        """Terms by t_pow, den_pow, then coefficient (as integers at their common scale)."""
        _, cs = self.scaled_coeffs
        keyed = sorted(zip(self.terms, cs), key=lambda tc: (tc[0].t_pow, tc[0].den_pow, tc[1]))
        return tuple(t for t, _ in keyed)


# ---------------------------------------------------------------------------
# evaluator 1: per-vertex terms of the weighted tree
# ---------------------------------------------------------------------------


def generating_function(tree: WeightedTree, shift: int = 0) -> ZetaFunction:
    """Sum of the vertex terms of the tree, with the global t-shift attached.

    Writing l for the level, W for the weight, W* for the stalk weight and
    Val for the valence, a vertex contributes:

    * a weight-1 vertex whose parent's weight is not 1:
      (1 - 1/p) p**-l * t**W* / (1 - t / p)
    * level l_f+1, W >= 2:   (1 - 1/p) p**-l * t**W* / (1 - t**W / p)
    * level <= l_f, W != 1:  (p - Val) p**-(l+1) * t**W*, omitted when Val = p
    * other weight-1 vertices contribute nothing.

    The weight-1 vertices that count are the first on their stalk.  A class
    mod p**(l+1) lies inside its parent's class, so below level 1 no vertex
    outweighs its parent, and the root weighs 0: a weight-1 vertex has a
    weight-1 strict ancestor exactly when its parent weighs 1.  The tree's
    own context is reused, so p is not proved prime again.
    """
    p = tree.ctx.p
    top = tree.l_f + 1
    vertices = tree.vertices
    terms = []
    for v in vertices:
        if v.weight == 1:
            if v.parent is None or vertices[v.parent].weight != 1:
                terms.append(ZetaTerm(p - 1, v.level + 1, v.stalk_weight, 1))
        elif v.level == top:
            terms.append(ZetaTerm(p - 1, v.level + 1, v.stalk_weight, v.weight))
        elif (valence := len(v.children)) != p:  # 0 only at the root of no roots, where p/p is 1
            c, j = (p - valence, v.level + 1) if valence else (1, v.level)
            terms.append(ZetaTerm(c, j, v.stalk_weight, 0))
    return ZetaFunction(ctx=tree.ctx, shift=shift, terms=tuple(terms))


# ---------------------------------------------------------------------------
# evaluator 2: recursion on residue classes
# ---------------------------------------------------------------------------


def spf_eval(roots: Roots, ctx: PAdicContext) -> ZetaFunction:
    """Independent recursive evaluator on a multiset of integral roots.

    Each root is reduced once mod p**k, k = ``_separation_depth``; distinct
    roots stay distinct there.  Per level: a constant nu/p for the unit
    locus, one geometric term for the delta simple residues, and a
    recursive call per residue class xi with multiplicity e >= 2, scaled by
    t**e / p, on the residues (x - xi) / p = x // p.  A single root is
    closed in one step as (1 - 1/p) / (1 - t**e / p); an empty root set
    integrates a unit, giving 1.  Each term is formed once, at its own
    level, with the scale of the levels above it already applied (see
    ``_spf_terms``).
    """
    roots = tuple((_fraction(r), int(e)) for r, e in roots)
    if len({(r.numerator, r.denominator) for r, _ in roots}) != len(roots):
        raise ValueError("roots must be pairwise distinct")
    k = _separation_depth(roots, ctx)
    xs = tuple((residue(r, ctx, k), e) for r, e in roots)
    terms: list[ZetaTerm] = []
    _spf_terms(xs, ctx.p, 0, k + 1, 0, terms)
    return ZetaFunction(ctx=ctx, shift=0, terms=tuple(terms))


def _spf_terms(
    xs: tuple[tuple[int, int], ...],
    p: int,
    depth: int,
    limit: int,
    t_pow: int,
    out: list[ZetaTerm],
) -> None:
    """Append the terms of one level to out, in lowest terms, each formed once.

    A level `depth` calls down sits under the scale t**t_pow / p**depth
    that its ancestors' classes put on it, so its term c/p**j * t**a /
    (1 - t**b/p) goes to out as (c, depth + j, t_pow + a, b).  The classes
    are visited in ascending xi, depth first, so out holds the terms in the
    order of the recursion.
    """
    if depth > limit:
        raise RecursionDepthExceeded(
            f"recursion reached depth {depth} with depth bound {limit - 1}"
        )
    if not xs:
        out.append(ZetaTerm(1, depth, t_pow, 0))
        return
    if len(xs) == 1:
        out.append(ZetaTerm(p - 1, depth + 1, t_pow, xs[0][1]))
        return
    buckets: dict[int, list[tuple[int, int]]] = {}
    for x, e in xs:
        rest, xi = divmod(x, p)
        buckets.setdefault(xi, []).append((rest, e))
    delta, groups = 0, []
    for xi in sorted(buckets):
        e_xi = sum(e for _, e in buckets[xi])
        if e_xi == 1:
            delta += 1
        else:
            groups.append((e_xi, tuple(buckets[xi])))
    if nu := p - len(buckets):
        out.append(ZetaTerm(nu, depth + 1, t_pow, 0))
    if delta:
        c, j = (p - 1, 1) if delta == p else (delta * (p - 1), 2)  # lowest terms
        out.append(ZetaTerm(c, depth + j, t_pow + 1, 1))
    for e_xi, members in groups:
        _spf_terms(members, p, depth + 1, limit, t_pow + e_xi, out)


# ---------------------------------------------------------------------------
# pipeline and normalization
# ---------------------------------------------------------------------------


def compute_zeta(
    f: DensePoly | FactoredPoly, ctx: PAdicContext, method: str = "tree"
) -> ZetaFunction:
    """Full pipeline: factor (if dense), reduce, and evaluate Z(t, f)."""
    reduced = reduce_to_integral_roots(f, ctx)
    if method == "tree":
        tree = build_tree(reduced.fplus, ctx, compute_lf(reduced.fplus, ctx))
        return generating_function(tree, shift=reduced.shift)
    if method == "spf":
        return ZetaFunction(ctx, reduced.shift, spf_eval(reduced.fplus.roots, ctx).terms)
    raise ValueError(f"unknown method {method!r}")


def _mul_binomial(a: list[int], p: int, b: int) -> list[int]:
    """a(t) * (p - t**b)."""
    out = [p * c for c in a] + [0] * b
    for i, c in enumerate(a):
        out[i + b] -= c
    return out


def _div_binomial(a: list[int], p: int, b: int) -> list[int] | None:
    """a(t) / (p - t**b) when the division is exact, else None.

    The divisor's leading coefficient is -1, so the quotient of an integer
    polynomial stays integral and the remainder test needs no Fraction.
    """
    top = len(a) - 1 - b
    if top < 0:
        return None
    r = list(a)
    q = [0] * (top + 1)
    for j in range(top, -1, -1):
        q[j] = -r[j + b]
        r[j] += p * r[j + b]
    return None if any(r[:b]) else q


def _combined(z: ZetaFunction) -> tuple[list[int], int, int, list[int], set[int]]:
    """Z = num / (scale * t**k * prod_b (p - t**b)), all in integers, and the b to try.

    The coefficients are brought to their common scale p**max(j), each
    factor 1 - t**b/p is written (p - t**b)/p, and the terms are summed
    per den_pow.  For den_pows b_1 < ... < b_k the buckets are folded in
    Horner fashion: num starts as the den_pow-0 bucket, and step i sets
    num = num * (p - t**b_i) + bucket_i * prod_{l<i} (p - t**b_l).  So num
    takes each binomial once and bucket i takes i - 1 of them, k(k+1)/2
    binomial products in all where multiplying each bucket by every other
    factor takes k**2.  The dense degree max(t_pow) + sum(b_i) + |shift|
    is checked once, before the pass over the terms: past
    _MAX_DENSE_DEGREE it raises CapExceeded, and no list is built.

    The last item is the set of den_pows b whose p - t**b may divide num:
    those whose bucket has a negative coefficient or none but 0.  Mod
    t**b - p every other bucket vanishes, and the binomials of the other
    den_pows and t are units (t**b - p is irreducible), so p - t**b divides
    num exactly when it divides bucket b.  Bucket b reduces to
    sum_i c_i p**(i // b) t**(i % b), whose coefficients are sums of
    positive multiples of the c_i, so it is not zero when the c_i are all
    >= 0 and not all 0.  The evaluators emit only c > 0, so for their Z the
    set is empty.
    """
    p = z.ctx.p
    bs = sorted({t.den_pow for t in z.terms if t.den_pow})
    degree = max(map(attrgetter("t_pow"), z.terms), default=0) + sum(bs) + abs(z.shift)
    if degree > _MAX_DENSE_DEGREE:
        try:
            size = f"dense degree {degree}"
        except ValueError:  # str(degree) is past the int-to-str digit limit
            size = "a dense degree past the int-to-str digit limit"
        raise CapExceeded(f"the normal form has {size}, past the bound {_MAX_DENSE_DEGREE}")
    scale, cs = z.scaled_coeffs
    buckets: dict[int, list[int]] = {b: [] for b in [0, *bs]}
    for term, c in zip(z.terms, cs):
        bucket = buckets[term.den_pow]
        if len(bucket) <= term.t_pow:
            bucket.extend([0] * (term.t_pow + 1 - len(bucket)))
        bucket[term.t_pow] += c * p if term.den_pow else c
    tried = {b for b in bs if min(buckets[b]) < 0 or not any(buckets[b])}
    num = buckets[0]
    for i, b in enumerate(bs):
        part = buckets[b]
        for before in bs[:i]:
            part = _mul_binomial(part, p, before)
        num = [x + y for x, y in zip_longest(_mul_binomial(num, p, b), part, fillvalue=0)]
    if z.shift >= 0:
        return [0] * z.shift + num, scale, 0, bs, tried
    return num, scale, -z.shift, bs, tried


def _expand_den(scale: int, k: int, bs: list[int], p: int) -> list[int]:
    den = [0] * k + [scale]
    for b in bs:
        den = _mul_binomial(den, p, b)
    return den


def _canonical(
    num: list[int], scale: int, k: int, bs: list[int], tried: set[int], p: int
) -> RationalFunctionT:
    """Canonical form of num / (scale * t**k * prod_b (p - t**b)).

    The denominator's factorisation over Q is known: t, and the distinct
    irreducible p - t**b (Eisenstein at p), each once.  The gcd with num
    is therefore the product of the factors that divide num, with t taken
    min(k, ord_t num) times.  Only the b in tried are trial-divided: the
    others cannot divide num (see ``_combined``).  The denominator's lowest
    coefficient, scale * p**m, is positive, so only the joint content is
    left to divide.
    """
    num = _trimmed(num or [0])
    if num == [0]:
        return RationalFunctionT((0,), (1,))
    kept = []
    for b in bs:
        quot = _div_binomial(num, p, b) if b in tried else None
        if quot is None:
            kept.append(b)
        else:
            num = quot
    cut = min(k, next(i for i, c in enumerate(num) if c))
    num = num[cut:]
    den = _expand_den(scale, k - cut, kept, p)
    g = math.gcd(*num, *den)
    return RationalFunctionT(tuple(c // g for c in num), tuple(c // g for c in den))


def normalize(z: ZetaFunction) -> RationalFunctionT:
    """Combine the terms over the common denominator prod (1 - t**b / p).

    A nonnegative shift multiplies the numerator by t**shift; a negative
    one multiplies the denominator by t**(-shift).  The arithmetic is in
    integers throughout, and the gcd comes from the known factors of the
    denominator (see ``_canonical``), so no polynomial Euclid runs; a
    binomial p - t**b is trial-divided only when the terms of den_pow b sum
    to a negative coefficient or to 0, so the evaluators' Z runs no
    division.  The result
    equals ``make_ratfunc`` of the same quotient bit for bit.
    """
    return _canonical(*_combined(z), z.ctx.p)


def poincare(z: ZetaFunction) -> RationalFunctionT:
    """H(t) = (1 - t*Z(t)) / (1 - t), with the forced (1 - t) cancellation.

    Z(1) = 1 (the residue classes exhaust a set of measure one), so 1 - t
    always divides 1 - t*Z exactly; this is checked, and a nonzero
    remainder raises InvariantViolation.  With Z = num/den uncancelled,
    H = ((den - t*num) / (1 - t)) / den, and den has the same known
    factors as in ``normalize``, so the same cancellation applies.  Mod
    t**b - p the numerator is -t*num/(1 - t), and t and 1 - t are units
    there, so p - t**b divides it exactly when it divides num: the same
    den_pows are tried.
    """
    p = z.ctx.p
    num, scale, k, bs, tried = _combined(z)
    den = _expand_den(scale, k, bs, p)
    quot = list(accumulate(x - y for x, y in zip_longest(den, [0, *num], fillvalue=0)))
    if quot.pop():
        raise InvariantViolation("poincare: total measure is not 1; upstream bug")
    return _canonical(quot, scale, k, bs, tried, p)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _coeffs(z: ZetaFunction) -> dict[tuple[int, int], str]:
    """Each distinct coefficient c/p**j of z as text in lowest terms, e.g. '-2/27'.

    A Fraction is formed once per distinct coefficient, to print it.
    """
    p = z.ctx.p
    return {(c, j): decimal(Fraction(c, p**j)) for c, j in {(t.c, t.j) for t in z.terms}}


def term_text(term: ZetaTerm, bare: str, p: int) -> str:
    """One term in t = p**(-s) notation, e.g. '(2/27)*t^4 / (1 - t/3)'.

    bare is the text of the term's coefficient from ``_coeffs``; before a
    power of t it is parenthesised when it is a fraction or negative.
    """
    if term.t_pow == 0:
        body = bare
    else:
        factor = f"({bare})" if "/" in bare or bare[0] == "-" else bare
        power = "t" if term.t_pow == 1 else f"t^{term.t_pow}"
        body = f"{factor}*{power}"
    if term.den_pow == 0:
        return body
    tb = "t" if term.den_pow == 1 else f"t^{term.den_pow}"
    return f"{body} / (1 - {tb}/{p})"


def zeta_text(z: ZetaFunction) -> str:
    """Multi-line rendering: the term sum, then the normalized form.

    The normal form is computed before the first line, so its dense-degree
    check refuses an oversized z before any exponent is formatted.
    """
    p = z.ctx.p
    rf = normalize(z)
    lines = [f"p = {p}, shift = {z.shift}", "terms:"]
    coeffs = _coeffs(z)
    for term in z.sorted_terms():
        lines.append(f"  {term_text(term, coeffs[term.c, term.j], p)}")
    lines.append(f"Z = {rf_format(rf)}, t = {p}^(-s)")
    return "\n".join(lines)


def zeta_to_json(z: ZetaFunction) -> dict:
    """JSON document with big integers rendered as decimal strings."""
    rf = normalize(z)
    coeffs = _coeffs(z)
    return {
        "p": str(z.ctx.p),
        "shift": z.shift,
        "terms": [
            {"coeff": coeffs[t.c, t.j], "t_pow": t.t_pow, "den_pow": t.den_pow}
            for t in z.terms
        ],
        "normalized": rf_to_json(rf),
    }


_RATIO = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _json_coeff(value: object, field: str) -> Fraction:
    if isinstance(value, str) and _RATIO.fullmatch(value):
        num, _, den = value.partition("/")
        if int(den or 1):
            return Fraction(int(num), int(den or 1))
    elif not isinstance(value, str):
        return Fraction(json_int(value, "zeta_from_json", field))
    raise MalformedDocument(
        f"zeta_from_json: {field} must be an integer or integer/positive integer, not {value!r:.60}"
    )


def zeta_from_json(doc: dict | str) -> ZetaFunction:
    """Inverse of zeta_to_json, ignoring `normalized`; each coeff n/d must have d = p**j.

    The integers go through ``tree.json_int``; a coefficient is an integer
    or a string "n" or "n/d" of decimal integers with d > 0, such as
    "-2/27", so a float, a boolean, exponent notation ("1e9"), a decimal
    point, a sign "+" or a blank is refused.
    """
    try:
        if isinstance(doc, str):
            doc = json.loads(doc)
        if not isinstance(doc["terms"], list):
            raise MalformedDocument("zeta_from_json: terms must be a list")
        raw = []
        for i, t in enumerate(doc["terms"]):
            coeff = _json_coeff(t["coeff"], f"term {i} coeff")
            a, b = (json_int(t[k], "zeta_from_json", f"term {i} {k}") for k in ("t_pow", "den_pow"))
            raw.append((coeff, a, b))
        p, shift = (json_int(doc[k], "zeta_from_json", k) for k in ("p", "shift"))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise MalformedDocument(f"zeta_from_json: {exc!r}") from exc
    ctx = PAdicContext(p)
    terms = []
    for i, (coeff, a, b) in enumerate(raw):
        j = vp(coeff.denominator, ctx)
        if a < 0 or b < 0 or p**j != coeff.denominator:
            raise MalformedDocument(
                f"zeta_from_json: term {i} has coeff = {coeff}, t_pow = {a} and den_pow = {b}; "
                f"both exponents must be >= 0 and the denominator a power of {p}"
            )
        terms.append(ZetaTerm(coeff.numerator, j, a, b))
    return ZetaFunction(ctx=ctx, shift=shift, terms=tuple(terms))
