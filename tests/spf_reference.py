"""The residue recursion in Fraction arithmetic: a reference for the tests.

``spf_eval`` reduces each root once mod p**k and recurses on integer
residues.  This module keeps the same recursion on the rational roots
themselves, one modular inverse per root and level, with the same term
order: nu, then delta, then each multiple-root class in ascending xi,
depth first.  The coefficients are Fractions until ``spf_terms`` returns
them as ZetaTerms.

Unlike ``spf_eval``, which keeps its levels on an explicit stack, this
reference recurses once per level, so it meets Python's recursion limit
near 1000 levels.  The tower tests past that depth therefore compare the
spf route with the tree route, not with this reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from localzeta import PAdicContext, ZetaTerm
from localzeta.padic import residue
from tree_reference import fraction_term

Roots = tuple[tuple[Fraction, int], ...]


@dataclass(frozen=True)
class ResidueClassification:
    """Reduction mod p of a root multiset.

    nu counts residues where the reduction does not vanish, delta counts
    its simple roots, and groups holds each residue with total
    multiplicity >= 2 together with the original roots lying over it.
    """

    nu: int
    delta: int
    groups: tuple[tuple[int, int, Roots], ...]


def classify_residues(roots: Roots, ctx: PAdicContext) -> ResidueClassification:
    """Group roots by residue mod p and count unit / simple residues."""
    by_residue: dict[int, list[tuple[Fraction, int]]] = {}
    for root, mult in roots:
        by_residue.setdefault(residue(root, ctx, 1), []).append((root, mult))
    groups = []
    delta = 0
    for xi in sorted(by_residue):
        members = tuple(by_residue[xi])
        e_xi = sum(e for _, e in members)
        if e_xi == 1:
            delta += 1
        else:
            groups.append((xi, e_xi, members))
    return ResidueClassification(
        nu=ctx.p - len(by_residue), delta=delta, groups=tuple(groups)
    )


def dilate(roots: Roots, xi: int, ctx: PAdicContext) -> Roots:
    """Roots congruent to xi mod p, recentred and rescaled: (a - xi) / p.

    This is the root-level form of focusing the integral on one residue
    class; factors from non-congruent roots are dropped because they are
    p-adic units there.
    """
    return tuple(
        ((root - xi) / ctx.p, mult)
        for root, mult in roots
        if residue(root, ctx, 1) == xi
    )


def spf_terms(roots: Roots, ctx: PAdicContext) -> list[ZetaTerm]:
    """The term list of the residue recursion on distinct integral roots."""
    return [fraction_term(c, a, b, ctx.p) for c, a, b in _fraction_terms(roots, ctx)]


def _fraction_terms(roots: Roots, ctx: PAdicContext) -> list[tuple[Fraction, int, int]]:
    """The terms (coeff, t_pow, den_pow) of the recursion, coeff a Fraction."""
    p = ctx.p
    if not roots:
        return [(Fraction(1), 0, 0)]
    if len(roots) == 1:
        return [(Fraction(p - 1, p), 0, roots[0][1])]
    cls = classify_residues(roots, ctx)
    terms = []
    if cls.nu:
        terms.append((Fraction(cls.nu, p), 0, 0))
    if cls.delta:
        terms.append((Fraction(cls.delta * (p - 1), p * p), 1, 1))
    for xi, e_xi, members in cls.groups:
        sub = _fraction_terms(dilate(members, xi, ctx), ctx)
        terms.extend((c / p, a + e_xi, b) for c, a, b in sub)
    return terms
