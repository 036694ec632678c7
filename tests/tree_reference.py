"""The vertex terms of the residue-class tree by depth-first search: a
reference for the tests.

``generating_function`` finds the first weight-1 vertex of each stalk from
its parent's weight in one pass over the vertices.  This module keeps the
definition instead: a search from the root that remembers whether a
weight-1 vertex lies above, and one ``ZetaTerm`` per vertex in id order.
Each coefficient is formed as a Fraction and converted to the term's
integer pair (c, j) by ``fraction_term`` only when it is returned.
"""

from __future__ import annotations

from fractions import Fraction

from localzeta import PAdicContext, Vertex, WeightedTree, ZetaTerm


def fraction_term(coeff: Fraction, t_pow: int, den_pow: int, p: int) -> ZetaTerm:
    """The ZetaTerm of coeff * t**t_pow / (1 - t**den_pow / p), coeff = c/p**j."""
    j, rest = 0, coeff.denominator
    while rest % p == 0:
        j, rest = j + 1, rest // p
    if rest != 1:
        raise ValueError(f"{coeff} has a denominator that is not a power of {p}")
    return ZetaTerm(coeff.numerator, j, t_pow, den_pow)


def term_coeff(term: ZetaTerm, p: int) -> Fraction:
    """The coefficient c/p**j of a term as a Fraction."""
    return Fraction(term.c, p**term.j)


def minimal_weight_one_set(tree: WeightedTree) -> set[int]:
    """Weight-1 vertices with no weight-1 strict ancestor."""
    result: set[int] = set()
    stack: list[tuple[int, bool]] = [(0, False)]
    while stack:
        vid, seen_one = stack.pop()
        v = tree.vertices[vid]
        if v.weight == 1 and not seen_one:
            result.add(vid)
        below = seen_one or v.weight == 1
        for child in v.children:
            stack.append((child, below))
    return result


def vertex_term(
    v: Vertex, ctx: PAdicContext, l_f: int, in_minimal_set: bool
) -> ZetaTerm | None:
    """The closed-form contribution of one tree vertex, or None.

    Writing l for the level, W for the weight and W* for the stalk weight:

    * level l_f+1, W >= 2:   (1 - 1/p) p**-l * t**W* / (1 - t**W / p)
    * level <= l_f, W != 1:  (p - Val) p**-(l+1) * t**W*
    * minimal weight-1 set:  (1 - 1/p) p**-l * t**W* / (1 - t / p)
    * other weight-1 vertices contribute nothing.
    """
    p = ctx.p
    if v.weight == 1:
        if not in_minimal_set:
            return None
        return fraction_term(Fraction(p - 1, p ** (v.level + 1)), v.stalk_weight, 1, p)
    if v.level == l_f + 1:
        return fraction_term(Fraction(p - 1, p ** (v.level + 1)), v.stalk_weight, v.weight, p)
    if v.valence == p:  # zero coefficient, omitted from the canonical term list
        return None
    return fraction_term(
        Fraction(p - v.valence, p ** (v.level + 1)), v.stalk_weight, 0, p
    )


def tree_terms(tree: WeightedTree) -> list[ZetaTerm]:
    """The vertex terms of the tree in id order, None terms left out."""
    minimal = minimal_weight_one_set(tree)
    terms = (
        vertex_term(v, tree.ctx, tree.l_f, v.id in minimal) for v in tree.vertices
    )
    return [t for t in terms if t is not None]
