"""Residue-class trees of polynomial roots modulo powers of p.

The tree of a factored polynomial with integral roots is the union of the
root stalks: a level-m vertex for every distinct residue of a root modulo
p**m, m = 0..l_f+1, linked by reduction modulo p**(m-1).  The weight of a
vertex is the total multiplicity of the roots in its residue class (0 at
the root), the stalk weight accumulates weights along the path from the
root, and the valence counts children.

``build_tree`` makes one pass over the levels.  Each root is reduced once
modulo p**(l_f+1); a level takes those residues modulo p**m, visits its
classes in ascending order, numbers them after the level above, and finds
each parent in the residue-to-id map of that level.  So ids go level by
level with residues ascending, every children tuple is ascending, and
serialization is deterministic.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

from .errors import MalformedDocument
from .padic import PAdicContext
from .padic import residue as residue_mod
from .polynomials import FactoredPoly
from .ratfunc import decimal


class Vertex(NamedTuple):
    """One residue class mod p**level; a tuple of its seven fields."""

    id: int
    level: int
    residue: int
    parent: int | None
    children: tuple[int, ...]
    weight: int
    stalk_weight: int

    @property
    def valence(self) -> int:
        """Number of edges arriving from the next level."""
        return len(self.children)


@dataclass(frozen=True)
class WeightedTree:
    ctx: PAdicContext
    l_f: int
    vertices: tuple[Vertex, ...]

    @property
    def p(self) -> int:
        return self.ctx.p


def build_tree(fplus: FactoredPoly, ctx: PAdicContext, l_f: int) -> WeightedTree:
    """Union of the root stalks up to level l_f + 1, with all weights.

    Every root must have v_p >= 0 (reduce first).  Each root is reduced
    once modulo p**(l_f + 1) and each level takes that residue modulo p**m,
    so rational roots with denominators coprime to p are handled exactly.
    """
    if l_f < 1:
        raise ValueError("separation depth must be >= 1")
    return _tree_of([(residue_mod(r, ctx, l_f + 1), m) for r, m in fplus.roots], ctx, l_f)


def _tree_of(tops: list[tuple[int, int]], ctx: PAdicContext, l_f: int) -> WeightedTree:
    """The tree of the (residue mod p**(l_f + 1), multiplicity) pairs tops.

    One pass per level gives the ids (after the level above, residues
    ascending), the parent (from the level above's residue-to-id map) and
    the stalk weight (weight plus the parent's stalk weight).  Without
    tops the tree is its root alone, whatever l_f.
    """
    # (level, residue, parent, weight, stalk weight) per id, children per id
    rows: list[tuple[int, int, int | None, int, int]] = [(0, 0, None, 0, 0)]
    children: list[list[int]] = [[]]
    above = {0: 0}
    for m in range(1, l_f + 2 if tops else 1):
        modulus, up = ctx.p**m, ctx.p ** (m - 1)
        weights: dict[int, int] = {}
        for top, mult in tops:
            residue = top % modulus
            weights[residue] = weights.get(residue, 0) + mult
        here = {}
        for residue in sorted(weights):
            vid = here[residue] = len(rows)
            pid = above[residue % up]
            w = weights[residue]
            rows.append((m, residue, pid, w, w + rows[pid][4]))
            children[pid].append(vid)
            children.append([])
        above = here
    vertices = tuple(
        Vertex(vid, m, residue, pid, tuple(kids), w, stalk)
        for vid, ((m, residue, pid, w, stalk), kids) in enumerate(zip(rows, children))
    )
    return WeightedTree(ctx=ctx, l_f=l_f, vertices=vertices)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def tree_to_text(tree: WeightedTree) -> str:
    """One `node` line per vertex, one `edge <child> <parent>` line per link."""
    lines = [f"tree p={tree.p} l_f={tree.l_f}"]
    for v in tree.vertices:
        lines.append(
            f"node {v.id} level={v.level} residue={decimal(v.residue)} weight={decimal(v.weight)} "
            f"stalk_weight={decimal(v.stalk_weight)} valence={v.valence}"
        )
    for v in tree.vertices:
        if v.parent is not None:
            lines.append(f"edge {v.id} {v.parent}")
    return "\n".join(lines)


def tree_to_json(tree: WeightedTree) -> dict:
    """JSON document mirroring the vertex fields (residues as strings)."""
    return {
        "p": str(tree.p),
        "l_f": tree.l_f,
        "root": 0,
        "vertices": [
            {
                "id": v.id,
                "level": v.level,
                "residue": decimal(v.residue),
                "parent": v.parent,
                "children": list(v.children),
                "weight": v.weight,
                "stalk_weight": v.stalk_weight,
                "valence": v.valence,
            }
            for v in tree.vertices
        ],
    }


_DECIMAL = re.compile(r"-?[0-9]+")


def json_int(value: object, reader: str, field: str) -> int:
    """A JSON integer, or a decimal string as the writers emit, as an int.

    int() would truncate a float and take a boolean as 0 or 1, so a
    document holding either would load as a different object; they and
    every other value raise MalformedDocument naming the reader and field.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _DECIMAL.fullmatch(value):
        return int(value)
    raise MalformedDocument(
        f"{reader}: {field} must be an integer or a decimal string, not {value!r:.60}"
    )


def _json_vertex(i: int, v: dict) -> Vertex:
    def read(field: str, value: object) -> int:
        return json_int(value, "tree_from_json", f"vertex {i} {field}")

    if not isinstance(v["children"], list):
        raise MalformedDocument(f"tree_from_json: vertex {i} children must be a list")
    return Vertex(
        parent=None if v["parent"] is None else read("parent", v["parent"]),
        children=tuple(read("children", c) for c in v["children"]),
        **{k: read(k, v[k]) for k in ("id", "level", "residue", "weight", "stalk_weight")},
    )


def tree_from_json(doc: dict | str) -> WeightedTree:
    """Inverse of tree_to_json: the document must be the tree of its leaves.

    The level-(l_f + 1) vertices name the roots mod p**(l_f + 1) and their
    weights the multiplicities, which fix every other vertex.  The reader
    rebuilds the tree from them with build_tree's level pass and rejects a
    document that differs from it, naming the first field that does.
    """
    try:
        if isinstance(doc, str):
            doc = json.loads(doc)
        vertices = tuple(_json_vertex(i, v) for i, v in enumerate(doc["vertices"]))
        p, l_f, root = (json_int(doc[k], "tree_from_json", k) for k in ("p", "l_f", "root"))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedDocument(f"tree_from_json: {exc!r}") from exc
    ctx = PAdicContext(p)
    leaves = [(i, v) for i, v in enumerate(vertices) if v.level == l_f + 1]
    light = [f"leaf {i} has weight {v.weight}, below 1" for i, v in leaves if v.weight < 1]
    # level m of the tree of the leaves has one vertex per class mod p**m
    levels = (len({v.residue % q for _, v in leaves}) for q in (p**m for m in range(1, l_f + 2)))
    if l_f < 1:
        problem = f"l_f = {l_f} must be >= 1"
    elif light:
        problem = light[0]
    elif leaves and any(size > len(vertices) for size in accumulate(levels, initial=1)):
        # each level adds a vertex or more, so any() stops within len(vertices) levels
        problem = f"the tree of the leaves has more than the document's {len(vertices)} vertices"
    elif root != 0:
        problem = f"root {root} must be 0"
    else:
        tree = _tree_of([(v.residue, v.weight) for _, v in leaves], ctx, l_f)
        problem = vertices != tree.vertices and _first_difference(vertices, tree.vertices)
    if problem:
        raise MalformedDocument(f"tree_from_json: {problem}")
    return tree


def _first_difference(doc: tuple[Vertex, ...], built: tuple[Vertex, ...]) -> str:
    """The first field in which the document's vertices differ from the built ones.

    The caller passes only vertex tuples that differ, so a length or a field does.
    """
    if len(doc) != len(built):
        return f"the document has {len(doc)} vertices, but the tree of the leaves has {len(built)}"
    for i, (v, w) in enumerate(zip(doc, built)):
        for field, mine, theirs in zip(Vertex._fields, v, w):
            if mine != theirs:
                name = field.replace("_", " ")
                mine, theirs = _shown(mine), _shown(theirs)
                return f"vertex {i} has {name} {mine}, but the tree of the leaves has {theirs}"


def _shown(value: object) -> str:
    """value as JSON text, or a note when it is an int past the int-to-str digit limit."""
    try:
        return json.dumps(value)
    except ValueError:
        return "a number past the int-to-str digit limit"


def tree_to_dot(tree: WeightedTree) -> str:
    """Graphviz rendering, drawn top-down from the root."""
    lines = ["digraph residue_tree {", "  rankdir=TB;", "  node [shape=box];"]
    for v in tree.vertices:
        if v.level == 0:
            label = f"root\\nW=0 W*=0 Val={v.valence}"
        else:
            label = (
                f"{decimal(v.residue)} mod {tree.p}^{v.level}\\n"
                f"W={decimal(v.weight)} W*={decimal(v.stalk_weight)} Val={v.valence}"
            )
        lines.append(f'  n{v.id} [label="{label}"];')
    for v in tree.vertices:
        for child in v.children:
            lines.append(f"  n{v.id} -> n{child};")
    lines.append("}")
    return "\n".join(lines)
