"""Residue-class trees of polynomial roots modulo powers of p.

The tree of a factored polynomial with integral roots is the union of the
root stalks: a level-m vertex for every distinct residue of a root modulo
p**m, m = 0..l_f+1, linked by reduction modulo p**(m-1); every level's
residue is read off one reduction of the root modulo p**(l_f+1).  The weight of a
vertex is the total multiplicity of the roots in its residue class (0 at
the root), the stalk weight accumulates weights along the path from the
root, and the valence counts children.  Vertex ids are assigned level by
level with residues ascending, so serialization is deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import MalformedDocument
from .padic import PAdicContext
from .padic import residue as residue_mod
from .polynomials import FactoredPoly


@dataclass(frozen=True)
class Vertex:
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
    levels: tuple[tuple[int, ...], ...]
    root: int = 0

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
    p = ctx.p
    depth = l_f + 1
    weights: list[dict[int, int]] = [dict() for _ in range(depth + 1)]
    weights[0][0] = 0
    moduli = [p**m for m in range(depth + 1)]
    for root, mult in fplus.roots:
        top = residue_mod(root, ctx, depth)
        for m in range(1, depth + 1):
            residue = top % moduli[m]
            weights[m][residue] = weights[m].get(residue, 0) + mult

    ids: dict[tuple[int, int], int] = {}
    order: list[tuple[int, int]] = []
    for m in range(depth + 1):
        for residue in sorted(weights[m]):
            ids[(m, residue)] = len(order)
            order.append((m, residue))

    children: dict[int, list[int]] = {i: [] for i in range(len(order))}
    parents: dict[int, int | None] = {0: None}
    for m in range(1, depth + 1):
        for residue in sorted(weights[m]):
            vid = ids[(m, residue)]
            pid = ids[(m - 1, residue % moduli[m - 1])]
            parents[vid] = pid
            children[pid].append(vid)

    vertices = []
    stalk: dict[int, int] = {}
    for vid, (m, residue) in enumerate(order):
        w = weights[m][residue]
        parent = parents[vid]
        stalk[vid] = w + (stalk[parent] if parent is not None else 0)
        vertices.append(
            Vertex(
                id=vid,
                level=m,
                residue=residue,
                parent=parent,
                children=tuple(children[vid]),
                weight=w,
                stalk_weight=stalk[vid],
            )
        )
    levels = tuple(
        tuple(ids[(m, r)] for r in sorted(weights[m])) for m in range(depth + 1)
    )
    return WeightedTree(ctx=ctx, l_f=l_f, vertices=tuple(vertices), levels=levels)


def minimal_weight_one_set(tree: WeightedTree) -> set[int]:
    """Weight-1 vertices with no weight-1 strict ancestor."""
    result: set[int] = set()
    stack: list[tuple[int, bool]] = [(tree.root, False)]
    while stack:
        vid, seen_one = stack.pop()
        v = tree.vertices[vid]
        if v.weight == 1 and not seen_one:
            result.add(vid)
        below = seen_one or v.weight == 1
        for child in v.children:
            stack.append((child, below))
    return result


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def tree_to_text(tree: WeightedTree) -> str:
    """One `node` line per vertex, one `edge <child> <parent>` line per link."""
    lines = [f"tree p={tree.p} l_f={tree.l_f}"]
    for v in tree.vertices:
        lines.append(
            f"node {v.id} level={v.level} residue={v.residue} "
            f"weight={v.weight} stalk_weight={v.stalk_weight} valence={v.valence}"
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
        "root": tree.root,
        "vertices": [
            {
                "id": v.id,
                "level": v.level,
                "residue": str(v.residue),
                "parent": v.parent,
                "children": list(v.children),
                "weight": v.weight,
                "stalk_weight": v.stalk_weight,
                "valence": v.valence,
            }
            for v in tree.vertices
        ],
    }


def tree_from_json(doc: dict | str) -> WeightedTree:
    """Inverse of tree_to_json."""
    try:
        if isinstance(doc, str):
            doc = json.loads(doc)
        vertices = tuple(
            Vertex(
                id=int(v["id"]),
                level=int(v["level"]),
                residue=int(v["residue"]),
                parent=None if v["parent"] is None else int(v["parent"]),
                children=tuple(int(c) for c in v["children"]),
                weight=int(v["weight"]),
                stalk_weight=int(v["stalk_weight"]),
            )
            for v in doc["vertices"]
        )
        depth = max(v.level for v in vertices)
        p, l_f, root = int(doc["p"]), int(doc["l_f"]), int(doc["root"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedDocument(f"tree_from_json: {exc!r}") from exc
    levels = tuple(
        tuple(v.id for v in vertices if v.level == m) for m in range(depth + 1)
    )
    return WeightedTree(
        ctx=PAdicContext(p), l_f=l_f, vertices=vertices, levels=levels, root=root
    )


def tree_to_dot(tree: WeightedTree) -> str:
    """Graphviz rendering, drawn top-down from the root."""
    lines = ["digraph residue_tree {", "  rankdir=TB;", "  node [shape=box];"]
    for v in tree.vertices:
        if v.level == 0:
            label = f"root\\nW=0 W*=0 Val={v.valence}"
        else:
            label = (
                f"{v.residue} mod {tree.p}^{v.level}\\n"
                f"W={v.weight} W*={v.stalk_weight} Val={v.valence}"
            )
        lines.append(f'  n{v.id} [label="{label}"];')
    for v in tree.vertices:
        for child in v.children:
            lines.append(f"  n{v.id} -> n{child};")
    lines.append("}")
    return "\n".join(lines)
