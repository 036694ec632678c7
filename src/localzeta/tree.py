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
    root: int = 0

    @property
    def p(self) -> int:
        return self.ctx.p


def build_tree(fplus: FactoredPoly, ctx: PAdicContext, l_f: int) -> WeightedTree:
    """Union of the root stalks up to level l_f + 1, with all weights.

    Every root must have v_p >= 0 (reduce first).  Each root is reduced
    once modulo p**(l_f + 1) and each level takes that residue modulo p**m,
    so rational roots with denominators coprime to p are handled exactly.
    One pass per level gives the ids (after the level above, residues
    ascending), the parent (from the level above's residue-to-id map) and
    the stalk weight (weight plus the parent's stalk weight).
    """
    if l_f < 1:
        raise ValueError("separation depth must be >= 1")
    p = ctx.p
    depth = l_f + 1
    tops = [(residue_mod(root, ctx, depth), mult) for root, mult in fplus.roots]
    # (level, residue, parent, weight, stalk weight) per id, children per id
    rows: list[tuple[int, int, int | None, int, int]] = [(0, 0, None, 0, 0)]
    children: list[list[int]] = [[]]
    above = {0: 0}
    for m in range(1, depth + 1):
        modulus, up = p**m, p ** (m - 1)
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
    """Inverse of tree_to_json; a document that is no residue tree is rejected."""
    try:
        if isinstance(doc, str):
            doc = json.loads(doc)
        vertices = tuple(_json_vertex(i, v) for i, v in enumerate(doc["vertices"]))
        p, l_f, root = (json_int(doc[k], "tree_from_json", k) for k in ("p", "l_f", "root"))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedDocument(f"tree_from_json: {exc!r}") from exc
    problem = (
        _link_problem(vertices, root)
        or _residue_problem(vertices, p)
        or _depth_problem(vertices, l_f)
    )
    if problem:
        raise MalformedDocument(f"tree_from_json: {problem}")
    return WeightedTree(ctx=PAdicContext(p), l_f=l_f, vertices=vertices, root=root)


def _link_problem(vertices: tuple[Vertex, ...], root: int) -> str | None:
    """What keeps the vertices from forming a weighted tree, or None.

    The evaluator indexes vertices by id and reads a weight-1 vertex as the
    first on its stalk when its parent's weight is not 1, which needs the
    weights not to grow below level 1 and the root to weigh 0.  Levels
    fall by one along each parent link, so every walk up the parents ends
    at the one parentless vertex, the root.
    """
    n = len(vertices)
    for i, v in enumerate(vertices):
        if v.id != i:
            return f"vertex {i} has id {v.id}; ids must be 0..{n - 1} in order"
    if not 0 <= root < n:
        return f"root {root} is not a vertex id"
    found: list[list[int]] = [[] for _ in vertices]
    for v in vertices:
        if v.parent is None:
            if v.id != root:
                return f"vertex {v.id} has no parent but is not the root {root}"
            if v.level != 0 or v.weight != 0 or v.stalk_weight != 0:
                return f"root {root} must have level, weight and stalk weight 0"
            continue
        if not 0 <= v.parent < n:
            return f"vertex {v.id} has parent {v.parent}, which is not a vertex id"
        found[v.parent].append(v.id)
        parent = vertices[v.parent]
        if v.level != parent.level + 1:
            return f"vertex {v.id} is at level {v.level} below a level-{parent.level} parent"
        if v.level > 1 and v.weight > parent.weight:
            return f"vertex {v.id} has weight {v.weight} above its parent's {parent.weight}"
        if v.stalk_weight != v.weight + parent.stalk_weight:
            return (
                f"vertex {v.id} has stalk weight {v.stalk_weight}, not its weight "
                f"{v.weight} plus its parent's stalk weight {parent.stalk_weight}"
            )
    for v, kids in zip(vertices, found):
        if list(v.children) != kids:
            return f"vertex {v.id} has children {list(v.children)}, but is the parent of {kids}"
    return None


def _residue_problem(vertices: tuple[Vertex, ...], p: int) -> str | None:
    """What keeps the residues from naming residue classes, or None.

    A level-m vertex is a class mod p**m: its residue lies in [0, p**m),
    reduces mod p**(m-1) to its parent's, and differs from its siblings'.
    The links are checked first, so every level is the vertex's depth.
    """
    seen: dict[tuple[int | None, int], int] = {}
    for v in vertices:
        if not 0 <= v.residue < p**v.level:
            return f"vertex {v.id} has residue {v.residue}, not in [0, {p}^{v.level})"
        if v.parent is not None:
            parent = vertices[v.parent]
            if (v.residue - parent.residue) % p**parent.level:
                return (
                    f"vertex {v.id} has residue {v.residue}, not its parent's "
                    f"{parent.residue} mod {p}^{parent.level}"
                )
        twin = seen.setdefault((v.parent, v.residue), v.id)
        if twin != v.id:
            return f"vertex {v.id} has the residue {v.residue} of its sibling {twin}"
    return None


def _depth_problem(vertices: tuple[Vertex, ...], l_f: int) -> str | None:
    """What keeps l_f from being the tree's separation depth, or None.

    Every root has a residue at each level 1..l_f+1, so every vertex lies
    at level l_f+1 or has a child; the evaluator reads a vertex as inner
    or top by its level alone.  A tree of no roots is its root alone.
    """
    if l_f < 1:
        return f"l_f = {l_f} must be >= 1"
    top = l_f + 1
    for v in vertices:
        if v.level > top:
            return f"vertex {v.id} lies at level {v.level}, deeper than l_f + 1 = {top}"
        if not v.children and v.level < top and len(vertices) > 1:
            return f"leaf {v.id} lies at level {v.level}, above l_f + 1 = {top}"
    return None


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
