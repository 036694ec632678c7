import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from localzeta import (
    FactoredPoly,
    MalformedDocument,
    PAdicContext,
    build_tree,
    compute_lf,
    generating_function,
    normalize,
    parse_poly,
    reduce_to_integral_roots,
    rf_equal,
    spf_eval,
    tree_from_json,
    tree_to_dot,
    tree_to_json,
    tree_to_text,
    vp,
)
from tree_reference import minimal_weight_one_set

F = Fraction


def worked_tree():
    ctx = PAdicContext(3)
    f = FactoredPoly(F(1), ((F(1), 2), (F(4), 1)))
    return build_tree(f, ctx, compute_lf(f, ctx))


def by_level_residue(tree):
    return {(v.level, v.residue): v for v in tree.vertices}


def levels(tree):
    """Vertex ids grouped by level, level 0 first."""
    grouped = [[] for _ in range(max(v.level for v in tree.vertices) + 1)]
    for v in tree.vertices:
        grouped[v.level].append(v.id)
    return grouped


def test_worked_example_structure():
    tree = worked_tree()
    assert len(tree.vertices) == 6
    v = by_level_residue(tree)
    expected = {
        (0, 0): (0, 0, 1),
        (1, 1): (3, 3, 2),
        (2, 1): (2, 5, 1),
        (2, 4): (1, 4, 1),
        (3, 1): (2, 7, 0),
        (3, 4): (1, 5, 0),
    }
    for key, (weight, stalk, valence) in expected.items():
        assert (v[key].weight, v[key].stalk_weight, v[key].valence) == (
            weight,
            stalk,
            valence,
        )


def test_single_stalk_power():
    # x^e: one stalk, levels 0..2, weights (0, e, e)
    for p, e in [(2, 1), (3, 4), (5, 2)]:
        ctx = PAdicContext(p)
        tree = build_tree(FactoredPoly(F(1), ((F(0), e),)), ctx, 1)
        assert [len(ids) for ids in levels(tree)] == [1, 1, 1]
        assert [tree.vertices[ids[0]].weight for ids in levels(tree)] == [0, e, e]


def test_split_at_depth_example():
    # x(x-4) at p=2: v_2(4) = 2 so l_f = 3; stalks split at level 3
    ctx = PAdicContext(2)
    f = FactoredPoly(F(1), ((F(0), 1), (F(4), 1)))
    l_f = compute_lf(f, ctx)
    assert l_f == 3
    tree = build_tree(f, ctx, l_f)
    v = by_level_residue(tree)
    assert v[(1, 0)].weight == 2 and v[(2, 0)].weight == 2
    assert {key for key in v if key[0] == 3} == {(3, 0), (3, 4)}
    assert {key for key in v if key[0] == 4} == {(4, 0), (4, 4)}
    assert all(v[key].weight == 1 for key in v if key[0] >= 3)


def test_minimal_weight_one_set_examples():
    tree = worked_tree()
    v = by_level_residue(tree)
    assert minimal_weight_one_set(tree) == {v[(2, 4)].id}

    ctx = PAdicContext(7)
    linear = build_tree(FactoredPoly(F(1), ((F(0), 1),)), ctx, 1)
    lv = by_level_residue(linear)
    assert minimal_weight_one_set(linear) == {lv[(1, 0)].id}

    square = build_tree(FactoredPoly(F(1), ((F(0), 2),)), ctx, 1)
    assert minimal_weight_one_set(square) == set()


def test_minimal_set_members_have_no_light_ancestors():
    rng = random.Random(5)
    for _ in range(50):
        p = rng.choice([2, 3, 5])
        ctx = PAdicContext(p)
        roots = {}
        while len(roots) < rng.randint(1, 4):
            roots[F(rng.randint(-30, 30))] = rng.randint(1, 3)
        f = FactoredPoly(F(1), tuple(roots.items()))
        tree = build_tree(f, ctx, compute_lf(f, ctx))
        minimal = minimal_weight_one_set(tree)
        for vid in minimal:
            assert tree.vertices[vid].weight == 1
            parent = tree.vertices[vid].parent
            while parent is not None:
                assert tree.vertices[parent].weight != 1
                parent = tree.vertices[parent].parent


def random_factored(rng):
    roots = {}
    while len(roots) < rng.randint(1, 4):
        den = rng.randint(1, 10)
        roots[F(rng.randint(-40, 40), den)] = rng.randint(1, 3)
    return FactoredPoly(F(1), tuple(roots.items()))


def test_tree_invariants():
    rng = random.Random(29)
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7])
        ctx = PAdicContext(p)
        f = random_factored(rng)
        if any(r.denominator % p == 0 for r, _ in f.roots):
            continue
        l_f = compute_lf(f, ctx)
        tree = build_tree(f, ctx, l_f)
        degree = f.degree
        # level-slice weight conservation
        for m in range(1, l_f + 2):
            assert sum(tree.vertices[i].weight for i in levels(tree)[m]) == degree
        # serialization order: ids level by level with residues ascending,
        # and every children tuple ascending
        assert [v.id for v in tree.vertices] == list(range(len(tree.vertices)))
        keys = [(v.level, v.residue) for v in tree.vertices]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert all(list(v.children) == sorted(v.children) for v in tree.vertices)
        # edges: every vertex except the root has one parent
        assert sum(v.valence for v in tree.vertices) == len(tree.vertices) - 1
        # roots are separated at levels l_f and l_f + 1
        mults = sorted(e for _, e in f.roots)
        for m in (l_f, l_f + 1):
            assert sorted(tree.vertices[i].weight for i in levels(tree)[m]) == mults
        # parent residues are reductions of child residues
        for v in tree.vertices:
            if v.parent is not None:
                parent = tree.vertices[v.parent]
                assert v.residue % p**parent.level == parent.residue
        # residue-class identities at level 1: p - Val(root) counts the
        # residues missing from the reduction, weight-1 vertices its simple roots
        residues = {}
        for root, mult in f.roots:
            xi = root.numerator * pow(root.denominator, -1, p) % p
            residues[xi] = residues.get(xi, 0) + mult
        root_vertex = tree.vertices[0]
        assert p - root_vertex.valence == p - len(residues)
        level1_light = sum(
            1 for i in levels(tree)[1] if tree.vertices[i].weight == 1
        )
        assert level1_light == sum(1 for e in residues.values() if e == 1)


def test_vertex_residues_are_root_residues():
    # each level-m vertex is the class of the roots within p**-m of its
    # residue, at every level including l_f + 1; towers make l_f deep
    rng = random.Random(31)
    for _ in range(60):
        p = rng.choice([2, 3, 5, 101])
        ctx = PAdicContext(p)
        f = random_factored(rng)
        if any(r.denominator % p == 0 for r, _ in f.roots):
            continue
        tower = f.roots[0][0] + p ** rng.randint(1, 30)
        if tower in dict(f.roots):
            continue
        f = FactoredPoly(F(1), f.roots + ((tower, 1),))
        tree = build_tree(f, ctx, compute_lf(f, ctx))
        for v in tree.vertices[1:]:
            assert 0 <= v.residue < p**v.level
            assert v.weight == sum(
                e for r, e in f.roots if vp(r - v.residue, ctx) >= v.level
            )


def test_text_serialization_shape():
    tree = worked_tree()
    text = tree_to_text(tree)
    lines = text.splitlines()
    assert lines[0] == "tree p=3 l_f=2"
    assert sum(1 for line in lines if line.startswith("node ")) == 6
    assert sum(1 for line in lines if line.startswith("edge ")) == 5
    assert "node 3 level=2 residue=4 weight=1 stalk_weight=4 valence=1" in lines


def test_json_round_trip():
    tree = worked_tree()
    doc = json.dumps(tree_to_json(tree))
    assert tree_from_json(doc) == tree


def test_json_round_trip_of_random_trees():
    # the residue checks accept every tree build_tree makes, towers included
    rng = random.Random(37)
    for _ in range(60):
        p = rng.choice([2, 3, 5, 101])
        ctx = PAdicContext(p)
        f = random_factored(rng)
        if any(r.denominator % p == 0 for r, _ in f.roots):
            continue
        tower = f.roots[0][0] + p ** rng.randint(1, 12)
        if tower not in dict(f.roots):
            f = FactoredPoly(F(1), f.roots + ((tower, 1),))
        tree = build_tree(f, ctx, compute_lf(f, ctx))
        assert tree_from_json(json.dumps(tree_to_json(tree))) == tree


def test_json_reader_rejects_an_empty_vertex_list():
    doc = {**tree_to_json(worked_tree()), "vertices": []}
    with pytest.raises(MalformedDocument, match="tree_from_json"):
        tree_from_json(doc)


def edited_worked_json(edit):
    """The worked tree's JSON document after edit(vertices, doc)."""
    doc = tree_to_json(worked_tree())
    edit(doc["vertices"], doc)
    return doc


# Each case keeps the name it has always been listed by: the fault as the
# reader's earlier per-rule checks worded it.
BROKEN_TREE_NAMES = [
    "vertex 2 has id 7",
    "vertex 0 has id 5",
    "root 7 is not a vertex id",
    "vertex 0 has no parent but is not the root 1",
    "vertex 1 has no parent",
    "root 0 must have level",
    "root 0 must have level",
    "vertex 4 has parent 42",
    "vertex 4 has parent -1",
    r"vertex 1 has children \[42\]",
    r"vertex 1 has children \[2\]",
    r"vertex 1 has children \[3, 2\]",
    "vertex 4 is at level 3",
    "vertex 3 has weight 4 above",
    "vertex 5 has stalk weight 6",
    r"vertex 1 has residue 99, not in \[0, 3\^1\)",
    r"vertex 2 has residue -5, not in \[0, 3\^2\)",
    r"vertex 3 has residue 2, not its parent's 1 mod 3\^1",
    "vertex 3 has the residue 1 of its sibling 2",
]
WRONG_L_F_NAMES = [
    (0, "l_f = 0 must be >= 1"),
    (-2, "l_f = -2 must be >= 1"),
    (1, r"vertex 4 lies at level 3, deeper than l_f \+ 1 = 2"),
    (3, r"leaf 4 lies at level 3, above l_f \+ 1 = 4"),
    (7, r"leaf 4 lies at level 3, above l_f \+ 1 = 8"),
]


@pytest.mark.parametrize("edit, message", [
    (lambda vs, doc: vs[2].update(id=7), "vertex 2 has id 7, but the tree of the leaves has 2$"),
    (lambda vs, doc: vs.reverse(), "vertex 0 has id 5, but the tree of the leaves has 0$"),
    (lambda vs, doc: doc.update(root=7), "root 7 must be 0$"),
    (lambda vs, doc: doc.update(root=1), "root 1 must be 0$"),
    (lambda vs, doc: vs[1].update(parent=None),
     "vertex 1 has parent null, but the tree of the leaves has 0$"),
    (lambda vs, doc: vs[0].update(level=1),
     "vertex 0 has level 1, but the tree of the leaves has 0$"),
    (lambda vs, doc: vs[0].update(weight=1, stalk_weight=1),
     "vertex 0 has weight 1, but the tree of the leaves has 0$"),
    (lambda vs, doc: vs[4].update(parent=42),
     "vertex 4 has parent 42, but the tree of the leaves has 2$"),
    (lambda vs, doc: vs[4].update(parent=-1),
     "vertex 4 has parent -1, but the tree of the leaves has 2$"),
    (lambda vs, doc: vs[1].update(children=[42]),
     r"vertex 1 has children \[42\], but the tree of the leaves has \[2, 3\]$"),
    (lambda vs, doc: vs[1].update(children=[2]),
     r"vertex 1 has children \[2\], but the tree of the leaves has \[2, 3\]$"),
    (lambda vs, doc: vs[1].update(children=[3, 2]),
     r"vertex 1 has children \[3, 2\], but the tree of the leaves has \[2, 3\]$"),
    (lambda vs, doc: vs[4].update(parent=1),
     "vertex 4 has parent 1, but the tree of the leaves has 2$"),
    (lambda vs, doc: vs[3].update(weight=4, stalk_weight=7),
     "vertex 3 has weight 4, but the tree of the leaves has 1$"),
    (lambda vs, doc: vs[5].update(stalk_weight=6),
     "vertex 5 has stalk weight 6, but the tree of the leaves has 5$"),
    (lambda vs, doc: vs[1].update(residue="99"),
     "vertex 1 has residue 99, but the tree of the leaves has 1$"),
    (lambda vs, doc: vs[2].update(residue="-5"),
     "vertex 2 has residue -5, but the tree of the leaves has 1$"),
    (lambda vs, doc: vs[3].update(residue="2"),
     "vertex 3 has residue 2, but the tree of the leaves has 4$"),
    (lambda vs, doc: vs[3].update(residue="1"),
     "vertex 3 has residue 1, but the tree of the leaves has 4$"),
], ids=["<lambda>-" + name for name in BROKEN_TREE_NAMES])
def test_json_reader_rejects_a_broken_tree(edit, message):
    with pytest.raises(MalformedDocument, match="tree_from_json: " + message):
        tree_from_json(edited_worked_json(edit))


@pytest.mark.parametrize("l_f, message", [
    (0, "l_f = 0 must be >= 1"),
    (-2, "l_f = -2 must be >= 1"),
    (1, "the document has 6 vertices, but the tree of the leaves has 4$"),
    (3, "the document has 6 vertices, but the tree of the leaves has 1$"),
    (7, "the document has 6 vertices, but the tree of the leaves has 1$"),
], ids=[f"{l_f}-{name}" for l_f, name in WRONG_L_F_NAMES])
def test_json_reader_rejects_a_wrong_l_f(l_f, message):
    # the worked tree has l_f = 2: every leaf lies at level 3
    with pytest.raises(MalformedDocument, match="tree_from_json: " + message):
        tree_from_json(edited_worked_json(lambda vs, doc: doc.update(l_f=l_f)))


@pytest.mark.parametrize("edit, message", [
    (lambda vs, doc: vs[4].update(weight=0), "leaf 4 has weight 0, below 1$"),
    (lambda vs, doc: vs[5].update(weight=-3), "leaf 5 has weight -3, below 1$"),
    (lambda vs, doc: (doc.update(l_f=10**6), vs[5].update(level=10**6 + 1)),
     "the tree of the leaves has more than the document's 6 vertices$"),
    (lambda vs, doc: doc.update(l_f=10**6),
     "the document has 6 vertices, but the tree of the leaves has 1$"),
])
def test_json_reader_refuses_a_leaf_it_cannot_rebuild_from(edit, message):
    # the tree of the leaves is counted against the document's size before it
    # is built, and without leaves it is the root alone: a huge l_f builds nothing
    with pytest.raises(MalformedDocument, match="tree_from_json: " + message):
        tree_from_json(edited_worked_json(edit))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
def test_json_reader_names_a_rebuilt_value_past_the_digit_limit():
    # the leaf -1 rebuilds as 3^1342 - 1, of 641 digits, while no residue left
    # in the document has more than 640, so the document reads under that limit
    doc = tree_to_json(build_tree(FactoredPoly(1, ((-1, 2),)), PAdicContext(3), 1341))
    doc["vertices"][-1]["residue"] = "-1"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(MalformedDocument, match=(
            "tree_from_json: vertex 1342 has residue -1, but the tree of the leaves "
            "has a number past the int-to-str digit limit$"
        )):
            tree_from_json(doc)
    finally:
        sys.set_int_max_str_digits(limit)


def test_json_round_trip_of_the_root_alone():
    # (x - 1/3) at p = 3 reduces to no roots: its tree is a lone root at level 0
    ctx = PAdicContext(3)
    fplus = reduce_to_integral_roots(parse_poly("(x - 1/3)"), ctx).fplus
    tree = build_tree(fplus, ctx, compute_lf(fplus, ctx))
    assert [(v.level, v.children) for v in tree.vertices] == [(0, ())]
    assert tree_from_json(json.dumps(tree_to_json(tree))) == tree


def test_json_reader_rejects_missing_vertices():
    doc = tree_to_json(worked_tree())
    del doc["vertices"]
    with pytest.raises(MalformedDocument, match="tree_from_json"):
        tree_from_json(doc)


VERTEX_FIELDS = ["id", "level", "residue", "parent", "weight", "stalk_weight"]


@pytest.mark.parametrize("field", ["p", "l_f", "root", *VERTEX_FIELDS, "children"])
@pytest.mark.parametrize("value", [0.5, 1.7, 2.0, True, "1.5", " 2", "+2", "0x2", [2]])
def test_json_reader_refuses_a_number_it_would_truncate(field, value):
    def edit(vs, doc):
        if field in doc:
            doc[field] = value
        elif field == "children":
            vs[1]["children"] = [value]
        else:
            vs[1][field] = value

    name = field if field in ("p", "l_f", "root") else f"vertex 1 {field}"
    with pytest.raises(MalformedDocument, match=f"tree_from_json: {name} must be an integer"):
        tree_from_json(edited_worked_json(edit))


@pytest.mark.parametrize("value", ["1", "12", {"1": 2}, 2, None])
def test_json_reader_refuses_children_that_are_no_list(value):
    with pytest.raises(MalformedDocument, match="tree_from_json: vertex 1 children must be a list"):
        tree_from_json(edited_worked_json(lambda vs, doc: vs[1].update(children=value)))


def test_json_reader_reads_integers_and_decimal_strings_alike():
    def as_strings(vs, doc):
        doc.update(p=3, l_f="2", root="0")
        for v in vs:
            v.update({k: str(v[k]) for k in VERTEX_FIELDS if v[k] is not None})
            v["children"] = [str(c) for c in v["children"]]

    assert tree_from_json(edited_worked_json(as_strings)) == worked_tree()


@st.composite
def edited_tree_documents(draw):
    """tree_to_json of random roots (a tower among them) after one or two edits."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    roots = draw(st.dictionaries(st.integers(-30, 30), st.integers(1, 3), max_size=4))
    if roots and draw(st.booleans()):
        tower = min(roots) + p ** draw(st.integers(1, 12))
        roots.setdefault(tower, draw(st.integers(1, 3)))
    f = FactoredPoly(F(1), tuple((F(r), mult) for r, mult in roots.items()))
    ctx = PAdicContext(p)
    doc = tree_to_json(build_tree(f, ctx, compute_lf(f, ctx)))
    vs = doc["vertices"]
    small = st.integers(-1, max(len(vs), p) + 1)
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["vertex", "l_f", "root", "order"]))
        if kind == "vertex":
            v = vs[draw(st.integers(0, len(vs) - 1))]
            field = draw(st.sampled_from([*VERTEX_FIELDS, "children"]))
            if field == "children":
                v[field] = draw(st.lists(small, max_size=3))
            elif field == "parent":
                v[field] = draw(st.none() | small)
            else:
                v[field] = draw(small) if field != "residue" else str(draw(small))
        elif kind == "l_f":
            doc["l_f"] += draw(st.integers(-2, 3))
        elif kind == "root":
            doc["root"] = draw(small)
        elif draw(st.booleans()):
            vs.reverse()
        else:
            i, j = draw(st.integers(0, len(vs) - 1)), draw(st.integers(0, len(vs) - 1))
            vs[i], vs[j] = vs[j], vs[i]
    return doc


def raise_vertex_1_to_weight_5(vs, doc):
    # the inner weights no longer add up to the leaves' 2 + 1, but every
    # stalk weight is the sum of the weights above it
    vs[1]["weight"] = 5
    for v, stalk in zip(vs[1:], [5, 7, 6, 9, 7]):
        v["stalk_weight"] = stalk


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(edited_tree_documents())
@example(edited_worked_json(raise_vertex_1_to_weight_5))
def test_json_reader_accepts_only_the_tree_of_its_leaves(doc):
    # a document is read as a tree or refused; a tree it gives has the Z of
    # the roots its level-(l_f + 1) vertices name
    try:
        tree = tree_from_json(doc)
    except MalformedDocument:
        return
    leaves = tuple((F(v.residue), v.weight) for v in tree.vertices if v.level == tree.l_f + 1)
    z_tree = normalize(generating_function(tree))
    assert rf_equal(z_tree, normalize(spf_eval(leaves, tree.ctx)))


def test_dot_output():
    dot = tree_to_dot(worked_tree())
    assert dot.startswith("digraph")
    assert "4 mod 3^2" in dot
    assert "->" in dot
