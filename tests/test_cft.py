"""Tree model: factories, renaming, annotation attachment, leaf splitting."""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest

import generators as gen
from symwcet.cfg import BOT, TOP, build_loop_forest, loop_ref, parse_program
from symwcet.cft import (
    Alt,
    Annotation,
    Leaf,
    Loop,
    Seq,
    _find_leaf,
    alt,
    attach_annotation,
    child_nodes,
    leaves,
    seq,
    spell_out,
    split_leaf,
    strip_annotations,
    strip_suffix,
    subtrees,
    to_sexpr,
    walk,
)
from symwcet.errors import (
    AmbiguousTarget,
    DuplicateVariantId,
    NonAncestorLoop,
    UnknownBlock,
)
from symwcet.pipeline import analyze_text
from symwcet.restructure import build_cft

A = Leaf("a", 1)
B = Leaf("b", 2)
C = Leaf("c", 3)


def _looped():
    # (seq (loop h (seq h (alt a b)) 3 h) c)
    body = seq([Leaf("h", 1), alt([A, B])])
    return seq([Loop("h", body, 3, Leaf("h", 1)), C])


def node_at(t, path):
    """The node at a child-index path (Loop children are 0=body, 1=exit)."""
    for i in path:
        t = child_nodes(t)[i]
    return t


def resolve_label(t, target):
    """The path of the leaf a label target names."""
    return _find_leaf(t, target)[0][1]


# ---------------------------------------------------------------------------
# Factories and rendering
# ---------------------------------------------------------------------------


def test_seq_flattens_and_collapses():
    assert seq([A]) is A
    t = seq([A, seq([B, C])])
    assert isinstance(t, Seq) and len(t.children) == 3
    annotated = Seq((B, C), annotation=Annotation(TOP, 1))
    kept = seq([A, annotated])
    assert kept.children == (A, annotated)


def test_alt_requires_alternatives():
    assert alt([A]) is A
    with pytest.raises(ValueError):
        alt([])
    t = alt([A, B])
    assert isinstance(t, Alt) and t.children == (A, B)


def test_to_sexpr():
    assert to_sexpr(_looped()) == "(seq (loop h (seq h (alt a b)) 3 h) c)"
    assert to_sexpr(Seq(())) == "(seq)"
    assert to_sexpr(Leaf("a#1", 1)) == "a"
    assert to_sexpr(Leaf("a#1", 1), display=lambda s: s) == "a#1"


def test_subtrees_preorder():
    t = seq([A, alt([B, C])])
    kinds = [n.label if isinstance(n, Leaf) else type(n).__name__
             for n in subtrees(t)]
    assert kinds == ["Seq", "a", "Alt", "b", "c"]
    assert [l.label for l in leaves(t)] == ["a", "b", "c"]


def _recursive_preorder(t):
    yield t
    for c in child_nodes(t):
        yield from _recursive_preorder(c)


def _enclosing_by_replay(t, path):
    """Headers of the loops whose body holds the node at path, found by
    replaying the path from the root: a Loop's body (child 0) is inside
    the loop, its exit is not."""
    enclosing = []
    for i in path:
        if isinstance(t, Loop) and i == 0:
            enclosing.append(t.header)
        t = child_nodes(t)[i]
    return enclosing


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return Leaf(rng.choice("abc"), 1)
    kind = rng.randrange(3)
    if kind == 0:
        return Seq(tuple(_random_tree(rng, depth - 1)
                         for _ in range(rng.randrange(4))))
    if kind == 1:
        return Alt(tuple(_random_tree(rng, depth - 1)
                         for _ in range(rng.randint(2, 3))))
    return Loop(f"h{rng.randrange(5)}", _random_tree(rng, depth - 1), 2,
                _random_tree(rng, depth - 1))


def test_walk_matches_recursive_preorder_and_path_replay():
    rng = random.Random(14)
    trees = [_random_tree(rng, 5) for _ in range(2000)]
    trees += [analyze_text(json.dumps(doc)).tree
              for doc in _restructure_corpus()]
    loops_seen = 0
    for t in trees:
        walked = list(walk(t))
        want = list(_recursive_preorder(t))
        assert len(walked) == len(want)
        for (node, path_cell, loops_cell), ref in zip(walked, want):
            path, loops = spell_out(path_cell), spell_out(loops_cell)
            assert node is ref and node_at(t, path) is node
            assert list(loops) == _enclosing_by_replay(t, path)
            loops_seen += bool(loops)
    assert loops_seen >= 10000, loops_seen


def test_strip_suffix():
    assert strip_suffix("b2#1") == "b2"
    assert strip_suffix("b2") == "b2"
    assert strip_suffix("a#1#2") == "a"


# ---------------------------------------------------------------------------
# Leaf renaming
# ---------------------------------------------------------------------------


def rename_leaves(t):
    """Make leaf labels unique by suffixing repeats with '#k' in preorder.

    Returns the renamed tree and a map from new labels back to originals.
    A subtree in which no label changes is returned as the same object.
    The reference for the names `build_cft` gives as it builds the tree.
    """
    counts: dict[str, int] = {}
    rename: dict[str, str] = {}

    def walk(node):
        if isinstance(node, Leaf):
            k = counts.get(node.label, 0)
            counts[node.label] = k + 1
            if k == 0:
                return node
            fresh = f"{node.label}#{k}"
            rename[fresh] = node.label
            return Leaf(fresh, node.wcet, node.annotation)
        if isinstance(node, Loop):
            body, exit_ = walk(node.body), walk(node.exit)
            if body is node.body and exit_ is node.exit:
                return node
            return Loop(node.header, body, node.bound, exit_, node.annotation)
        kids = tuple(walk(c) for c in node.children)
        if all(new is old for new, old in zip(kids, node.children)):
            return node
        return type(node)(kids, node.annotation)

    return walk(t), rename


def _unrenamed(t):
    """t with every leaf label stripped of its '#k' suffix."""
    if isinstance(t, Leaf):
        return Leaf(strip_suffix(t.label), t.wcet, t.annotation)
    if isinstance(t, Loop):
        return Loop(t.header, _unrenamed(t.body), t.bound, _unrenamed(t.exit),
                    t.annotation)
    return type(t)(tuple(_unrenamed(c) for c in t.children), t.annotation)


def _restructure_corpus():
    rng = random.Random(1010)
    docs = []
    for i in range(240):
        doc = gen.random_doc(rng, depth=1 + i % 4, noise=i % 6,
                             symbolic_bounds=i % 3 == 0)
        docs.append(gen.annotate_doc(rng, doc) if i % 2 else doc)
    docs += [gen.loop_nest_doc(d) for d in range(1, 9)]
    docs += [gen.scaling_doc(60), gen.running_example_doc()]
    docs += [gen.dowhile_nest_doc(d) for d in range(1, 7)]
    return docs


def test_build_cft_names_leaves_as_rename_leaves_does():
    # The builder names each leaf as it creates it; renaming its tree with
    # the suffixes stripped must give the same tree and the same map, in
    # the same order.
    renamed = 0
    for doc in _restructure_corpus():
        p = parse_program(json.dumps(doc))
        tree, mapping = build_cft(p.cfg, build_loop_forest(p.cfg,
                                                           p.loop_bounds))
        want_tree, want_map = rename_leaves(_unrenamed(tree))
        assert tree == want_tree, doc["name"]
        assert list(mapping.items()) == list(want_map.items()), doc["name"]
        renamed += bool(mapping)
    assert renamed >= 100, renamed
    p = parse_program(json.dumps(gen.dowhile_nest_doc(6)))
    tree, mapping = build_cft(p.cfg, build_loop_forest(p.cfg, p.loop_bounds))
    assert len(leaves(tree)) == 2 ** 8 - 2
    assert len(mapping) == len(leaves(tree)) - len(p.cfg.blocks)


def test_rename_leaves_preorder_numbering():
    t = seq([Leaf("x", 1), alt([Leaf("x", 1), Leaf("y", 2)]), Leaf("x", 1)])
    renamed, mapping = rename_leaves(t)
    assert [l.label for l in leaves(renamed)] == ["x", "x#1", "y", "x#2"]
    assert mapping == {"x#1": "x", "x#2": "x"}


def test_rename_noop_when_unique():
    t = _looped()
    renamed, mapping = rename_leaves(t)
    # h occurs twice: once in the body, once as the loop exit.
    assert mapping == {"h#1": "h"}
    assert to_sexpr(renamed) == to_sexpr(t)


def test_rename_leaves_keeps_subtrees_it_does_not_rename():
    once = Annotation(TOP, 1)
    choice = Alt((Leaf("y", 2), Leaf("z", 3)), once)
    loop = Loop("h", seq([Leaf("h", 1), Leaf("b", 2)]), 3, Leaf("h", 1), once)
    t = Seq((Leaf("x", 1), choice, loop, Leaf("x", 1)), once)
    renamed, mapping = rename_leaves(t)
    assert mapping == {"h#1": "h", "x#1": "x"}
    assert renamed == Seq((Leaf("x", 1), choice,
                           Loop("h", loop.body, 3, Leaf("h#1", 1), once),
                           Leaf("x#1", 1)), once)
    x, kept, looped, _ = renamed.children
    assert x is t.children[0] and kept is choice and looped.body is loop.body
    unique = seq([A, choice])
    assert rename_leaves(unique)[0] is unique


# ---------------------------------------------------------------------------
# Target resolution
# ---------------------------------------------------------------------------


def test_resolve_exact_beats_loose():
    t, _ = rename_leaves(seq([Leaf("x", 1), Leaf("x", 1)]))
    assert resolve_label(t, "x") == (0,)  # exact match on the unsuffixed leaf
    assert node_at(t, resolve_label(t, "x#1")).label == "x#1"


def test_resolve_ambiguous_loose_needs_suffix():
    t = seq([Leaf("x#1", 1), Leaf("x#2", 1)])
    with pytest.raises(AmbiguousTarget, match="#k"):
        resolve_label(t, "x")


def test_resolve_ambiguous_exact_duplicates():
    t = seq([Leaf("x", 1), Leaf("x", 1)])  # un-renamed tree
    with pytest.raises(AmbiguousTarget, match="matches 2"):
        resolve_label(t, "x")


def test_resolve_loose_match():
    t = seq([Leaf("x#1", 1), B])
    assert resolve_label(t, "x") == (0,)


def test_resolve_unknown():
    with pytest.raises(UnknownBlock):
        resolve_label(_looped(), "zz")


# ---------------------------------------------------------------------------
# Annotation attachment
# ---------------------------------------------------------------------------


def test_attach_top_annotation_anywhere():
    t = _looped()
    out = attach_annotation(t, "c", Annotation(TOP, 2))
    assert node_at(out, resolve_label(out, "c")).annotation == Annotation(TOP, 2)
    assert node_at(t, resolve_label(t, "c")).annotation is None  # t untouched


def test_attach_inside_enclosing_loop():
    t, _ = rename_leaves(_looped())
    a = Annotation(loop_ref("h"), 1)
    out = attach_annotation(t, "a", a)
    assert node_at(out, resolve_label(out, "a")).annotation == a


def test_attach_rejects_non_ancestor():
    t, _ = rename_leaves(_looped())
    with pytest.raises(NonAncestorLoop):
        attach_annotation(t, "c", Annotation(loop_ref("h"), 1))
    with pytest.raises(NonAncestorLoop):
        # Loop exit is outside the loop body.
        attach_annotation(t, "h#1", Annotation(loop_ref("h"), 1))
    with pytest.raises(NonAncestorLoop):
        attach_annotation(t, "a", Annotation(BOT, 1))


def test_attach_replaces_prior():
    t = _looped()
    out = attach_annotation(t, "c", Annotation(TOP, 5))
    out = attach_annotation(out, "c", Annotation(TOP, 7))
    assert node_at(out, (1,)).annotation == Annotation(TOP, 7)


# ---------------------------------------------------------------------------
# Leaf splitting
# ---------------------------------------------------------------------------


def test_split_into_variants():
    t, _ = rename_leaves(_looped())
    hit = Annotation(loop_ref("h"), 1)
    out = split_leaf(t, "a", [("a_hit", 9, hit), ("a_miss", 1, None)])
    node = node_at(out, resolve_label(out, "a_hit"))
    assert node.wcet == 9 and node.annotation == hit
    parent = node_at(out, resolve_label(out, "a_hit")[:-1])
    assert isinstance(parent, Alt) and len(parent.children) == 2
    with pytest.raises(UnknownBlock):
        resolve_label(out, "a")


def test_split_single_variant_is_rename():
    t = _looped()
    out = split_leaf(t, "c", [("c_only", 4, None)])
    node = node_at(out, resolve_label(out, "c_only"))
    assert isinstance(node, Leaf) and node.wcet == 4


def test_split_transfers_annotation_to_alt():
    t = attach_annotation(_looped(), "c", Annotation(TOP, 3))
    out = split_leaf(t, "c", [("c1", 1, None), ("c2", 2, None)])
    parent = node_at(out, resolve_label(out, "c1")[:-1])
    assert parent.annotation == Annotation(TOP, 3)


def test_split_rejects_duplicate_ids():
    t = _looped()
    with pytest.raises(DuplicateVariantId):
        split_leaf(t, "c", [("v", 1, None), ("v", 2, None)])
    with pytest.raises(DuplicateVariantId):
        split_leaf(t, "c", [("a", 1, None), ("c2", 2, None)])


def test_split_variant_annotation_scope_checked():
    t, _ = rename_leaves(_looped())
    with pytest.raises(NonAncestorLoop):
        split_leaf(t, "c", [("c1", 1, Annotation(loop_ref("h"), 1)),
                            ("c2", 2, None)])


# ---------------------------------------------------------------------------
# Annotation stripping
# ---------------------------------------------------------------------------


def test_strip_annotations():
    t = attach_annotation(_looped(), "c", Annotation(TOP, 3))
    loop, c = t.children
    t = replace(t, children=(replace(loop, annotation=Annotation(TOP, 1)), c))
    bare = strip_annotations(t)
    assert all(n.annotation is None for n in subtrees(bare))
    assert to_sexpr(bare) == to_sexpr(t)


# ---------------------------------------------------------------------------
# Deep trees
# ---------------------------------------------------------------------------


def test_queries_and_edits_on_a_deep_loop_nest():
    # Each raised RecursionError while subtrees recursed.
    depth = 3000
    t = Leaf("x", 1)
    for d in reversed(range(depth)):
        t = Loop(f"h{d}", t, 2, Leaf(f"e{d}", 1))
    assert sum(1 for _ in subtrees(t)) == 2 * depth + 1
    assert [l.label for l in leaves(t)] == (
        ["x"] + [f"e{d}" for d in reversed(range(depth))])
    outer = Annotation(loop_ref("h0"), 1)
    out = attach_annotation(t, "x", outer)
    assert leaves(out)[0] == Leaf("x", 1, outer)
    assert leaves(t)[0].annotation is None
    out = split_leaf(t, "x", [("x1", 1, outer), ("x2", 2, None)])
    assert leaves(out)[:2] == [Leaf("x1", 1, outer), Leaf("x2", 2)]
    with pytest.raises(NonAncestorLoop):
        attach_annotation(t, f"e{depth - 1}",
                          Annotation(loop_ref(f"h{depth - 1}"), 1))
