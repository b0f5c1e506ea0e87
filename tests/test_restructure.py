"""Region graphs, forced passage, and CFG-to-tree restructuring."""

from __future__ import annotations

import json
import random

import pytest

import generators as gen
from symwcet import cfg, cft, restructure
from symwcet.cfg import build_loop_forest, parse_program
from symwcet.restructure import DagNode, _Builder, build_cft


def _fig2():
    p = parse_program(json.dumps(gen.running_example_doc()))
    return p.cfg, build_loop_forest(p.cfg, p.loop_bounds)


def _region(b: _Builder, level: str | None):
    """The region graph of loop `level` (None: the program) as the builder
    reads it: its start, its nodes (blocks whose innermost loop is the
    level, loops whose parent is, and the two sinks), each node's
    predecessors, and its dominator tree over the nodes reachable from the
    start."""
    f = b.f
    start = (b.block_node[level] if level is not None
             else b.representative(b.g.entry, None))
    nodes = [b.block_node[x] for x in b.g.blocks
             if f.block_loop.get(x) == level]
    nodes += [b.loop_node[h] for h in f.loops if f.parent[h] == level]
    nodes += [DagNode("next", level or ""), DagNode("exit", level or "")]
    preds = {n: b.preds(n) for n in nodes}
    idom = {n: b.idom(n) for n in nodes
            if n.kind in ("block", "loop") or preds[n]}
    return start, nodes, preds, idom


def _regions(g, f):
    b = _Builder(g, f)
    return b, {level: _region(b, level) for level in (None, *f.loops)}


def _succs(nodes, preds):
    succs = {n: [] for n in nodes}
    for n in nodes:
        for q in preds[n]:
            succs[q].append(n)
    return succs


def _shape(nodes, preds):
    names = sorted(str(n) for n in nodes)
    edges = sorted((str(p), str(n)) for n in nodes for p in preds[n])
    return names, edges


def _passage(b, start, end):
    return [str(n) for n in b.passage(start, end)]


# ---------------------------------------------------------------------------
# Region graphs for the running example
# ---------------------------------------------------------------------------


def test_outer_loop_dag():
    b, regions = _regions(*_fig2())
    start, nodes, preds, _ = regions["b1"]
    assert _shape(nodes, preds) == (
        ["L_b2", "b1", "b3", "b6", "exit", "next"],
        [("L_b2", "b3"), ("b1", "L_b2"), ("b1", "b6"), ("b1", "exit"),
         ("b3", "next"), ("b6", "b3")])
    assert str(start) == "b1"
    assert _passage(b, start, DagNode("next", "b1")) == ["b3", "next"]
    assert _passage(b, start, DagNode("exit", "b1")) == ["exit"]


def test_inner_loop_dag():
    b, regions = _regions(*_fig2())
    start, nodes, preds, _ = regions["b2"]
    assert _shape(nodes, preds) == (
        ["b2", "b4", "exit", "next"],
        [("b2", "b4"), ("b2", "exit"), ("b4", "next")])
    assert str(start) == "b2"
    assert _passage(b, start, DagNode("exit", "b2")) == ["exit"]
    assert _passage(b, start, DagNode("next", "b2")) == ["b4", "next"]


def test_top_level_dag():
    b, regions = _regions(*_fig2())
    start, nodes, preds, _ = regions[None]
    assert _shape(nodes, preds) == (
        ["L_b1", "b5", "exit", "next"],
        [("L_b1", "b5"), ("b5", "exit")])
    assert str(start) == "L_b1"
    assert _passage(b, start, DagNode("exit")) == ["b5", "exit"]


def test_dags_are_acyclic_on_random_docs():
    rng = random.Random(23)
    for _ in range(40):
        doc = gen.random_doc(rng, depth=3, noise=3)
        p = parse_program(json.dumps(doc))
        f = build_loop_forest(p.cfg, p.loop_bounds)
        b, regions = _regions(p.cfg, f)
        for _, nodes, preds, _ in regions.values():
            # Predecessors are distinct nodes of the same region, never
            # the node itself, in `node_key` order (the order of an Alt's
            # children).
            for n in nodes:
                assert preds[n] == sorted(set(preds[n]), key=b.node_key), doc
                assert n not in preds[n] and set(preds[n]) <= set(nodes), doc
            # Kahn: consuming every node proves acyclicity.
            succs = _succs(nodes, preds)
            indeg = {n: len(preds[n]) for n in nodes}
            queue = [n for n, d in indeg.items() if d == 0]
            seen = 0
            while queue:
                n = queue.pop()
                seen += 1
                for s in succs[n]:
                    indeg[s] -= 1
                    if indeg[s] == 0:
                        queue.append(s)
            assert seen == len(nodes), doc


def test_region_edge_against_reverse_postorder_is_refused():
    # A block or loop node's predecessors must come before it in the CFG's
    # reverse postorder; numbering the blocks backwards makes the first
    # predecessor the builder reads fail the check.
    g, f = _fig2()
    f.rpo = {b: -i for b, i in f.rpo.items()}
    with pytest.raises(AssertionError, match="has a cycle"):
        build_cft(g, f)


def test_one_dominator_tree_per_region(monkeypatch):
    # Region dominator trees are read off the CFG's, which the loop forest
    # keeps: restructuring runs no dominator pass of its own.
    calls = []
    idoms = cfg.immediate_dominators

    def counted(*args):
        calls.append(args[0])
        return idoms(*args)

    monkeypatch.setattr(cfg, "immediate_dominators", counted)
    monkeypatch.setattr(restructure, "immediate_dominators", counted,
                        raising=False)
    rng = random.Random(41)
    docs = [gen.scaling_doc(60), gen.running_example_doc()]
    docs += [gen.random_doc(rng, depth=3, noise=4) for _ in range(20)]
    for doc in docs:
        p = parse_program(json.dumps(doc))
        f = build_loop_forest(p.cfg, p.loop_bounds)
        calls.clear()
        build_cft(p.cfg, f)
        assert calls == [], doc


def _region_corpus():
    rng = random.Random(53)
    docs = [gen.running_example_doc(), gen.scaling_doc(60),
            gen.loop_nest_doc(150)]
    docs += [gen.loop_nest_doc(d) for d in range(1, 8)]
    for i in range(400):
        docs.append(gen.random_doc(rng, depth=2 + i % 3, noise=i % 7))
    for depth in (1, 2, 3):
        # Entry is a loop header: the top region starts at a loop node.
        doc = gen.loop_nest_doc(depth)
        doc["edges"].append([doc["exit"], doc["entry"]])
        doc["exit"] = "fin"
        doc["blocks"].append({"id": "fin", "wcet": 1})
        doc["edges"].append([doc["entry"], "fin"])
        docs.append(doc)
    return docs


def test_region_idom_matches_dominator_pass():
    regions = entry_loops = 0
    for doc in _region_corpus():
        p = parse_program(json.dumps(doc))
        f = build_loop_forest(p.cfg, p.loop_bounds)
        for level, (start, nodes, preds, idom) in \
                _regions(p.cfg, f)[1].items():
            assert idom == cfg.immediate_dominators(
                start, _succs(nodes, preds), preds)[0], doc
            regions += 1
            entry_loops += level is None and start.kind == "loop"
    assert regions >= 1000
    assert entry_loops >= 3


def test_one_node_object_per_block_and_loop():
    rng = random.Random(57)
    docs = [gen.loop_nest_doc(50), gen.running_example_doc(),
            gen.scaling_doc(40)]
    docs += [gen.random_doc(rng, depth=1 + i % 4, noise=i % 6)
             for i in range(120)]
    shared = 0
    for doc in docs:
        p = parse_program(json.dumps(doc))
        f = build_loop_forest(p.cfg, p.loop_bounds)
        objects: dict[tuple[str, str], int] = {}
        names = 0

        def see(n):
            nonlocal names
            names += 1
            assert objects.setdefault((n.kind, n.id), id(n)) == id(n), (n, doc)

        for start, nodes, preds, idom in _regions(p.cfg, f)[1].values():
            see(start)
            for n in nodes:
                see(n)
                for q in preds[n]:  # the edge q -> n
                    see(q)
                    see(n)
            for n, dom in idom.items():
                see(n)
                if dom is not None:
                    see(dom)
        # Every block, and every loop, has a node in some region.
        assert {k for k in objects if k[0] == "block"} == {
            ("block", b) for b in p.cfg.blocks}
        assert {k for k in objects if k[0] == "loop"} == {
            ("loop", h) for h in f.loops}
        shared += names - len(objects)
    assert shared > 5_000


# ---------------------------------------------------------------------------
# Tree restructuring
# ---------------------------------------------------------------------------


def test_fig2_tree_shape():
    g, f = _fig2()
    t, rename = build_cft(g, f)
    assert cft.to_sexpr(t) == (
        "(seq (loop b1 (seq b1 (alt b6 (loop b2 (seq b2 b4) 2 b2)) b3)"
        " 3 b1) b5)"
    )
    assert cft.to_sexpr(t, display=lambda s: s) == (
        "(seq (loop b1 (seq b1 (alt b6 (loop b2 (seq b2 b4) 2 b2#1)) b3)"
        " 3 b1#1) b5)"
    )
    assert rename == {"b2#1": "b2", "b1#1": "b1"}


def test_symbolic_bound_lands_in_tree():
    p = parse_program(json.dumps(gen.running_example_doc(inner_bound=None)))
    f = build_loop_forest(p.cfg, p.loop_bounds)
    t, _ = build_cft(p.cfg, f)
    assert "(loop b2 (seq b2 b4) x_b2 b2)" in cft.to_sexpr(t)


def test_single_block_program():
    p = parse_program(json.dumps({
        "name": "one",
        "blocks": [{"id": "a", "wcet": 7}],
        "edges": [],
        "entry": "a",
        "exit": "a",
    }))
    f = build_loop_forest(p.cfg, p.loop_bounds)
    t, rename = build_cft(p.cfg, f)
    assert cft.to_sexpr(t) == "a"
    assert rename == {}


def _leaf_labels(t):
    if isinstance(t, cft.Leaf):
        return [t.label.split("#")[0]]
    out = []
    for c in getattr(t, "children", ()) or ():
        out.extend(_leaf_labels(c))
    if isinstance(t, cft.Loop):
        out.extend(_leaf_labels(t.body))
    return out


def test_every_block_appears_as_leaf():
    rng = random.Random(31)
    for _ in range(60):
        doc = gen.random_doc(rng, depth=3, noise=3)
        p = parse_program(json.dumps(doc))
        f = build_loop_forest(p.cfg, p.loop_bounds)
        t, rename = build_cft(p.cfg, f)
        labels = set(_leaf_labels(t))
        assert labels == set(p.cfg.blocks), doc
        for fresh, orig in rename.items():
            assert fresh.split("#")[0] == orig


def test_rename_map_targets_exist():
    g, f = _fig2()
    t, rename = build_cft(g, f)
    raw = cft.to_sexpr(t, display=lambda s: s)
    for fresh in rename:
        assert fresh in raw
