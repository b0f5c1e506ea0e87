"""Loop-DAG construction, forced passage, and CFG-to-tree restructuring."""

from __future__ import annotations

import json
import random

import pytest

import generators as gen
from symwcet import cfg, cft, restructure
from symwcet.cfg import TOP, build_loop_forest, parse_program
from symwcet.restructure import build_cft, forced_passage, region_dags


def _fig2():
    p = parse_program(json.dumps(gen.running_example_doc()))
    return p.cfg, build_loop_forest(p.cfg, p.loop_bounds)


def _shape(dag):
    nodes = sorted(str(n) for n in dag.nodes)
    edges = sorted((str(a), str(b)) for a, b in dag.edges)
    return nodes, edges


# ---------------------------------------------------------------------------
# Region DAGs for the running example
# ---------------------------------------------------------------------------


def test_outer_loop_dag():
    g, f = _fig2()
    dag = region_dags(g, f)["b1"]
    nxt, ext = dag.next, dag.exit
    nodes, edges = _shape(dag)
    assert nodes == ["L_b2", "b1", "b3", "b6", "exit", "next"]
    assert edges == [("L_b2", "b3"), ("b1", "L_b2"), ("b1", "b6"),
                     ("b1", "exit"), ("b3", "next"), ("b6", "b3")]
    assert str(dag.start) == "b1"
    assert [str(n) for n in forced_passage(dag, nxt)] == ["b3", "next"]
    assert [str(n) for n in forced_passage(dag, ext)] == ["exit"]


def test_inner_loop_dag():
    g, f = _fig2()
    dag = region_dags(g, f)["b2"]
    nxt, ext = dag.next, dag.exit
    nodes, edges = _shape(dag)
    assert nodes == ["b2", "b4", "exit", "next"]
    assert edges == [("b2", "b4"), ("b2", "exit"), ("b4", "next")]
    assert str(dag.start) == "b2"
    assert [str(n) for n in forced_passage(dag, ext)] == ["exit"]
    assert [str(n) for n in forced_passage(dag, nxt)] == ["b4", "next"]


def test_top_level_dag():
    g, f = _fig2()
    dag = region_dags(g, f)[None]
    nxt, ext = dag.next, dag.exit
    nodes, edges = _shape(dag)
    assert nodes == ["L_b1", "b5", "exit", "next"]
    assert edges == [("L_b1", "b5"), ("b5", "exit")]
    assert str(dag.start) == "L_b1"
    assert [str(n) for n in forced_passage(dag, ext)] == ["b5", "exit"]


def test_dags_are_acyclic_on_random_docs():
    rng = random.Random(23)
    for _ in range(40):
        doc = gen.random_doc(rng, depth=3, noise=3)
        p = parse_program(json.dumps(doc))
        f = build_loop_forest(p.cfg, p.loop_bounds)
        for dag in region_dags(p.cfg, f).values():
            # Kahn: consuming every node proves acyclicity.
            indeg = {n: 0 for n in dag.nodes}
            for _, b in dag.edges:
                indeg[b] += 1
            queue = [n for n, d in indeg.items() if d == 0]
            seen = 0
            while queue:
                n = queue.pop()
                seen += 1
                for s in dag.succs[n]:
                    indeg[s] -= 1
                    if indeg[s] == 0:
                        queue.append(s)
            assert seen == len(dag.nodes), doc
            # The adjacency recorded as edges were placed is the edge list's.
            succs = {n: [] for n in dag.nodes}
            preds = {n: [] for n in dag.nodes}
            for a, b in dag.edges:
                succs[a].append(b)
                preds[b].append(a)
            assert dag.succs == succs and dag.preds == preds, doc


def test_region_edge_against_reverse_postorder_is_refused():
    # Every region edge between block and loop nodes must go forward in
    # the CFG's reverse postorder; numbering the blocks backwards makes the
    # first such edge fail the check.
    g, f = _fig2()
    f.rpo = {b: -i for b, i in f.rpo.items()}
    with pytest.raises(AssertionError, match="has a cycle"):
        region_dags(g, f)


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
        for d in region_dags(p.cfg, f).values():
            assert d.idom == cfg.immediate_dominators(d.start, d.succs,
                                                      d.preds)[0], doc
            regions += 1
            entry_loops += d.level == TOP and d.start.kind == "loop"
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

        for d in region_dags(p.cfg, f).values():
            for n in (*d.nodes, d.start, d.next, d.exit):
                see(n)
            for a, b in d.edges:
                see(a)
                see(b)
            for n, dom in d.idom.items():
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
