"""Region graphs, forced passage, and CFG-to-tree restructuring."""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import NamedTuple

import pytest

import generators as gen
from symwcet import cfg, cft, restructure
from symwcet.cfg import Cfg, LoopForest, build_loop_forest, parse_program
from symwcet.restructure import _Builder, build_cft

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def _fig2():
    p = parse_program(json.dumps(gen.running_example_doc()))
    return p.cfg, build_loop_forest(p.cfg, p.loop_bounds)


def _sink(b: _Builder, kind: str, level: str | None = None) -> int:
    """The node of loop `level`'s `next` or `exit` (None: the program's
    exit)."""
    if level is None:
        assert kind == "exit"
        return 4 * b.n
    return (2 if kind == "next" else 3) * b.n + b.g.block_index[level]


def _region(b: _Builder, level: str | None):
    """The region graph of loop `level` (None: the program) as the builder
    holds it: its start, its nodes (blocks whose innermost loop is the
    level, loops whose parent is, and the level's sinks: `next` and `exit`
    for a loop, `exit` for the program, which has no back edges), each
    node's predecessors, and its dominator tree over the nodes reachable
    from the start."""
    g, f, n = b.g, b.f, b.n
    at = -1 if level is None else g.block_index[level]
    start = at if level is not None else b.representative(g.entry, -1)
    nodes = [v for v in range(n) if f.block_loop[v] == at]
    nodes += [n + g.block_index[h] for h in f.loops
              if f.parent[g.block_index[h]] == at]
    nodes += ([_sink(b, "next", level), _sink(b, "exit", level)]
              if level is not None else [_sink(b, "exit")])
    preds = {v: b.preds[v] or [] for v in nodes}
    idom = {v: None if b.idom[v] < 0 else b.idom[v] for v in nodes
            if v < 2 * n or preds[v]}
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


def _shape(b, nodes, preds):
    names = sorted(b.name(v) for v in nodes)
    edges = sorted((b.name(p), b.name(v)) for v in nodes for p in preds[v])
    return names, edges


def _passage(b, start, end):
    return [b.name(v) for v in b.passage(start, end)]


# ---------------------------------------------------------------------------
# Region graphs for the running example
# ---------------------------------------------------------------------------


def test_outer_loop_dag():
    b, regions = _regions(*_fig2())
    start, nodes, preds, _ = regions["b1"]
    assert _shape(b, nodes, preds) == (
        ["L_b2", "b1", "b3", "b6", "exit", "next"],
        [("L_b2", "b3"), ("b1", "L_b2"), ("b1", "b6"), ("b1", "exit"),
         ("b3", "next"), ("b6", "b3")])
    assert b.name(start) == "b1"
    assert _passage(b, start, _sink(b, "next", "b1")) == ["b3", "next"]
    assert _passage(b, start, _sink(b, "exit", "b1")) == ["exit"]


def test_inner_loop_dag():
    b, regions = _regions(*_fig2())
    start, nodes, preds, _ = regions["b2"]
    assert _shape(b, nodes, preds) == (
        ["b2", "b4", "exit", "next"],
        [("b2", "b4"), ("b2", "exit"), ("b4", "next")])
    assert b.name(start) == "b2"
    assert _passage(b, start, _sink(b, "exit", "b2")) == ["exit"]
    assert _passage(b, start, _sink(b, "next", "b2")) == ["b4", "next"]


def test_top_level_dag():
    b, regions = _regions(*_fig2())
    start, nodes, preds, _ = regions[None]
    assert _shape(b, nodes, preds) == (
        ["L_b1", "b5", "exit"],
        [("L_b1", "b5"), ("b5", "exit")])
    assert b.name(start) == "L_b1"
    assert _passage(b, start, _sink(b, "exit")) == ["b5", "exit"]


def test_dags_are_acyclic_on_random_docs():
    rng = random.Random(23)
    for _ in range(40):
        doc = gen.random_doc(rng, depth=3, noise=3)
        p = parse_program(json.dumps(doc))
        f = build_loop_forest(p.cfg, p.loop_bounds)
        b, regions = _regions(p.cfg, f)
        for _, nodes, preds, _ in regions.values():
            # Predecessors are distinct nodes of the same region, never
            # the node itself, in node order (blocks before loops, each in
            # document order: the order of an Alt's children).
            for n in nodes:
                assert preds[n] == sorted(set(preds[n])), doc
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
    f.rpo = [-i for i in f.rpo]
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
        b, by_level = _regions(p.cfg, f)
        for level, (start, nodes, preds, idom) in by_level.items():
            # The dominator pass runs on the region renumbered 0 .. k-1.
            at = {v: i for i, v in enumerate(nodes)}
            succs = _succs(nodes, preds)
            dom, rpo = cfg.immediate_dominators(
                at[start], [[at[s] for s in succs[v]] for v in nodes],
                [[at[q] for q in preds[v]] for v in nodes])
            assert idom == {v: None if dom[i] < 0 else nodes[dom[i]]
                            for i, v in enumerate(nodes) if rpo[i] >= 0}, doc
            regions += 1
            entry_loops += level is None and b.n <= start < 2 * b.n
    assert regions >= 1000
    assert entry_loops >= 3


def test_one_node_object_per_block_and_loop():
    # Nodes are numbers: each block and each loop has one, wherever a
    # region mentions it, and a loop's number belongs to a header.
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
        b, by_level = _regions(p.cfg, f)

        def see(n):
            nonlocal names
            names += 1
            kind = ("block", "loop", "next", "exit", "exit")[n // b.n]
            key = (kind, p.cfg.blocks[n % b.n] if n < 4 * b.n else "")
            assert kind != "loop" or key[1] in f.loops, (n, doc)
            assert objects.setdefault(key, n) == n, (n, doc)

        for start, nodes, preds, idom in by_level.values():
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


# ---------------------------------------------------------------------------
# The builder on named nodes, kept as the reference
# ---------------------------------------------------------------------------


class DagNode(NamedTuple):
    kind: str  # "block" | "loop" | "next" | "exit"
    id: str = ""  # block or header; a sink's loop, "" for the program's

    def __str__(self) -> str:
        if self.kind == "block":
            return self.id
        if self.kind == "loop":
            return f"L_{self.id}"
        return self.kind


_KIND_RANK = {"block": 0, "loop": 1}


class ReferenceBuilder:
    """The tree builder on named region nodes, each node's predecessors
    and immediate dominator read off the CFG and the loop forest when it
    is first asked for, and remembered for the rest of the build.  It
    reads the forest through maps on block ids."""

    def __init__(self, g: Cfg, f: LoopForest):
        self.g = g
        self.f = f
        ids, ix = g.blocks, g.block_index

        def name(b):
            return None if b < 0 else ids[b]

        self.block_loop = {ids[b]: ids[h] for b, h in enumerate(f.block_loop)
                           if h >= 0}
        self.parent = {h: name(f.parent[ix[h]]) for h in f.loops}
        self.cfg_idom = {ids[b]: name(d) for b, d in enumerate(f.idom)}
        self.rpo = dict(zip(ids, f.rpo))
        self.preds_of = {b: [ids[u] for u in us]
                         for b, us in zip(ids, g.preds)}
        self.block_node = {b: DagNode("block", b) for b in g.blocks}
        self.loop_node = {h: DagNode("loop", h) for h in f.loops}
        self._preds: dict[DagNode, list[DagNode]] = {}
        self._idom: dict[DagNode, DagNode | None] = {}
        self.seen: dict[str, int] = {}
        self.rename: dict[str, str] = {}

    def representative(self, block: str, level: str | None) -> DagNode:
        cur = self.block_loop.get(block)
        if cur == level:
            return self.block_node[block]
        while self.parent[cur] != level:
            cur = self.parent[cur]
        return self.loop_node[cur]

    def node_key(self, n: DagNode):
        return (_KIND_RANK[n.kind], self.g.block_index[n.id])

    def preds(self, n: DagNode) -> list[DagNode]:
        known = self._preds.get(n)
        if known is not None:
            return known
        f, kind = self.f, n.kind
        if kind == "block":
            level = self.block_loop.get(n.id)
            sources = () if n.id == level else self.preds_of[n.id]
        elif kind == "loop":
            level = self.parent[n.id]
            sources = [self.g.blocks[u]
                       for u, _ in f.loops[n.id].entry_edges]
        else:
            level = n.id or None
            if level is None:
                sources = ((self.g.blocks[self.g.exit],) if kind == "exit"
                           else ())
            else:
                info = f.loops[level]
                sources = [self.g.blocks[u] for u, _ in (
                    info.back_edges if kind == "next" else info.exit_edges)]
        out: list[DagNode] = []
        for u in sources:
            p = self.representative(u, level)
            if p != n and p not in out:
                out.append(p)
        if kind == "block" or kind == "loop":
            for p in out:
                assert self.rpo[p.id] < self.rpo[n.id], \
                    f"region graph for {level} has a cycle through {p} -> {n}"
        if len(out) >= 2:
            out.sort(key=self.node_key)
        self._preds[n] = out
        return out

    def idom(self, n: DagNode) -> DagNode | None:
        if n in self._idom:
            return self._idom[n]
        if n.kind == "block" or n.kind == "loop":
            level = (self.block_loop.get(n.id) if n.kind == "block"
                     else self.parent[n.id])
            above = self.cfg_idom[n.id]
            dom = (None if above is None or n.id == level
                   else self.representative(above, level))
        else:
            preds = self.preds(n)
            dom = preds[0]
            for p in preds[1:]:
                chain: set[DagNode] = set()
                cur: DagNode | None = dom
                while cur is not None:
                    chain.add(cur)
                    cur = self.idom(cur)
                while p not in chain:
                    p = self.idom(p)
                dom = p
        self._idom[n] = dom
        return dom

    def passage(self, start: DagNode, end: DagNode) -> list[DagNode]:
        chain: list[DagNode] = []
        cur: DagNode | None = end
        while cur != start:
            assert cur is not None, f"{start} does not dominate {end}"
            chain.append(cur)
            cur = self.idom(cur)
        chain.reverse()
        return chain

    def emit(self, n: DagNode) -> cft.Cft | None:
        if n.kind == "block":
            label = n.id
            k = self.seen.get(label, 0)
            self.seen[label] = k + 1
            if k:
                label = f"{label}#{k}"
                self.rename[label] = n.id
            return cft.Leaf(label, self.g.costs[self.g.block_index[n.id]])
        if n.kind == "loop":
            h, start = n.id, self.block_node[n.id]
            body = self.tree(start, DagNode("next", h), include_start=True)
            exit_tree = self.tree(start, DagNode("exit", h), True)
            return cft.Loop(h, body, self.f.loops[h].bound, exit_tree)
        return None

    def tree(self, start: DagNode, end: DagNode,
             include_start: bool) -> cft.Cft:
        children: list[cft.Cft] = []
        if include_start:
            first = self.emit(start)
            if first is not None:
                children.append(first)
        prev = start
        for forced in self.passage(start, end):
            preds = self.preds(forced)
            if len(preds) >= 2:
                children.append(cft.alt([
                    self.tree(prev, p, include_start=False) for p in preds
                ]))
            else:
                assert preds in ([], [prev]), f"{forced} follows {preds}"
            emitted = self.emit(forced)
            if emitted is not None:
                children.append(emitted)
            prev = forced
        return cft.seq(children)


def reference_build_cft(g: Cfg, f: LoopForest):
    builder = ReferenceBuilder(g, f)
    tree = builder.tree(builder.representative(g.blocks[g.entry], None),
                        DagNode("exit"), include_start=True)
    return tree, builder.rename


def _reference_corpus():
    rng = random.Random(71)
    docs = [gen.random_doc(rng, depth=1 + i % 4, noise=i % 7,
                           symbolic_bounds=i % 3 == 0) for i in range(400)]
    docs += [gen.scaling_doc(k) for k in (1, 2, 3, 4, 60, 333)]
    docs += [gen.loop_nest_doc(d) for d in (1, 2, 3, 8, 150)]
    docs += [gen.dowhile_nest_doc(d) for d in range(1, 8)]
    docs += [json.loads(p.read_text()) for p in sorted(SAMPLES.glob("*.json"))]
    return docs + _region_corpus()


def _preorder(t):
    """Each node of t in preorder, with its fields other than children:
    the tree spelled out without recursion."""
    out = []
    for node in cft.subtrees(t):
        if isinstance(node, cft.Leaf):
            out.append(("leaf", node.label, node.wcet))
        elif isinstance(node, cft.Loop):
            out.append(("loop", node.header, node.bound))
        else:
            out.append((type(node).__name__, len(node.children)))
    return out


def test_build_cft_matches_the_reference_builder():
    # The same tree (node for node, leaf labels and costs included) and
    # the same rename map, in the same order.
    leaves = 0
    for doc in _reference_corpus():
        p = parse_program(json.dumps(doc))
        f = build_loop_forest(p.cfg, p.loop_bounds)
        tree, rename = build_cft(p.cfg, f)
        want_tree, want_rename = reference_build_cft(p.cfg, f)
        assert _preorder(tree) == _preorder(want_tree), doc
        assert list(rename.items()) == list(want_rename.items()), doc
        leaves += len(cft.leaves(tree))
    assert leaves >= 10_000, leaves
