"""CFG restructuring: loops to DAGs, DAGs to control-flow trees.

Each loop (and the whole program, treated as an outermost pseudo-loop) is
flattened into an acyclic region graph whose nodes are the blocks directly
at that nesting level plus one hierarchical node per directly nested loop.
Back-edges point at a virtual `next` node, departures at a virtual `exit`
node.  The region graph is then serialized into a tree along its chain of
forced-passage nodes; hierarchical nodes expand recursively into Loop nodes.
Each block and each loop has one `DagNode` object per `region_dags` call,
shared by every region graph, edge and dominator entry that names it.

A region's dominator tree is read off the CFG's (`LoopForest.idom`), not
computed again: a node's immediate dominator is the region node that stands
for its block's (or header's) immediate dominator in the CFG, and `next`
and `exit` are dominated by the nearest common dominator of their
predecessors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .cfg import TOP, Cfg, LoopForest, LoopRef, loop_ref
from . import cft


class DagNode(NamedTuple):
    # A tuple, not a dataclass: nodes are hashed and compared constantly.
    kind: str  # "block" | "loop" | "next" | "exit"
    id: str = ""

    def __str__(self) -> str:
        if self.kind == "block":
            return self.id
        if self.kind == "loop":
            return f"L_{self.id}"
        return self.kind


DagEdge = tuple[DagNode, DagNode]


@dataclass
class Dag:
    """One region graph.  `idom` is its dominator tree over the nodes
    reachable from `start` (which maps to None), as `region_dags` reads it
    off the CFG's dominator tree."""

    level: LoopRef
    nodes: tuple[DagNode, ...]
    edges: tuple[DagEdge, ...]
    start: DagNode
    next: DagNode
    exit: DagNode
    idom: dict[DagNode, DagNode | None]
    succs: dict[DagNode, tuple[DagNode, ...]] = field(init=False)
    preds: dict[DagNode, tuple[DagNode, ...]] = field(init=False)

    def __post_init__(self) -> None:
        succs: dict[DagNode, list[DagNode]] = {n: [] for n in self.nodes}
        preds: dict[DagNode, list[DagNode]] = {n: [] for n in self.nodes}
        for s, t in self.edges:
            succs[s].append(t)
            preds[t].append(s)
        self.succs = {n: tuple(v) for n, v in succs.items()}
        self.preds = {n: tuple(v) for n, v in preds.items()}
        assert _is_acyclic(self), f"region graph for {self.level} has a cycle"


def region_dags(g: Cfg, f: LoopForest) -> dict[str | None, Dag]:
    """The region graph of every loop (by header) and of the program (None).

    One pass over the blocks and one over the edges place each block and
    edge in the regions it belongs to, in document order.  Each block and
    each loop has one `DagNode` object, shared by every region that names
    it.
    """
    block_node = {b: DagNode("block", b) for b in g.blocks}
    loop_node = {h: DagNode("loop", h) for h in f.loops}
    innermost, parent = f.block_loop.get, f.parent

    def representative(block: str, level: str | None) -> DagNode:
        # Blocks directly at the level stay themselves; anything inside a
        # nested loop is represented by that loop's node.
        cur = innermost(block)
        if cur == level:
            return block_node[block]
        while parent[cur] != level:  # type: ignore[index]
            cur = parent[cur]  # type: ignore[index]
        return loop_node[cur]  # type: ignore[index]

    levels: list[str | None] = [None, *f.loops]
    nodes: dict[str | None, list[DagNode]] = {l: [] for l in levels}
    placed: set[str] = set()
    for b in g.blocks:
        level = innermost(b)
        nodes[level].append(block_node[b])
        # A loop's node goes to its parent region at its first block; the
        # placed loops are closed under nesting, so the walk stops early.
        while level is not None and level not in placed:
            placed.add(level)
            nodes[parent[level]].append(loop_node[level])
            level = parent[level]

    next_node = DagNode("next")
    exit_node = DagNode("exit")
    edges: dict[str | None, dict[DagEdge, None]] = {l: {} for l in levels}
    # Per region, the predecessors of `next` and of `exit` in the order
    # their edges were first placed.
    sink_preds: dict[str | None, tuple[list[DagNode], list[DagNode]]] = {
        l: ([], []) for l in levels}

    def connect(level: str | None, a: DagNode, b: DagNode) -> None:
        region = edges[level]
        if a != b and (a, b) not in region:
            region[a, b] = None
            if b is next_node:
                sink_preds[level][0].append(a)
            elif b is exit_node:
                sink_preds[level][1].append(a)

    for u, v in g.edges:
        # The edge departs every loop around u that does not contain v, and
        # lies inside the innermost region that contains both; there a back
        # edge of the region's own loop goes to `next`.
        rep = block_node[u]
        level = innermost(u)
        while level is not None and v not in f.loops[level].body:
            connect(level, rep, exit_node)
            rep = loop_node[level]
            level = parent[level]
        if level == v and (u, v) in f.loops[v].back_edges:
            connect(level, rep, next_node)
        else:
            connect(level, rep, representative(v, level))
    # Program termination is the departure edge of the pseudo-loop.
    connect(None, representative(g.exit, None), exit_node)

    dags: dict[str | None, Dag] = {}
    for level in levels:
        if level is None:
            ref, start = TOP, representative(g.entry, None)
        else:
            ref, start = loop_ref(level), block_node[level]
        # Every other block or loop node is dominated, within the region, by
        # the node that stands for its CFG immediate dominator: that block
        # lies inside the region's loop, since the header dominates it.
        idom: dict[DagNode, DagNode | None] = {start: None}
        for n in nodes[level]:
            if n is not start:
                idom[n] = representative(f.idom[n.id], level)
        for sink, preds in zip((next_node, exit_node), sink_preds[level]):
            if preds:
                idom[sink] = _common_dominator(preds, idom)
        dags[level] = Dag(ref, (*nodes[level], next_node, exit_node),
                          tuple(edges[level]), start, next_node, exit_node,
                          idom)
    return dags


def _common_dominator(nodes: list[DagNode],
                      idom: dict[DagNode, DagNode | None]) -> DagNode:
    """The nearest node that dominates every one of nodes."""
    common = nodes[0]
    for n in nodes[1:]:
        above: set[DagNode] = set()
        cur: DagNode | None = common
        while cur is not None:
            above.add(cur)
            cur = idom[cur]
        while n not in above:
            n = idom[n]  # type: ignore[assignment]
        common = n
    return common


def _is_acyclic(d: Dag) -> bool:
    indeg = {n: len(d.preds[n]) for n in d.nodes}
    ready = [n for n in d.nodes if indeg[n] == 0]
    seen = 0
    while ready:
        n = ready.pop()
        seen += 1
        for t in d.succs[n]:
            indeg[t] -= 1
            if indeg[t] == 0:
                ready.append(t)
    return seen == len(d.nodes)


def forced_passage(d: Dag, end: DagNode,
                   start: DagNode | None = None) -> list[DagNode]:
    """Nodes every start-to-end walk must pass, ordered start-side first.

    Includes end, excludes start (default: the region start), which must
    dominate end.  On a DAG these are exactly the dominators of end that
    start dominates: the segment of end's idom chain below start.
    """
    start = d.start if start is None else start
    chain: list[DagNode] = []
    cur = end
    while cur != start:
        chain.append(cur)
        assert cur != d.start, f"{start} does not dominate {end}"
        cur = d.idom[cur]
    chain.reverse()
    return chain


_KIND_RANK = {"block": 0, "loop": 1, "next": 2, "exit": 3}


class _Builder:
    """Serializes region graphs into one tree.

    Leaves are created in preorder of the final tree (children left to
    right, a Loop's body before its exit), so each is named as it is
    created: the k-th repeat of a block's label gets the suffix '#k', and
    `rename` maps every suffixed label back to its block.
    """

    def __init__(self, g: Cfg, f: LoopForest, dags: dict[str | None, Dag]):
        self.g = g
        self.f = f
        self.dags = dags
        self.seen: dict[str, int] = {}
        self.rename: dict[str, str] = {}

    def node_key(self, n: DagNode):
        return (_KIND_RANK[n.kind], self.g.block_index.get(n.id, 0))

    def emit(self, n: DagNode) -> cft.Cft | None:
        if n.kind == "block":
            label = n.id
            k = self.seen.get(label, 0)
            self.seen[label] = k + 1
            if k:
                label = f"{label}#{k}"
                self.rename[label] = n.id
            return cft.Leaf(label, self.g.blocks[n.id].wcet)
        if n.kind == "loop":
            d = self.dags[n.id]
            body = self.tree(d, d.start, d.next, include_start=True)
            exit_tree = self.tree(d, d.start, d.exit, include_start=True)
            return cft.Loop(n.id, body, self.f.loops[n.id].bound, exit_tree)
        return None

    def tree(self, d: Dag, start: DagNode, end: DagNode,
             include_start: bool) -> cft.Cft:
        children: list[cft.Cft] = []
        if include_start:
            first = self.emit(start)
            if first is not None:
                children.append(first)
        prev = start
        for forced in forced_passage(d, end, start):
            preds = d.preds[forced]
            if len(preds) >= 2:
                preds = sorted(preds, key=self.node_key)
                children.append(cft.alt([
                    self.tree(d, prev, p, include_start=False) for p in preds
                ]))
            elif preds and preds[0] != prev:
                # The lone predecessor is normally the previous anchor; when
                # it is not, the recursion picks up the nodes in between.
                children.append(self.tree(d, prev, preds[0],
                                          include_start=False))
            emitted = self.emit(forced)
            if emitted is not None:
                children.append(emitted)
            prev = forced
        return cft.seq(children)


def build_cft(g: Cfg, f: LoopForest) -> tuple[cft.Cft, dict[str, str]]:
    """Whole-program control-flow tree plus the duplicate-leaf rename map.

    Repeated block labels carry '#k' suffixes in preorder, given by the
    builder as it creates the leaves; the map sends each suffixed label
    back to its block, in the order the leaves were created.
    """
    dags = region_dags(g, f)
    top = dags[None]
    builder = _Builder(g, f, dags)
    tree = builder.tree(top, top.start, top.exit, include_start=True)
    return tree, builder.rename
