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

from dataclasses import dataclass
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
    off the CFG's dominator tree.  `succs` and `preds` list each node's
    neighbours in the order its edges were placed."""

    level: LoopRef
    nodes: tuple[DagNode, ...]
    edges: tuple[DagEdge, ...]
    start: DagNode
    next: DagNode
    exit: DagNode
    idom: dict[DagNode, DagNode | None]
    succs: dict[DagNode, list[DagNode]]
    preds: dict[DagNode, list[DagNode]]


def region_dags(g: Cfg, f: LoopForest) -> dict[str | None, Dag]:
    """The region graph of every loop (by header) and of the program (None).

    One pass over the blocks and one over the edges place each block and
    edge in the regions it belongs to, in document order, and record each
    node's successors and predecessors as its edges are placed.  Each block
    and each loop has one `DagNode` object, shared by every region that
    names it.

    Every edge between two block or loop nodes goes strictly forward in
    the CFG's reverse postorder (`LoopForest.rpo`, a loop node taking its
    header's number), and `next` and `exit` have no successors, so every
    region graph is acyclic.  In a reducible graph every edge that is not
    a back edge goes forward in reverse postorder (Hecht & Ullman, 1974);
    a loop node's header dominates its blocks, so it comes before them,
    and an edge into a nested loop enters at its header.
    """
    block_node = {b: DagNode("block", b) for b in g.blocks}
    loop_node = {h: DagNode("loop", h) for h in f.loops}
    innermost, parent, rpo = f.block_loop.get, f.parent, f.rpo

    def representative(block: str, level: str | None) -> DagNode:
        # Blocks directly at the level stay themselves; anything inside a
        # nested loop is represented by that loop's node.
        cur = innermost(block)
        if cur == level:
            return block_node[block]
        while parent[cur] != level:  # type: ignore[index]
            cur = parent[cur]  # type: ignore[index]
        return loop_node[cur]  # type: ignore[index]

    next_node = DagNode("next")
    exit_node = DagNode("exit")
    levels: list[str | None] = [None, *f.loops]
    nodes: dict[str | None, list[DagNode]] = {l: [] for l in levels}
    succs: dict[str | None, dict[DagNode, list[DagNode]]] = {
        l: {next_node: [], exit_node: []} for l in levels}
    preds: dict[str | None, dict[DagNode, list[DagNode]]] = {
        l: {next_node: [], exit_node: []} for l in levels}

    def place(level: str | None, n: DagNode) -> None:
        nodes[level].append(n)
        succs[level][n] = []
        preds[level][n] = []

    placed: set[str] = set()
    for b in g.blocks:
        level = innermost(b)
        place(level, block_node[b])
        # A loop's node goes to its parent region at its first block; the
        # placed loops are closed under nesting, so the walk stops early.
        while level is not None and level not in placed:
            placed.add(level)
            place(parent[level], loop_node[level])
            level = parent[level]

    edges: dict[str | None, dict[DagEdge, None]] = {l: {} for l in levels}

    def connect(level: str | None, a: DagNode, b: DagNode) -> None:
        region = edges[level]
        if a != b and (a, b) not in region:
            assert (b is next_node or b is exit_node
                    or rpo[a.id] < rpo[b.id]), \
                f"region graph for {level} has a cycle through {a} -> {b}"
            region[a, b] = None
            succs[level][a].append(b)
            preds[level][b].append(a)

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
        region_preds = preds[level]
        for sink in (next_node, exit_node):
            if region_preds[sink]:
                idom[sink] = _common_dominator(region_preds[sink], idom)
        dags[level] = Dag(ref, (*nodes[level], next_node, exit_node),
                          tuple(edges[level]), start, next_node, exit_node,
                          idom, succs[level], region_preds)
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
