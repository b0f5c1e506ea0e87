"""CFG restructuring: loops to DAGs, DAGs to control-flow trees.

Each loop (and the whole program, treated as an outermost pseudo-loop) is
flattened into an acyclic region graph whose nodes are the blocks directly
at that nesting level plus one hierarchical node per directly nested loop.
Back-edges point at a virtual `next` node, departures at a virtual `exit`
node.  The region graph is then serialized into a tree along its chain of
forced-passage nodes; hierarchical nodes expand recursively into Loop nodes.

The region graphs are a view, not tables: the tree builder reads a node's
predecessors and immediate dominator off the CFG and its loop forest when
it first asks, and remembers them for the rest of the build.  The
predecessors stand for the CFG edges into the node: a block's `Cfg.preds`,
a loop's `entry_edges`, and the `back_edges` and `exit_edges` of the loop
whose `next` and `exit` they are.  The immediate dominator of a block or
loop node stands for its block's (or header's) in `LoopForest.idom`; that
of `next` or `exit` is the nearest common dominator of its predecessors.
"""

from __future__ import annotations

from typing import NamedTuple

from .cfg import Cfg, LoopForest
from . import cft


class DagNode(NamedTuple):
    # A tuple, not a dataclass: nodes are hashed and compared constantly.
    kind: str  # "block" | "loop" | "next" | "exit"
    id: str = ""  # block or header; a sink's loop, "" for the program's

    def __str__(self) -> str:
        if self.kind == "block":
            return self.id
        if self.kind == "loop":
            return f"L_{self.id}"
        return self.kind


_KIND_RANK = {"block": 0, "loop": 1}


class _Builder:
    """Serializes region graphs into one tree.

    Each block and each loop has one `DagNode` object per build.  A block
    or loop node's predecessors come before it in the CFG's reverse
    postorder (`LoopForest.rpo`, a loop node taking its header's number),
    which proves every region graph acyclic: in a reducible graph every
    edge that is not a back edge goes forward in reverse postorder (Hecht
    & Ullman, 1974), a loop's header comes before its blocks, and an edge
    into a nested loop enters at its header.

    Leaves are created in preorder of the final tree (children left to
    right, a Loop's body before its exit), so each is named as it is
    created: the k-th repeat of a block's label gets the suffix '#k', and
    `rename` maps every suffixed label back to its block.
    """

    def __init__(self, g: Cfg, f: LoopForest):
        self.g = g
        self.f = f
        self.block_node = {b: DagNode("block", b) for b in g.blocks}
        self.loop_node = {h: DagNode("loop", h) for h in f.loops}
        self._preds: dict[DagNode, list[DagNode]] = {}
        self._idom: dict[DagNode, DagNode | None] = {}
        self.seen: dict[str, int] = {}
        self.rename: dict[str, str] = {}

    def representative(self, block: str, level: str | None) -> DagNode:
        # Blocks directly at the level stay themselves; anything inside a
        # nested loop is represented by that loop's node.
        cur = self.f.block_loop.get(block)
        if cur == level:
            return self.block_node[block]
        parent = self.f.parent
        while parent[cur] != level:  # type: ignore[index]
            cur = parent[cur]  # type: ignore[index]
        return self.loop_node[cur]  # type: ignore[index]

    def node_key(self, n: DagNode):
        return (_KIND_RANK[n.kind], self.g.block_index[n.id])

    def preds(self, n: DagNode) -> list[DagNode]:
        """n's predecessors in its region graph, sorted by `node_key`."""
        known = self._preds.get(n)
        if known is not None:
            return known
        f, kind = self.f, n.kind
        if kind == "block":
            # A loop's header starts its region: its CFG predecessors are
            # back edges (to `next`) or outside the loop.
            level = f.block_loop.get(n.id)
            sources = () if n.id == level else self.g.preds[n.id]
        elif kind == "loop":
            level = f.parent[n.id]
            sources = [u for u, _ in f.loops[n.id].entry_edges]
        else:
            level = n.id or None
            if level is None:
                # Program termination is the pseudo-loop's departure edge.
                sources = (self.g.exit,) if kind == "exit" else ()
            else:
                info = f.loops[level]
                sources = [u for u, _ in (info.back_edges if kind == "next"
                                          else info.exit_edges)]
        out: list[DagNode] = []
        for u in sources:
            p = self.representative(u, level)
            if p != n and p not in out:
                out.append(p)
        if kind == "block" or kind == "loop":
            for p in out:
                assert f.rpo[p.id] < f.rpo[n.id], \
                    f"region graph for {level} has a cycle through {p} -> {n}"
        if len(out) >= 2:
            out.sort(key=self.node_key)
        self._preds[n] = out
        return out

    def idom(self, n: DagNode) -> DagNode | None:
        """n's immediate dominator in its region graph (None: its start)."""
        if n in self._idom:
            return self._idom[n]
        f = self.f
        if n.kind == "block" or n.kind == "loop":
            level = (f.block_loop.get(n.id) if n.kind == "block"
                     else f.parent[n.id])
            above = f.idom[n.id]
            # Unless n starts the region, that block lies inside the
            # region's loop, since the header dominates n.
            dom = (None if above is None or n.id == level
                   else self.representative(above, level))
        else:
            # The nearest node that dominates every predecessor.
            preds = self.preds(n)
            dom = preds[0]
            for p in preds[1:]:
                chain: set[DagNode] = set()
                cur: DagNode | None = dom
                while cur is not None:
                    chain.add(cur)
                    cur = self.idom(cur)
                while p not in chain:
                    p = self.idom(p)  # type: ignore[assignment]
                dom = p
        self._idom[n] = dom
        return dom

    def passage(self, start: DagNode, end: DagNode) -> list[DagNode]:
        """The forced passage: nodes every start-to-end walk must pass,
        ordered start-side first.

        Includes end, excludes start, which must dominate end.  On a DAG
        these are exactly the dominators of end that start dominates: the
        segment of end's idom chain below start.
        """
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
            return cft.Leaf(label, self.g.blocks[n.id].wcet)
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
                # A lone predecessor is the node's immediate dominator,
                # which the passage has just left.
                assert preds in ([], [prev]), f"{forced} follows {preds}"
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
    builder = _Builder(g, f)
    tree = builder.tree(builder.representative(g.entry, None),
                        DagNode("exit"), include_start=True)
    return tree, builder.rename
