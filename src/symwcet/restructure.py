"""CFG restructuring: loops to DAGs, DAGs to control-flow trees.

Each loop (and the whole program, treated as an outermost pseudo-loop) is
flattened into an acyclic region graph whose nodes are the blocks directly
at that nesting level plus one hierarchical node per directly nested loop.
Back-edges point at a virtual `next` node, departures at a virtual `exit`
node.  The region graph is then serialized into a tree along its chain of
forced-passage nodes; hierarchical nodes expand recursively into Loop nodes.

Region nodes are integers on the CFG's N block numbers: block i is node i,
the loop headed by block i is N + i, that loop's `next` is 2N + i and its
`exit` 3N + i, and the program's exit is 4N.  Sorting nodes sorts blocks
before loops, each in document order, which is the order of an Alt's
children.  The region graphs are arrays over these nodes, filled in one
pass over the CFG's predecessor lists and the forest's edge lists: the
predecessors stand for the CFG edges into a node (a block's predecessors,
a loop's `entry_edges`, and the `back_edges` and `exit_edges` of the loop
whose `next` and `exit` they are).  The immediate dominator of a block or
loop node stands for its block's (or header's) in `LoopForest.idom`; that
of `next` or `exit` is the nearest common dominator of its predecessors.
"""

from __future__ import annotations

from .cfg import Cfg, LoopForest
from . import cft


class _Builder:
    """Serializes region graphs into one tree.

    `preds[n]` lists node n's predecessors in its region graph, sorted,
    and `idom[n]` is its immediate dominator there (-1: n starts its
    region).  A block or loop node's predecessors come before it in the
    CFG's reverse postorder (`LoopForest.rpo`, a loop node taking its
    header's number), which proves every region graph acyclic: in a
    reducible graph every edge that is not a back edge goes forward in
    reverse postorder (Hecht & Ullman, 1974), a loop's header comes before
    its blocks, and an edge into a nested loop enters at its header.

    Leaves are created in preorder of the final tree (children left to
    right, a Loop's body before its exit), so each is named as it is
    created: the k-th repeat of a block's label gets the suffix '#k', and
    `rename` maps every suffixed label back to its block.
    """

    def __init__(self, g: Cfg, f: LoopForest):
        self.g = g
        self.f = f
        n = self.n = len(g.blocks)
        block_loop, rpo = f.block_loop, f.rpo
        preds: list[list[int] | None] = [None] * (4 * n + 1)
        idom = [-1] * (4 * n + 1)
        shared: list[int] = []  # nodes with two or more predecessor entries
        self.preds, self.idom = preds, idom
        rep = self.representative

        def add(node: int, p: int) -> None:
            known = preds[node]
            if known is None:
                preds[node] = [p]
            else:
                known.append(p)
                if len(known) == 2:
                    shared.append(node)

        # A loop's header starts its region: its CFG predecessors are back
        # edges (to `next`) or outside the loop.  Unless a block or loop
        # node starts its region, the block above it in the CFG's
        # dominator tree lies inside the region's loop, since the header
        # dominates it.
        for v, level in enumerate(block_loop):
            if v == level:
                continue
            for u in g.preds[v]:
                p = u if block_loop[u] == level else rep(u, level)
                assert rpo[p % n] < rpo[v], self._cycle(p, v)
                add(v, p)
            if f.idom[v] >= 0:
                idom[v] = rep(f.idom[v], level)
        for info in f.loops.values():
            h = g.block_index[info.header]
            level = f.parent[h]
            for u, _ in info.entry_edges:
                p = rep(u, level)
                assert rpo[p % n] < rpo[h], self._cycle(p, n + h)
                add(n + h, p)
            if f.idom[h] >= 0:
                idom[n + h] = rep(f.idom[h], level)
            for u, _ in info.back_edges:
                add(2 * n + h, rep(u, h))
            for u, _ in info.exit_edges:
                add(3 * n + h, rep(u, h))
        # Program termination is the pseudo-loop's departure edge.
        add(4 * n, rep(g.exit, -1))
        for node in shared:
            preds[node] = sorted(set(preds[node]))  # type: ignore[arg-type]

        # A sink's dominator is the nearest node that dominates every
        # predecessor.  Dominators come before the nodes they dominate in
        # reverse postorder, so two-finger intersection finds it.
        for node in range(2 * n, 4 * n + 1):
            ps = preds[node]
            if ps is None:
                continue
            dom = ps[0]
            for a in ps[1:]:
                while a != dom:
                    while rpo[a % n] > rpo[dom % n]:
                        a = idom[a]
                    while rpo[dom % n] > rpo[a % n]:
                        dom = idom[dom]
            idom[node] = dom
        self.seen = [0] * n
        self.rename: dict[str, str] = {}

    def representative(self, block: int, level: int) -> int:
        """The node of `block` in the region of loop `level` (-1: the
        program): the block itself when it lies directly at the level,
        else the node of the nested loop it lies in."""
        f = self.f
        cur = f.block_loop[block]
        if cur == level:
            return block
        parent = f.parent
        while parent[cur] != level:
            cur = parent[cur]
        return self.n + cur

    def name(self, node: int) -> str:
        """How messages name a node: a block's id, L_<header>, next, exit."""
        n, ids = self.n, self.g.blocks
        if node < n:
            return ids[node]
        if node < 2 * n:
            return f"L_{ids[node - n]}"
        return "next" if node < 3 * n else "exit"

    def _cycle(self, p: int, node: int) -> str:
        """The message for a region edge p -> node against reverse
        postorder, naming the region by its loop's header."""
        n, f = self.n, self.f
        level = f.block_loop[node] if node < n else f.parent[node - n]
        region = None if level < 0 else self.g.blocks[level]
        return (f"region graph for {region} has a cycle through "
                f"{self.name(p)} -> {self.name(node)}")

    def passage(self, start: int, end: int) -> list[int]:
        """The forced passage: nodes every start-to-end walk must pass,
        ordered start-side first.

        Includes end, excludes start, which must dominate end.  On a DAG
        these are exactly the dominators of end that start dominates: the
        segment of end's idom chain below start.
        """
        chain: list[int] = []
        cur = end
        idom = self.idom
        while cur != start:
            assert cur >= 0, \
                f"{self.name(start)} does not dominate {self.name(end)}"
            chain.append(cur)
            cur = idom[cur]
        chain.reverse()
        return chain

    def emit(self, node: int) -> cft.Cft | None:
        n, ids = self.n, self.g.blocks
        if node < n:
            label = ids[node]
            k = self.seen[node]
            self.seen[node] = k + 1
            if k:
                label = f"{label}#{k}"
                self.rename[label] = ids[node]
            return cft.Leaf(label, self.g.costs[node])
        if node < 2 * n:
            h = node - n
            body = self.tree(h, 2 * n + h, include_start=True)
            exit_tree = self.tree(h, 3 * n + h, True)
            return cft.Loop(ids[h], body, self.f.loops[ids[h]].bound,
                            exit_tree)
        return None

    def tree(self, start: int, end: int, include_start: bool) -> cft.Cft:
        children: list[cft.Cft] = []
        if include_start:
            first = self.emit(start)
            if first is not None:
                children.append(first)
        prev = start
        for forced in self.passage(start, end):
            preds = self.preds[forced] or []
            if len(preds) >= 2:
                children.append(cft.alt([
                    self.tree(prev, p, include_start=False) for p in preds
                ]))
            else:
                # A lone predecessor is the node's immediate dominator,
                # which the passage has just left.
                assert preds in ([], [prev]), \
                    (f"{self.name(forced)} follows "
                     f"{[self.name(p) for p in preds]}")
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
    tree = builder.tree(builder.representative(g.entry, -1),
                        4 * len(g.blocks), include_start=True)
    return tree, builder.rename
