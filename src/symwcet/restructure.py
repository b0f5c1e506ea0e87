"""CFG restructuring: loops to DAGs, DAGs to control-flow trees.

Each loop (and the whole program, treated as an outermost pseudo-loop) is
flattened into an acyclic region graph whose nodes are the blocks directly
at that nesting level plus one hierarchical node per directly nested loop.
Back-edges point at a virtual `next` node, departures at a virtual `exit`
node.  The region graph is then serialized into a tree along its chain of
forced-passage nodes; hierarchical nodes expand recursively into Loop nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cfg import TOP, Cfg, LoopForest, LoopRef, loop_ref
from . import cft


@dataclass(frozen=True)
class DagNode:
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
    level: LoopRef
    nodes: tuple[DagNode, ...]
    edges: tuple[DagEdge, ...]
    start: DagNode
    next: DagNode
    exit: DagNode
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


def _representative(block: str, level: str | None, f: LoopForest) -> DagNode:
    """Map a block to its node at the given nesting level.

    Blocks directly at the level stay themselves; anything inside a nested
    loop is represented by that loop's hierarchical node.
    """
    cur = f.innermost(block)
    if cur == level:
        return DagNode("block", block)
    while f.parent[cur] != level:  # type: ignore[index]
        cur = f.parent[cur]
    return DagNode("loop", cur)  # type: ignore[arg-type]


def loop_to_dag(g: Cfg, f: LoopForest, l: LoopRef) -> tuple[Dag, DagNode, DagNode]:
    """Build the acyclic region graph for loop l (TOP = whole program)."""
    if l == TOP:
        level = None
        members = set(g.blocks)
        own_back: set[tuple[str, str]] = set()
    else:
        level = l.header
        info = f.loops[level]
        members = set(info.body)
        own_back = set(info.back_edges)

    next_node = DagNode("next")
    exit_node = DagNode("exit")
    nodes: list[DagNode] = []
    seen: set[DagNode] = set()

    def add(n: DagNode) -> DagNode:
        if n not in seen:
            seen.add(n)
            nodes.append(n)
        return n

    for b in g.blocks:
        if b in members:
            add(_representative(b, level, f))
    add(next_node)
    add(exit_node)

    edges: list[DagEdge] = []
    edge_seen: set[DagEdge] = set()

    def connect(a: DagNode, b: DagNode) -> None:
        if a != b and (a, b) not in edge_seen:
            edge_seen.add((a, b))
            edges.append((a, b))

    for u, v in g.edges:
        if (u, v) in own_back:
            connect(_representative(u, level, f), next_node)
        elif u in members and v in members:
            connect(_representative(u, level, f), _representative(v, level, f))
        elif u in members:
            connect(_representative(u, level, f), exit_node)

    if l == TOP:
        # Program termination is the departure edge of the pseudo-loop.
        connect(_representative(g.exit, level, f), exit_node)
        start = _representative(g.entry, level, f)
    else:
        start = DagNode("block", level)

    dag = Dag(l, tuple(nodes), tuple(edges), start, next_node, exit_node)
    assert _is_acyclic(dag), f"region graph for {l} has a cycle"
    return dag, next_node, exit_node


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


def _idoms(start: DagNode, succs: dict[DagNode, tuple[DagNode, ...]],
           preds: dict[DagNode, tuple[DagNode, ...]]) -> dict[DagNode, DagNode]:
    order: list[DagNode] = []
    seen = {start}
    stack: list[tuple[DagNode, int]] = [(start, 0)]
    while stack:
        node, i = stack.pop()
        nxt = succs.get(node, ())
        if i < len(nxt):
            stack.append((node, i + 1))
            t = nxt[i]
            if t not in seen:
                seen.add(t)
                stack.append((t, 0))
        else:
            order.append(node)
    order.reverse()
    rpo = {n: i for i, n in enumerate(order)}
    idom = {start: start}

    def intersect(a: DagNode, b: DagNode) -> DagNode:
        while a != b:
            while rpo[a] > rpo[b]:
                a = idom[a]
            while rpo[b] > rpo[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for n in order[1:]:
            new = None
            for p in preds.get(n, ()):
                if p in idom:
                    new = p if new is None else intersect(new, p)
            if new is not None and idom.get(n) != new:
                idom[n] = new
                changed = True
    return idom


def _forced_between(d: Dag, start: DagNode, end: DagNode) -> list[DagNode]:
    """Nodes every start-to-end walk must pass, ordered start-side first.

    Includes end, excludes start.  Dominance is computed on the subgraph of
    nodes lying on some start-to-end walk, which equals dominance from start
    for these nodes and keeps the work proportional to the region.
    """
    if start == end:
        return []
    fwd = {start}
    stack = [start]
    while stack:
        for t in d.succs[stack[-1]]:
            if t not in fwd:
                fwd.add(t)
                stack.append(t)
                break
        else:
            stack.pop()
    assert end in fwd, f"{end} unreachable from {start}"
    region = {end}
    work = [end]
    while work:
        for p in d.preds[work.pop()]:
            if p in fwd and p not in region:
                region.add(p)
                work.append(p)
    succs = {n: tuple(t for t in d.succs[n] if t in region) for n in region}
    preds = {n: tuple(p for p in d.preds[n] if p in region) for n in region}
    idom = _idoms(start, succs, preds)
    chain: list[DagNode] = []
    cur = end
    while cur != start:
        chain.append(cur)
        cur = idom[cur]
    chain.reverse()
    return chain


def forced_passage(d: Dag, end: DagNode) -> list[DagNode]:
    """Forced-passage nodes from the region start to end (end included)."""
    return _forced_between(d, d.start, end)


class _Builder:
    def __init__(self, g: Cfg, f: LoopForest):
        self.g = g
        self.f = f
        self._dags: dict[str, Dag] = {}

    def loop_dag(self, header: str) -> Dag:
        if header not in self._dags:
            self._dags[header], _, _ = loop_to_dag(self.g, self.f,
                                                   loop_ref(header))
        return self._dags[header]

    def node_key(self, n: DagNode):
        kind_rank = {"block": 0, "loop": 1, "next": 2, "exit": 3}[n.kind]
        return (kind_rank, self.g.block_index.get(n.id, 0))

    def emit(self, n: DagNode) -> cft.Cft | None:
        if n.kind == "block":
            return cft.Leaf(n.id, self.g.blocks[n.id].wcet)
        if n.kind == "loop":
            d = self.loop_dag(n.id)
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
        for forced in _forced_between(d, start, end):
            preds = sorted(d.preds[forced], key=self.node_key)
            if len(preds) >= 2:
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

    The builder does not deduplicate leaf labels; the renaming pass runs
    once on the assembled tree.
    """
    top, _, exit_node = loop_to_dag(g, f, TOP)
    raw = _Builder(g, f).tree(top, top.start, exit_node, include_start=True)
    return cft.rename_leaves(raw)
