"""Control-flow graph model.

Parses and validates JSON program documents, computes dominators, detects
irreducible control flow, builds the natural-loop forest, and provides the
loop lattice (loops ordered by nesting, completed with TOP and BOT) that the
rest of the analysis is parameterized over.

Parsing numbers the blocks once, in document order, and the graph holds
nothing but those numbers: edges, successors, predecessors, entry and
exit.  Dominators and the loop forest are lists indexed by them.  Block
ids come back only where a result is named: loop headers, error texts,
and the paths and counts the commands print.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .errors import DocumentError, IrreducibleLoop
from .records import slot_init

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

Edge = tuple[int, int]  # (source, target) block numbers


def is_identifier(s: object) -> bool:
    return isinstance(s, str) and bool(_IDENT_RE.match(s))


# ---------------------------------------------------------------------------
# Loop references (the lattice elements)
# ---------------------------------------------------------------------------


class LoopRef(NamedTuple):
    """A point in the loop lattice: a concrete loop, TOP, or BOT.

    A NamedTuple, not a dataclass: every value of the cost-ranking algebra
    carries one, so it is built, compared and hashed constantly, and a
    tuple does all three in C.  It compares and hashes equal to the plain
    tuple `(kind, header)`, and orders as that tuple does.
    """

    kind: str  # "loop" | "top" | "bot"
    header: str = ""

    def __str__(self) -> str:
        if self.kind == "top":
            return "TOP"
        if self.kind == "bot":
            return "BOT"
        return self.header


TOP = LoopRef("top")
BOT = LoopRef("bot")


def loop_ref(header: str) -> LoopRef:
    return LoopRef("loop", header)


def parse_loop_ref(text: str) -> LoopRef:
    if text == "TOP":
        return TOP
    if text == "BOT":
        return BOT
    return loop_ref(text)


# ---------------------------------------------------------------------------
# CFG data model
# ---------------------------------------------------------------------------


@dataclass
class Cfg:
    """A program graph.  Blocks are numbered once, in document order; the
    analysis runs on those numbers, and names appear only at its ends."""

    name: str
    blocks: list[str]  # block number -> block id
    costs: list[int | str]  # block number -> concrete cost or identifier
    block_index: dict[str, int]  # block id -> block number
    edges: list[Edge]  # document order
    succs: list[list[int]]  # block number -> successors, in edge order
    preds: list[list[int]]  # block number -> predecessors, in edge order
    entry: int
    exit: int


@dataclass(frozen=True)
class AnnotationSpec:
    """Document-level iteration constraint: target executes at most `max`
    times per entry of `loop` ("TOP" for once-per-run constraints)."""

    target: str
    loop: str
    max: int | str


@dataclass(frozen=True)
class VariantSpec:
    id: str
    wcet: int | str
    annotation: tuple[str, int | str] | None  # (loop, max)


@dataclass(frozen=True)
class SplitSpec:
    block: str
    variants: tuple[VariantSpec, ...]


@dataclass
class Program:
    cfg: Cfg
    loop_bounds: dict[str, int | str]
    annotations: tuple[AnnotationSpec, ...]
    splits: tuple[SplitSpec, ...]


# ---------------------------------------------------------------------------
# Document parsing / validation
# ---------------------------------------------------------------------------


def _require_keys(obj: dict, allowed: set[str], required: set[str], what: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise DocumentError(f"{what}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise DocumentError(f"{what}: missing keys {sorted(missing)}")


def _check_value(v: object, what: str, minimum: int = 0) -> int | str:
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise DocumentError(f"{what}: expected integer or identifier, got {v!r}")
    if isinstance(v, int):
        if v < minimum:
            raise DocumentError(f"{what}: must be >= {minimum}, got {v}")
        return v
    if not is_identifier(v):
        raise DocumentError(f"{what}: {v!r} is not a valid identifier")
    return v


def parse_program(text: str) -> Program:
    """Parse and validate a JSON program document."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise DocumentError("document root must be a JSON object")
    _require_keys(
        obj,
        allowed={"name", "blocks", "edges", "entry", "exit", "loop_bounds",
                 "annotations", "splits"},
        required={"name", "blocks", "edges", "entry", "exit"},
        what="document",
    )
    name = obj["name"]
    if not isinstance(name, str):
        raise DocumentError("name must be a string")

    raw_blocks = obj["blocks"]
    if not isinstance(raw_blocks, list) or not raw_blocks:
        raise DocumentError("blocks must be a non-empty list")
    blocks: list[str] = []
    costs: list[int | str] = []
    index: dict[str, int] = {}
    for item in raw_blocks:
        # The usual shape, exactly the keys id and wcet, needs no key check.
        if not (isinstance(item, dict) and len(item) == 2
                and "id" in item and "wcet" in item):
            if not isinstance(item, dict):
                raise DocumentError(f"block entry must be an object, got {item!r}")
            _require_keys(item, {"id", "wcet"}, {"id", "wcet"}, "block")
        bid = item["id"]
        if not is_identifier(bid):
            raise DocumentError(f"block id {bid!r} is not a valid identifier")
        if bid == "TOP" or bid == "BOT":
            raise DocumentError(f"block id {bid!r} is reserved for an end of "
                                "the loop lattice")
        if bid in index:
            raise DocumentError(f"duplicate block id {bid!r}")
        wcet = item["wcet"]
        if type(wcet) is not int or wcet < 0:
            wcet = _check_value(wcet, f"block {bid} wcet")
        index[bid] = len(blocks)
        blocks.append(bid)
        costs.append(wcet)

    raw_edges = obj["edges"]
    if not isinstance(raw_edges, list):
        raise DocumentError("edges must be a list")
    edges: list[Edge] = []
    succs: list[list[int]] = [[] for _ in blocks]
    preds: list[list[int]] = [[] for _ in blocks]
    seen_edges: set[Edge] = set()
    for item in raw_edges:
        if (not isinstance(item, list) or len(item) != 2
                or not isinstance(item[0], str) or not isinstance(item[1], str)):
            raise DocumentError(f"edge must be a [source, target] pair, got {item!r}")
        s, t = index.get(item[0]), index.get(item[1])
        if s is None or t is None:
            end = item[0] if s is None else item[1]
            raise DocumentError(f"edge {item!r} references unknown block {end!r}")
        e = (s, t)
        if e in seen_edges:
            raise DocumentError(f"duplicate edge {item!r}")
        seen_edges.add(e)
        edges.append(e)
        succs[s].append(t)
        preds[t].append(s)

    entry = obj["entry"]
    exit_ = obj["exit"]
    for role, bid in (("entry", entry), ("exit", exit_)):
        if not isinstance(bid, str) or bid not in index:
            raise DocumentError(f"{role} block {bid!r} does not exist")
    if succs[index[exit_]]:
        raise DocumentError(f"exit block {exit_!r} must not have outgoing edges")

    g = Cfg(name, blocks, costs, index, edges, succs, preds, index[entry],
            index[exit_])
    _check_connectivity(g)

    loop_bounds: dict[str, int | str] = {}
    raw_bounds = obj.get("loop_bounds", {})
    if not isinstance(raw_bounds, dict):
        raise DocumentError("loop_bounds must be an object")
    for header, bound in raw_bounds.items():
        if header not in index:
            raise DocumentError(f"loop bound for unknown block {header!r}")
        loop_bounds[header] = _check_value(bound, f"loop bound for {header}", minimum=1)

    annotations: list[AnnotationSpec] = []
    raw_ann = obj.get("annotations", [])
    if not isinstance(raw_ann, list):
        raise DocumentError("annotations must be a list")
    for item in raw_ann:
        if not isinstance(item, dict):
            raise DocumentError(f"annotation must be an object, got {item!r}")
        _require_keys(item, {"target", "loop", "max"}, {"target", "loop", "max"},
                      "annotation")
        target = item["target"]
        if not isinstance(target, str):
            raise DocumentError(f"annotation target must be a string, got {target!r}")
        loop = item["loop"]
        if not isinstance(loop, str) or (loop != "TOP" and loop not in index):
            raise DocumentError(f"annotation loop {loop!r} is neither TOP nor a block")
        mx = _check_value(item["max"], f"annotation max for {target}")
        annotations.append(AnnotationSpec(target, loop, mx))

    splits: list[SplitSpec] = []
    raw_splits = obj.get("splits", [])
    if not isinstance(raw_splits, list):
        raise DocumentError("splits must be a list")
    for item in raw_splits:
        if not isinstance(item, dict):
            raise DocumentError(f"split must be an object, got {item!r}")
        _require_keys(item, {"block", "variants"}, {"block", "variants"}, "split")
        sblock = item["block"]
        if not isinstance(sblock, str) or sblock not in index:
            raise DocumentError(f"split references unknown block {sblock!r}")
        raw_vars = item["variants"]
        if not isinstance(raw_vars, list) or not raw_vars:
            raise DocumentError(f"split of {sblock!r}: variants must be non-empty")
        variants: list[VariantSpec] = []
        for v in raw_vars:
            if not isinstance(v, dict):
                raise DocumentError(f"variant must be an object, got {v!r}")
            _require_keys(v, {"id", "wcet", "annotation"}, {"id", "wcet"}, "variant")
            vid = v["id"]
            if not is_identifier(vid):
                raise DocumentError(f"variant id {vid!r} is not a valid identifier")
            vw = _check_value(v["wcet"], f"variant {vid} wcet")
            vann = None
            raw_va = v.get("annotation")
            if raw_va is not None:
                if not isinstance(raw_va, dict):
                    raise DocumentError(f"variant {vid}: annotation must be an object")
                _require_keys(raw_va, {"loop", "max"}, {"loop", "max"},
                              f"variant {vid} annotation")
                vloop = raw_va["loop"]
                if not isinstance(vloop, str) or (vloop != "TOP"
                                                  and vloop not in index):
                    raise DocumentError(
                        f"variant {vid}: loop {vloop!r} is neither TOP nor a block")
                vmax = _check_value(raw_va["max"], f"variant {vid} annotation max")
                vann = (vloop, vmax)
            variants.append(VariantSpec(vid, vw, vann))
        splits.append(SplitSpec(sblock, tuple(variants)))

    return Program(g, loop_bounds, tuple(annotations), tuple(splits))


def _check_connectivity(g: Cfg) -> None:
    ids = g.blocks
    for start, step, fault in ((g.entry, g.succs, "unreachable from entry"),
                               (g.exit, g.preds, "that cannot reach exit")):
        # Every block must be reachable from the entry, and reach the exit.
        seen = bytearray(len(ids))
        stack = [start]
        seen[start] = 1
        while stack:
            for t in step[stack.pop()]:
                if not seen[t]:
                    seen[t] = 1
                    stack.append(t)
        if not all(seen):
            missed = sorted(ids[b] for b in range(len(ids)) if not seen[b])
            raise DocumentError(f"blocks {fault}: {missed}")


# ---------------------------------------------------------------------------
# Dominators
# ---------------------------------------------------------------------------


def immediate_dominators(start: int, succ: Sequence[Sequence[int]],
                         pred: Sequence[Sequence[int]]
                         ) -> tuple[list[int], list[int]]:
    """Immediate dominator of every node of a graph on the numbers
    0 .. len(succ) - 1, and each node's number in the reverse postorder of
    the one depth-first search from start that orders the pass.

    start and the nodes it does not reach have immediate dominator -1;
    unreached nodes have reverse-postorder number -1 as well.  Iterative
    two-finger intersection over reverse postorder (Cooper, Harvey &
    Kennedy, "A Simple, Fast Dominance Algorithm", 2001).
    """
    order: list[int] = []
    seen = bytearray(len(succ))
    seen[start] = 1
    stack = [(start, iter(succ[start]))]
    while stack:
        node, rest = stack[-1]
        for t in rest:
            if not seen[t]:
                seen[t] = 1
                stack.append((t, iter(succ[t])))
                break
        else:
            stack.pop()
            order.append(node)
    order.reverse()
    rpo = [-1] * len(succ)
    for i, n in enumerate(order):
        rpo[n] = i
    idom = [-1] * len(succ)
    idom[start] = start

    changed = True
    while changed:
        changed = False
        for n in order[1:]:
            new = -1
            for p in pred[n]:
                if idom[p] < 0:
                    continue  # not reached, or not yet placed
                if new < 0:
                    new = p
                    continue
                a = p
                while a != new:
                    while rpo[a] > rpo[new]:
                        a = idom[a]
                    while rpo[new] > rpo[a]:
                        new = idom[new]
            if new >= 0 and idom[n] != new:
                idom[n] = new
                changed = True
    idom[start] = -1
    return idom, rpo


# ---------------------------------------------------------------------------
# Natural loops, reducibility, the loop forest
# ---------------------------------------------------------------------------


def _tree_intervals(parent: Sequence[int], nodes: Iterable[int]
                    ) -> tuple[list[int], list[int]]:
    """Preorder intervals on the forest of `nodes` that `parent` gives
    (-1: a root), children in the order `nodes` lists them.  Node b lies
    in the subtree of node a exactly when pre[a] <= pre[b] < post[a];
    nodes not listed keep pre = post = -1."""
    kids: dict[int, list[int]] = {}
    for b in nodes:
        kids.setdefault(parent[b], []).append(b)
    pre = [-1] * len(parent)
    post = [-1] * len(parent)
    order: list[int] = []
    stack = kids.get(-1, [])[::-1]
    while stack:
        b = stack.pop()
        pre[b] = len(order)
        post[b] = len(order) + 1
        order.append(b)
        below = kids.get(b)
        if below:
            stack.extend(reversed(below))
    # A subtree ends where its last descendant in preorder does.
    for b in reversed(order):
        p = parent[b]
        if p >= 0 and post[p] < post[b]:
            post[p] = post[b]
    return pre, post


def check_reducible(g: Cfg, backs: set[Edge]) -> None:
    """Raise IrreducibleLoop when the graph minus back-edges has a cycle."""
    succs = [[t for t in out if (s, t) not in backs]
             for s, out in enumerate(g.succs)]
    color = bytearray(len(succs))  # 0: unseen, 1: on the stack, 2: done
    parent = [-1] * len(succs)
    for root in range(len(succs)):
        if color[root]:
            continue
        stack = [(root, 0)]
        color[root] = 1
        while stack:
            node, i = stack.pop()
            if i < len(succs[node]):
                stack.append((node, i + 1))
                t = succs[node][i]
                if not color[t]:
                    color[t] = 1
                    parent[t] = node
                    stack.append((t, 0))
                elif color[t] == 1:
                    cycle = [node]
                    while node != t:
                        node = parent[node]
                        cycle.append(node)
                    raise IrreducibleLoop(g.blocks[b] for b in reversed(cycle))
            else:
                color[node] = 2


@slot_init
@dataclass(frozen=True, slots=True)
class LoopInfo:
    header: str
    # The loop's interval on the loop tree (see `LoopForest`): a loop lies
    # in this one, itself included, exactly when its pre number is in
    # [pre, post).
    pre: int
    post: int
    back_edges: tuple[Edge, ...]
    entry_edges: tuple[Edge, ...]  # edges into the header from outside the body
    exit_edges: tuple[Edge, ...]  # edges leaving the body
    bound: int | str  # max iterations per entry; identifier when unknown


@dataclass
class LoopForest:
    """The natural loops of a CFG, on its block numbers.

    A loop is known by its header's block number.  The loop tree is
    numbered in preorder (children in document order of their headers), so
    nesting is an interval test: loop a lies in loop b exactly when
    `b.pre <= a.pre < b.post`.
    """

    loops: dict[str, LoopInfo]  # header id -> LoopInfo, document order
    block_loop: list[int]  # block -> header of the innermost loop around it, -1: none
    parent: list[int]  # header -> header of the enclosing loop, -1: none (and for non-headers)
    inner_pre: dict[str, int]  # block id -> pre number of its innermost loop (absent: none)
    idom: list[int]  # block -> immediate dominator (entry: -1)
    # block -> number in the reverse postorder of the dominator pass's DFS
    rpo: list[int]


def build_loop_forest(g: Cfg, bounds: dict[str, int | str] | None = None) -> LoopForest:
    """Compute the natural-loop forest; refuses irreducible control flow.

    `bounds` maps headers to iteration bounds; a loop without one gets the
    symbolic bound "x_<header>".

    Loop bodies are found innermost first: headers come up in decreasing
    reverse postorder, each body is searched backwards from its back
    edges, and each found loop is collapsed into its header by union-find,
    so an enclosing search steps over it in one move (Tarjan, "Testing
    flow graph reducibility", 1974; Havlak, "Nesting of reducible and
    irreducible loops", 1997).  Every block is searched once.
    """
    ids, pred = g.blocks, g.preds
    n = len(ids)
    idom, rpo = immediate_dominators(g.entry, g.succs, pred)
    # Back edges are the edges whose target dominates their source.  Such
    # a target is a DFS ancestor of the source, so only the retreating
    # edges of the dominator pass's own search (self-loops included) need
    # the test, on the dominator tree's intervals.  A retreating edge that
    # is not a back edge means the graph is irreducible (Hecht & Ullman,
    # "Characterizations of reducible flow graphs", 1974); only then does
    # the cycle search run, to report it.
    dom_pre, dom_post = _tree_intervals(idom, range(n))
    back_from: dict[int, list[int]] = {}  # header -> back-edge sources
    reducible = True
    for s, t in g.edges:
        if rpo[t] <= rpo[s]:
            if dom_pre[t] <= dom_pre[s] < dom_post[t]:
                back_from.setdefault(t, []).append(s)
            else:
                reducible = False
    if not reducible:
        check_reducible(g, {(s, t) for t, srcs in back_from.items()
                            for s in srcs})
        raise AssertionError("a retreating edge that is not a back edge, "
                             "but no cycle without back edges")

    bounds = bounds or {}
    for header in bounds:
        if g.block_index.get(header) not in back_from:
            raise DocumentError(f"loop bound for {header!r}, which is not a loop header")

    # Innermost first.  A block is a root of the union-find until the
    # search of its innermost loop collapses it into that loop's header;
    # from then on its root is the header of the outermost loop found
    # around it.  Reducible loops are entered at their header only, so a
    # collapsed loop's other predecessors all lie inside it.
    root = list(range(n))
    block_loop = [-1] * n
    parent = [-1] * n
    for h in sorted(back_from, key=rpo.__getitem__, reverse=True):
        block_loop[h] = h
        stack = list(back_from[h])
        while stack:
            b = stack.pop()
            top = root[b]
            while top != root[top]:
                top = root[top]
            while root[b] != top:
                root[b], b = top, root[b]
            if top == h:
                continue
            if block_loop[top] == top:
                parent[top] = h  # a nested loop, found before
            else:
                block_loop[top] = h
            root[top] = h
            stack.extend(pred[top])

    headers = sorted(back_from)
    loop_pre, loop_post = _tree_intervals(parent, headers)
    inner = [-1 if h < 0 else loop_pre[h] for h in block_loop]

    # One pass over the edges: an edge enters its target's loop from outside
    # the body, and exits every loop around its source that lacks its target.
    entries: dict[int, list[Edge]] = {h: [] for h in headers}
    exits: dict[int, list[Edge]] = {h: [] for h in headers}
    for e in g.edges:
        u, v = e
        if block_loop[v] == v and not loop_pre[v] <= inner[u] < loop_post[v]:
            entries[v].append(e)
        level, at = block_loop[u], inner[v]
        while level >= 0 and not loop_pre[level] <= at < loop_post[level]:
            exits[level].append(e)
            level = parent[level]

    loops = {ids[h]: LoopInfo(ids[h], loop_pre[h], loop_post[h],
                              tuple((s, h) for s in back_from[h]),
                              tuple(entries[h]), tuple(exits[h]),
                              bounds.get(ids[h], f"x_{ids[h]}"))
             for h in headers}
    inner_pre = {ids[b]: p for b, p in enumerate(inner) if p >= 0}
    return LoopForest(loops, block_loop, parent, inner_pre, idom, rpo)


# ---------------------------------------------------------------------------
# The loop lattice: nesting order completed with TOP and BOT
# ---------------------------------------------------------------------------


def loop_leq(a: LoopRef, b: LoopRef, f: LoopForest) -> bool:
    """a is nested inside (or equal to) b."""
    if a == b or a.kind == "bot" or b.kind == "top":
        return True
    if a.kind == "top" or b.kind == "bot":
        return False
    # Block a.header lies in loop b when its innermost loop does.  A header
    # outside this forest is comparable only to itself and the lattice
    # extremes.
    info = f.loops.get(b.header)
    return (info is not None
            and info.pre <= f.inner_pre.get(a.header, -1) < info.post)


def loop_meet(a: LoopRef, b: LoopRef, f: LoopForest) -> LoopRef:
    """Greatest lower bound: the inner loop when nested, BOT when unrelated."""
    if a is b or loop_leq(a, b, f):
        return a
    if loop_leq(b, a, f):
        return b
    return BOT
