"""Control-flow graph model.

Parses and validates JSON program documents, computes dominators, detects
irreducible control flow, builds the natural-loop forest, and provides the
loop lattice (loops ordered by nesting, completed with TOP and BOT) that the
rest of the analysis is parameterized over.  A document's annotations and
split variants are parsed into `Annotation`, the record the control-flow
tree carries.

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
from typing import NamedTuple, NoReturn, Sequence

from .errors import DocumentError, IrreducibleLoop
from .records import slot_init

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
# Identifiers joined by single spaces.
_IDENTS_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?: [A-Za-z_][A-Za-z0-9_]*)*")

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


@slot_init
@dataclass(frozen=True, slots=True)
class Annotation:
    """Target runs at most `max` times per entry of `loop`."""

    loop: LoopRef
    max: int | str


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


# A split variant: (id, cost, annotation or None), as `cft.split_leaf` takes it.
Variant = tuple[str, int | str, Annotation | None]


@dataclass
class Program:
    cfg: Cfg
    loop_bounds: dict[str, int | str]
    annotations: tuple[tuple[str, Annotation], ...]  # (target, annotation)
    splits: tuple[tuple[str, tuple[Variant, ...]], ...]  # (block, variants)


# ---------------------------------------------------------------------------
# Document parsing / validation
# ---------------------------------------------------------------------------


_DOCUMENT_KEYS = frozenset({"name", "blocks", "edges", "entry", "exit",
                            "loop_bounds", "annotations", "splits"})
_DOCUMENT_REQUIRED = frozenset({"name", "blocks", "edges", "entry", "exit"})


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


def _annotation(item: dict, index: dict[str, int], where: str,
                cap_what: str) -> Annotation:
    """The annotation an object with the keys loop and max gives: its loop
    is TOP or a block, its cap an integer or an identifier."""
    loop = item["loop"]
    if not isinstance(loop, str) or (loop != "TOP" and loop not in index):
        raise DocumentError(f"{where} loop {loop!r} is neither TOP nor a block")
    return Annotation(parse_loop_ref(loop), _check_value(item["max"], cap_what))


# The block and edge lists are checked in bulk: a few passes that run in C
# over the whole list.  A bulk check that fails, or raises on an item of
# another shape, hands the list to a per-item scan, which names the first
# offender in document order; the scan is the error path only, so it
# raises.


def _identifiers(names: list) -> bool:
    """Every name is a string and an identifier."""
    joined = " ".join(names)  # TypeError on a name that is not a string
    return (joined.count(" ") == len(names) - 1
            and _IDENTS_RE.fullmatch(joined) is not None)


def _number_blocks(raw: list) -> tuple[list[str], list[int | str],
                                       dict[str, int]] | None:
    """Block ids, costs and the id -> number index of a valid block list,
    or None."""
    try:
        # Of the JSON values, only an object with the keys id and wcet gets
        # past item["id"] and item["wcet"]; the lengths rule out more keys.
        ids = [item["id"] for item in raw]
        costs = [item["wcet"] for item in raw]
        index = dict(zip(ids, range(len(ids))))
        named = [c for c in costs if type(c) is not int]
        ints = [c for c in costs if type(c) is int] if named else costs
        if (sum(map(len, raw)) == 2 * len(raw) and len(index) == len(ids)
                and "TOP" not in index and "BOT" not in index
                and _identifiers(ids)
                and min(ints, default=0) >= 0
                and (not named or _identifiers(named))):
            return ids, costs, index
    except (KeyError, TypeError):  # an item of another shape, or unhashable
        pass
    return None


def _block_fault(raw: list) -> NoReturn:
    """Raise the DocumentError of the first invalid block."""
    seen: set[str] = set()
    for item in raw:
        if not isinstance(item, dict):
            raise DocumentError(f"block entry must be an object, got {item!r}")
        _require_keys(item, {"id", "wcet"}, {"id", "wcet"}, "block")
        bid = item["id"]
        if not is_identifier(bid):
            raise DocumentError(f"block id {bid!r} is not a valid identifier")
        if bid == "TOP" or bid == "BOT":
            raise DocumentError(f"block id {bid!r} is reserved for an end of "
                                "the loop lattice")
        if bid in seen:
            raise DocumentError(f"duplicate block id {bid!r}")
        seen.add(bid)
        wcet = item["wcet"]
        if type(wcet) is not int or wcet < 0:
            _check_value(wcet, f"block {bid} wcet")
    raise AssertionError("the bulk check refused a valid block list")


def _number_edges(raw: list, index: dict[str, int]) -> list[Edge] | None:
    """The edges of a valid edge list as block-number pairs, or None."""
    try:
        # A string or object of two ids would unpack like a pair.
        if set(map(type, raw)) <= {list}:
            edges = [(index[s], index[t]) for s, t in raw]
            if len(set(edges)) == len(edges):
                return edges
    except (KeyError, TypeError, ValueError):  # unknown, unhashable, not a pair
        pass
    return None


def _edge_fault(raw: list, index: dict[str, int]) -> NoReturn:
    """Raise the DocumentError of the first invalid edge."""
    seen: set[Edge] = set()
    for item in raw:
        if (not isinstance(item, list) or len(item) != 2
                or not isinstance(item[0], str) or not isinstance(item[1], str)):
            raise DocumentError(f"edge must be a [source, target] pair, got {item!r}")
        s, t = index.get(item[0]), index.get(item[1])
        if s is None or t is None:
            end = item[0] if s is None else item[1]
            raise DocumentError(f"edge {item!r} references unknown block {end!r}")
        if (s, t) in seen:
            raise DocumentError(f"duplicate edge {item!r}")
        seen.add((s, t))
    raise AssertionError("the bulk check refused a valid edge list")


def parse_program(text: str) -> Program:
    """Parse and validate a JSON program document."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise DocumentError("document root must be a JSON object")
    _require_keys(obj, _DOCUMENT_KEYS, _DOCUMENT_REQUIRED, "document")
    name = obj["name"]
    if not isinstance(name, str):
        raise DocumentError("name must be a string")

    raw_blocks = obj["blocks"]
    if not isinstance(raw_blocks, list) or not raw_blocks:
        raise DocumentError("blocks must be a non-empty list")
    numbered = _number_blocks(raw_blocks)
    if numbered is None:
        _block_fault(raw_blocks)
    blocks, costs, index = numbered

    raw_edges = obj["edges"]
    if not isinstance(raw_edges, list):
        raise DocumentError("edges must be a list")
    edges = _number_edges(raw_edges, index)
    if edges is None:
        _edge_fault(raw_edges, index)
    succs: list[list[int]] = [[] for _ in blocks]
    preds: list[list[int]] = [[] for _ in blocks]
    for s, t in edges:
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
        if type(bound) is not int or bound < 1:
            bound = _check_value(bound, f"loop bound for {header}", minimum=1)
        loop_bounds[header] = bound

    annotations: list[tuple[str, Annotation]] = []
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
        annotations.append((target, _annotation(
            item, index, "annotation", f"annotation max for {target}")))

    splits: list[tuple[str, tuple[Variant, ...]]] = []
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
        variants: list[Variant] = []
        for v in raw_vars:
            if not isinstance(v, dict):
                raise DocumentError(f"variant must be an object, got {v!r}")
            _require_keys(v, {"id", "wcet", "annotation"}, {"id", "wcet"}, "variant")
            vid = v["id"]
            if not is_identifier(vid):
                raise DocumentError(f"variant id {vid!r} is not a valid identifier")
            vw = _check_value(v["wcet"], f"variant {vid} wcet")
            vann = v.get("annotation")
            if vann is not None:
                if not isinstance(vann, dict):
                    raise DocumentError(f"variant {vid}: annotation must be an object")
                _require_keys(vann, {"loop", "max"}, {"loop", "max"},
                              f"variant {vid} annotation")
                vann = _annotation(vann, index, f"variant {vid}:",
                                   f"variant {vid} annotation max")
            variants.append((vid, vw, vann))
        splits.append((sblock, tuple(variants)))

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


def _tree_intervals(parent: Sequence[int], order: Sequence[int]
                    ) -> tuple[list[int], list[int]]:
    """Preorder intervals on the forest of the nodes in `order` that
    `parent` gives (-1: a root), children in the order `order` lists them;
    `order` lists every node after its parent.  Node b lies in the subtree
    of node a exactly when pre[a] <= pre[b] < post[a]; nodes not listed
    keep pre = post = -1.  Subtree sizes add up in one pass backwards over
    `order`, and each node's interval is cut from its parent's in one pass
    forwards."""
    n = len(parent)
    # Index -1, a root's parent, is one slot past the nodes: a virtual
    # root above the forest.
    size = [1] * (n + 1)
    for b in reversed(order):
        size[parent[b]] += size[b]
    pre = [-1] * n
    post = [-1] * n
    free = [0] * (n + 1)  # node -> pre number of its next child
    for b in order:
        p = free[parent[b]]
        free[parent[b]] = p + size[b]
        pre[b], post[b], free[b] = p, p + size[b], p + 1
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
    numbered in preorder (children in the dominator pass's reverse
    postorder of their headers), so nesting is an interval test: loop a
    lies in loop b exactly when `b.pre <= a.pre < b.post`.
    """

    loops: dict[str, LoopInfo]  # header id -> LoopInfo, document order
    block_loop: list[int]  # block -> header of the innermost loop around it, -1: none
    parent: list[int]  # header -> header of the enclosing loop, -1: none (and for non-headers)
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
    # A node's immediate dominator comes before it in reverse postorder.
    dom_pre, dom_post = _tree_intervals(idom, sorted(range(n), key=rpo.__getitem__))
    back_edges: dict[int, list[Edge]] = {}  # header -> back edges into it
    reducible = True
    for e in g.edges:
        s, t = e
        if rpo[t] <= rpo[s]:
            if dom_pre[t] <= dom_pre[s] < dom_post[t]:
                back_edges.setdefault(t, []).append(e)
            else:
                reducible = False
    if not reducible:
        check_reducible(g, {e for es in back_edges.values() for e in es})
        raise AssertionError("a retreating edge that is not a back edge, "
                             "but no cycle without back edges")

    bounds = bounds or {}
    for header in bounds:
        if g.block_index.get(header) not in back_edges:
            raise DocumentError(f"loop bound for {header!r}, which is not a loop header")

    # Innermost first.  A block is a root of the union-find until the
    # search of its innermost loop collapses it into that loop's header;
    # from then on its root is the header of the outermost loop found
    # around it.  Reducible loops are entered at their header only, so a
    # collapsed loop's other predecessors all lie inside it.
    root = list(range(n))
    block_loop = [-1] * n
    parent = [-1] * n
    outer_first = sorted(back_edges, key=rpo.__getitem__)
    for h in reversed(outer_first):
        block_loop[h] = h
        stack = [s for s, _ in back_edges[h]]
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

    headers = sorted(back_edges)
    loop_pre, loop_post = _tree_intervals(parent, outer_first)
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

    loops = {}
    for h in headers:
        name = ids[h]
        bound = bounds[name] if name in bounds else f"x_{name}"
        loops[name] = LoopInfo(name, loop_pre[h], loop_post[h],
                               tuple(back_edges[h]), tuple(entries[h]),
                               tuple(exits[h]), bound)
    return LoopForest(loops, block_loop, parent, idom, rpo)


# ---------------------------------------------------------------------------
# The loop lattice: nesting order completed with TOP and BOT
# ---------------------------------------------------------------------------


def loop_leq(a: LoopRef, b: LoopRef, f: LoopForest) -> bool:
    """a is nested inside (or equal to) b."""
    if a == b or a.kind == "bot" or b.kind == "top":
        return True
    if a.kind == "top" or b.kind == "bot":
        return False
    # Loop a lies in loop b when a's interval starts in b's.  A name that
    # heads no loop of this forest is comparable only to itself and the
    # lattice extremes.
    inner, outer = f.loops.get(a.header), f.loops.get(b.header)
    return (inner is not None and outer is not None
            and outer.pre <= inner.pre < outer.post)


def loop_meet(a: LoopRef, b: LoopRef, f: LoopForest) -> LoopRef:
    """Greatest lower bound: the inner loop when nested, BOT when unrelated."""
    if a is b or loop_leq(a, b, f):
        return a
    if loop_leq(b, a, f):
        return b
    return BOT
