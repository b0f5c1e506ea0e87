"""Control-flow graph model.

Parses and validates JSON program documents, computes dominators, detects
irreducible control flow, builds the natural-loop forest, and provides the
loop lattice (loops ordered by nesting, completed with TOP and BOT) that the
rest of the analysis is parameterized over.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Hashable, Mapping, NamedTuple, Sequence, TypeVar

from .errors import DocumentError, IrreducibleLoop
from .records import slot_init

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

Edge = tuple[str, str]
N = TypeVar("N", bound=Hashable)  # a graph node


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


@slot_init
@dataclass(frozen=True, slots=True)
class Block:
    id: str
    wcet: int | str  # concrete cost or symbolic identifier


@dataclass
class Cfg:
    name: str
    blocks: dict[str, Block]  # insertion-ordered
    edges: tuple[Edge, ...]
    entry: str
    exit: str
    succs: dict[str, tuple[str, ...]] = field(init=False)
    preds: dict[str, tuple[str, ...]] = field(init=False)
    block_index: dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        succs: dict[str, list[str]] = {b: [] for b in self.blocks}
        preds: dict[str, list[str]] = {b: [] for b in self.blocks}
        for s, t in self.edges:
            succs[s].append(t)
            preds[t].append(s)
        self.succs = {b: tuple(v) for b, v in succs.items()}
        self.preds = {b: tuple(v) for b, v in preds.items()}
        self.block_index = {b: i for i, b in enumerate(self.blocks)}


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
    blocks: dict[str, Block] = {}
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
        if bid in blocks:
            raise DocumentError(f"duplicate block id {bid!r}")
        wcet = item["wcet"]
        if type(wcet) is not int or wcet < 0:
            wcet = _check_value(wcet, f"block {bid} wcet")
        blocks[bid] = Block(bid, wcet)

    raw_edges = obj["edges"]
    if not isinstance(raw_edges, list):
        raise DocumentError("edges must be a list")
    edges: list[Edge] = []
    seen_edges: set[Edge] = set()
    for item in raw_edges:
        if (not isinstance(item, list) or len(item) != 2
                or not isinstance(item[0], str) or not isinstance(item[1], str)):
            raise DocumentError(f"edge must be a [source, target] pair, got {item!r}")
        e = (item[0], item[1])
        for end in e:
            if end not in blocks:
                raise DocumentError(f"edge {item!r} references unknown block {end!r}")
        if e in seen_edges:
            raise DocumentError(f"duplicate edge {item!r}")
        seen_edges.add(e)
        edges.append(e)

    entry = obj["entry"]
    exit_ = obj["exit"]
    for role, bid in (("entry", entry), ("exit", exit_)):
        if not isinstance(bid, str) or bid not in blocks:
            raise DocumentError(f"{role} block {bid!r} does not exist")
    if any(s == exit_ for s, _ in edges):
        raise DocumentError(f"exit block {exit_!r} must not have outgoing edges")

    g = Cfg(name, blocks, tuple(edges), entry, exit_)
    _check_connectivity(g)

    loop_bounds: dict[str, int | str] = {}
    raw_bounds = obj.get("loop_bounds", {})
    if not isinstance(raw_bounds, dict):
        raise DocumentError("loop_bounds must be an object")
    for header, bound in raw_bounds.items():
        if header not in blocks:
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
        if not isinstance(loop, str) or (loop != "TOP" and loop not in blocks):
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
        if not isinstance(sblock, str) or sblock not in blocks:
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
                                                  and vloop not in blocks):
                    raise DocumentError(
                        f"variant {vid}: loop {vloop!r} is neither TOP nor a block")
                vmax = _check_value(raw_va["max"], f"variant {vid} annotation max")
                vann = (vloop, vmax)
            variants.append(VariantSpec(vid, vw, vann))
        splits.append(SplitSpec(sblock, tuple(variants)))

    return Program(g, loop_bounds, tuple(annotations), tuple(splits))


def _check_connectivity(g: Cfg) -> None:
    seen = {g.entry}
    stack = [g.entry]
    while stack:
        for t in g.succs[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    unreachable = set(g.blocks) - seen
    if unreachable:
        raise DocumentError(f"blocks unreachable from entry: {sorted(unreachable)}")
    # Every block must be able to reach the exit.
    seen = {g.exit}
    stack = [g.exit]
    while stack:
        for t in g.preds[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    stuck = set(g.blocks) - seen
    if stuck:
        raise DocumentError(f"blocks that cannot reach exit: {sorted(stuck)}")


# ---------------------------------------------------------------------------
# Dominators
# ---------------------------------------------------------------------------


def immediate_dominators(start: N, succs: Mapping[N, Sequence[N]],
                         preds: Mapping[N, Sequence[N]]
                         ) -> tuple[dict[N, N | None], dict[N, int]]:
    """Immediate dominator of every node reachable from start (which maps
    to None), and each such node's number in the reverse postorder of the
    one depth-first search that orders the pass.

    Iterative two-finger intersection over reverse postorder (Cooper,
    Harvey & Kennedy, "A Simple, Fast Dominance Algorithm", 2001).
    """
    order: list[N] = []
    seen = {start}
    stack: list[tuple[N, int]] = [(start, 0)]
    while stack:
        node, i = stack.pop()
        nxt = succs[node]
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
    idom: dict[N, N | None] = {start: start}

    def intersect(a: N, b: N) -> N:
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
            for p in preds[n]:
                if p in idom:
                    new = p if new is None else intersect(new, p)
            if new is not None and idom.get(n) != new:
                idom[n] = new
                changed = True
    idom[start] = None
    return idom, rpo


# ---------------------------------------------------------------------------
# Natural loops, reducibility, the loop forest
# ---------------------------------------------------------------------------


def _dom_intervals(idom: dict[str, str | None]) -> dict[str, tuple[int, int]]:
    """Pre- and post-order numbers on the dominator tree: a dominates b
    exactly when a's interval encloses b's."""
    kids: dict[str | None, list[str]] = {}
    for b, d in idom.items():
        kids.setdefault(d, []).append(b)
    pre: dict[str, int] = {}
    out: dict[str, tuple[int, int]] = {}
    clock = 0
    stack: list[tuple[str, bool]] = [(b, False) for b in kids[None]]
    while stack:
        node, done = stack.pop()
        clock += 1
        if done:
            out[node] = (pre[node], clock)
            continue
        pre[node] = clock
        stack.append((node, True))
        stack.extend((c, False) for c in kids.get(node, ()))
    return out


def check_reducible(g: Cfg, backs: set[Edge]) -> None:
    """Raise IrreducibleLoop when the graph minus back-edges has a cycle."""
    succs: dict[str, list[str]] = {b: [] for b in g.blocks}
    for e in g.edges:
        if e not in backs:
            succs[e[0]].append(e[1])
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {b: WHITE for b in g.blocks}
    parent: dict[str, str] = {}
    for root in g.blocks:
        if color[root] != WHITE:
            continue
        stack: list[tuple[str, int]] = [(root, 0)]
        color[root] = GRAY
        while stack:
            node, i = stack.pop()
            if i < len(succs[node]):
                stack.append((node, i + 1))
                t = succs[node][i]
                if color[t] == WHITE:
                    color[t] = GRAY
                    parent[t] = node
                    stack.append((t, 0))
                elif color[t] == GRAY:
                    cycle = [node]
                    cur = node
                    while cur != t:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    raise IrreducibleLoop(cycle)
            else:
                color[node] = BLACK


@slot_init
@dataclass(frozen=True, slots=True)
class LoopInfo:
    header: str
    body: frozenset[str]
    back_edges: tuple[Edge, ...]
    entry_edges: tuple[Edge, ...]  # edges into the header from outside the body
    exit_edges: tuple[Edge, ...]  # edges leaving the body
    bound: int | str  # max iterations per entry; identifier when unknown


@dataclass
class LoopForest:
    loops: dict[str, LoopInfo]  # header -> LoopInfo, document order
    parent: dict[str, str | None]  # header -> enclosing header (None = top level)
    block_loop: dict[str, str]  # block -> smallest loop around it, document order
    idom: dict[str, str | None]  # block -> immediate dominator (entry: None)
    # block -> number in the reverse postorder of the dominator pass's DFS
    rpo: dict[str, int]


def build_loop_forest(g: Cfg, bounds: dict[str, int | str] | None = None) -> LoopForest:
    """Compute the natural-loop forest; refuses irreducible control flow.

    `bounds` maps headers to iteration bounds; a loop without one gets the
    symbolic bound "x_<header>".
    """
    idom, rpo = immediate_dominators(g.entry, g.succs, g.preds)
    # Back edges are the edges whose target dominates their source.  Such
    # a target is a DFS ancestor of the source, so only the retreating
    # edges of the dominator pass's own search (self-loops included) need
    # the test.  A retreating edge that is not a back edge means the graph
    # is irreducible (Hecht & Ullman, "Characterizations of reducible flow
    # graphs", 1974); only then does the cycle search run, to report it.
    span = _dom_intervals(idom)
    backs: list[Edge] = []
    reducible = True
    for s, t in g.edges:
        if rpo[t] <= rpo[s]:
            (s_pre, s_post), (t_pre, t_post) = span[s], span[t]
            if t_pre <= s_pre and s_post <= t_post:
                backs.append((s, t))
            else:
                reducible = False
    if not reducible:
        check_reducible(g, set(backs))
        raise AssertionError("a retreating edge that is not a back edge, "
                             "but no cycle without back edges")
    by_header: dict[str, list[Edge]] = {}
    for s, t in backs:
        by_header.setdefault(t, []).append((s, t))

    bounds = bounds or {}
    for header in bounds:
        if header not in by_header:
            raise DocumentError(f"loop bound for {header!r}, which is not a loop header")

    headers = sorted(by_header, key=g.block_index.__getitem__)
    bodies: dict[str, set[str]] = {}
    for h in headers:
        body = {h}
        stack = [s for s, _ in by_header[h]]
        while stack:
            n = stack.pop()
            if n in body:
                continue
            body.add(n)
            stack.extend(g.preds[n])
        bodies[h] = body

    # Outermost loops first: when h comes up, the smallest loop seen so far
    # around its header is its parent.  Reducible loops nest cleanly, so
    # every block of h has that same innermost loop; anything else is a
    # construction bug.
    parent: dict[str, str | None] = {}
    inner: dict[str, str] = {}
    for h in sorted(headers, key=lambda h: -len(bodies[h])):
        parent[h] = inner.get(h)
        for b in bodies[h]:
            assert inner.get(b) == parent[h], f"overlapping loops at {b}"
            inner[b] = h

    # One pass over the edges: an edge enters its target's loop from outside
    # the body, and exits every loop around its source that lacks its target.
    entries: dict[str, list[Edge]] = {h: [] for h in headers}
    exits: dict[str, list[Edge]] = {h: [] for h in headers}
    for u, v in g.edges:
        if v in bodies and u not in bodies[v]:
            entries[v].append((u, v))
        level = inner.get(u)
        while level is not None and v not in bodies[level]:
            exits[level].append((u, v))
            level = parent[level]

    loops = {h: LoopInfo(h, frozenset(bodies[h]), tuple(by_header[h]),
                         tuple(entries[h]), tuple(exits[h]),
                         bounds.get(h, f"x_{h}"))
             for h in headers}
    # Document order, so that iterating the map does not depend on string
    # hashing (the bodies above are sets).
    block_loop = {b: inner[b] for b in g.blocks if b in inner}
    return LoopForest(loops, {h: parent[h] for h in headers}, block_loop,
                      idom, rpo)


# ---------------------------------------------------------------------------
# The loop lattice: nesting order completed with TOP and BOT
# ---------------------------------------------------------------------------


def loop_leq(a: LoopRef, b: LoopRef, f: LoopForest) -> bool:
    """a is nested inside (or equal to) b."""
    if a == b or a.kind == "bot" or b.kind == "top":
        return True
    if a.kind == "top" or b.kind == "bot":
        return False
    # A header outside this forest is comparable only to itself and the
    # lattice extremes.
    info = f.loops.get(b.header)
    return info is not None and a.header in info.body


def loop_meet(a: LoopRef, b: LoopRef, f: LoopForest) -> LoopRef:
    """Greatest lower bound: the inner loop when nested, BOT when unrelated."""
    if a is b or loop_leq(a, b, f):
        return a
    if loop_leq(b, a, f):
        return b
    return BOT
