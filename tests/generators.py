"""Shared random corpora: structured reducible graphs, program documents,
and formulas.  Everything takes an explicit random.Random so failures are
reproducible from the seed."""

from __future__ import annotations

import json
import random
import re
from typing import Iterable

from symwcet import awcet, cft, symbolic
from symwcet.awcet import AbstractWcet, WcetSeq, abstract, const_seq, parse_seq
from symwcet.cfg import (TOP, LoopForest, build_loop_forest, loop_ref,
                         parse_loop_ref, parse_program)
from symwcet.errors import (FuelExhausted, TypeMismatch, UnboundIdentifier,
                            UnknownBlock)
from symwcet.pipeline import analyze_text
from symwcet.symbolic import (
    Const,
    Formula,
    Max,
    Plus,
    Power,
    Restrict,
    Scalar,
    WcetId,
    max_,
    plus,
    scalar,
)

# ---------------------------------------------------------------------------
# Structured reducible CFGs
# ---------------------------------------------------------------------------


class _Builder:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.blocks: list[str] = []
        self.edges: list[tuple[str, str]] = []
        self.headers: list[str] = []
        self.back_edges: list[tuple[str, str]] = []
        self.loop_bodies: dict[str, set[str]] = {}

    def block(self) -> str:
        b = f"n{len(self.blocks)}"
        self.blocks.append(b)
        return b

    def edge(self, u: str, v: str) -> None:
        if (u, v) not in self.edges:
            self.edges.append((u, v))


def _region(b: _Builder, depth: int) -> tuple[str, str]:
    """Build a single-entry single-exit region, returning (entry, exit)."""
    rng = b.rng
    kinds = ["block", "seq", "seq", "ite", "ifthen", "loop", "loop"]
    if depth <= 0:
        kinds = ["block"]
    kind = rng.choice(kinds)
    if kind == "block":
        n = b.block()
        return n, n
    if kind == "seq":
        e1, x1 = _region(b, depth - 1)
        e2, x2 = _region(b, depth - 1)
        b.edge(x1, e2)
        return e1, x2
    if kind == "ite":
        d = b.block()
        j = b.block()
        for _ in range(2):
            e, x = _region(b, depth - 1)
            b.edge(d, e)
            b.edge(x, j)
        return d, j
    if kind == "ifthen":
        d = b.block()
        j = b.block()
        e, x = _region(b, depth - 1)
        b.edge(d, e)
        b.edge(x, j)
        b.edge(d, j)
        return d, j
    # loop
    h = b.block()
    e, x = _region(b, depth - 1)
    b.edge(h, e)
    b.edge(x, h)
    b.headers.append(h)
    b.back_edges.append((x, h))
    if rng.random() < 0.5:
        return h, h  # test at the top
    return h, x  # test at the bottom


def _loop_membership(b: _Builder) -> None:
    """Natural-loop bodies: backward closure from each structured back
    edge's source, stopping at the header."""
    preds: dict[str, list[str]] = {n: [] for n in b.blocks}
    for u, v in b.edges:
        preds[v].append(u)
    for src, h in b.back_edges:
        members = b.loop_bodies.setdefault(h, {h})
        stack = [src]
        while stack:
            n = stack.pop()
            if n in members:
                continue
            members.add(n)
            stack.extend(preds[n])


def _add_noise_edges(b: _Builder, exit_block: str, tries: int) -> None:
    """Extra edges that keep the graph reducible: never create a new cycle,
    and enter loop bodies only through their headers."""
    rng = b.rng
    succs: dict[str, list[str]] = {n: [] for n in b.blocks}
    for u, v in b.edges:
        succs[u].append(v)

    def reaches(a: str, target: str) -> bool:
        seen = set()
        stack = [a]
        while stack:
            n = stack.pop()
            if n == target:
                return True
            if n in seen:
                continue
            seen.add(n)
            stack.extend(succs[n])
        return False

    for _ in range(tries):
        u = rng.choice(b.blocks)
        v = rng.choice(b.blocks)
        if u == exit_block or u == v or (u, v) in b.edges:
            continue
        if reaches(v, u):
            continue
        ok = True
        for h, body in b.loop_bodies.items():
            if v in body and u not in body and v != h:
                ok = False
                break
        if ok:
            b.edges.append((u, v))
            succs[u].append(v)


def random_reducible_cfg(rng: random.Random, depth: int = 3,
                         noise: int = 3) -> tuple[list[str], list[tuple[str, str]], str, str, list[str]]:
    """Returns (blocks, edges, entry, exit, loop_headers)."""
    b = _Builder(rng)
    entry, region_exit = _region(b, depth)
    exit_block = b.block()
    b.edge(region_exit, exit_block)
    _loop_membership(b)
    _add_noise_edges(b, exit_block, noise)
    return b.blocks, b.edges, entry, exit_block, b.headers


def random_doc(rng: random.Random, depth: int = 3, noise: int = 3,
               max_bound: int = 3, symbolic_bounds: bool = False,
               max_wcet: int = 9) -> dict:
    blocks, edges, entry, exit_block, headers = random_reducible_cfg(
        rng, depth, noise)
    bounds: dict[str, int | str] = {}
    for i, h in enumerate(headers):
        if symbolic_bounds and rng.random() < 0.4:
            bounds[h] = f"it{i}"
        else:
            bounds[h] = rng.randint(1, max_bound)
    return {
        "name": f"random-{rng.randrange(10 ** 6)}",
        "blocks": [{"id": n, "wcet": rng.randint(0, max_wcet)}
                   for n in blocks],
        "edges": [[u, v] for u, v in edges],
        "entry": entry,
        "exit": exit_block,
        "loop_bounds": bounds,
    }


def _body_leaves(t: cft.Cft):
    """Leaf label -> headers of the loops whose body subtree contains it."""
    out: dict[str, tuple[str, ...]] = {}
    for node, _, inside in cft.walk(t):
        if isinstance(node, cft.Leaf):
            out.setdefault(node.label, cft.spell_out(inside))
    return out


def annotate_doc(rng: random.Random, doc: dict, max_annotations: int = 2,
                 allow_split: bool = True) -> dict:
    """Add annotations (and possibly one split) that are valid for the
    document's tree by construction."""
    doc = json.loads(json.dumps(doc))
    analysis = analyze_text(json.dumps(doc))
    leaves = _body_leaves(analysis.tree)
    candidates = [(label, inside) for label, inside in leaves.items()
                  if inside]
    annotations = []
    used: set[str] = set()
    if candidates:
        for _ in range(rng.randint(1, max_annotations)):
            label, inside = rng.choice(candidates)
            if label in used:
                continue
            used.add(label)
            loop = rng.choice(list(inside) + ["TOP"])
            annotations.append({"target": label, "loop": loop,
                                "max": rng.randint(0, 3)})
    if annotations:
        doc["annotations"] = annotations
    # Splits name a document-level block, so only blocks that appear once in
    # the tree (no "#k" rename suffix) are eligible targets.
    splittable = [c for c in candidates if "#" not in c[0] and c[0] not in used]
    if allow_split and splittable and rng.random() < 0.4:
        label, inside = rng.choice(splittable)
        wcet = next(b["wcet"] for b in doc["blocks"] if b["id"] == label)
        doc.setdefault("splits", []).append({
            "block": label,
            "variants": [
                {"id": f"{label}_first", "wcet": wcet + rng.randint(1, 9),
                 "annotation": {"loop": rng.choice(list(inside)),
                                "max": 1}},
                {"id": f"{label}_rest", "wcet": wcet, "annotation": None},
            ],
        })
    return doc


def irreducible_doc() -> dict:
    return {
        "name": "irreducible-triangle",
        "blocks": [{"id": n, "wcet": 1} for n in ("a", "b", "c", "d")],
        "edges": [["a", "b"], ["a", "c"], ["b", "c"], ["c", "b"], ["b", "d"]],
        "entry": "a",
        "exit": "d",
    }


# ---------------------------------------------------------------------------
# Fixed documents
# ---------------------------------------------------------------------------


def running_example_doc(outer_bound=3, inner_bound=2) -> dict:
    doc = {
        "name": "running-example",
        "blocks": [{"id": f"b{i}", "wcet": i} for i in range(1, 7)],
        "edges": [["b1", "b2"], ["b2", "b3"], ["b2", "b4"], ["b4", "b2"],
                  ["b3", "b1"], ["b1", "b5"], ["b1", "b6"], ["b6", "b3"]],
        "entry": "b1",
        "exit": "b5",
        "loop_bounds": {},
    }
    if outer_bound is not None:
        doc["loop_bounds"]["b1"] = outer_bound
    if inner_bound is not None:
        doc["loop_bounds"]["b2"] = inner_bound
    return doc


def triangular_doc(outer_bound="n", inner_bound=10, cap=55) -> dict:
    return {
        "name": "triangular",
        "blocks": [{"id": "s", "wcet": 1}, {"id": "o", "wcet": 2},
                   {"id": "i", "wcet": 3}, {"id": "c", "wcet": 7},
                   {"id": "x", "wcet": 1}],
        "edges": [["s", "o"], ["o", "i"], ["i", "c"], ["c", "i"],
                  ["i", "o"], ["o", "x"]],
        "entry": "s",
        "exit": "x",
        "loop_bounds": {"o": outer_bound, "i": inner_bound},
        "annotations": [{"target": "c", "loop": "o", "max": cap}],
    }


def persistence_doc(bound=4) -> dict:
    return {
        "name": "persistence",
        "blocks": [{"id": "h", "wcet": 1}, {"id": "b", "wcet": 0},
                   {"id": "e", "wcet": 1}],
        "edges": [["h", "b"], ["b", "h"], ["h", "e"]],
        "entry": "h",
        "exit": "e",
        "loop_bounds": {"h": bound},
        "splits": [{"block": "b", "variants": [
            {"id": "b_miss", "wcet": 9,
             "annotation": {"loop": "h", "max": 1}},
            {"id": "b_hit", "wcet": 2, "annotation": None}]}],
    }


def loop_nest_doc(depth: int, bound: int = 2) -> dict:
    """`depth` while loops nested in one another: h_i tests its loop and
    enters h_{i+1}, whose exit goes to the latch l_i; the innermost loop
    runs the block b."""
    blocks = [{"id": "s", "wcet": 1}, {"id": "b", "wcet": 2},
              {"id": "x", "wcet": 1}]
    edges = [["s", "h0"], ["h0", "x"], [f"h{depth - 1}", "b"],
             ["b", f"h{depth - 1}"]]
    for i in range(depth):
        blocks.append({"id": f"h{i}", "wcet": 1})
        if i < depth - 1:
            blocks.append({"id": f"l{i}", "wcet": 1})
            edges += [[f"h{i}", f"h{i + 1}"], [f"h{i + 1}", f"l{i}"],
                      [f"l{i}", f"h{i}"]]
    return {"name": f"nest-{depth}", "blocks": blocks, "edges": edges,
            "entry": "s", "exit": "x",
            "loop_bounds": {f"h{i}": bound for i in range(depth)}}


def dowhile_nest_doc(depth: int, bound: int | str = 2) -> dict:
    """`depth` do-while loops nested in one another: h_i enters h_{i+1}
    (the innermost enters its latch t), and each latch t_i both loops back
    to h_i and exits to the latch around it.  Every loop leaves from its
    latch, so a Loop's body and exit both hold the nested loop, and the
    tree doubles with each level: 2^(depth+2) - 2 leaves."""
    blocks = [{"id": "s", "wcet": 1}, {"id": "x", "wcet": 1}]
    edges = [["s", "h0"]]
    for i in range(depth):
        blocks += [{"id": f"h{i}", "wcet": 1}, {"id": f"t{i}", "wcet": 2}]
        edges += [[f"h{i}", f"h{i + 1}" if i < depth - 1 else f"t{i}"],
                  [f"t{i}", f"h{i}"],
                  [f"t{i}", f"t{i - 1}" if i else "x"]]
    return {"name": f"dowhile-{depth}", "blocks": blocks, "edges": edges,
            "entry": "s", "exit": "x",
            "loop_bounds": {f"h{i}": bound for i in range(depth)}}


def scaling_doc(sections: int = 333) -> dict:
    """A long chain of diamond/loop sections, about 3 blocks per section."""
    blocks = [{"id": "entry", "wcet": 1}]
    edges = []
    bounds: dict[str, int] = {}
    prev = "entry"
    for i in range(sections):
        kind = i % 3
        if kind == 0:  # diamond
            d, a, j = f"d{i}", f"a{i}", f"j{i}"
            blocks += [{"id": d, "wcet": 2}, {"id": a, "wcet": 3},
                       {"id": j, "wcet": 1}]
            edges += [[prev, d], [d, a], [a, j], [d, j]]
            prev = j
        elif kind == 1:  # while loop
            h, c = f"h{i}", f"c{i}"
            blocks += [{"id": h, "wcet": 1}, {"id": c, "wcet": 4}]
            edges += [[prev, h], [h, c], [c, h]]
            bounds[h] = 5
            prev = h
        else:  # straight line
            s = f"s{i}"
            blocks.append({"id": s, "wcet": 2})
            edges.append([prev, s])
            prev = s
    blocks.append({"id": "exit", "wcet": 1})
    edges.append([prev, "exit"])
    return {
        "name": f"scaling-{sections}",
        "blocks": blocks,
        "edges": edges,
        "entry": "entry",
        "exit": "exit",
        "loop_bounds": bounds,
    }


# ---------------------------------------------------------------------------
# Formula corpus
# ---------------------------------------------------------------------------

FORMULA_FOREST_DOC = {
    "name": "formula-forest",
    "blocks": [{"id": n, "wcet": 1}
               for n in ("s", "h1", "h2", "c1", "m", "h3", "c2", "e")],
    "edges": [["s", "h1"], ["h1", "h2"], ["h2", "c1"], ["c1", "h2"],
              ["h2", "h1"], ["h1", "m"], ["m", "h3"], ["h3", "c2"],
              ["c2", "h3"], ["h3", "e"]],
    "entry": "s",
    "exit": "e",
    "loop_bounds": {"h1": 2, "h2": 2, "h3": 2},
}

_HEADERS = ("h1", "h2", "h3")
# A loop position is drawn from four names, h1 twice: the frozen-seed
# corpora depend on how many values each draw takes.
_LOOPS = _HEADERS + ("h1",)
_WCET_IDS = ("w1", "w2", "w3")
_COUNT_IDS = ("k1", "k2")


def formula_forest():
    program = parse_program(json.dumps(FORMULA_FOREST_DOC))
    return build_loop_forest(program.cfg, program.loop_bounds)


def random_const(rng: random.Random) -> Const:
    loop = rng.choice([TOP, TOP, loop_ref("h1"), loop_ref("h2"),
                       loop_ref("h3")])
    tail = rng.randint(0, 5)
    prefix = [tail + rng.randint(1, 6) for _ in range(rng.randint(0, 2))]
    return Const(abstract(loop, make_seq(prefix, tail)))


def random_formula(rng: random.Random, depth: int = 3) -> Formula:
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.3:
            return WcetId(rng.choice(_WCET_IDS))
        return random_const(rng)
    kind = rng.choice(["plus", "max", "scalar", "power", "restrict"])
    if kind == "plus":
        return plus([random_formula(rng, depth - 1)
                     for _ in range(rng.randint(2, 3))])
    if kind == "max":
        return max_([random_formula(rng, depth - 1)
                     for _ in range(rng.randint(2, 3))])
    if kind == "scalar":
        coeff = rng.choice([2, 3, rng.choice((2, 3))])
        return scalar(coeff, random_formula(rng, depth - 1))
    if kind == "power":
        header = rng.choice(_LOOPS)
        count = rng.choice([1, 2, 3, rng.choice(_COUNT_IDS)])
        return Power(random_formula(rng, depth - 1),
                     random_formula(rng, depth - 1), header, count)
    loop = rng.choice(_LOOPS + ("TOP",))
    count = rng.choice([1, 2, 3, rng.choice(_COUNT_IDS)])
    return Restrict(random_formula(rng, depth - 1), loop, count)


def _chain_const(rng: random.Random, loop, prefixes: bool) -> Const:
    tail = rng.choice((0, rng.randint(1, 9)))
    prefix = ([tail + rng.randint(1, 6) for _ in range(rng.randint(1, 2))]
              if prefixes and rng.random() < 0.2 else [])
    return Const(abstract(loop, make_seq(prefix, tail)))


def random_chain_formula(rng: random.Random, clean: bool = False
                         ) -> tuple[Formula, dict]:
    """A chain-shaped formula and bindings for it: a sum or maximum of
    loops over constant body and exit rankings, with a few constant
    operands, as a simplified chain document's formula is.

    Headers are forest headers and names of no loop (lp1, lp2); a
    binding may carry the name of either, and no loop position reads it.
    A body is ranked per iteration of its own loop, of another loop or of
    TOP.  Constants mix zero tails and prefixes.  Counts are 0, integers,
    bound identifiers, a missing identifier and identifiers bound to a
    bool, a negative integer or a string, and a cost identifier, bound or
    missing, stands among the operands.  With `clean`, every constant is
    prefix-free and every loop is one that `symbolic.evaluate` folds as
    integers: its header is a forest header and its count an integer or
    bound to one.
    """
    bindings: dict = {"k1": rng.randint(0, 3), "k2": rng.choice((0, 2, 10**6)),
                      "w1": abstract(TOP, const_seq(rng.randint(0, 9)))}
    counts: tuple = (0, 1, 2, 3, 10**9, "k1", "k2")
    headers: tuple = _HEADERS
    if not clean:
        bindings.update(kb=rng.choice((True, False)), kn=-1,
                        ks=rng.choice(("x", "h1", "3")),
                        lp1=rng.choice(_HEADERS))
        if rng.random() < 0.2:
            bindings[rng.choice(_HEADERS)] = rng.choice(_HEADERS)
        counts += ("kx", "kb", "kn", "ks")
        headers += ("lp1", "lp2")
    operands: list[Formula] = []
    for _ in range(rng.randint(2, 8)):
        r = rng.random()
        if r < 0.1:
            loop = rng.choice((TOP, TOP, loop_ref(rng.choice(_HEADERS))))
            operands.append(_chain_const(rng, loop, not clean))
            continue
        if r < 0.15 and not clean:
            operands.append(WcetId(rng.choice(("w1", "w2"))))
            continue
        header = rng.choice(headers if rng.random() < 0.2 else _HEADERS)
        body_loop = rng.choice((TOP, loop_ref(rng.choice(_HEADERS)),
                                loop_ref(header) if header in _HEADERS
                                else TOP))
        exit_loop = rng.choice((TOP, TOP, loop_ref(rng.choice(_HEADERS))))
        count = rng.choice(counts if rng.random() < 0.3 else counts[:7])
        operands.append(Power(_chain_const(rng, body_loop, not clean),
                              _chain_const(rng, exit_loop, not clean),
                              header, count))
    return rng.choice((Plus, Max))(tuple(operands)), bindings


def random_bindings(rng: random.Random) -> dict:
    out: dict = {}
    for w in _WCET_IDS:
        out[w] = abstract(TOP, const_seq(rng.randint(0, 9)))
    for k in _COUNT_IDS:
        out[k] = rng.randint(1, 3)
    rng.randrange(3)  # a spare draw, which the frozen-seed corpora rest on
    return out


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def make_seq(elems: Iterable[int], tail: int) -> WcetSeq:
    """Canonical sequence of the given costs, elements <= tail absorbed."""
    return awcet._canon(((e, 1) for e in sorted(elems, reverse=True)), tail)


_AW_RE = re.compile(r"\(loop=([^,]+),\s*(\[[0-9,^]*\|\d+\])\)\Z")


def parse_abstract(text: str) -> AbstractWcet:
    """Inverse of `str` on an abstract WCET, e.g. `(loop=TOP, [5|3])`."""
    m = _AW_RE.match(text)
    if not m:
        raise ValueError(f"bad abstract WCET literal {text!r}")
    return abstract(parse_loop_ref(m.group(1)), parse_seq(m.group(2)))


def _sites(w: Formula, f: LoopForest, path: tuple[int, ...] = ()
           ) -> list[tuple[tuple[int, ...], Formula]]:
    """(path, rewrite) for every rule that rewrites a node of w: nodes in
    preorder, each node's rules in `symbolic._RULES` order."""
    found = []
    for rule in symbolic._RULES.get(type(w), ()):
        new = rule(w, f)
        if new is not None and new != w:
            found.append((path, new))
    for i, c in enumerate(symbolic._children(w)):
        found += _sites(c, f, path + (i,))
    return found


def _rebuild(w: Formula, path: tuple[int, ...], new: Formula) -> Formula:
    if not path:
        return new
    kids = list(symbolic._children(w))
    kids[path[0]] = _rebuild(kids[path[0]], path[1:], new)
    return symbolic._with_children(w, kids)


def random_schedule_simplify(w: Formula, f: LoopForest, rng: random.Random,
                             fuel: int = symbolic.DEFAULT_FUEL) -> Formula:
    """Reference rewriter for confluence checks: each step applies one
    rewrite drawn with `rng` from every rule site in the whole formula,
    until none applies.  `symbolic.simplify` must reach the same normal
    form under any such schedule."""
    steps = 0
    while True:
        sites = _sites(w, f)
        if not sites:
            return w
        path, new = sites[rng.randrange(len(sites))]
        w = _rebuild(w, path, new)
        steps += 1
        if steps > fuel:
            raise FuelExhausted(f"no normal form within {fuel} rewrite steps")


def _known_loop(name: str, f: LoopForest) -> str:
    if name != "TOP" and name not in f.loops:
        raise UnknownBlock(f"loop {name!r} is neither TOP nor a loop header")
    return name


def reference_evaluate(w: Formula, bindings: dict, f: LoopForest
                       ) -> AbstractWcet:
    """Reference for `symbolic.evaluate`: the same folds and the same check
    order, with every operand evaluated by a call and every count bound
    through `symbolic._bind_int`."""
    bind_int = symbolic._bind_int
    cls = type(w)
    if cls is Const:
        return w.value
    if cls is WcetId:
        if w.name not in bindings:
            raise UnboundIdentifier(f"no binding for WCET identifier {w.name!r}")
        val = bindings[w.name]
        if not isinstance(val, AbstractWcet):
            raise TypeMismatch(f"WCET identifier {w.name!r} must bind an "
                               f"abstract WCET, got {val!r}")
        if val.seq.prefix:
            raise TypeMismatch(f"WCET identifier {w.name!r} must bind a "
                               f"rank-uniform abstract WCET, got {val}")
        return val
    if cls in (Plus, Max):
        op = awcet.plus_abstract if cls is Plus else awcet.max_abstract
        return awcet.fold([reference_evaluate(x, bindings, f)
                           for x in w.operands], op, f)
    if cls is Power:
        header = _known_loop(w.header, f)
        count = bind_int(w.count, bindings, require=True)
        return awcet.loop_abstract(header, count,
                                   reference_evaluate(w.body, bindings, f),
                                   reference_evaluate(w.exit, bindings, f), f)
    if cls is Scalar:
        return awcet.scalar_abstract(w.coeff, reference_evaluate(w.operand,
                                                                 bindings, f))
    if cls is Restrict:
        ref = parse_loop_ref(_known_loop(w.loop, f))
        return awcet.restrict_abstract(
            reference_evaluate(w.operand, bindings, f), ref,
            bind_int(w.count, bindings, require=True), f)
    raise TypeError(f"not a formula: {w!r}")
