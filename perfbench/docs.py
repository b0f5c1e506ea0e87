"""Input documents for the benchmark workloads.

Everything is a pure function of an explicit random.Random, so a seed fixes
the inputs.  The generators are kept here rather than imported from the test
suite so that the benchmark's inputs do not move when the tests change.
Only `annotate_doc` consults the analyzer, to pick annotation targets that
are valid for the document's tree.
"""

from __future__ import annotations

import json
import random

from symwcet import cft
from symwcet.pipeline import analyze_text

# ---------------------------------------------------------------------------
# chain_symbolic: the scaling chain with seeded costs
# ---------------------------------------------------------------------------


def chain_doc(rng: random.Random, sections: int) -> tuple[dict, list[tuple]]:
    """A chain of diamond / while-loop / straight sections, about two blocks
    per section, with every other loop bound symbolic.

    Returns the document and its section list, from which the reference
    closed form is computed: ("diamond", d, a, j), ("loop", h, c, bound)
    with bound an int or identifier, ("block", s); entry and exit costs
    come first and last as ("block", cost).
    """
    def cost() -> int:
        return rng.randint(1, 9)

    entry_cost = cost()
    blocks = [{"id": "entry", "wcet": entry_cost}]
    edges: list[list[str]] = []
    bounds: dict[str, int | str] = {}
    parts: list[tuple] = [("block", entry_cost)]
    prev = "entry"
    loops = 0
    for i in range(sections):
        kind = i % 3
        if kind == 0:
            d, a, j = f"d{i}", f"a{i}", f"j{i}"
            cd, ca, cj = cost(), cost(), cost()
            blocks += [{"id": d, "wcet": cd}, {"id": a, "wcet": ca},
                       {"id": j, "wcet": cj}]
            edges += [[prev, d], [d, a], [a, j], [d, j]]
            parts.append(("diamond", cd, ca, cj))
            prev = j
        elif kind == 1:
            h, c = f"h{i}", f"c{i}"
            ch, cc = cost(), cost()
            blocks += [{"id": h, "wcet": ch}, {"id": c, "wcet": cc}]
            edges += [[prev, h], [h, c], [c, h]]
            bound: int | str = f"n{i}" if loops % 2 else rng.randint(1, 9)
            bounds[h] = bound
            parts.append(("loop", ch, cc, bound))
            loops += 1
            prev = h
        else:
            s = f"s{i}"
            cs = cost()
            blocks.append({"id": s, "wcet": cs})
            edges.append([prev, s])
            parts.append(("block", cs))
            prev = s
    exit_cost = cost()
    blocks.append({"id": "exit", "wcet": exit_cost})
    edges.append([prev, "exit"])
    parts.append(("block", exit_cost))
    doc = {"name": f"chain-{sections}", "blocks": blocks, "edges": edges,
           "entry": "entry", "exit": "exit", "loop_bounds": bounds}
    return doc, parts


# ---------------------------------------------------------------------------
# big_values: the triangular, persistence and running-example shapes
# ---------------------------------------------------------------------------


def triangular_doc(n: int | str, m: int | str, cap: int | str) -> dict:
    """Outer loop o (bound n) around inner loop i (bound m); the inner body
    block c runs at most `cap` times per entry of o."""
    return {
        "name": "triangular",
        "blocks": [{"id": "s", "wcet": 1}, {"id": "o", "wcet": 2},
                   {"id": "i", "wcet": 3}, {"id": "c", "wcet": 7},
                   {"id": "x", "wcet": 1}],
        "edges": [["s", "o"], ["o", "i"], ["i", "c"], ["c", "i"],
                  ["i", "o"], ["o", "x"]],
        "entry": "s",
        "exit": "x",
        "loop_bounds": {"o": n, "i": m},
        "annotations": [{"target": "c", "loop": "o", "max": cap}],
    }


def persistence_doc(bound: int | str) -> dict:
    """Loop h whose body b misses (cost 9) once per entry, then hits (2)."""
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


def running_example_doc(outer: int | str, inner: int | str) -> dict:
    """The paper's running example: loop b1 around a branch between b6 and
    the inner loop b2."""
    return {
        "name": "running-example",
        "blocks": [{"id": f"b{i}", "wcet": i} for i in range(1, 7)],
        "edges": [["b1", "b2"], ["b2", "b3"], ["b2", "b4"], ["b4", "b2"],
                  ["b3", "b1"], ["b1", "b5"], ["b1", "b6"], ["b6", "b3"]],
        "entry": "b1",
        "exit": "b5",
        "loop_bounds": {"b1": outer, "b2": inner},
    }


SHAPES = {
    "triangular": (triangular_doc, ("n", "m", "cap")),
    "persistence": (persistence_doc, ("bound",)),
    "running": (running_example_doc, ("outer", "inner")),
}


# ---------------------------------------------------------------------------
# corpus_cli: structured random reducible graphs
# ---------------------------------------------------------------------------


class _Graph:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.blocks: list[str] = []
        self.edges: list[tuple[str, str]] = []
        self.back_edges: list[tuple[str, str]] = []
        self.loop_bodies: dict[str, set[str]] = {}

    def block(self) -> str:
        b = f"n{len(self.blocks)}"
        self.blocks.append(b)
        return b

    def edge(self, u: str, v: str) -> None:
        if (u, v) not in self.edges:
            self.edges.append((u, v))


def _region(g: _Graph, depth: int) -> tuple[str, str]:
    """A single-entry single-exit region, returned as (entry, exit)."""
    rng = g.rng
    kind = rng.choice(["block", "seq", "seq", "ite", "ifthen", "loop", "loop"]
                      if depth > 0 else ["block"])
    if kind == "block":
        n = g.block()
        return n, n
    if kind == "seq":
        e1, x1 = _region(g, depth - 1)
        e2, x2 = _region(g, depth - 1)
        g.edge(x1, e2)
        return e1, x2
    if kind in ("ite", "ifthen"):
        d = g.block()
        j = g.block()
        for _ in range(2 if kind == "ite" else 1):
            e, x = _region(g, depth - 1)
            g.edge(d, e)
            g.edge(x, j)
        if kind == "ifthen":
            g.edge(d, j)
        return d, j
    h = g.block()
    e, x = _region(g, depth - 1)
    g.edge(h, e)
    g.edge(x, h)
    g.back_edges.append((x, h))
    return (h, h) if rng.random() < 0.5 else (h, x)


def _loop_membership(g: _Graph) -> None:
    preds: dict[str, list[str]] = {n: [] for n in g.blocks}
    for u, v in g.edges:
        preds[v].append(u)
    for src, h in g.back_edges:
        members = g.loop_bodies.setdefault(h, {h})
        stack = [src]
        while stack:
            n = stack.pop()
            if n not in members:
                members.add(n)
                stack.extend(preds[n])


def _add_noise_edges(g: _Graph, exit_block: str, tries: int) -> None:
    """Extra edges that create no cycle and enter loops only at headers."""
    rng = g.rng
    succs: dict[str, list[str]] = {n: [] for n in g.blocks}
    for u, v in g.edges:
        succs[u].append(v)

    def reaches(a: str, target: str) -> bool:
        seen: set[str] = set()
        stack = [a]
        while stack:
            n = stack.pop()
            if n == target:
                return True
            if n not in seen:
                seen.add(n)
                stack.extend(succs[n])
        return False

    for _ in range(tries):
        u = rng.choice(g.blocks)
        v = rng.choice(g.blocks)
        if u == exit_block or u == v or (u, v) in g.edges or reaches(v, u):
            continue
        if all(v not in body or u in body or v == h
               for h, body in g.loop_bodies.items()):
            g.edges.append((u, v))
            succs[u].append(v)


def random_doc(rng: random.Random) -> tuple[dict, int]:
    """A random reducible program (regions nested 3 deep, 3 noise-edge
    tries) with roughly 40% symbolic loop bounds and the others 1 or 2.

    Returns the document and its loop nesting depth.
    """
    g = _Graph(rng)
    entry, region_exit = _region(g, 3)
    exit_block = g.block()
    g.edge(region_exit, exit_block)
    _loop_membership(g)
    _add_noise_edges(g, exit_block, 3)
    headers = [h for _, h in g.back_edges]
    nesting = max((sum(h in body for body in g.loop_bodies.values())
                   for h in headers), default=0)
    bounds: dict[str, int | str] = {}
    for i, h in enumerate(headers):
        bounds[h] = f"it{i}" if rng.random() < 0.4 else rng.randint(1, 2)
    doc = {
        "name": f"random-{rng.randrange(10 ** 6)}",
        "blocks": [{"id": n, "wcet": rng.randint(0, 9)} for n in g.blocks],
        "edges": [[u, v] for u, v in g.edges],
        "entry": entry,
        "exit": exit_block,
        "loop_bounds": bounds,
    }
    return doc, nesting


def _body_leaves(t) -> dict[str, tuple[str, ...]]:
    """Leaf label -> headers of the loops whose body subtree contains it."""
    out: dict[str, tuple[str, ...]] = {}
    stack = [(t, ())]
    while stack:
        node, inside = stack.pop()
        if isinstance(node, cft.Leaf):
            out.setdefault(node.label, inside)
        elif isinstance(node, (cft.Alt, cft.Seq)):
            stack.extend((c, inside) for c in reversed(node.children))
        else:
            stack.append((node.exit, inside))
            stack.append((node.body, inside + (node.header,)))
    return out


def annotate_doc(rng: random.Random, doc: dict) -> dict:
    """Add up to two annotations and possibly one split, valid for the
    document's tree by construction."""
    doc = json.loads(json.dumps(doc))
    leaves = _body_leaves(analyze_text(json.dumps(doc)).tree)
    candidates = [(label, inside) for label, inside in leaves.items() if inside]
    annotations = []
    used: set[str] = set()
    if candidates:
        for _ in range(rng.randint(1, 2)):
            label, inside = rng.choice(candidates)
            if label in used:
                continue
            used.add(label)
            annotations.append({"target": label,
                                "loop": rng.choice(list(inside) + ["TOP"]),
                                "max": rng.randint(0, 3)})
    if annotations:
        doc["annotations"] = annotations
    # A split names a document block, so only leaves without a "#k"
    # duplication suffix qualify.
    splittable = [c for c in candidates if "#" not in c[0] and c[0] not in used]
    if splittable and rng.random() < 0.4:
        label, inside = rng.choice(splittable)
        wcet = next(b["wcet"] for b in doc["blocks"] if b["id"] == label)
        doc["splits"] = [{"block": label, "variants": [
            {"id": f"{label}_first", "wcet": wcet + rng.randint(1, 9),
             "annotation": {"loop": rng.choice(list(inside)), "max": 1}},
            {"id": f"{label}_rest", "wcet": wcet, "annotation": None},
        ]}]
    return doc


# Share of corpus documents per cell (symbolic loop bounds, edges beyond
# one per block clamped to 1..4), close to random_doc's own mix.  Symbolic
# bounds drive the formula size, extra edges the restructuring's leaf
# duplication and with it the slow tail.
CORPUS_MIX = {
    (0, 1): 0.25, (0, 2): 0.18, (0, 3): 0.10, (0, 4): 0.04,
    (1, 1): 0.12, (1, 2): 0.13, (1, 3): 0.075, (1, 4): 0.035,
    (2, 1): 0.015, (2, 2): 0.025, (2, 3): 0.02, (2, 4): 0.01,
}


def corpus(rng: random.Random, size: int) -> list[dict]:
    """`size` small random documents, half of them annotated.

    Documents are drawn in fixed quotas per CORPUS_MIX cell, and half of
    each quota is annotated, so the corpus mix (and with it the run's
    medians, tail and formula sizes) barely depends on the seed.  Sizes
    stay within the envelope where the analysis is exact on unannotated
    input: 3 to 10 blocks, loops nested at most 2 deep.
    """
    quota = {cell: round(size * share) for cell, share in CORPUS_MIX.items()}
    quota[0, 1] += size - sum(quota.values())
    drawn: dict[tuple[int, int], list[dict]] = {cell: [] for cell in quota}
    missing = size
    while missing:
        doc, nesting = random_doc(rng)
        blocks = len(doc["blocks"])
        cell = (sum(isinstance(b, str) for b in doc["loop_bounds"].values()),
                min(max(len(doc["edges"]) - blocks, 1), 4))
        if (3 <= blocks <= 10 and nesting <= 2
                and cell in quota and len(drawn[cell]) < quota[cell]):
            drawn[cell].append(doc)
            missing -= 1
    docs = [annotate_doc(rng, d) if i % 2 else d
            for cell in quota for i, d in enumerate(drawn[cell])]
    rng.shuffle(docs)
    return docs
