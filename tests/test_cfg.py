"""Document parsing, dominators, reducibility, loop forest, loop lattice."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import generators as gen
from symwcet.cfg import (
    BOT,
    TOP,
    LoopRef,
    _tree_intervals,
    build_loop_forest,
    immediate_dominators,
    loop_leq,
    loop_meet,
    loop_ref,
    parse_program,
)
from symwcet.errors import DocumentError, IrreducibleLoop


def fig2_program():
    return parse_program(json.dumps(gen.running_example_doc()))


# ---------------------------------------------------------------------------
# Parsing and validation
# ---------------------------------------------------------------------------


def _doc(**overrides):
    base = {
        "name": "t",
        "blocks": [{"id": "a", "wcet": 1}, {"id": "b", "wcet": 2}],
        "edges": [["a", "b"]],
        "entry": "a",
        "exit": "b",
    }
    base.update(overrides)
    return json.dumps(base)


def test_parse_minimal_document():
    p = parse_program(_doc())
    g = p.cfg
    assert g.blocks[g.entry] == "a" and g.blocks[g.exit] == "b"
    assert g.costs[g.block_index["b"]] == 2
    assert p.loop_bounds == {} and p.annotations == () and p.splits == ()


@pytest.mark.parametrize("mutate, fragment", [
    ({"edges": [["a", "zz"]]}, "unknown block"),
    ({"edges": [["a", "b"], ["a", "b"]]}, "duplicate edge"),
    ({"entry": "zz"}, "entry"),
    ({"blocks": [{"id": "a", "wcet": 1}, {"id": "a", "wcet": 2}]}, "duplicate"),
    ({"blocks": [{"id": "a", "wcet": -1}, {"id": "b", "wcet": 2}]}, "must be >="),
    ({"loop_bounds": {"zz": 3}}, "unknown block"),
    ({"loop_bounds": {"a": 0}}, "must be >="),
    ({"annotations": [{"target": "b", "loop": "zz", "max": 1}]}, "neither TOP nor a block"),
    ({"annotations": [{"target": "b", "max": 1}]}, "missing"),
    ({"splits": [{"block": "zz", "variants": [{"id": "v", "wcet": 1}]}]}, "unknown block"),
    ({"splits": [{"block": "b", "variants": []}]}, "non-empty"),
    ({"splits": [{"block": "b", "variants": [{"id": "9x", "wcet": 1}]}]}, "identifier"),
    ({"extra_key": 1}, "unknown keys"),
])
def test_parse_rejects(mutate, fragment):
    with pytest.raises(DocumentError, match=fragment):
        parse_program(_doc(**mutate))


_B = {"id": "b", "wcet": 2}

# (case, document fields replaced, exact DocumentError text).  Blocks of
# exactly the keys id and wcet skip the key check, so the cases around that
# shape pin the messages of the full check.
PARSE_MESSAGES = [
    ("extra key", {"blocks": [{"id": "a", "wcet": 1, "loop": 2}, _B]},
     "block: unknown keys ['loop']"),
    ("missing key", {"blocks": [{"id": "a"}, _B]},
     "block: missing keys ['wcet']"),
    ("two keys, one unknown", {"blocks": [{"id": "a", "cost": 1}, _B]},
     "block: unknown keys ['cost']"),
    ("no keys", {"blocks": [{}, _B]},
     "block: missing keys ['id', 'wcet']"),
    ("non-object block", {"blocks": [["a", 1], _B]},
     "block entry must be an object, got ['a', 1]"),
    ("null block", {"blocks": [None, _B]},
     "block entry must be an object, got None"),
    ("bad block id", {"blocks": [{"id": "1a", "wcet": 1}, _B]},
     "block id '1a' is not a valid identifier"),
    ("non-string block id", {"blocks": [{"id": 7, "wcet": 1}, _B]},
     "block id 7 is not a valid identifier"),
    ("block TOP", {"blocks": [{"id": "TOP", "wcet": 1}, _B]},
     "block id 'TOP' is reserved for an end of the loop lattice"),
    ("block BOT", {"blocks": [{"id": "BOT", "wcet": 1}, _B]},
     "block id 'BOT' is reserved for an end of the loop lattice"),
    ("duplicate block", {"blocks": [{"id": "a", "wcet": 1}, _B,
                                    {"id": "a", "wcet": 3}]},
     "duplicate block id 'a'"),
    ("negative wcet", {"blocks": [{"id": "a", "wcet": -1}, _B]},
     "block a wcet: must be >= 0, got -1"),
    ("boolean wcet", {"blocks": [{"id": "a", "wcet": True}, _B]},
     "block a wcet: expected integer or identifier, got True"),
    ("float wcet", {"blocks": [{"id": "a", "wcet": 1.5}, _B]},
     "block a wcet: expected integer or identifier, got 1.5"),
    ("bad wcet identifier", {"blocks": [{"id": "a", "wcet": "1x"}, _B]},
     "block a wcet: '1x' is not a valid identifier"),
    ("non-list edge", {"edges": [{"a": "b"}]},
     "edge must be a [source, target] pair, got {'a': 'b'}"),
    ("string edge", {"edges": ["ab"]},
     "edge must be a [source, target] pair, got 'ab'"),
    ("one-element edge", {"edges": [["a"]]},
     "edge must be a [source, target] pair, got ['a']"),
    ("three-element edge", {"edges": [["a", "b", "b"]]},
     "edge must be a [source, target] pair, got ['a', 'b', 'b']"),
    ("non-string endpoint", {"edges": [["a", 1]]},
     "edge must be a [source, target] pair, got ['a', 1]"),
    ("boolean endpoint", {"edges": [[True, "b"]]},
     "edge must be a [source, target] pair, got [True, 'b']"),
    ("unknown source", {"edges": [["zz", "b"]]},
     "edge ['zz', 'b'] references unknown block 'zz'"),
    ("unknown target", {"edges": [["a", "zz"]]},
     "edge ['a', 'zz'] references unknown block 'zz'"),
    ("both unknown", {"edges": [["yy", "zz"]]},
     "edge ['yy', 'zz'] references unknown block 'yy'"),
    ("duplicate edge", {"edges": [["a", "b"], ["a", "b"]]},
     "duplicate edge ['a', 'b']"),
    ("null cap", {"annotations": [{"target": "b", "loop": "TOP",
                                   "max": None}]},
     "annotation max for b: expected integer or identifier, got None"),
    ("null variant cap", {"splits": [{"block": "b", "variants": [
        {"id": "v", "wcet": 1, "annotation": {"loop": "TOP", "max": None}}]}]},
     "variant v annotation max: expected integer or identifier, got None"),
    ("missing variant cap", {"splits": [{"block": "b", "variants": [
        {"id": "v", "wcet": 1, "annotation": {"loop": "TOP"}}]}]},
     "variant v annotation: missing keys ['max']"),
]


@pytest.mark.parametrize("case, fields, message", PARSE_MESSAGES,
                         ids=[c[0] for c in PARSE_MESSAGES])
def test_parse_messages_pinned(case, fields, message):
    with pytest.raises(DocumentError) as info:
        parse_program(_doc(**fields))
    assert str(info.value) == message


@pytest.mark.parametrize("header", ["TOP", "BOT"])
def test_lattice_ends_are_not_block_ids(header):
    # Annotations name their loop by block id, read as a lattice point:
    # a loop headed by TOP or BOT could not be named.
    doc = _doc(blocks=[{"id": "a", "wcet": 1}, {"id": header, "wcet": 2},
                       {"id": "c", "wcet": 3}],
               edges=[["a", header], [header, header], [header, "c"]],
               exit="c", loop_bounds={header: 4},
               annotations=[{"target": header, "loop": header, "max": 2}])
    with pytest.raises(DocumentError, match="reserved"):
        parse_program(doc)


def test_parse_rejects_non_json():
    with pytest.raises(DocumentError):
        parse_program("not json at all {")


def test_parse_rejects_unreachable_block():
    doc = _doc(blocks=[{"id": "a", "wcet": 1}, {"id": "b", "wcet": 2},
                       {"id": "c", "wcet": 3}])
    with pytest.raises(DocumentError):
        parse_program(doc)


def test_symbolic_wcet_and_bound_are_identifiers():
    p = parse_program(_doc(
        blocks=[{"id": "a", "wcet": "w_a"}, {"id": "b", "wcet": 2}],
        edges=[["a", "a"], ["a", "b"]],
        loop_bounds={"a": "n"},
    ))
    assert p.cfg.costs[p.cfg.block_index["a"]] == "w_a"
    assert p.loop_bounds["a"] == "n"


# ---------------------------------------------------------------------------
# Dominators
# ---------------------------------------------------------------------------


def _name(g, b):
    """The id of block number b (-1: None)."""
    return None if b < 0 else g.blocks[b]


def test_fig2_idoms():
    g = fig2_program().cfg
    idom = build_loop_forest(g).idom
    assert {g.blocks[b]: _name(g, d) for b, d in enumerate(idom)} == {
        "b1": None, "b2": "b1", "b3": "b1", "b4": "b2", "b5": "b1", "b6": "b1",
    }


def _id_edges(g, edges):
    """Edges on block numbers, spelled as pairs of block ids."""
    return tuple((g.blocks[s], g.blocks[t]) for s, t in edges)


def test_fig2_back_edges():
    g = fig2_program().cfg
    f = build_loop_forest(g)
    assert {e for info in f.loops.values()
            for e in _id_edges(g, info.back_edges)} == {
        ("b3", "b1"), ("b4", "b2")}


def _reachable_without(g, banned):
    """Block numbers reachable from the entry without passing `banned`."""
    seen = set()
    stack = [] if g.entry == banned else [g.entry]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        for s in g.succs[n]:
            if s != banned:
                stack.append(s)
    return seen


def test_dominates_matches_removal_oracle():
    rng = random.Random(5)
    for _ in range(40):
        doc = gen.random_doc(rng, depth=2, noise=2)
        g = parse_program(json.dumps(doc)).cfg
        f = build_loop_forest(g)
        nodes = range(len(g.blocks))
        pre, post = _tree_intervals(f.idom, nodes)
        cuts = {d: _reachable_without(g, d) for d in nodes}
        for i in nodes:
            for j in nodes:
                expected = j == i or j not in cuts[i]
                assert (pre[i] <= pre[j] < post[i]) == expected, (doc, i, j)
        # Back edges are tested for dominance on the dominator tree's
        # numbering; each loop keeps its own in edge order.
        backs = [(s, t) for s, t in g.edges if s == t or s not in cuts[t]]
        assert set(f.loops) == {g.blocks[t] for _, t in backs}, doc
        for h, info in f.loops.items():
            assert list(info.back_edges) == [
                e for e in backs if e[1] == g.block_index[h]]


# ---------------------------------------------------------------------------
# Reducibility
# ---------------------------------------------------------------------------


def test_irreducible_triangle_rejected():
    p = parse_program(json.dumps(gen.irreducible_doc()))
    with pytest.raises(IrreducibleLoop) as err:
        build_loop_forest(p.cfg, p.loop_bounds)
    assert str(err.value) == ("irreducible control flow: cycle b -> c has "
                              "no dominating header")


def test_random_structured_graphs_are_reducible():
    rng = random.Random(17)
    for _ in range(60):
        doc = gen.random_doc(rng, depth=3, noise=4)
        p = parse_program(json.dumps(doc))
        build_loop_forest(p.cfg, p.loop_bounds)  # must not raise


def _small_cfg_doc(rng: random.Random) -> dict:
    """A path from entry to exit through every block, plus random extra
    edges out of every block but the exit (self-loops included)."""
    n = rng.randint(2, 7)
    names = [f"v{i}" for i in range(n)]
    edges = [[names[i], names[i + 1]] for i in range(n - 1)]
    for _ in range(rng.randint(0, 2 * n)):
        e = [rng.choice(names[:-1]), rng.choice(names)]
        if e not in edges:
            edges.append(e)
    rng.shuffle(edges)
    return {"name": "small", "blocks": [{"id": b, "wcet": 1} for b in names],
            "edges": edges, "entry": names[0], "exit": names[-1]}


def _reference_check_reducible(blocks, edges, backs):
    """Raise IrreducibleLoop when the graph minus back-edges has a cycle:
    the depth-first colouring on block ids, roots in document order."""
    succs: dict[str, list[str]] = {b: [] for b in blocks}
    for e in edges:
        if e not in backs:
            succs[e[0]].append(e[1])
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {b: WHITE for b in blocks}
    parent: dict[str, str] = {}
    for root in blocks:
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


def _three_pass_loop_forest(g):
    """The loop forest from three graph passes: the dominator pass, a
    dominance test on every edge for the back edges, then the cycle search
    on the graph without them.  Loop bodies are spelled out as sets, one
    backward search per loop.  Everything after the dominator pass runs
    on block ids.

    Returns the forest as `_forest_view` shows it, and the bodies."""
    idom, _ = immediate_dominators(g.entry, g.succs, g.preds)
    pre, post = _tree_intervals(idom, range(len(g.blocks)))
    index = g.block_index
    edges = _id_edges(g, g.edges)
    backs = []
    for s, t in edges:
        if pre[index[t]] <= pre[index[s]] < post[index[t]]:
            backs.append((s, t))
    _reference_check_reducible(g.blocks, edges, set(backs))
    preds = {b: [] for b in g.blocks}
    for s, t in edges:
        preds[t].append(s)
    by_header = {}
    for s, t in backs:
        by_header.setdefault(t, []).append((s, t))
    headers = sorted(by_header, key=g.block_index.__getitem__)
    bodies = {}
    for h in headers:
        body = {h}
        stack = [s for s, _ in by_header[h]]
        while stack:
            n = stack.pop()
            if n not in body:
                body.add(n)
                stack.extend(preds[n])
        bodies[h] = body
    parent, inner = {}, {}
    for h in sorted(headers, key=lambda h: -len(bodies[h])):
        parent[h] = inner.get(h)
        for b in bodies[h]:
            inner[b] = h
    entries = {h: [] for h in headers}
    exits = {h: [] for h in headers}
    for u, v in edges:
        if v in bodies and u not in bodies[v]:
            entries[v].append((u, v))
        level = inner.get(u)
        while level is not None and v not in bodies[level]:
            exits[level].append((u, v))
            level = parent[level]
    loops = [(h, tuple(by_header[h]), tuple(entries[h]), tuple(exits[h]),
              f"x_{h}") for h in headers]
    block_loop = {b: inner[b] for b in g.blocks if b in inner}
    idom = {g.blocks[b]: _name(g, d) for b, d in enumerate(idom)}
    view = (loops, {h: parent[h] for h in headers}, block_loop, idom)
    return view, bodies


def _forest_view(g, f):
    """The forest on block ids: each loop's header, edges and bound, and
    the parent, innermost-loop and immediate-dominator maps, each in
    document order."""
    loops = [(i.header, _id_edges(g, i.back_edges),
              _id_edges(g, i.entry_edges), _id_edges(g, i.exit_edges), i.bound)
             for i in f.loops.values()]
    parent = {h: _name(g, f.parent[g.block_index[h]]) for h in f.loops}
    block_loop = {g.blocks[b]: g.blocks[h] for b, h in enumerate(f.block_loop)
                  if h >= 0}
    idom = {g.blocks[b]: _name(g, d) for b, d in enumerate(f.idom)}
    return loops, parent, block_loop, idom


def _forest_or_error(g):
    """The forest's view and the reference's view and bodies, or the
    IrreducibleLoop texts of both."""
    try:
        f = build_loop_forest(g)
    except IrreducibleLoop as exc:
        with pytest.raises(IrreducibleLoop) as ref:
            _three_pass_loop_forest(g)
        return "irreducible", str(exc), str(ref.value)
    view, bodies = _three_pass_loop_forest(g)
    return "forest", (f, _forest_view(g, f)), (view, bodies)


def test_forest_matches_three_pass_reference():
    # The forest takes its back edges from the dominator pass's own DFS
    # numbering, and runs the cycle search only on an irreducible graph.
    # Nesting is read off loop-tree intervals: block b lies in loop h
    # exactly when the reference's body of h holds b, and an id that is no
    # block lies in no loop.
    rng = random.Random(2024)
    kinds = {"irreducible": 0, "forest": 0}
    loops = 0
    docs = [_small_cfg_doc(rng) for _ in range(1500)]
    docs += [gen.irreducible_doc(), gen.running_example_doc(),
             gen.loop_nest_doc(4), gen.dowhile_nest_doc(4)]
    for doc in docs:
        g = parse_program(json.dumps(doc)).cfg
        kind, got, want = _forest_or_error(g)
        kinds[kind] += 1
        if kind == "irreducible":
            assert got == want, doc
            continue
        (f, view), (ref_view, bodies) = got, want
        assert view == ref_view, doc
        assert [list(m) for m in view] == [list(m) for m in ref_view], doc
        for h, body in bodies.items():
            for b in [*g.blocks, "nowhere"]:
                assert loop_leq(loop_ref(b), loop_ref(h), f) == (b in body), \
                    (doc, b, h)
        loops += len(bodies) > 0
    assert kinds["irreducible"] >= 200 and kinds["forest"] >= 1000, kinds
    assert loops >= 600, loops


def _chain_forest(doc, depth):
    """Depth-many nested loops: every header's parent is the previous
    header, and block_loop follows the nest."""
    g = parse_program(json.dumps(doc)).cfg
    f = build_loop_forest(g)
    ix = g.block_index
    assert list(f.loops) == [f"h{i}" for i in range(depth)]
    assert [f.parent[ix[f"h{i}"]] for i in range(depth)] == (
        [-1] + [ix[f"h{i}"] for i in range(depth - 1)])
    assert loop_leq(loop_ref(f"h{depth - 1}"), loop_ref("h0"), f)
    assert not loop_leq(loop_ref("h0"), loop_ref(f"h{depth - 1}"), f)
    return g, f


def test_forest_of_a_deep_loop_nest():
    depth = 2000
    g, f = _chain_forest(gen.loop_nest_doc(depth), depth)
    ix = g.block_index
    want = {"s": -1, "x": -1, "b": ix[f"h{depth - 1}"]}
    for i in range(depth):
        want[f"h{i}"] = ix[f"h{i}"]
        if i < depth - 1:
            want[f"l{i}"] = ix[f"h{i}"]  # the latch lies outside h{i+1}
    assert f.block_loop == [want[b] for b in g.blocks]


def test_forest_of_a_deep_dowhile_nest():
    depth = 2000
    g, f = _chain_forest(gen.dowhile_nest_doc(depth), depth)
    ix = g.block_index
    want = {"s": -1, "x": -1}
    for i in range(depth):
        want[f"h{i}"] = want[f"t{i}"] = ix[f"h{i}"]
    assert f.block_loop == [want[b] for b in g.blocks]


# ---------------------------------------------------------------------------
# Loop forest
# ---------------------------------------------------------------------------


def test_fig2_loop_forest():
    p = fig2_program()
    f = build_loop_forest(p.cfg, p.loop_bounds)
    assert set(f.loops) == {"b1", "b2"}
    outer, inner = f.loops["b1"], f.loops["b2"]
    g, ix = p.cfg, p.cfg.block_index

    def body(h):
        return {b for b in g.blocks if loop_leq(loop_ref(b), loop_ref(h), f)}

    assert body("b1") == {"b1", "b2", "b3", "b4", "b6"}
    assert body("b2") == {"b2", "b4"}
    assert outer.bound == 3 and inner.bound == 2
    assert _id_edges(g, outer.back_edges) == (("b3", "b1"),)
    assert _id_edges(g, inner.entry_edges) == (("b1", "b2"),)
    assert _id_edges(g, outer.exit_edges) == (("b1", "b5"),)
    assert f.parent[ix["b1"]] == -1 and f.parent[ix["b2"]] == ix["b1"]
    assert f.block_loop[ix["b4"]] == ix["b2"]
    assert f.block_loop[ix["b3"]] == ix["b1"]
    assert f.block_loop[ix["b5"]] == -1


def test_missing_bound_defaults_to_symbolic():
    p = parse_program(json.dumps(gen.running_example_doc(inner_bound=None)))
    f = build_loop_forest(p.cfg, p.loop_bounds)
    assert f.loops["b2"].bound == "x_b2"
    assert f.loops["b1"].bound == 3


def test_bound_for_non_header_rejected():
    p = fig2_program()
    with pytest.raises(DocumentError, match="not a loop header"):
        build_loop_forest(p.cfg, {"b3": 2})


# ---------------------------------------------------------------------------
# Loop reference lattice
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fig2_forest():
    p = fig2_program()
    return build_loop_forest(p.cfg, p.loop_bounds)


@pytest.fixture(scope="module")
def fig2_bodies():
    return _three_pass_loop_forest(fig2_program().cfg)[1]


L1 = loop_ref("b1")
L2 = loop_ref("b2")
ALIEN = loop_ref("zz")  # header the forest has never heard of
ELEMS = [TOP, BOT, L1, L2, ALIEN]


def test_lattice_pinned_order(fig2_forest):
    f = fig2_forest
    assert loop_leq(BOT, L2, f) and loop_leq(L2, L1, f) and loop_leq(L1, TOP, f)
    assert not loop_leq(L1, L2, f)
    assert not loop_leq(TOP, L1, f)
    assert loop_leq(ALIEN, ALIEN, f) and loop_leq(ALIEN, TOP, f)
    assert not loop_leq(ALIEN, L1, f) and not loop_leq(L1, ALIEN, f)


def test_lattice_pinned_join_meet(fig2_forest):
    f = fig2_forest
    assert loop_meet(L1, L2, f) == L2
    assert loop_meet(L1, TOP, f) == L1


def test_loop_refs_are_tuples_of_their_fields():
    for a in ELEMS:
        assert isinstance(a, tuple) and tuple(a) == (a.kind, a.header)
        assert a == (a.kind, a.header) and hash(a) == hash((a.kind, a.header))
        for b in ELEMS:
            assert (a == b) == (tuple(a) == tuple(b))
            assert (a < b) == ((a.kind, a.header) < (b.kind, b.header))
    assert TOP == LoopRef("top") == ("top", "")
    assert repr(L1) == "LoopRef(kind='loop', header='b1')"


# The lattice as written before its fast paths, comparing whole references
# and reading nesting off the loop bodies spelled out as sets.


def ref_loop_leq(a, b, bodies):
    if a == b or a == BOT or b == TOP:
        return True
    if a == TOP or b == BOT:
        return False
    body = bodies.get(b.header)
    return body is not None and a.header in body


def ref_loop_meet(a, b, bodies):
    if ref_loop_leq(a, b, bodies):
        return a
    if ref_loop_leq(b, a, bodies):
        return b
    return BOT


def test_lattice_matches_reference(fig2_forest, fig2_bodies):
    f = fig2_forest
    # Equal references that are distinct objects, besides the shared ones.
    copies = [LoopRef("top"), LoopRef("bot"), loop_ref("b1"), loop_ref("zz")]
    for a in ELEMS + copies:
        for b in ELEMS + copies:
            assert loop_leq(a, b, f) == ref_loop_leq(a, b, fig2_bodies), (a, b)
            assert loop_meet(a, b, f) == ref_loop_meet(a, b, fig2_bodies), \
                (a, b)


@settings(max_examples=200, deadline=None)
@given(a=st.sampled_from(ELEMS), b=st.sampled_from(ELEMS), c=st.sampled_from(ELEMS))
def test_lattice_properties(fig2_forest, a, b, c):
    f = fig2_forest
    assert loop_leq(a, a, f)
    if loop_leq(a, b, f) and loop_leq(b, a, f):
        assert a == b
    if loop_leq(a, b, f) and loop_leq(b, c, f):
        assert loop_leq(a, c, f)
    m = loop_meet(a, b, f)
    assert loop_leq(m, a, f) and loop_leq(m, b, f)
    assert loop_meet(a, b, f) == loop_meet(b, a, f)
    # Folds of constants rely on this: any order gives the same loop.
    assert (loop_meet(loop_meet(a, b, f), c, f)
            == loop_meet(a, loop_meet(b, c, f), f))
