"""Exhaustive path enumeration and the inclusion/soundness checks."""

from __future__ import annotations

import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

import generators as gen
from symwcet import cft, oracle
from symwcet.awcet import eval_seq, gamma, ms_index
from symwcet.cfg import TOP, build_loop_forest, loop_ref, parse_program
from symwcet.errors import PathBudgetExceeded, SymbolicValuePresent
from symwcet.oracle import (
    SoundnessReport,
    check_path_inclusion,
    check_soundness,
    gpaths_bounded,
    leaf_path_wcet,
    occ,
    prep,
    tpaths,
)
from symwcet.oracle import (_entry_maxima, _external_filters, _require_int,
                            _spread_maximum)
from symwcet.pipeline import analyze_text

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def path_wcet(g, path: tuple[str, ...]) -> int:
    """Cost of a program path; a symbolic block cost is refused."""
    cost = dict(zip(g.blocks, g.costs))
    return sum(_require_int(cost[b], f"cost of block {b!r}") for b in path)


def _max_word_wcet(t: cft.Cft, entries: int, n: int,
                   max_paths: int = oracle.MAX_PATHS) -> int | None:
    """Largest cost of n runs of t spread over `entries` entries, each entry
    getting fresh external caps; None when no distribution is feasible."""
    return _spread_maximum(_entry_maxima(t, n, max_paths), entries, n)


@pytest.fixture(scope="module")
def fig2():
    return analyze_text(json.dumps(gen.running_example_doc()))


@pytest.fixture(scope="module")
def persistence():
    return analyze_text(json.dumps(gen.persistence_doc()))


def _capped_choice_tree():
    # One loop whose every iteration passes the capped leaf, next to an
    # uncapped alternative: concentrating a per-entry cap would only be
    # possible if caps pooled across entries.
    once = cft.Annotation(TOP, 1)
    loop = cft.Loop("L", cft.seq([cft.Leaf("n2", 4), cft.Leaf("n3", 5, once)]),
                    2, cft.Leaf("x", 1))
    return cft.alt([loop, cft.Leaf("n5", 15)])


# ---------------------------------------------------------------------------
# occ
# ---------------------------------------------------------------------------


def test_occ_counts_non_overlapping():
    assert occ([("a",)], ("a", "b", "a")) == 2
    assert occ([("a", "a")], ("a", "a", "a")) == 1
    assert occ([("a", "a")], ("a", "a", "a", "a")) == 2
    assert occ([("a",), ("b",)], ("a", "b", "a")) == 3
    assert occ([("a",), ("a",)], ("a",)) == 1  # duplicate patterns collapse
    assert occ([("z",)], ("a", "b")) == 0


# ---------------------------------------------------------------------------
# Program paths
# ---------------------------------------------------------------------------


def test_fig2_program_paths(fig2):
    paths = gpaths_bounded(fig2.cfg, fig2.forest)
    assert len(paths) == 85
    assert ("b1", "b5") in paths
    assert ("b1", "b6", "b3", "b1", "b5") in paths
    assert max(path_wcet(fig2.cfg, p) for p in paths) == 60
    # Bound 3 budgets the back edge, so b1 shows up at most four times:
    # the initial entry plus three repeats.
    assert all(p.count("b1") <= 4 for p in paths)
    assert any(p.count("b1") == 4 for p in paths)


def test_gpaths_budgets(fig2):
    with pytest.raises(PathBudgetExceeded):
        gpaths_bounded(fig2.cfg, fig2.forest, max_paths=10)
    with pytest.raises(PathBudgetExceeded):
        gpaths_bounded(fig2.cfg, fig2.forest, max_nodes=10)


def test_gpaths_reject_symbolic_bound():
    doc = gen.running_example_doc(inner_bound=None)
    p = parse_program(json.dumps(doc))
    f = build_loop_forest(p.cfg, p.loop_bounds)
    with pytest.raises(SymbolicValuePresent):
        gpaths_bounded(p.cfg, f)


def _reference_gpaths_bounded(g, f, end=None, max_paths=oracle.MAX_PATHS,
                              max_nodes=oracle.MAX_NODES):
    """The walk on block ids that carries each partial path as a whole
    tuple, over successor and loop-edge maps built here from the graph's
    and the forest's numbered edges."""
    ids = g.blocks
    succs = {b: [] for b in ids}
    for s, t in g.edges:
        succs[ids[s]].append(ids[t])
    entry = ids[g.entry]
    end = ids[g.exit] if end is None else end
    back_of, entry_of, bounds = {}, {}, {}
    for info in f.loops.values():
        bounds[info.header] = info.bound
        for s, t in info.back_edges:
            back_of[ids[s], ids[t]] = info.header
        for s, t in info.entry_edges:
            entry_of[ids[s], ids[t]] = info.header
    paths = []
    visited = 0
    stack = [(entry, (entry,), {})]
    while stack:
        block, path, counters = stack.pop()
        visited += 1
        if visited > max_nodes:
            raise PathBudgetExceeded(f"more than {max_nodes} path nodes")
        if block == end:
            paths.append(path)
            if len(paths) > max_paths:
                raise PathBudgetExceeded(f"more than {max_paths} program paths")
        for succ in succs[block]:
            edge = (block, succ)
            c = counters
            if edge in back_of:
                h = back_of[edge]
                taken = c.get(h, 0) + 1
                if taken > bounds[h]:
                    continue
                c = {**c, h: taken}
            elif edge in entry_of:
                h = entry_of[edge]
                if c.get(h, 0):
                    c = {**c, h: 0}
            stack.append((succ, path + (succ,), c))
    return paths


def _paths_or_error(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PathBudgetExceeded as exc:
        return str(exc)


def test_gpaths_bounded_matches_reference():
    rng = random.Random(67)
    cases = []
    for i in range(150):
        a = analyze_text(json.dumps(gen.random_doc(rng, depth=1 + i % 3)))
        blocks = list(a.cfg.blocks)
        # Paths to the exit, and to a block that may have successors.
        cases.append((a, {"max_paths": 2000}))
        cases.append((a, {"end": blocks[i % len(blocks)], "max_paths": 2000,
                          "max_nodes": 20000}))
    doc = json.loads((SAMPLES / "triangular_concrete.json").read_text())
    doc["loop_bounds"]["i"] = 200
    raised = analyze_text(json.dumps(doc))
    cases.append((raised, {"max_paths": 300}))
    cases.append((raised, {"max_paths": 10 ** 6, "max_nodes": 5000}))
    errors = 0
    for a, kwargs in cases:
        want = _paths_or_error(_reference_gpaths_bounded, a.cfg, a.forest,
                               **kwargs)
        got = _paths_or_error(gpaths_bounded, a.cfg, a.forest, **kwargs)
        assert got == want, kwargs
        errors += isinstance(want, str)
    assert 2 <= errors < len(cases) // 2


def test_path_wcet_rejects_symbolic():
    p = parse_program(json.dumps({
        "name": "sym", "blocks": [{"id": "a", "wcet": "w"}], "edges": [],
        "entry": "a", "exit": "a",
    }))
    with pytest.raises(SymbolicValuePresent):
        path_wcet(p.cfg, ("a",))


# ---------------------------------------------------------------------------
# Tree paths
# ---------------------------------------------------------------------------


def test_tpaths_loop_runs_zero_to_bound():
    t = cft.Loop("h", cft.Leaf("b", 1), 2, cft.Leaf("e", 1))
    words = [tuple(l.label for l in p) for p in tpaths(t)]
    assert sorted(words) == [("b", "b", "e"), ("b", "e"), ("e",)]


def test_tpaths_internal_cap_filters_per_entry():
    from symwcet.cfg import loop_ref
    hi = cft.Leaf("hi", 9, cft.Annotation(loop_ref("h"), 1))
    t = cft.Loop("h", cft.alt([hi, cft.Leaf("lo", 2)]), 2, cft.Leaf("e", 1))
    words = {tuple(l.label for l in p) for p in tpaths(t)}
    assert ("hi", "hi", "e") not in words
    assert words == {("e",), ("hi", "e"), ("lo", "e"),
                     ("hi", "lo", "e"), ("lo", "hi", "e"), ("lo", "lo", "e")}


def test_tpaths_match_fig2_program_paths(fig2):
    assert len(tpaths(fig2.tree)) == 85
    assert max(leaf_path_wcet(p) for p in tpaths(fig2.tree)) == 60


def test_tpaths_budget(fig2):
    with pytest.raises(PathBudgetExceeded):
        tpaths(fig2.tree, max_paths=10)


# ---------------------------------------------------------------------------
# Words for repeated runs (prep)
# ---------------------------------------------------------------------------


def test_prep_single_run_without_filters_is_tpaths(fig2):
    bare = cft.strip_annotations(fig2.tree)
    assert prep(bare, 1, 1) == tpaths(bare)


def test_prep_persistence_alt(persistence):
    assert cft.to_sexpr(persistence.tree) == \
        "(seq (loop h (seq h (alt b_miss b_hit)) 4 h) e)"
    alt_node = next(n for n in cft.subtrees(persistence.tree)
                    if isinstance(n, cft.Alt))
    # 4 runs over 2 entries, the miss leaf capped once per entry: any word
    # with at most 2 misses survives, C(4,0)+C(4,1)+C(4,2) = 11.
    assert len(prep(alt_node, 2, 4)) == 11


def test_prep_caps_never_pool_across_entries():
    t = _capped_choice_tree()
    words = prep(t, 2, 2)
    assert len(words) == 9
    # The two-iteration loop path needs the capped leaf twice in a single
    # entry, so no distribution admits it even though 2 entries x cap 1
    # would cover it pooled.
    assert max(leaf_path_wcet(w) for w in words) == 30
    double = ("n2", "n3", "n2", "n3", "x")
    assert all(occ([double], tuple(l.label for l in w)) == 0 for w in words)


def test_prep_budget(fig2):
    with pytest.raises(PathBudgetExceeded):
        prep(fig2.tree, 1, 2, max_paths=100)


def test_entry_maxima_dp_matches_enumeration():
    t = _capped_choice_tree()
    assert _entry_maxima(t, 2) == [0, 15, 30]
    for k in (1, 2):
        best = max(leaf_path_wcet(w) for w in prep(t, 1, k))
        assert _entry_maxima(t, k)[k] == best


def test_entry_maxima_multi_leaf_pattern():
    # Cap the whole body sequence: its pattern spans two leaves, which takes
    # the enumeration branch instead of the profile DP.
    once = cft.Annotation(TOP, 1)
    body = cft.Seq((cft.Leaf("p", 4), cft.Leaf("q", 5)), annotation=once)
    t = cft.alt([body, cft.Leaf("r", 2)])
    # Runs cost 9 (capped) or 2: one entry fits one capped run.
    assert _entry_maxima(t, 3) == [0, 9, 11, 13]
    assert _max_word_wcet(t, 2, 2) == 18
    assert _max_word_wcet(t, 1, 2) == 11


def test_infeasible_runs_give_none():
    # Every path of t hits the capped leaf, so two runs never fit one entry.
    t = cft.seq([cft.Leaf("a", 3, cft.Annotation(TOP, 1)), cft.Leaf("b", 1)])
    assert _entry_maxima(t, 2) == [0, 4, None]
    assert _max_word_wcet(t, 1, 2) is None
    assert _max_word_wcet(t, 2, 2) == 8


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_fig2_inclusion(fig2):
    rep = check_path_inclusion(fig2.cfg, fig2.forest, fig2.tree,
                               fig2.variant_map)
    assert rep.ok and rep.missing == []
    assert rep.program_paths == 85 and rep.tree_paths == 85


def test_inclusion_detects_missing_paths(fig2):
    rep = check_path_inclusion(fig2.cfg, fig2.forest, cft.Leaf("b1", 1))
    assert not rep.ok
    assert rep.program_paths == 85 and rep.tree_paths == 1
    assert 0 < len(rep.missing) <= 10


def test_inclusion_maps_variants(persistence):
    rep = check_path_inclusion(persistence.cfg, persistence.forest,
                               persistence.tree, persistence.variant_map)
    assert rep.ok and rep.program_paths == rep.tree_paths == 5


def test_fig2_soundness(fig2):
    rep = check_soundness(fig2.tree, fig2.forest)
    assert rep.ok and rep.violations == []
    assert rep.bound == 60 and rep.worst_path == 60
    assert rep.gap_percent == 0.0


def test_persistence_soundness(persistence):
    assert gamma(persistence.tree, persistence.forest).seq.tail == 21
    rep = check_soundness(persistence.tree, persistence.forest)
    assert rep.ok and rep.bound == 21 and rep.worst_path == 21


def test_capped_choice_soundness(persistence):
    # Regression: with pooled caps the 34-cost word (two capped iterations
    # in one run, expensive branch in the other) would be admitted and
    # flagged against the per-entry bound of 30.
    t = _capped_choice_tree()
    rep = check_soundness(t, persistence.forest)
    assert rep.ok and rep.bound == 15
    assert _max_word_wcet(t, 2, 2) == 30


# ---------------------------------------------------------------------------
# One entry-maxima table per subtree
# ---------------------------------------------------------------------------


def _random_tree(rng: random.Random, depth: int, headers: list[str]) -> cft.Cft:
    """A small concrete tree; some nodes carry a cap for the whole run (TOP)
    or for an enclosing loop, so both branches of _entry_maxima occur."""
    kind = rng.choice(("leaf", "alt", "seq", "loop")) if depth else "leaf"
    if kind == "leaf":
        node: cft.Cft = cft.Leaf(f"l{rng.randrange(4)}", rng.randint(0, 9))
    elif kind == "loop":
        h = f"h{len(headers)}"
        body = _random_tree(rng, depth - 1, headers + [h])
        node = cft.Loop(h, body, rng.randint(1, 2), cft.Leaf(h, rng.randint(0, 3)))
    else:
        kids = [_random_tree(rng, depth - 1, headers) for _ in range(2)]
        node = cft.alt(kids) if kind == "alt" else cft.seq(kids)
    if rng.random() < 0.4:
        loop = rng.choice([TOP] + [loop_ref(h) for h in headers])
        node = replace(node, annotation=cft.Annotation(loop, rng.randint(0, 2)))
    return node


def test_entry_maxima_prefix_does_not_depend_on_n():
    rng = random.Random(29)
    once = cft.Annotation(TOP, 1)
    trees = [
        # The trees of test_entry_maxima_multi_leaf_pattern and
        # test_infeasible_runs_give_none.
        cft.alt([cft.Seq((cft.Leaf("p", 4), cft.Leaf("q", 5)), annotation=once),
                 cft.Leaf("r", 2)]),
        cft.seq([cft.Leaf("a", 3, once), cft.Leaf("b", 1)]),
        _capped_choice_tree(),
    ]
    while len(trees) < 120:
        t = _random_tree(rng, 3, [])
        if len(tpaths(t)) <= 6:
            trees.append(t)
    branches = set()
    with_none = 0
    for t in trees:
        for sub in cft.subtrees(t):
            full = _entry_maxima(sub, 4)
            assert len(full) == 5
            for k in (1, 2):
                assert full[:k + 1] == _entry_maxima(sub, k), \
                    (cft.to_sexpr(sub), k)
            filters = _external_filters(sub)
            branches.add(all(len(p) == 1 for pats, _ in filters for p in pats))
            with_none += None in full
    assert branches == {True, False}  # profile DP and per-k enumeration
    assert with_none > 0


def test_check_soundness_builds_one_table_per_subtree(monkeypatch):
    a = analyze_text((SAMPLES / "triangular_concrete.json").read_text())
    built = []
    real = oracle._entry_maxima

    def counted(t, n, max_paths=oracle.MAX_PATHS):
        built.append((id(t), n))
        return real(t, n, max_paths)

    monkeypatch.setattr(oracle, "_entry_maxima", counted)
    rep = check_soundness(a.tree, a.forest)
    subs = list(cft.subtrees(a.tree))
    assert len(subs) == 12
    assert sorted(built) == sorted((id(s), 4) for s in subs)
    assert rep.ok and rep.bound == rep.worst_path == 424


def _reference_check_soundness(t, f, max_paths):
    """check_soundness as it was before one table served every run count:
    one fresh table for each (subtree, entries, runs) query."""
    violations: list[str] = []
    top = gamma(t, f)
    bound = ms_index(top.seq, 0)
    worst = _max_word_wcet(t, 1, 1, max_paths)
    if worst is not None and worst > bound:
        violations.append(f"worst admitted word costs {worst}, "
                          f"abstract bound is {bound}")

    for sub in cft.subtrees(t):
        g_sub = gamma(sub, f)
        for e in (1, 2):
            for n in (e, 2 * e):
                cap = eval_seq(g_sub.seq, e, n)
                w = _max_word_wcet(sub, e, n, max_paths)
                if w is not None and w > cap:
                    violations.append(
                        f"subtree {cft.to_sexpr(sub)}: {n} runs over {e} "
                        f"entries cost {w}, ranking allows {cap}")

    gap = None
    if worst is not None and worst > 0:
        gap = 100.0 * (bound - worst) / worst
    return SoundnessReport(ok=not violations, bound=bound, worst_path=worst,
                           gap_percent=gap, violations=violations)


def _report_or_error(check, a):
    try:
        return check(a.tree, a.forest, max_paths=2000)
    except PathBudgetExceeded as exc:
        return ("over budget", str(exc))


def test_check_soundness_matches_reference_on_frozen_corpus(monkeypatch):
    rng = random.Random(6)
    over = violated = 0
    for i in range(240):
        doc = gen.annotate_doc(rng, gen.random_doc(rng, depth=2, noise=2))
        a = analyze_text(json.dumps(doc))
        with monkeypatch.context() as m:
            if i % 3 == 2:
                # Words that cost one more per leaf than the tree says, so
                # the violation lists are compared too.
                m.setattr(oracle, "leaf_path_wcet",
                          lambda path: sum(l.wcet + 1 for l in path))
            new = _report_or_error(check_soundness, a)
            ref = _report_or_error(_reference_check_soundness, a)
        assert new == ref, doc
        over += isinstance(new, tuple)
        violated += isinstance(new, SoundnessReport) and not new.ok
    assert over > 0 and violated > 0
