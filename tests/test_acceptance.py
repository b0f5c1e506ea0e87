"""Acceptance suite: the eight checks the analyzer must pass, one test and
one printed PASS line per criterion.  Randomized corpora use frozen seeds so
reruns check the same instances."""

from __future__ import annotations

import json
import random
import time

import pytest

import generators as gen
from generators import parse_abstract
from symwcet import cft, cli, symbolic
from symwcet.awcet import (
    ZERO,
    abstract,
    gamma,
    loop_abstract,
    max_abstract,
    ms_index,
    ms_merge,
    ms_ranksum,
    parse_seq,
)
from symwcet.cfg import loop_ref
from symwcet.errors import PathBudgetExceeded
from symwcet.oracle import (
    check_path_inclusion,
    check_soundness,
    leaf_path_wcet,
    tpaths,
)
from symwcet.pipeline import analyze_text
from symwcet.symbolic import (
    WcetId,
    evaluate,
    gamma_symbolic,
    operand_count,
    parse,
    plus,
    scalar,
    simplify,
)

GPATH_BUDGET = 50_000
TPATH_BUDGET = 200_000


def _nesting_depth(forest, header):
    d = 0
    while header >= 0:
        d += 1
        header = forest.parent[header]
    return d


def _conforming(a):
    """Corpus envelope for the exactness criteria: small graphs, at most
    two nested loops (bounds are <= 3 by generator construction)."""
    if len(a.cfg.blocks) > 10:
        return False
    return all(_nesting_depth(a.forest, a.cfg.block_index[h]) <= 2
               for h in a.forest.loops)


@pytest.fixture(scope="module")
def path_corpus():
    """500 unannotated random documents with their inclusion reports and
    exact worst-path comparisons, shared by criteria 2 and 4."""
    rng = random.Random(13)
    rows = []
    skipped = 0
    start = time.perf_counter()
    while len(rows) < 500:
        doc = gen.random_doc(rng, depth=3, noise=3)
        a = analyze_text(json.dumps(doc))
        if not _conforming(a):
            continue
        try:
            inc = check_path_inclusion(a.cfg, a.forest, a.tree, a.variant_map,
                                       max_paths=GPATH_BUDGET)
            worst = max(leaf_path_wcet(p)
                        for p in tpaths(a.tree, TPATH_BUDGET))
        except PathBudgetExceeded:
            skipped += 1
            continue
        bound = ms_index(gamma(a.tree, a.forest).seq, 0)
        rows.append((doc["name"], inc, bound, worst))
    return rows, skipped, time.perf_counter() - start


def test_criterion_1_worked_examples():
    start = time.perf_counter()
    assert ms_merge(parse_seq("[8,8|4]"), parse_seq("[9,8,3|2]")) == \
        parse_seq("[9,8,8,8|4]")

    f = gen.formula_forest()
    l = loop_ref("h1")
    alt_got = max_abstract(abstract(l, parse_seq("[5,4,2|1]")),
                           abstract(l, parse_seq("[6|2]")), f)
    assert alt_got == abstract(l, parse_seq("[6,5,4|2]"))

    seq_got = ms_ranksum(parse_seq("[5,4|0]"), parse_seq("[2,1|0]"))
    assert seq_got == parse_seq("[7,5|0]")

    self_rel = loop_abstract("h1", 2, abstract(l, parse_seq("[5,4|3]")),
                             ZERO, f)
    assert self_rel == parse_abstract("(loop=TOP, [|9])")

    outer = loop_abstract("h2", 2, abstract(l, parse_seq("[5,4,3|2]")),
                          ZERO, f)
    assert outer == abstract(l, parse_seq("[9|5]"))

    x, y = WcetId("x"), WcetId("y")
    rewritten = simplify(plus([x, scalar(2, x), scalar(3, x), y]), f)
    assert rewritten == plus([scalar(6, x), y])

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: five worked examples exact ({elapsed:.3f}s)")


def test_criterion_2_exactness(path_corpus):
    rows, skipped, elapsed = path_corpus
    assert len(rows) >= 500
    mismatches = [(name, bound, worst) for name, _, bound, worst in rows
                  if bound != worst]
    assert mismatches == []
    assert elapsed < 60.0
    print(f"\nPASS criterion 2: abstract bound equals exact worst path on "
          f"{len(rows)} unannotated documents ({skipped} over budget, "
          f"{elapsed:.1f}s)")


def test_criterion_3_soundness_with_annotations():
    rng = random.Random(7)
    checked = skipped = exact = 0
    worst_gap = 0.0
    start = time.perf_counter()
    while checked < 300:
        doc = gen.annotate_doc(rng, gen.random_doc(rng, depth=2, noise=2))
        a = analyze_text(json.dumps(doc))
        try:
            rep = check_soundness(a.tree, a.forest, max_paths=100_000)
        except PathBudgetExceeded:
            skipped += 1
            continue
        assert rep.ok, (doc, rep.violations)
        if rep.gap_percent is not None:
            worst_gap = max(worst_gap, rep.gap_percent)
            if rep.gap_percent == 0.0:
                exact += 1
        checked += 1
    elapsed = time.perf_counter() - start
    print(f"\nPASS criterion 3: soundness plus per-subtree ranking checks on "
          f"{checked} annotated documents ({skipped} over budget, {exact} "
          f"exact, max pessimism {worst_gap:.0f}%, {elapsed:.1f}s)")


def test_criterion_4_path_inclusion(path_corpus):
    rows, skipped, elapsed = path_corpus
    failures = [(name, inc.missing) for name, inc, _, _ in rows if not inc.ok]
    assert failures == []
    total = sum(inc.program_paths for _, inc, _, _ in rows)
    print(f"\nPASS criterion 4: every bounded program path appears in the "
          f"tree on {len(rows)} documents ({total} paths, {skipped} over "
          f"budget, {elapsed:.1f}s)")


def test_criterion_5_rewriting_convergence():
    f = gen.formula_forest()
    rng = random.Random(11)
    start = time.perf_counter()
    for i in range(1000):
        w = gen.random_formula(rng, depth=3)
        nf = simplify(w, f)
        assert gen.random_schedule_simplify(w, f, random.Random(i)) == nf
        assert gen.random_schedule_simplify(
            w, f, random.Random(i * 7 + 1)) == nf
        assert simplify(nf, f) == nf
        b = gen.random_bindings(rng)
        assert evaluate(nf, b, f) == evaluate(w, b, f)
    elapsed = time.perf_counter() - start
    print(f"\nPASS criterion 5: 1000 formulas, two randomized schedules, "
          f"idempotence and evaluation preserved ({elapsed:.1f}s)")


def test_criterion_6_formula_collapse():
    collapsed = []
    for doc in (gen.running_example_doc(), gen.triangular_doc(outer_bound=4),
                gen.persistence_doc()):
        a = analyze_text(json.dumps(doc))
        w = simplify(gamma_symbolic(a.tree, a.forest), a.forest)
        collapsed.append(operand_count(w))
    assert collapsed == [1, 1, 1]

    fig2_sym = analyze_text(json.dumps(gen.running_example_doc(inner_bound=None)))
    w1 = simplify(gamma_symbolic(fig2_sym.tree, fig2_sym.forest),
                  fig2_sym.forest)
    tri = analyze_text(json.dumps(gen.triangular_doc()))
    w2 = simplify(gamma_symbolic(tri.tree, tri.forest), tri.forest)
    sizes = (operand_count(w1), operand_count(w2))
    assert sizes == (7, 3)
    assert all(s <= 10 for s in sizes)
    print(f"\nPASS criterion 6: parameter-free documents collapse to one "
          f"constant; symbolic-bound formulas have {sizes[0]} and {sizes[1]} "
          f"operands")


def test_criterion_7_performance():
    doc = gen.scaling_doc(500)
    assert len(doc["blocks"]) >= 1000
    text = json.dumps(doc)

    start = time.perf_counter()
    a = analyze_text(text)
    w = simplify(gamma_symbolic(a.tree, a.forest), a.forest)
    build_time = time.perf_counter() - start
    assert build_time < 1.0
    assert operand_count(w) == 1

    start = time.perf_counter()
    concrete = evaluate(w, {}, a.forest)
    concrete_ms = (time.perf_counter() - start) * 1000
    assert concrete_ms < 1.0

    sym = json.loads(text)
    bindings = {}
    bounds = {}
    for i, (h, bound) in enumerate(sorted(sym["loop_bounds"].items())):
        if i % 4 == 1:
            bounds[h] = f"it{i}"
            bindings[f"it{i}"] = bound
        else:
            bounds[h] = bound
    sym["loop_bounds"] = bounds
    b = analyze_text(json.dumps(sym))
    start = time.perf_counter()
    ws = simplify(gamma_symbolic(b.tree, b.forest), b.forest)
    sym_build = time.perf_counter() - start
    ids = symbolic.free_identifiers(ws, b.forest)
    assert ids == set(bindings)
    start = time.perf_counter()
    symbolic_val = evaluate(ws, bindings, b.forest)
    bind_ms = (time.perf_counter() - start) * 1000
    assert bind_ms < 1.0
    assert ms_index(symbolic_val.seq, 0) == ms_index(concrete.seq, 0)
    print(f"\nPASS criterion 7: {len(doc['blocks'])} blocks, parse-to-formula"
          f" {build_time * 1000:.0f}ms, instantiation {concrete_ms:.3f}ms "
          f"concrete / {bind_ms:.3f}ms with {len(ids)} bindings "
          f"(symbolic build {sym_build * 1000:.0f}ms)")


def test_criterion_8_cli_contract(tmp_path, capsys):
    fig2 = tmp_path / "fig2.json"
    fig2.write_text(json.dumps(gen.running_example_doc()))
    sym = tmp_path / "sym.json"
    sym.write_text(json.dumps(gen.running_example_doc(inner_bound=None)))
    irr = tmp_path / "irr.json"
    irr.write_text(json.dumps(gen.irreducible_doc()))

    def run(argv):
        code = cli.main(argv)
        return code, capsys.readouterr().out

    code, out = run(["check", "--input", str(fig2), "--format", "json"])
    assert code == 0
    assert set(json.loads(out)) == {"name", "blocks", "edges", "entry",
                                    "exit", "loops", "ok"}

    code, out = run(["wcet", "--input", str(fig2), "--format", "json"])
    assert code == 0 and json.loads(out) == {"wcet": 60}

    code, out = run(["oracle", "--input", str(fig2), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"inclusion", "soundness"}
    assert payload["inclusion"]["ok"] and payload["soundness"]["ok"]

    assert run(["check", "--input", str(tmp_path / "absent.json")])[0] == 1
    assert run(["check", "--input", str(irr)])[0] == 2
    assert run(["formula", "--input", str(sym), "--fuel", "0"])[0] == 3
    assert run(["oracle", "--input", str(fig2), "--max-paths", "10"])[0] == 3

    code, out = run(["sweep", "--input", str(sym), "--format", "json",
                     "--sweep", "x_b2=1..5"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [v for v, _ in rows] == [1, 2, 3, 4, 5]
    for v, w in rows:
        code, out = run(["wcet", "--input", str(sym), "--format", "json",
                         "--bind", f"x_b2={v}"])
        assert code == 0 and json.loads(out) == {"wcet": w}

    print("\nPASS criterion 8: exit codes 0/1/2/3 observed, report schemas "
          "match, sweep equals pointwise evaluation")
