"""Formula layer: constructors, rewriting, instantiation, text form."""

from __future__ import annotations

import dataclasses
import json
import random
import sys

import pytest

import generators as gen
from generators import parse_abstract
from symwcet import cft, symbolic
from symwcet.awcet import (
    ZERO,
    abstract,
    const_seq,
    fold,
    gamma,
    loop_abstract,
    max_abstract,
    ms_merge,
    ms_ranksum,
    node_value,
    parse_seq,
    plus_abstract,
    restrict_abstract,
)
from symwcet.cfg import BOT, TOP, loop_meet, loop_ref
from symwcet.errors import (
    FuelExhausted,
    TypeMismatch,
    UnboundIdentifier,
    UnknownBlock,
)
from symwcet.pipeline import analyze_text
from symwcet.symbolic import (
    CONST_ZERO,
    Const,
    Max,
    Plus,
    Power,
    Restrict,
    Scalar,
    WcetId,
    evaluate,
    free_identifiers,
    gamma_symbolic,
    identifiers,
    max_,
    operand_count,
    parse,
    plus,
    render,
    scalar,
    simplify,
    sort_key,
    structural_operand_count,
    substitute,
)

W1, W2 = WcetId("w1"), WcetId("w2")


@pytest.fixture(scope="module")
def forest():
    return gen.formula_forest()


def _nf(text, f):
    return simplify(parse(text), f)


# ---------------------------------------------------------------------------
# Constructors and order
# ---------------------------------------------------------------------------


def test_plus_canonicalization():
    assert plus([]) == CONST_ZERO
    assert plus([W1]) == W1
    assert plus([W1, CONST_ZERO]) == W1
    nested = plus([W1, plus([W2, W1])])
    assert isinstance(nested, Plus) and len(nested.operands) == 3
    assert plus([W2, W1]) == plus([W1, W2])


def test_max_canonicalization():
    assert max_([]) == CONST_ZERO
    assert max_([W1, CONST_ZERO]) == W1
    assert max_([W2, W1]) == max_([W1, W2])
    assert isinstance(max_([W1, W2]), Max)


def test_scalar_units():
    assert scalar(0, W1) == CONST_ZERO
    assert scalar(1, W1) == W1
    assert scalar(2, W1) == Scalar(2, W1)


def formula_size(w):
    """Total node count, operators included."""
    if isinstance(w, (Const, WcetId)):
        return 1
    if isinstance(w, (Plus, Max)):
        return 1 + sum(formula_size(op) for op in w.operands)
    if isinstance(w, (Scalar, Restrict)):
        return 1 + formula_size(w.operand)
    return 1 + formula_size(w.body) + formula_size(w.exit)


def formula_order(a, b):
    """Total syntactic order: -1, 0, or 1."""
    ka, kb = sort_key(a), sort_key(b)
    return -1 if ka < kb else (0 if ka == kb else 1)


def test_sizes():
    w = parse("(+ (* 2 w1) (max w2 (l=TOP,[|3])))")
    assert formula_size(w) == 6
    assert operand_count(w) == 3
    assert [type(n).__name__ for n in symbolic.walk(w)] == [
        "Plus", "Scalar", "WcetId", "Max", "Const", "WcetId"]


def test_queries_walk_deep_power_chain():
    # Each raised RecursionError while the queries recursed.
    w = WcetId("w")
    for _ in range(3000):
        w = Power(w, WcetId("e"), "h", "n")
    assert operand_count(w) == 3001
    assert symbolic._const_valued(w)


def test_formula_order_total():
    rng = random.Random(3)
    pool = [gen.random_formula(rng, depth=2) for _ in range(40)]
    for a in pool:
        for b in pool:
            o = formula_order(a, b)
            assert o in (-1, 0, 1)
            assert o == -formula_order(b, a)
            if o == 0:
                assert a == b


# ---------------------------------------------------------------------------
# Individual rewrite rules (pinned via normal forms)
# ---------------------------------------------------------------------------


def test_plus_const_rule(forest):
    got = _nf("(+ (l=TOP,[|3]) (l=TOP,[|4]) w1)", forest)
    assert got == plus([Const(parse_abstract("(loop=TOP, [|7])")), W1])


def test_max_const_rule(forest):
    got = _nf("(max (l=TOP,[|3]) (l=TOP,[5|0]) w1)", forest)
    assert got == max_([Const(parse_abstract("(loop=TOP, [5|3])")), W1])


def test_mult_merge_rule(forest):
    got = _nf("(+ w1 (* 2 w1) (* 3 w1) w2)", forest)
    assert got == plus([scalar(6, W1), W2])


def test_restrict_merge_symbolic_count(forest):
    got = _nf("(+ (ann w1 h1 k1) (ann w2 h1 k1))", forest)
    assert got == Restrict(plus([W1, W2]), "h1", "k1")
    # Different keys stay apart.
    kept = _nf("(+ (ann w1 h1 k1) (ann w2 h1 k2))", forest)
    assert isinstance(kept, Plus)


def test_restrict_distribute_feeds_fold(forest):
    got = _nf("(ann (+ (l=TOP,[|5]) w1) h1 2)", forest)
    assert got == plus([Const(parse_abstract("(loop=h1, [5,5|0])")),
                        Restrict(W1, "h1", 2)])


def test_restrict_zero_rule(forest):
    assert _nf("(ann (l=TOP,[|0]) h1 k1)", forest) == CONST_ZERO


def test_restrict_fold_rule(forest):
    got = _nf("(ann (l=TOP,[9,8|5]) h2 3)", forest)
    assert got == Const(parse_abstract("(loop=h2, [9,8,5|0])"))
    # A loop name not in the forest: nothing to fold against.
    stuck = _nf("(ann (l=TOP,[9,8|5]) lp1 3)", forest)
    assert isinstance(stuck, Restrict)


def test_scalar_fold_rule(forest):
    assert _nf("(* 2 (l=TOP,[5|1]))", forest) == Const(parse_abstract("(loop=TOP, [10|2])"))
    assert _nf("(* 2 (l=TOP,[|0]))", forest) == CONST_ZERO


def test_scalar_folds_through_restrict_chain(forest):
    got = _nf("(* 3 (ann (l=TOP,[|5]) h1 k1))", forest)
    assert got == Restrict(Const(parse_abstract("(loop=TOP, [|15])")), "h1", "k1")
    deep = _nf("(* 2 (ann (ann (l=TOP,[|5]) lp1 1) h3 k2))", forest)
    assert deep == Restrict(Restrict(Const(parse_abstract("(loop=TOP, [|10])")),
                                     "lp1", 1), "h3", "k2")


def test_scalar_pulled_out_of_restrict(forest):
    got = _nf("(ann (* 3 w1) h1 2)", forest)
    assert got == Scalar(3, Restrict(W1, "h1", 2))


def test_distributivity_rule(forest):
    got = _nf("(max (+ (l=TOP,[|3]) w1) (+ (l=TOP,[|5]) w1))", forest)
    assert got == plus([Const(parse_abstract("(loop=TOP, [|5])")), W1])


def test_distributivity_needs_uniform_residue(forest):
    w = parse("(max (+ (l=TOP,[|3]) (ann w1 TOP k1)) "
              "(+ (l=TOP,[|5]) (ann w1 TOP k1)))")
    # A capped residue is not rank-uniform; factoring the maxima over it
    # would overshoot, so the formula is already in normal form.
    assert simplify(w, forest) == w


def test_power_zero_rule(forest):
    assert _nf("(pow (l=TOP,[|0]) (l=TOP,[|0]) h1 k1)", forest) == CONST_ZERO


def test_power_extract_rule(forest):
    got = _nf("(pow w1 w2 h1 2)", forest)
    assert got == plus([Power(W1, CONST_ZERO, "h1", 2), W2])


def test_power_fold_rule(forest):
    got = _nf("(pow (l=h2,[5,4|3]) (l=TOP,[|0]) h2 2)", forest)
    assert got == Const(parse_abstract("(loop=TOP, [|9])"))
    stuck = _nf("(pow (l=h2,[5,4|3]) (l=TOP,[|0]) lp1 2)", forest)
    assert not isinstance(stuck, Const)


# ---------------------------------------------------------------------------
# Simplification as a whole
# ---------------------------------------------------------------------------


def test_simplify_schedule_independent(forest):
    rng = random.Random(29)
    for i in range(150):
        w = gen.random_formula(rng, depth=3)
        nf = simplify(w, forest)
        assert gen.random_schedule_simplify(w, forest, random.Random(i)) == nf
        assert gen.random_schedule_simplify(
            w, forest, random.Random(i * 7 + 1)) == nf
        assert simplify(nf, forest) == nf  # idempotent


def test_simplify_preserves_value(forest):
    rng = random.Random(43)
    for _ in range(150):
        w = gen.random_formula(rng, depth=3)
        b = gen.random_bindings(rng)
        assert evaluate(simplify(w, forest), b, forest) == evaluate(w, b, forest)


def test_fuel_exhaustion(forest):
    w = parse("(+ (l=TOP,[|3]) (l=TOP,[|4]))")
    with pytest.raises(FuelExhausted):
        simplify(w, forest, fuel=0)


def test_fuel_counts_rewrite_steps(forest):
    # scalar-fold inside, then plus-const at the root: two steps.
    w = parse("(+ (l=TOP,[|3]) (l=TOP,[|4]) (* 2 (l=TOP,[|1])))")
    with pytest.raises(FuelExhausted):
        simplify(w, forest, fuel=1)
    assert simplify(w, forest, fuel=2) == parse("(l=TOP,[|9])")


def _symbolic_scaling_doc(sections):
    doc = gen.scaling_doc(sections)
    for i, h in enumerate(sorted(doc["loop_bounds"])):
        if i % 2:
            doc["loop_bounds"][h] = f"n{i}"
    return doc


def test_innermost_matches_random_schedules_on_documents():
    # The innermost normaliser against the random-site reference schedule,
    # on the formulas the pipeline builds: the symbolic chain and a
    # frozen-seed corpus, folded and unfolded.
    rng = random.Random(31)
    docs = [_symbolic_scaling_doc(40)]
    for i in range(120):
        doc = gen.random_doc(rng, symbolic_bounds=True)
        docs.append(gen.annotate_doc(rng, doc) if i % 2 else doc)
    for i, doc in enumerate(docs):
        a = analyze_text(json.dumps(doc))
        for fold in (True, False):
            raw = gamma_symbolic(a.tree, a.forest, fold_concrete=fold)
            nf = simplify(raw, a.forest)
            assert gen.random_schedule_simplify(
                raw, a.forest, random.Random(i)) == nf, doc
            assert simplify(nf, a.forest) is nf


def _header_named_identifiers(rng, doc):
    """Some costs and symbolic bounds of doc renamed after its loop
    headers (or other blocks), the rest left as they are."""
    ids = sorted(doc["loop_bounds"]) or [b["id"] for b in doc["blocks"]]
    for block in doc["blocks"]:
        if rng.random() < 0.2:
            block["wcet"] = rng.choice(ids)
    for h, bound in doc["loop_bounds"].items():
        if isinstance(bound, str) and rng.random() < 0.5:
            doc["loop_bounds"][h] = rng.choice(ids)
    return doc


def test_documents_build_only_named_loops_and_integer_coefficients():
    # The formula language as documents produce it: folded, unfolded and
    # simplified, every loop position is TOP or a header of the forest and
    # every coefficient an integer, also where costs and counts are named
    # like the headers.
    rng = random.Random(73)
    docs = [_symbolic_scaling_doc(20), gen.triangular_doc(),
            gen.persistence_doc(bound="n"), gen.dowhile_nest_doc(3, "n")]
    for i in range(400):
        doc = gen.random_doc(rng, symbolic_bounds=True)
        doc = gen.annotate_doc(rng, doc) if i % 2 else doc
        doc = (_header_named_identifiers(rng, doc) if i % 3
               else _symbolic_costs(doc, rng))
        docs.append(doc)
    seen = {"TOP": 0, "header": 0, "scalar": 0, "named": 0}
    for doc in docs:
        a = analyze_text(json.dumps(doc))
        raw = gamma_symbolic(a.tree, a.forest)
        unfolded = gamma_symbolic(a.tree, a.forest, fold_concrete=False)
        costs, counts = identifiers(unfolded)
        seen["named"] += bool((costs | counts) & set(a.forest.loops))
        for w in (raw, unfolded, simplify(raw, a.forest),
                  simplify(unfolded, a.forest)):
            for node in symbolic.walk(w):
                if isinstance(node, (Power, Restrict)):
                    name = node.header if isinstance(node, Power) else node.loop
                    assert type(name) is str, render(w)
                    if name == "TOP":
                        seen["TOP"] += 1
                    else:
                        assert name in a.forest.loops, render(w)
                        seen["header"] += 1
                elif isinstance(node, Scalar):
                    assert type(node.coeff) is int and node.coeff >= 2
                    seen["scalar"] += 1
    assert min(seen.values()) >= 100, seen


def _pairwise_scan(values, f, op):
    """Reference merge in another order: combine the first two values,
    append the result, and repeat until one is left."""
    vals = list(values)
    while len(vals) > 1:
        a, b, *rest = vals
        vals = rest + [abstract(loop_meet(a.loop, b.loop, f),
                                op(a.seq, b.seq))]
    return vals[0] if vals else ZERO


def test_merge_values_matches_pairwise_scan(forest):
    # The rewrite rules fold constants left to right through the awcet
    # operators; any other pairing must give the same value.
    rng = random.Random(37)
    for _ in range(400):
        values = [gen.random_const(rng).value
                  for _ in range(rng.randint(0, 8))]
        if values and rng.random() < 0.2:
            values[0] = abstract(BOT, values[0].seq)
        for op, seq_op in ((plus_abstract, ms_ranksum),
                           (max_abstract, ms_merge)):
            assert (fold(values, op, forest)
                    == _pairwise_scan(values, forest, seq_op)), values


def _wrapped(table, wrap):
    """The rule table with every rule replaced by wrap(rule)."""
    return {cls: tuple(wrap(r) for r in rules) for cls, rules in table.items()}


def test_simplify_rule_calls_linear_on_chain(monkeypatch):
    # Work count, not time: each distinct node and each rewrite step tries
    # the rules about once.  Recomputing every site after each step costs
    # steps x nodes calls here (about 80 x 1000, unfolded 500 x 1500).
    a = analyze_text(json.dumps(_symbolic_scaling_doc(500)))
    rules = symbolic._RULES
    n_rules = sum(len(r) for r in rules.values())
    for fold in (True, False):
        w = gamma_symbolic(a.tree, a.forest, fold_concrete=fold)
        calls = steps = 0

        def counted(rule):
            def call(node, f):
                nonlocal calls, steps
                calls += 1
                new = rule(node, f)
                steps += new is not None and new != node
                return new
            return call

        monkeypatch.setattr(symbolic, "_RULES", _wrapped(rules, counted))
        simplify(w, a.forest)
        assert steps > 50
        assert calls <= 2 * n_rules * (formula_size(w) + steps)


def _nodes(w):
    """Every node of w, w itself included."""
    out, stack = [], [w]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(symbolic._children(node))
    return out


@pytest.fixture(scope="module")
def random_nodes():
    rng = random.Random(59)
    return [n for _ in range(3000)
            for n in _nodes(gen.random_formula(rng, depth=3))]


def test_rule_table_holds_each_rule_once_under_its_class(random_nodes):
    # Every rule is listed once, under one node class; leaves have no rules.
    table = symbolic._RULES
    assert set(table) == {Plus, Max, Scalar, Power, Restrict}
    listed = [rule for rules in table.values() for rule in rules]
    defined = {v for k, v in vars(symbolic).items() if k.startswith("_rule_")}
    assert len(listed) == len(set(listed)) == len(defined) == 13
    assert set(listed) == defined
    assert {type(n) for n in random_nodes} == {Const, WcetId, *table}


def test_rules_fire_only_on_their_node_class(forest, random_nodes,
                                             monkeypatch):
    # Rules do not test their node's class: rewriting must only ever call
    # a rule on nodes of the class it is listed under.
    home = {rule: cls for cls, rules in symbolic._RULES.items()
            for rule in rules}
    seen = []

    def recorded(rule):
        def call(node, f):
            seen.append((rule, type(node)))
            new = rule(node, f)
            assert new is None or isinstance(new, symbolic.Formula), \
                (rule.__name__, render(node))
            return new
        return call

    monkeypatch.setattr(symbolic, "_RULES",
                        _wrapped(symbolic._RULES, recorded))
    for node in random_nodes:
        symbolic._rewrite(node, forest)
    for node in random_nodes[::50]:
        simplify(node, forest)
    assert {rule for rule, _ in seen} == set(home)
    for rule, cls in seen:
        assert cls is home[rule], rule.__name__


# The thirteen rules in the one global order they were once scanned in.
_SCAN_ORDER = (
    "plus_const", "max_const", "mult_merge", "restrict_merge",
    "restrict_distribute", "distributivity", "restrict_zero",
    "restrict_fold", "scalar_fold", "scalar_restrict", "power_zero",
    "power_extract", "power_fold",
)


def _reference_rewrite(w, f):
    """Rewrite by a scan of every rule in `_SCAN_ORDER`, each tried on the
    nodes of its own class only."""
    home = {rule: cls for cls, rules in symbolic._RULES.items()
            for rule in rules}
    for name in _SCAN_ORDER:
        rule = getattr(symbolic, f"_rule_{name}")
        if type(w) is not home[rule]:
            continue
        new = rule(w, f)
        if new is not None and new != w:
            return new
    return None


def test_rewrite_matches_full_scan(forest, random_nodes):
    # The class-keyed table keeps, within each class, the order of the
    # global scan, so the first rule to fire is the same one.
    fired = 0
    for node in random_nodes:
        want = _reference_rewrite(node, forest)
        assert symbolic._rewrite(node, forest) == want, render(node)
        fired += want is not None
    assert fired > 1000


# ---------------------------------------------------------------------------
# Symbolic tree evaluation
# ---------------------------------------------------------------------------


def test_gamma_symbolic_concrete_tree_folds():
    a = analyze_text(json.dumps(gen.running_example_doc()))
    w = gamma_symbolic(a.tree, a.forest)
    assert w == Const(gamma(a.tree, a.forest))
    assert w == Const(parse_abstract("(loop=TOP, [|60])"))
    # Differential gate: the constant fold and the rewrite system both land
    # on gamma's value, annotated documents included.
    rng = random.Random(11)
    for i in range(300):
        doc = gen.random_doc(rng)
        if i % 2:
            doc = gen.annotate_doc(rng, doc)
        a = analyze_text(json.dumps(doc))
        expected = Const(gamma(a.tree, a.forest))
        assert gamma_symbolic(a.tree, a.forest) == expected, doc
        raw = gamma_symbolic(a.tree, a.forest, fold_concrete=False)
        assert simplify(raw, a.forest) == expected, doc


def test_gamma_symbolic_unfolded_still_folds_by_rewriting():
    a = analyze_text(json.dumps(gen.running_example_doc()))
    w = gamma_symbolic(a.tree, a.forest, fold_concrete=False)
    assert operand_count(w) > 1
    assert simplify(w, a.forest) == Const(gamma(a.tree, a.forest))


def test_gamma_symbolic_running_example_parametric():
    a = analyze_text(json.dumps(gen.running_example_doc(inner_bound=None)))
    w = simplify(gamma_symbolic(a.tree, a.forest), a.forest)
    assert free_identifiers(w, a.forest) == {"x_b2"}
    assert operand_count(w) == 7
    got = evaluate(w, {"x_b2": 2}, a.forest)
    assert got == parse_abstract("(loop=TOP, [|60])")


def test_gamma_symbolic_triangular_pinned():
    a = analyze_text(json.dumps(gen.triangular_doc()))
    w = simplify(gamma_symbolic(a.tree, a.forest), a.forest)
    assert render(w) == "(+ (l=TOP,[|4]) (pow (l=o,[105^5|70]) (l=TOP,[|0]) o n))"
    # The expanded spelling of the same ranking still parses.
    assert parse("(+ (l=TOP,[|4]) (pow (l=o,[105,105,105,105,105|70])"
                 " (l=TOP,[|0]) o n))") == w
    assert operand_count(w) == 3
    for n in (1, 3, 5, 10):
        concrete = analyze_text(json.dumps(gen.triangular_doc(outer_bound=n)))
        assert evaluate(w, {"n": n}, a.forest) == gamma(concrete.tree,
                                                        concrete.forest)


def test_build_fold_leaves_one_constant(forest):
    sym = cft.Leaf("b", "w1")
    t = cft.Seq((cft.Leaf("a", 3), sym, cft.Leaf("c", 4)))
    w = gamma_symbolic(t, forest)
    assert isinstance(w, Plus)
    assert w.operands == (Const(abstract(TOP, const_seq(7))), W1)
    w = gamma_symbolic(cft.Alt((cft.Leaf("a", 3), sym, cft.Leaf("c", 4))),
                       forest)
    assert isinstance(w, Max)
    assert w.operands == (Const(abstract(TOP, const_seq(4))), W1)
    # Unfolded, every leaf stays an operand.
    assert operand_count(gamma_symbolic(t, forest, fold_concrete=False)) == 3


def _random_tree(rng, depth):
    """A random tree with cost-0 leaves, empty Seqs and annotations whose
    cap is an integer or an identifier."""
    ann = rng.choice([None, None, cft.Annotation(TOP, 2),
                      cft.Annotation(TOP, "k")])
    if depth == 0 or rng.random() < 0.3:
        return cft.Leaf("b", rng.choice([0, 0, 3, "w1"]), ann)
    kind = rng.randrange(3)
    if kind == 0:
        kids = tuple(_random_tree(rng, depth - 1)
                     for _ in range(rng.randrange(4)))
        return cft.Seq(kids, ann)
    if kind == 1:
        kids = tuple(_random_tree(rng, depth - 1)
                     for _ in range(rng.randint(2, 3)))
        return cft.Alt(kids, ann)
    return cft.Loop("h", _random_tree(rng, depth - 1), rng.choice([2, "n"]),
                    _random_tree(rng, depth - 1), ann)


def test_structural_operand_count_matches_unfolded_formula(forest):
    rng = random.Random(67)
    zeros = empty_seqs = 0
    for _ in range(2000):
        t = _random_tree(rng, 4)
        want = operand_count(gamma_symbolic(t, forest, fold_concrete=False))
        assert structural_operand_count(t) == want, t
        for n in cft.subtrees(t):
            zeros += isinstance(n, cft.Leaf) and n.wcet == 0
            empty_seqs += isinstance(n, cft.Seq) and not n.children
    assert zeros >= 500 and empty_seqs >= 200
    docs = [gen.running_example_doc(), gen.persistence_doc(),
            gen.triangular_doc(), gen.scaling_doc(20)]
    for i in range(300):
        doc = gen.random_doc(rng)
        docs.append(gen.annotate_doc(rng, doc) if i % 2 else doc)
    for doc in docs:
        a = analyze_text(json.dumps(doc))
        raw = gamma_symbolic(a.tree, a.forest, fold_concrete=False)
        assert structural_operand_count(a.tree) == operand_count(raw), doc


def _reference_gamma_symbolic(t, f):
    """`gamma_symbolic` without the build fold of Seq and Alt constants."""

    def build(node):
        kids = [build(c) for c in cft.child_nodes(node)]
        if isinstance(node, cft.Leaf):
            base = (WcetId(node.wcet) if isinstance(node.wcet, str)
                    else Const(node_value(node, [], f)))
        elif all(isinstance(k, Const) for k in kids) and (
                not isinstance(node, cft.Loop) or isinstance(node.bound, int)):
            base = Const(node_value(node, [k.value for k in kids], f))
        elif isinstance(node, cft.Alt):
            base = max_(kids)
        elif isinstance(node, cft.Seq):
            base = plus(kids)
        else:
            base = Power(kids[0], kids[1], node.header, node.bound)
        ann = node.annotation
        if ann is not None:
            if isinstance(base, Const) and isinstance(ann.max, int):
                base = Const(restrict_abstract(base.value, ann.loop,
                                               ann.max, f))
            else:
                base = Restrict(base, str(ann.loop), ann.max)
        return base

    return build(t)


def _symbolic_costs(doc, rng):
    for block in doc["blocks"]:
        if rng.random() < 0.3:
            block["wcet"] = rng.choice(("w1", "w2", "w3"))
    return doc


def _bindings(w, f, k):
    costs, counts = identifiers(w)
    out = {c: abstract(TOP, const_seq(k + i % 4))
           for i, c in enumerate(sorted(costs))}
    out.update({c: k + i % 3 for i, c in enumerate(sorted(counts))})
    return out


def test_build_fold_matches_reference_on_frozen_corpus(monkeypatch):
    # The build fold applies plus-const and max-const early; the rewrite
    # system is confluent, so the normal form is the reference's, and the
    # rewrite steps it saves are never more than it spends.
    rng = random.Random(61)
    docs = [_symbolic_scaling_doc(40),
            gen.running_example_doc(inner_bound=None), gen.triangular_doc()]
    for i in range(160):
        doc = gen.random_doc(rng, symbolic_bounds=True)
        doc = gen.annotate_doc(rng, doc) if i % 2 else doc
        docs.append(_symbolic_costs(doc, rng))
    steps = 0

    def counted(rule):
        def call(node, f):
            nonlocal steps
            new = rule(node, f)
            steps += new is not None and new != node
            return new
        return call

    monkeypatch.setattr(symbolic, "_RULES",
                        _wrapped(symbolic._RULES, counted))
    fewer = 0
    for doc in docs:
        a = analyze_text(json.dumps(doc))
        ref = _reference_gamma_symbolic(a.tree, a.forest)
        raw = gamma_symbolic(a.tree, a.forest)
        steps = 0
        ref_nf = simplify(ref, a.forest)
        ref_steps, steps = steps, 0
        nf = simplify(raw, a.forest)
        assert render(nf) == render(ref_nf), doc
        assert steps <= ref_steps, doc
        fewer += steps < ref_steps
        for k in (1, 4, 9):
            b = _bindings(raw, a.forest, k)
            assert evaluate(raw, b, a.forest) == evaluate(nf, b, a.forest), doc
    assert fewer >= 50  # 70 of the 163 documents


# ---------------------------------------------------------------------------
# Substitution, evaluation, free identifiers
# ---------------------------------------------------------------------------


def test_substitute_partial(forest):
    w = parse("(+ w1 (pow w2 (l=TOP,[|0]) h1 k1))")
    out = substitute(w, {"w1": abstract(TOP, parse_seq("[|4]")), "k1": 2})
    assert free_identifiers(out, forest) == {"w2"}
    done = substitute(out, {"w2": abstract(TOP, parse_seq("[|1]"))})
    assert evaluate(done, {}, forest) == parse_abstract("(loop=TOP, [|6])")


def test_substitute_type_errors():
    with pytest.raises(TypeMismatch):
        substitute(W1, {"w1": 5})
    with pytest.raises(TypeMismatch):
        substitute(Restrict(W1, "h1", "k1"), {"k1": -2})


def test_evaluate_requires_bindings(forest):
    with pytest.raises(UnboundIdentifier):
        evaluate(W1, {}, forest)
    with pytest.raises(UnboundIdentifier):
        evaluate(Restrict(CONST_ZERO, "h1", "k1"), {}, forest)
    with pytest.raises(UnboundIdentifier):
        evaluate(Power(CONST_ZERO, CONST_ZERO, "h1", "k1"), {}, forest)


_V5 = abstract(TOP, const_seq(5))

# (case, formula text, bindings, exception class, exact message).  Each
# node checks its own positions in a fixed order, so where two positions
# are wrong the first check's error is the one raised.
EVALUATE_ERRORS = [
    ("unbound cost", "w1", {},
     UnboundIdentifier, "no binding for WCET identifier 'w1'"),
    ("cost bound to an integer", "w1", {"w1": 5},
     TypeMismatch, "WCET identifier 'w1' must bind an abstract WCET, got 5"),
    ("unbound count", "(ann w1 h1 k1)", {"w1": _V5},
     UnboundIdentifier, "no binding for integer identifier 'k1'"),
    ("count bound to a string", "(pow w1 (l=TOP,[|0]) h1 k1)",
     {"k1": "h1", "w1": _V5},
     TypeMismatch, "'k1' must bind a non-negative integer, got 'h1'"),
    ("count bound to True", "(ann w1 TOP k1)", {"k1": True, "w1": _V5},
     TypeMismatch, "'k1' must bind a non-negative integer, got True"),
    ("count bound to -1", "(pow w1 (l=TOP,[|0]) h1 k1)",
     {"k1": -1, "w1": _V5},
     TypeMismatch, "'k1' must bind a non-negative integer, got -1"),
    # A binding named like a loop position is not read for it.
    ("pow header bound to an integer", "(pow w1 (l=TOP,[|0]) lp1 2)",
     {"lp1": 3, "w1": _V5},
     UnknownBlock, "loop 'lp1' is neither TOP nor a loop header"),
    ("pow: header before count", "(pow w1 (l=TOP,[|0]) lp1 k1)",
     {"lp1": "h1", "k1": -1},
     UnknownBlock, "loop 'lp1' is neither TOP nor a loop header"),
    ("pow: count before body", "(pow w1 (l=TOP,[|0]) h1 k1)", {"k1": True},
     TypeMismatch, "'k1' must bind a non-negative integer, got True"),
    ("pow: body before exit", "(pow w1 w2 h1 2)", {},
     UnboundIdentifier, "no binding for WCET identifier 'w1'"),
    ("ann: loop before count", "(ann w1 lp1 k1)", {"lp1": "h1", "k1": -1},
     UnknownBlock, "loop 'lp1' is neither TOP nor a loop header"),
    ("ann: operand before count", "(ann w1 h1 k1)", {"k1": "x"},
     UnboundIdentifier, "no binding for WCET identifier 'w1'"),
    ("ann count bound to a string", "(ann w1 h1 k1)", {"k1": "x", "w1": _V5},
     TypeMismatch, "'k1' must bind a non-negative integer, got 'x'"),
    ("plus: operands in order", "(+ w1 w2)", {"w2": 1},
     UnboundIdentifier, "no binding for WCET identifier 'w1'"),
    ("max: operands in order", "(max w1 w2)", {"w1": _V5},
     UnboundIdentifier, "no binding for WCET identifier 'w2'"),
]


@pytest.mark.parametrize("case, text, bindings, exc, message", EVALUATE_ERRORS,
                         ids=[c[0] for c in EVALUATE_ERRORS])
def test_evaluate_error_order_pinned(forest, case, text, bindings, exc,
                                     message):
    with pytest.raises(exc) as info:
        evaluate(parse(text), bindings, forest)
    assert type(info.value) is exc and str(info.value) == message


def test_evaluate_refuses_a_loop_not_in_the_forest(forest):
    # A loop position names a loop: TOP or a header of the forest.  Any
    # other name is refused before the count and the operands, whatever the
    # bindings hold, and substitution leaves it as it is.
    full = {"w1": _V5, "k1": 2}
    for text in ("(ann w1 lp1 k1)", "(pow w1 (l=TOP,[|0]) lp1 k1)",
                 "(ann w1 BOT k1)"):
        w = parse(text)
        assert identifiers(w) == ({"w1"}, {"k1"})
        for bindings in ({}, {**full, "lp1": "h1", "BOT": "h1"}):
            with pytest.raises(UnknownBlock) as info:
                evaluate(w, bindings, forest)
            name = "BOT" if "BOT" in text else "lp1"
            assert str(info.value) == \
                f"loop {name!r} is neither TOP nor a loop header"
        assert substitute(w, {**full, "lp1": "h1"}) == parse(
            text.replace("w1", render(Const(_V5))).replace("k1", "2"))
    # TOP is a loop position in either node.
    assert evaluate(parse("(ann w1 TOP k1)"), full, forest) == \
        parse_abstract("(loop=TOP, [5,5|0])")
    assert evaluate(parse("(pow w1 (l=TOP,[|0]) TOP k1)"), full, forest) == \
        parse_abstract("(loop=TOP, [|10])")


def test_binding_named_like_a_header_renames_nothing(forest):
    # A cost or count named like a loop header leaves the header alone.
    w = parse("(+ h1 (pow (l=h1,[|2]) (l=TOP,[|0]) h1 h2) (ann h1 h1 1))")
    assert identifiers(w) == ({"h1"}, {"h2"})
    bindings = {"h1": abstract(TOP, const_seq(3)), "h2": 4}
    want = parse("(+ (l=TOP,[|3]) (pow (l=h1,[|2]) (l=TOP,[|0]) h1 4) "
                 "(ann (l=TOP,[|3]) h1 1))")
    assert substitute(w, bindings) == want
    assert evaluate(w, bindings, forest) == evaluate(want, {}, forest) == \
        parse_abstract("(loop=h1, [14|11])")


def test_cost_bound_to_a_ranking_with_a_prefix_is_refused(forest):
    # Distributivity factors maxima over a residue it takes for
    # rank-uniform; a cost bound to [9|1] would break that.  Raw, this
    # formula evaluates to [26|12], and its normal form to [|20].
    w = parse("(pow (max (+ (l=TOP,[|5]) w) (+ (l=TOP,[|3]) w)) "
              "(l=TOP,[|0]) h1 2)")
    nf = simplify(w, forest)
    assert nf == parse("(pow (+ (l=TOP,[|5]) w) (l=TOP,[|0]) h1 2)")
    bad = abstract(TOP, parse_seq("[9|1]"))
    message = ("WCET identifier 'w' must bind a rank-uniform abstract WCET, "
               "got (loop=TOP, [9|1])")
    for call in (lambda x: evaluate(x, {"w": bad}, forest),
                 lambda x: substitute(x, {"w": bad})):
        for formula in (w, nf):
            with pytest.raises(TypeMismatch) as info:
                call(formula)
            assert str(info.value) == message
    good = {"w": abstract(TOP, const_seq(9))}
    assert evaluate(w, good, forest) == evaluate(nf, good, forest)


def test_evaluate_refuses_non_formulas(forest):
    with pytest.raises(TypeError, match="not a formula"):
        evaluate(("w1",), {}, forest)


def _outcome(evaluator, w, bindings, f):
    try:
        return evaluator(w, bindings, f)
    except Exception as exc:  # compared by class and message
        return type(exc), str(exc)


_WRONG_VALUES = (5, -1, True, None, "h1", "3", _V5)


def test_evaluate_matches_reference_on_random_formulas(forest):
    # Constants read in place and integer counts read without a call must
    # give the reference's values, and its errors in the same order, for
    # complete bindings, bindings with one identifier missing, and
    # bindings with one or two identifiers bound to a wrong value.
    rng = random.Random(17)
    kinds = {"complete": 0, "missing": 0, "wrong": 0}
    errors = 0
    for _ in range(5000):
        w = gen.random_formula(rng)
        complete = gen.random_bindings(rng)
        free = sorted(free_identifiers(w, forest))
        cases = [("complete", complete)]
        if free:
            missing = dict(complete)
            del missing[rng.choice(free)]
            wrong = dict(complete)
            for name in rng.sample(free, min(len(free), rng.randint(1, 2))):
                wrong[name] = rng.choice(_WRONG_VALUES)
            cases += [("missing", missing), ("wrong", wrong)]
        for kind, bindings in cases:
            got = _outcome(evaluate, w, bindings, forest)
            want = _outcome(gen.reference_evaluate, w, bindings, forest)
            assert got == want and type(got) is type(want), (render(w), kind)
            kinds[kind] += 1
            errors += type(want) is tuple
    assert kinds["missing"] >= 3000 and errors >= 4000, (kinds, errors)


def test_evaluate_matches_reference_on_chain_formulas(forest):
    # Loops over constant rankings folded as integers must give the
    # reference's values, and its errors in the same order, whichever
    # operands fall back to the general path.  `symbolic._sum_or_max`
    # binds `t` for each loop it folds as an integer term, also before a
    # later term fails and the node falls back; the loop makes no call to
    # count, so its frames are traced.
    code = symbolic._sum_or_max.__code__
    folded = 0

    def on_return(frame, event, arg):
        nonlocal folded
        if event == "return":
            folded += "t" in frame.f_locals
        return on_return

    def trace(frame, event, arg):
        if frame.f_code is not code:
            return None
        frame.f_trace_lines = False
        return on_return

    rng = random.Random(29)
    taken = errors = 0
    previous = sys.gettrace()
    for _ in range(5000):
        w, bindings = gen.random_chain_formula(rng)
        before = folded
        sys.settrace(trace)
        got = _outcome(evaluate, w, bindings, forest)  # raises nothing
        sys.settrace(previous)
        want = _outcome(gen.reference_evaluate, w, bindings, forest)
        assert got == want and type(got) is type(want), (render(w), bindings)
        taken += folded > before
        errors += type(want) is tuple
    assert taken >= 3000 and errors >= 1000, (taken, errors)


def test_evaluate_folds_clean_chain_formulas_without_a_loop_call(
        forest, monkeypatch):
    def refuse(*args):
        raise AssertionError("loop_abstract called")

    rng = random.Random(31)
    cases = [gen.random_chain_formula(rng, clean=True) for _ in range(500)]
    want = [gen.reference_evaluate(w, b, forest) for w, b in cases]
    monkeypatch.setattr(symbolic, "loop_abstract", refuse)
    assert [evaluate(w, b, forest) for w, b in cases] == want


def _is_term(op) -> bool:
    # An operand that a sum or maximum carries as an integer term: a loop
    # over prefix-free constants with an identifier or a non-negative count.
    return (type(op) is Power and type(op.body) is Const
            and type(op.exit) is Const
            and op.body.value.seq.prefix == () == op.exit.value.seq.prefix
            and (isinstance(op.count, str) or op.count >= 0))


def _reference_terms(w: Plus | Max) -> tuple[tuple, tuple]:
    # (terms, others) of a sum or maximum, derived from its operands.
    terms, others = [], []
    for op in w.operands:
        if not _is_term(op):
            others.append(op)
            continue
        body, exit_ = op.body.value, op.exit.value
        inner = (None if body.loop in (exit_.loop, loop_ref(op.header))
                 else body.loop)
        terms.append((op.header, op.count, body.seq.tail, exit_.seq.tail,
                      exit_.loop, inner))
    return tuple(terms), tuple(others)


def _check_terms(w) -> int:
    nodes = [n for n in symbolic.walk(w) if type(n) in (Plus, Max)]
    for n in nodes:
        assert (n.terms, n.others) == _reference_terms(n), render(n)
    return sum(len(n.terms) for n in nodes)


def _alike(a, b) -> None:
    assert a == b and hash(a) == hash(b), (render(a), render(b))
    assert render(a) == render(b) and sort_key(a) == sort_key(b)
    assert repr(a) == repr(b)


def test_terms_match_their_operands_on_every_route(forest):
    # Whichever way a sum or maximum is built, its terms are those of its
    # operands, and they take no part in equality, hash, text or order.
    rng = random.Random(41)
    partial = {"k1": 2, "w1": abstract(TOP, const_seq(4))}
    terms = 0
    for i in range(1000):
        if i % 2:
            w = gen.random_formula(rng)  # built by plus, max_, scalar
        else:
            w = gen.random_chain_formula(rng)[0]  # a direct Plus or Max
        canonical = substitute(w, {})
        built = [w, canonical, substitute(w, partial), parse(render(w)),
                 dataclasses.replace(w)]
        if type(w) in (Plus, Max):
            make = plus if type(w) is Plus else max_
            built += [type(w)(w.operands), make(w.operands),
                      dataclasses.replace(w, operands=w.operands[::-1])]
            _alike(type(w)(w.operands), w)
            _alike(make(w.operands), canonical)
        for x in built:
            terms += _check_terms(x)
        _alike(dataclasses.replace(w), w)
        _alike(parse(render(w)), canonical)
        _alike(parse(render(canonical)), canonical)
    assert terms >= 2000, terms


def test_term_step_is_the_loop_rule_of_loop_abstract(forest):
    # A sum or maximum of one loop over prefix-free constants takes its
    # value from the term's inline `count * body + exit` step, which must
    # equal `awcet.loop_abstract`'s and the rule as stated: per the exit's
    # loop when run zero times or when the body is ranked per this loop
    # or per the exit's loop, else per the meet of the two.
    rng = random.Random(43)
    loops = (TOP, loop_ref("h1"), loop_ref("h2"), loop_ref("h3"))
    seen = {"zero count": 0, "per this loop": 0, "per TOP": 0, "met": 0,
            "met to BOT": 0, "zero tail": 0}
    for _ in range(3000):
        header = rng.choice(("h1", "h2", "h3"))
        body = abstract(rng.choice(loops + (loop_ref(header),)),
                        const_seq(rng.choice((0, rng.randint(1, 9)))))
        exit_ = abstract(rng.choice(loops),
                         const_seq(rng.choice((0, rng.randint(1, 9)))))
        count = rng.choice((0, 1, 2, 3, 10**9))
        tail = count * body.seq.tail + exit_.seq.tail
        at = exit_.loop
        if count and body.loop not in (exit_.loop, loop_ref(header)):
            at = loop_meet(body.loop, at, forest)
            seen["met"] += 1
            seen["met to BOT"] += at == BOT
        rule = abstract(at, const_seq(tail))
        assert loop_abstract(header, count, body, exit_, forest) == rule
        seen["zero count"] += not count
        seen["per this loop"] += body.loop == loop_ref(header)
        seen["per TOP"] += body.loop == TOP
        seen["zero tail"] += not tail
        loop = Power(Const(body), Const(exit_), header,
                     rng.choice((count, "k")))
        for cls in (Plus, Max):
            node = cls((loop,))
            assert len(node.terms) == 1 and node.others == ()
            assert evaluate(node, {"k": count}, forest) == rule
    assert min(seen.values()) >= 50, seen


def _profiled_calls(fn) -> int:
    # Python and C function calls made while fn runs.
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_sum_of_passing_terms_makes_no_call_per_term(forest):
    # Loops over constants whose counts bind and whose headers are loops
    # of the forest cost no call each: evaluating 3 or 60 of them in one
    # sum or maximum makes as many calls.
    def chain(cls, n):
        ops, bindings = [Const(abstract(TOP, const_seq(7)))], {}
        for i in range(n):
            header = ("h1", "h2", "h3")[i % 3]
            body = abstract((TOP, loop_ref(header))[i % 2],
                            const_seq(i % 5 + 1))
            count = i % 4 if i % 3 else f"k{i}"
            bindings[f"k{i}"] = i % 5
            ops.append(Power(Const(body), Const(abstract(TOP, const_seq(
                i % 3))), header, count))
        return cls(tuple(ops)), bindings

    for cls in (Plus, Max):
        counts = []
        for n in (3, 60):
            w, bindings = chain(cls, n)
            assert len(w.terms) == n
            assert evaluate(w, bindings, forest) == gen.reference_evaluate(
                w, bindings, forest)
            counts.append(_profiled_calls(
                lambda: evaluate(w, bindings, forest)))
        assert counts[0] == counts[1], (cls.__name__, counts)


def test_loop_run_zero_times_evaluates_as_its_normal_form(forest):
    # A loop run zero times is its exit, as power-extract's normal form
    # `(w1,0,b)^0 + w2` has it: the body's loop is not met into the value.
    for text in ("(pow (l=h2,[|2]) (l=TOP,[|3]) h1 k1)",
                 "(pow (l=h2,[4|2]) (l=TOP,[|3]) h1 k1)",
                 "(+ (l=TOP,[|1]) (pow (l=h2,[|2]) (l=TOP,[|3]) h1 k1))"):
        w = parse(text)
        for k in (0, 1, 2):
            assert evaluate(w, {"k1": k}, forest) == evaluate(
                simplify(w, forest), {"k1": k}, forest), (text, k)
        assert evaluate(w, {"k1": 0}, forest).loop == TOP


def test_free_identifiers_classification(forest):
    w = parse("(+ w1 (* 2 (ann w2 lp1 k2)) (pow w3 (l=TOP,[|0]) h1 k1))")
    assert identifiers(w) == ({"w1", "w2", "w3"}, {"k1", "k2"})
    assert free_identifiers(w, forest) == {"w1", "w2", "w3", "k1", "k2"}


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------


def test_parse_render_roundtrip_random():
    rng = random.Random(97)
    for _ in range(200):
        w = gen.random_formula(rng, depth=3)
        assert parse(render(w)) == w


def test_parse_errors():
    for bad in ["(?? w1)", "(+ w1", "(* 2 w1) trailing", "(ann w1 TOP)",
                ")", "(ann a ) 3)", "(* -1 x)"]:
        with pytest.raises(ValueError):
            parse(bad)


def test_parse_refuses_symbolic_coefficients_and_integer_headers():
    # A coefficient is an integer and a loop header a name.
    for bad, message in [
            ("(* k1 w1)", "'k1' is not an integer"),
            ("(* h1 (l=TOP,[|1]))", "'h1' is not an integer"),
            ("(pow w1 (l=TOP,[|0]) 3 k1)", "'3' is not an identifier"),
            ("(pow w1 (l=TOP,[|0]) 0 2)", "'0' is not an identifier"),
            ("(ann w1 3 2)", "'3' is not an identifier")]:
        with pytest.raises(ValueError) as info:
            parse(bad)
        assert str(info.value) == message, bad
