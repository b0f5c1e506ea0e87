"""Cost-ranking multiset algebra and abstract tree evaluation."""

from __future__ import annotations

import json
import random
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import generators as gen
from generators import make_seq, parse_abstract
from symwcet.awcet import (
    ZERO,
    ZERO_SEQ,
    AbstractWcet,
    WcetSeq,
    abstract,
    const_seq,
    eval_seq,
    fold,
    gamma,
    loop_abstract,
    max_abstract,
    ms_group,
    ms_index,
    ms_merge,
    ms_ranksum,
    ms_restrict,
    ms_scalar,
    parse_seq,
    plus_abstract,
    restrict_abstract,
    scalar_abstract,
)
from symwcet import cft, symbolic
from symwcet.cfg import (BOT, TOP, build_loop_forest, loop_meet, loop_ref,
                         parse_program)
from symwcet.errors import IncomparableLoops, NotMultiple, SymbolicValuePresent
from symwcet.restructure import build_cft

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None)

seqs = st.builds(
    make_seq,
    st.lists(st.integers(min_value=0, max_value=60), max_size=6),
    st.integers(min_value=0, max_value=25),
)

# Costs from a narrow range, so equal costs (runs of multiplicity > 1) are
# the rule rather than the exception.
run_seqs = st.builds(
    make_seq,
    st.lists(st.integers(min_value=0, max_value=6), max_size=14),
    st.integers(min_value=0, max_value=4),
)


@pytest.fixture(scope="module")
def fig2():
    p = parse_program(json.dumps(gen.running_example_doc()))
    f = build_loop_forest(p.cfg, p.loop_bounds)
    t, _ = build_cft(p.cfg, f)
    return t, f


# ---------------------------------------------------------------------------
# Sequences
# ---------------------------------------------------------------------------


def test_make_seq_canonicalizes():
    s = make_seq([2, 5, 4, 1, 1], 1)
    assert s == WcetSeq(((5, 1), (4, 1), (2, 1)), 1)
    assert str(s) == "[5,4,2|1]"
    t = make_seq([7, 3, 7, 7, 2, 3], 2)
    assert t == WcetSeq(((7, 3), (3, 2)), 2)
    assert str(t) == "[7^3,3^2|2]"


def test_raw_constructor_enforces_shape():
    with pytest.raises(AssertionError):
        WcetSeq(((1, 1),), 2)  # prefix cost not above tail
    with pytest.raises(AssertionError):
        WcetSeq(((3, 1), (5, 1)), 1)  # increasing prefix
    with pytest.raises(AssertionError):
        WcetSeq(((5, 1), (5, 1)), 1)  # equal neighbouring runs
    with pytest.raises(AssertionError):
        WcetSeq(((5, 0),), 1)  # empty run


def test_values_are_tuples_of_their_fields():
    seqs_ = [ZERO_SEQ, const_seq(3), WcetSeq(((5, 1),), 0),
             WcetSeq(((5, 2),), 0), WcetSeq(((7, 2), (3, 1)), 1)]
    values = [ZERO, AbstractWcet(loop_ref("b1"), seqs_[4]),
              AbstractWcet(BOT, seqs_[1]), AbstractWcet(TOP, seqs_[2])]
    for group in (seqs_, values):
        for a in group:
            fields = tuple(getattr(a, name) for name in a._fields)
            assert isinstance(a, tuple) and tuple(a) == fields
            assert a == fields and hash(a) == hash(fields)
            for b in group:
                assert (a == b) == (tuple(a) == tuple(b))
                assert (a < b) == (tuple(a) < tuple(b))
    # The dataclass repr, unchanged.
    assert repr(values[1]) == ("AbstractWcet(loop=LoopRef(kind='loop', "
                               "header='b1'), seq=WcetSeq(prefix=((7, 2), "
                               "(3, 1)), tail=1))")
    assert str(values[1]) == "(loop=b1, [7^2,3|1])"


def test_ranksum_with_zero_returns_its_operand():
    for s in (WcetSeq((), 5), WcetSeq(((7, 2),), 1), ZERO_SEQ):
        assert ms_ranksum(s, ZERO_SEQ) is s


def test_parse_seq_roundtrip():
    for text in ["[5,4,2|1]", "[|0]", "[9|3]"]:
        assert str(parse_seq(text)) == text
    with pytest.raises(ValueError):
        parse_seq("[5,4|")


def test_ms_index_reads_into_tail():
    s = parse_seq("[9,8|5]")
    assert [ms_index(s, i) for i in range(4)] == [9, 8, 5, 5]


def test_ms_merge_pinned():
    assert ms_merge(parse_seq("[5,4,2|1]"), parse_seq("[6|2]")) == parse_seq("[6,5,4|2]")


def test_ms_ranksum_pinned():
    assert ms_ranksum(parse_seq("[5|4]"), parse_seq("[2|1]")) == parse_seq("[7|5]")


def test_ms_restrict_pinned():
    assert ms_restrict(parse_seq("[9,8|5]"), 3) == parse_seq("[9,8,5|0]")
    assert ms_restrict(parse_seq("[9,8|5]"), 0) == ZERO_SEQ


def test_ms_group_pinned():
    assert ms_group(parse_seq("[5,4,3|2]"), 2) == parse_seq("[9|5]")
    assert ms_group(parse_seq("[|2]"), 3) == parse_seq("[|6]")
    assert ms_group(parse_seq("[5,4|0]"), 2) == parse_seq("[9|0]")
    assert ms_group(parse_seq("[5|1]"), 0) == ZERO_SEQ


def test_ms_scalar():
    assert ms_scalar(3, parse_seq("[5,4|1]")) == parse_seq("[15,12|3]")
    assert ms_scalar(0, parse_seq("[5,4|1]")) == ZERO_SEQ


def test_eval_seq_pinned():
    assert eval_seq(parse_seq("[11|1]"), 1, 4) == 14
    assert eval_seq(parse_seq("[11|1]"), 2, 4) == 24
    with pytest.raises(NotMultiple):
        eval_seq(parse_seq("[11|1]"), 2, 3)
    with pytest.raises(NotMultiple):
        eval_seq(parse_seq("[11|1]"), 0, 4)


@PROPERTY_SETTINGS
@given(a=seqs, b=seqs, i=st.integers(min_value=0, max_value=10))
def test_merge_and_ranksum_properties(a, b, i):
    assert ms_merge(a, b) == ms_merge(b, a)
    assert ms_ranksum(a, b) == ms_ranksum(b, a)
    assert ms_ranksum(a, ZERO_SEQ) == a
    assert ms_index(ms_merge(a, b), i) >= ms_index(a, i)
    assert ms_index(ms_ranksum(a, b), i) == ms_index(a, i) + ms_index(b, i)


@PROPERTY_SETTINGS
@given(a=seqs, b=seqs, c=seqs)
def test_merge_and_ranksum_associative(a, b, c):
    assert ms_merge(ms_merge(a, b), c) == ms_merge(a, ms_merge(b, c))
    assert ms_ranksum(ms_ranksum(a, b), c) == ms_ranksum(a, ms_ranksum(b, c))


@PROPERTY_SETTINGS
@given(s=seqs, n=st.integers(min_value=0, max_value=8),
       i=st.integers(min_value=0, max_value=10))
def test_restrict_properties(s, n, i):
    r = ms_restrict(s, n)
    expected = ms_index(s, i) if i < n else 0
    assert ms_index(r, i) == expected
    assert ms_restrict(r, n) == r


@PROPERTY_SETTINGS
@given(s=seqs)
def test_unit_scalings(s):
    assert ms_group(s, 1) == s
    assert ms_scalar(1, s) == s


@PROPERTY_SETTINGS
@given(s=seqs, n=st.integers(min_value=1, max_value=6))
def test_eval_seq_single_entry_is_top_n_sum(s, n):
    assert eval_seq(s, 1, n) == sum(ms_index(s, i) for i in range(n))


def test_run_syntax():
    runs = parse_seq("[105^5|70]")
    assert runs == parse_seq("[105,105,105,105,105|70]")
    assert runs == WcetSeq(((105, 5),), 70)
    assert str(runs) == "[105^5|70]"
    assert parse_seq("[9,5^1,5,3^2,1|1]") == make_seq([9, 5, 5, 3, 3], 1)
    for text in ["[5^0|1]", "[5^|1]", "[3^2,5|1]", "[^2|1]", "[5^2^2|1]"]:
        with pytest.raises(ValueError):
            parse_seq(text)


def test_values_far_beyond_document_size():
    cap = ms_restrict(const_seq(7), 2_000_000)
    assert cap == WcetSeq(((7, 2_000_000),), 0)
    assert str(ms_group(ms_ranksum(cap, const_seq(3)), 10)) == "[100^200000|30]"
    assert eval_seq(cap, 1, 10**9) == 14_000_000
    assert ms_index(cap, 1_999_999) == 7 and ms_index(cap, 2_000_000) == 0


# ---------------------------------------------------------------------------
# Runs against the expanded-list semantics
# ---------------------------------------------------------------------------

# The reference: the ranking operations as written over expanded prefixes,
# one element per execution.  Every run-based operation must agree with it.


class ListSeq(NamedTuple):
    prefix: tuple[int, ...]
    tail: int


def expand(s: WcetSeq) -> ListSeq:
    return ListSeq(tuple(v for v, k in s.prefix for _ in range(k)), s.tail)


def ref_make_seq(elems, tail: int) -> ListSeq:
    kept = sorted((e for e in elems if e > tail), reverse=True)
    return ListSeq(tuple(kept), tail)


def ref_index(s: ListSeq, i: int) -> int:
    return s.prefix[i] if i < len(s.prefix) else s.tail


def ref_restrict(s: ListSeq, n: int | None) -> ListSeq:
    if n is None:
        return s
    return ref_make_seq((ref_index(s, i) for i in range(n)), 0)


def ref_merge(a: ListSeq, b: ListSeq) -> ListSeq:
    tail = max(a.tail, b.tail)
    return ref_make_seq(a.prefix + b.prefix, tail)


def ref_ranksum(a: ListSeq, b: ListSeq) -> ListSeq:
    n = max(len(a.prefix), len(b.prefix))
    return ref_make_seq((ref_index(a, i) + ref_index(b, i) for i in range(n)),
                        a.tail + b.tail)


def ref_scalar(k: int, s: ListSeq) -> ListSeq:
    assert k >= 0
    return ref_make_seq((k * e for e in s.prefix), k * s.tail)


def ref_group(s: ListSeq, x: int) -> ListSeq:
    if x == 0:
        return ListSeq((), 0)
    elems: list[int] = []
    i = 0
    while i < len(s.prefix):
        chunk = sum(ref_index(s, j) for j in range(i, i + x))
        if i + x <= len(s.prefix):
            elems.append(chunk)
            i += x
        else:
            return ref_make_seq(elems, chunk)
    return ref_make_seq(elems, x * s.tail)


def ref_eval_seq(s: ListSeq, e: int, n: int) -> int:
    return e * sum(ref_index(s, j) for j in range(n // e))


def ref_loop_seq(self_relative: bool, count: int, body: ListSeq,
                 exit_: ListSeq) -> ListSeq:
    if self_relative:
        total = sum(ref_index(body, i) for i in range(count))
        return ref_ranksum(ListSeq((), total), exit_)
    return ref_ranksum(ref_group(body, count), exit_)


@PROPERTY_SETTINGS
@given(a=run_seqs, b=run_seqs, n=st.integers(min_value=0, max_value=16),
       x=st.integers(min_value=0, max_value=7),
       i=st.integers(min_value=0, max_value=16))
def test_runs_match_list_semantics(a, b, n, x, i):
    ea, eb = expand(a), expand(b)
    assert ms_index(a, i) == ref_index(ea, i)
    assert expand(ms_restrict(a, n)) == ref_restrict(ea, n)
    assert expand(ms_merge(a, b)) == ref_merge(ea, eb)
    assert expand(ms_ranksum(a, b)) == ref_ranksum(ea, eb)
    assert expand(ms_scalar(x, a)) == ref_scalar(x, ea)
    assert expand(ms_group(a, x)) == ref_group(ea, x)
    for e in (1, 2, 3):
        assert eval_seq(a, e, e * (n + 1)) == ref_eval_seq(ea, e, e * (n + 1))


@PROPERTY_SETTINGS
@given(body=run_seqs, exit_=run_seqs, count=st.integers(min_value=0, max_value=9))
def test_loop_abstract_runs_match_list_semantics(fig2, body, exit_, count):
    _, f = fig2
    eb, ee = expand(body), expand(exit_)
    exit_value = abstract(TOP, exit_)
    self_rel = loop_abstract("b2", count, abstract(loop_ref("b2"), body),
                             exit_value, f)
    assert expand(self_rel.seq) == ref_loop_seq(body != ZERO_SEQ, count, eb, ee)
    outer = loop_abstract("b2", count, abstract(loop_ref("b1"), body),
                          exit_value, f)
    assert expand(outer.seq) == ref_loop_seq(False, count, eb, ee)


@PROPERTY_SETTINGS
@given(ss=st.lists(run_seqs, max_size=8))
def test_prefix_order_matches_expanded_order(ss):
    # sort_key orders formula constants by (prefix, tail); runs must give
    # the order the expanded sequences give.
    by_runs = [expand(s) for s in sorted(ss, key=lambda s: (s.prefix, s.tail))]
    assert by_runs == sorted(expand(s) for s in ss)
    for a in ss:
        for b in ss:
            assert (a.prefix < b.prefix) == (expand(a).prefix < expand(b).prefix)


@PROPERTY_SETTINGS
@given(s=st.one_of(seqs, run_seqs))
def test_text_form_roundtrip(s):
    text = str(s)
    assert parse_seq(text) == s
    expanded = "[%s|%d]" % (",".join(str(e) for e in expand(s).prefix), s.tail)
    assert parse_seq(expanded) == s
    assert len(text) <= len(expanded)
    assert parse_abstract(f"(loop=b1, {expanded})") == \
        parse_abstract(f"(loop=b1, {text})")


def test_formula_text_accepts_both_spellings():
    runs = "(+ (l=TOP,[|4]) (pow (l=o,[105^5|70]) (l=TOP,[|0]) o n))"
    expanded = runs.replace("105^5", "105,105,105,105,105")
    assert symbolic.parse(runs) == symbolic.parse(expanded)
    assert symbolic.render(symbolic.parse(expanded)) == runs
    for bad in ["[5^0|1]", "[5^|1]", "[3^2,5|1]"]:
        with pytest.raises(ValueError):
            parse_abstract(f"(loop=TOP, {bad})")
        with pytest.raises(ValueError):
            symbolic.parse(f"(l=TOP,{bad})")


# ---------------------------------------------------------------------------
# Abstract values
# ---------------------------------------------------------------------------


def test_zero_normalization():
    assert abstract(loop_ref("b1"), ZERO_SEQ) == ZERO
    assert ZERO.loop == TOP
    assert abstract(loop_ref("b1"), parse_seq("[|1]")).loop == loop_ref("b1")


def test_parse_abstract_roundtrip():
    for text in ["(loop=TOP, [5,4|1])", "(loop=b1, [|7])", "(loop=BOT, [2|0])"]:
        assert str(parse_abstract(text)) == text
    with pytest.raises(ValueError):
        parse_abstract("loop=TOP [|0]")


def test_plus_and_max_meet_loops(fig2):
    _, f = fig2
    a = abstract(loop_ref("b1"), parse_seq("[5|4]"))
    b = abstract(loop_ref("b2"), parse_seq("[2|1]"))
    assert plus_abstract(a, b, f) == abstract(loop_ref("b2"), parse_seq("[7|5]"))
    assert max_abstract(a, b, f).loop == loop_ref("b2")
    alien = abstract(loop_ref("zz"), parse_seq("[|1]"))
    assert plus_abstract(a, alien, f).loop == BOT


def test_scalar_abstract():
    a = abstract(loop_ref("b2"), parse_seq("[5|1]"))
    assert scalar_abstract(2, a) == abstract(loop_ref("b2"), parse_seq("[10|2]"))
    assert scalar_abstract(0, a) == ZERO


def test_restrict_abstract_strictness(fig2):
    _, f = fig2
    a = abstract(loop_ref("b2"), parse_seq("[9,8|5]"))
    out = restrict_abstract(a, loop_ref("b1"), 3, f)
    assert out == abstract(loop_ref("b2"), parse_seq("[9,8,5|0]"))
    assert restrict_abstract(a, loop_ref("zz"), 3, f).loop == BOT
    # gamma refuses the same cap: b2-relative costs capped per entry of a
    # loop unrelated to b2.
    per_b2 = cft.Leaf("b4", 9, cft.Annotation(loop_ref("b2"), 2))
    t = cft.Seq((per_b2, cft.Leaf("b5", 1)), cft.Annotation(loop_ref("zz"), 3))
    with pytest.raises(IncomparableLoops) as err:
        gamma(t, f)
    assert str(err.value) == "cannot cap b2-relative costs per entry of zz"


def test_loop_abstract_self_relative(fig2):
    _, f = fig2
    body = abstract(loop_ref("b2"), parse_seq("[5,4|3]"))
    assert loop_abstract("b2", 2, body, ZERO, f) == abstract(TOP, parse_seq("[|9]"))


def test_loop_abstract_outer_relative(fig2):
    _, f = fig2
    body = abstract(loop_ref("b1"), parse_seq("[5,4,3|2]"))
    out = loop_abstract("b2", 2, body, ZERO, f)
    assert out == abstract(loop_ref("b1"), parse_seq("[9|5]"))


def test_loop_abstract_adds_exit(fig2):
    _, f = fig2
    body = abstract(loop_ref("b2"), parse_seq("[5,4|3]"))
    exit_ = abstract(TOP, parse_seq("[|2]"))
    assert loop_abstract("b2", 2, body, exit_, f) == abstract(TOP, parse_seq("[|11]"))


# ---------------------------------------------------------------------------
# Tree evaluation
# ---------------------------------------------------------------------------


def test_gamma_running_example(fig2):
    t, f = fig2
    assert gamma(t, f) == parse_abstract("(loop=TOP, [|60])")


def test_gamma_rejects_symbolic_parts(fig2):
    _, f = fig2
    from symwcet import cft as c
    with pytest.raises(SymbolicValuePresent):
        gamma(c.Leaf("a", "w_a"), f)
    with pytest.raises(SymbolicValuePresent):
        gamma(c.Loop("b2", c.Leaf("a", 1), "n", c.Leaf("b", 1)), f)
    with pytest.raises(SymbolicValuePresent):
        gamma(c.Leaf("a", 1, c.Annotation(TOP, "k")), f)


def test_gamma_alt_takes_worst(fig2):
    _, f = fig2
    from symwcet import cft as c
    t = c.alt([c.Leaf("a", 3), c.Leaf("b", 8)])
    assert gamma(t, f) == abstract(TOP, parse_seq("[|8]"))


def test_gamma_annotation_caps(fig2):
    _, f = fig2
    from symwcet import cft as c
    # Inside loop b2: a path worth 7 at most once per entry, else 2.
    body = c.seq([c.Leaf("b2x", 1),
                  c.alt([c.Leaf("hi", 7, c.Annotation(loop_ref("b2"), 1)),
                         c.Leaf("lo", 2)])])
    t = c.Loop("b2", body, 3, c.Leaf("out", 0))
    # Iterations rank 8,3,3 per entry: total 14.
    assert gamma(t, f) == abstract(TOP, parse_seq("[|14]"))


# ---------------------------------------------------------------------------
# Prefix-free fast paths of fold and loop_abstract
# ---------------------------------------------------------------------------

# The formula forest: h2 nested in h1, h3 unrelated to both.
FAST_LOOPS = (TOP, BOT, loop_ref("h1"), loop_ref("h2"), loop_ref("h3"))


@pytest.fixture(scope="module")
def formula_forest():
    return gen.formula_forest()


def _random_value(rng, capped: bool) -> AbstractWcet:
    """A value relative to a random loop: zero, prefix-free, or (capped)
    with a prefix, as an annotation cap leaves it."""
    loop = rng.choice(FAST_LOOPS)
    if capped:
        tail = rng.choice((0, 0, rng.randint(1, 5)))
        costs = [tail + rng.randint(1, 9) for _ in range(rng.randint(1, 6))]
        return abstract(loop, make_seq(costs, tail))
    return abstract(loop, const_seq(rng.choice((0, rng.randint(0, 40)))))


def _ref_fold(values, op, f):
    """The pairwise left fold the fast path must equal."""
    acc = values[0] if values else ZERO
    for v in values[1:]:
        acc = op(acc, v, f)
    return acc


def _ref_loop_abstract(header, count, body, exit_, f):
    """loop_abstract's general path, kept for comparison.  A loop that
    runs zero times is its exit."""
    if not count:
        return exit_
    if body.loop.kind == "loop" and body.loop.header == header:
        total = eval_seq(body.seq, 1, count)
        return abstract(exit_.loop, ms_ranksum(const_seq(total), exit_.seq))
    return abstract(loop_meet(body.loop, exit_.loop, f),
                    ms_ranksum(ms_group(body.seq, count), exit_.seq))


def test_fold_matches_pairwise_fold(formula_forest):
    rng = random.Random(91)
    for _ in range(3000):
        n = rng.randint(0, 9)
        capped_share = rng.choice((0.0, 0.1, 0.5))
        values = [_random_value(rng, rng.random() < capped_share)
                  for _ in range(n)]
        for op in (plus_abstract, max_abstract):
            assert fold(values, op, formula_forest) == _ref_fold(values, op,
                                                           formula_forest)
            assert fold(iter(values), op, formula_forest) == _ref_fold(
                values, op, formula_forest)


@pytest.mark.parametrize("op", [plus_abstract, max_abstract])
def test_fold_first_prefix_anywhere(formula_forest, op):
    rng = random.Random(92)
    for n in range(1, 9):
        for first in range(n):
            for _ in range(40):
                values = [_random_value(rng, False) for _ in range(n)]
                values[first] = _random_value(rng, True)
                for k in range(first + 1, n):
                    if rng.random() < 0.3:
                        values[k] = _random_value(rng, True)
                assert values[first].seq.prefix
                assert fold(values, op, formula_forest) == _ref_fold(values, op,
                                                               formula_forest)


def test_fold_of_prefix_free_values_walks_no_runs(formula_forest, monkeypatch):
    from symwcet import awcet

    def refuse(*args):
        raise AssertionError("run-walking operator called")

    monkeypatch.setattr(awcet, "ms_ranksum", refuse)
    monkeypatch.setattr(awcet, "ms_merge", refuse)
    rng = random.Random(93)
    for _ in range(500):
        values = [_random_value(rng, False) for _ in range(rng.randint(0, 9))]
        want_tail = sum(v.seq.tail for v in values)
        assert fold(values, plus_abstract, formula_forest).seq == const_seq(want_tail)
        want_max = max((v.seq.tail for v in values), default=0)
        assert fold(values, max_abstract, formula_forest).seq == const_seq(want_max)


def test_loop_abstract_prefix_free_matches_general_path(formula_forest):
    rng = random.Random(94)
    counts = (0, 1, 2, 3, 7, 10 ** 9)
    seen_own = seen_other = 0
    for header in ("h1", "h2", "h3"):
        own = loop_ref(header)
        for body_loop in (*FAST_LOOPS, own, own):
            for exit_loop in FAST_LOOPS:
                for count in counts:
                    body = abstract(body_loop,
                                    const_seq(rng.choice((0, rng.randint(1, 30)))))
                    exit_ = abstract(exit_loop,
                                     const_seq(rng.choice((0, rng.randint(1, 30)))))
                    got = loop_abstract(header, count, body, exit_, formula_forest)
                    assert got == _ref_loop_abstract(header, count, body,
                                                     exit_, formula_forest)
                    if body.loop == own:
                        seen_own += 1
                    elif exit_.loop.kind == "loop" and exit_.loop != own:
                        seen_other += 1
    assert seen_own and seen_other

