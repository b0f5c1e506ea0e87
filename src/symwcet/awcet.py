"""Abstract WCET algebra.

The execution-time domain is a pair (loop, seq): `seq` ranks the costs of
the paths a (sub)tree can take, greatest first, as a non-increasing integer
sequence with an eventually-constant tail; `loop` records the innermost loop
whose iteration count the ranking is relative to.  All tree-level evaluation
(gamma) and the numeric instantiation helpers shared with the formula layer
live here.

A ranking's prefix is run-length encoded: (cost, multiplicity) runs with
strictly decreasing costs, so a cap of 10^6 or a loop bound of 10^9 is one
run, not a million or a billion elements.  Every operation walks runs and
costs time in the number of distinct costs, never in bounds or caps.  The
text form writes a run of k >= 2 equal costs as `v^k`, e.g. `[105^5|70]`
for `[105,105,105,105,105|70]`; the parser accepts both.  Tuple order on
runs equals the lexicographic order on the expanded sequences, so sorting
by `prefix` orders rankings as before.

Most rankings have no prefix at all: a cost identifier or a concrete leaf
is one integer, and prefixes come only from annotation caps.  `fold` and
`loop_abstract` give that case a fast path that computes on the tails
alone (a running sum or maximum, `count * body + exit`) and builds one
value at the end; values with a prefix take the run-walking operators.
`loop_term` states the forest-free part of the prefix-free loop rule
once: the two tails, the exit's loop and the body loop the result meets
in; `loop_tail` adds the `count * body + exit` step and the meet, and
`loop_abstract`'s fast path calls it.  The formula layer calls
`loop_term` when it builds a sum or maximum, once for each operand that
is a loop over prefix-free constant body and exit rankings, and takes
only the step and the meet inline at each instantiation.

`WcetSeq` and `AbstractWcet`, like `cfg.LoopRef`, are NamedTuples rather
than frozen dataclasses: every operator builds, compares and hashes them,
and a tuple does all three in C.  They compare and hash equal to plain
tuples of their fields.  A `WcetSeq` is built only by calling the class,
whose constructor checks the run shape; `_make`, `_replace` and
`tuple.__new__` would skip that check.  An `AbstractWcet` has no shape to
check, so `abstract` builds it with `tuple.__new__` and skips the
NamedTuple's Python-level constructor.
"""

from __future__ import annotations

import re
from math import inf
from typing import Callable, Iterable, NamedTuple

from .cfg import BOT, TOP, LoopForest, LoopRef, loop_meet
from . import cft
from .errors import IncomparableLoops, NotMultiple, SymbolicValuePresent


Run = tuple[int, int]  # (cost, multiplicity)

_tuple_new = tuple.__new__


class _Seq(NamedTuple):
    prefix: tuple[Run, ...]
    tail: int


class WcetSeq(_Seq):
    """Non-increasing cost ranking: finite prefix, then `tail` forever.

    The prefix is stored as runs (cost, multiplicity): costs strictly
    decreasing and above the tail, multiplicities at least 1.
    """

    __slots__ = ()

    def __new__(cls, prefix: tuple[Run, ...], tail: int) -> WcetSeq:
        assert tail >= 0
        last = None
        for v, k in prefix:
            assert v > tail, f"prefix cost {v} not above tail {tail}"
            assert last is None or v < last, "prefix costs must strictly decrease"
            assert k >= 1, f"run of {v} has multiplicity {k}"
            last = v
        return _tuple_new(cls, (prefix, tail))

    def __str__(self) -> str:
        return "[%s|%d]" % (",".join(str(v) if k == 1 else f"{v}^{k}"
                                     for v, k in self.prefix), self.tail)


def _canon(runs: Iterable[Run], tail: int) -> WcetSeq:
    """The one canonicaliser: runs listed greatest cost first, equal
    neighbours coalesced, empty runs and costs at or below tail dropped."""
    out: list[Run] = []
    for v, k in runs:
        if v <= tail:
            break
        if not k:
            continue
        if out and out[-1][0] == v:
            out[-1] = (v, out[-1][1] + k)
        else:
            out.append((v, k))
    return WcetSeq(tuple(out), tail)


def const_seq(k: int) -> WcetSeq:
    return WcetSeq((), k)


ZERO_SEQ = const_seq(0)

_SEQ_RE = re.compile(r"\[([0-9,^]*)\|(\d+)\]\Z")
_RUN_RE = re.compile(r"(\d+)(?:\^([1-9]\d*))?\Z")


def parse_seq(text: str) -> WcetSeq:
    """Inverse of str: costs greatest first, `v^k` for k copies of v."""
    m = _SEQ_RE.match(text)
    if not m:
        raise ValueError(f"bad sequence literal {text!r}")
    runs: list[Run] = []
    for item in m.group(1).split(","):
        if not item:
            continue
        r = _RUN_RE.match(item)
        if not r:
            raise ValueError(f"bad run {item!r} in {text!r}")
        v = int(r.group(1))
        if runs and v > runs[-1][0]:
            raise ValueError(f"costs not listed greatest first in {text!r}")
        runs.append((v, int(r.group(2) or 1)))
    return _canon(runs, int(m.group(2)))


def ms_index(s: WcetSeq, i: int) -> int:
    """i-th greatest cost (0-based)."""
    for v, k in s.prefix:
        if i < k:
            return v
        i -= k
    return s.tail


def _top_sum(s: WcetSeq, n: int) -> int:
    """Sum of the n greatest costs."""
    total = 0
    for v, k in s.prefix:
        if n <= k:
            return total + n * v
        total += k * v
        n -= k
    return total + n * s.tail


def ms_restrict(s: WcetSeq, n: int) -> WcetSeq:
    """Keep the n greatest costs, zero out the rest."""
    runs: list[Run] = []
    for v, k in s.prefix:
        if n <= k:
            runs.append((v, n))
            break
        runs.append((v, k))
        n -= k
    else:
        runs.append((s.tail, n))
    return _canon(runs, 0)


def _shift(s: WcetSeq, c: int) -> WcetSeq:
    """s with c added to every cost."""
    if not c:
        return s
    if not s.prefix:
        return WcetSeq((), s.tail + c)
    return WcetSeq(tuple((v + c, k) for v, k in s.prefix), s.tail + c)


def ms_merge(a: WcetSeq, b: WcetSeq) -> WcetSeq:
    """Multiset union: the larger tail swallows everything at or below it."""
    if not b.prefix and a.tail >= b.tail:
        return a
    if not a.prefix and b.tail >= a.tail:
        return b
    return _canon(sorted(a.prefix + b.prefix, reverse=True),
                  max(a.tail, b.tail))


def ms_ranksum(a: WcetSeq, b: WcetSeq) -> WcetSeq:
    """Rank-wise sum: i-th greatest of the result = a[i] + b[i]."""
    if not b.prefix:
        return _shift(a, b.tail)
    if not a.prefix:
        return _shift(b, a.tail)
    # Walk both run lists in step, each tail an endless last run.  Every
    # step ends a run of a or of b, so the sums strictly decrease.
    pa, pb = a.prefix + ((a.tail, inf),), b.prefix + ((b.tail, inf),)
    i = j = 0
    (va, ra), (vb, rb) = pa[0], pb[0]
    runs: list[Run] = []
    while i < len(a.prefix) or j < len(b.prefix):
        k = ra if ra < rb else rb
        runs.append((va + vb, k))
        ra -= k
        rb -= k
        if not ra:
            i += 1
            va, ra = pa[i]
        if not rb:
            j += 1
            vb, rb = pb[j]
    return WcetSeq(tuple(runs), a.tail + b.tail)


def ms_scalar(k: int, s: WcetSeq) -> WcetSeq:
    assert k >= 0
    if not k:
        return ZERO_SEQ
    if not s.prefix:
        return WcetSeq((), k * s.tail)
    return WcetSeq(tuple((k * v, m) for v, m in s.prefix), k * s.tail)


def ms_group(s: WcetSeq, x: int) -> WcetSeq:
    """Sum costs in consecutive groups of x.

    The first group that reaches into the tail becomes the new tail, which
    rounds the ranking up (sound) while staying exact on constant tails.
    """
    if x == 0:
        return ZERO_SEQ
    if not s.prefix:
        return WcetSeq((), x * s.tail)
    runs: list[Run] = []
    acc, need = 0, x  # sum of the group being filled, costs it still lacks
    for v, k in s.prefix:
        if need < x:
            took = min(need, k)
            acc += took * v
            need -= took
            k -= took
            if need:
                continue
            runs.append((acc, 1))
            acc, need = 0, x
        q, r = divmod(k, x)
        if q:
            runs.append((x * v, q))
        if r:
            acc, need = r * v, x - r
    if need < x:
        return _canon(runs, acc + need * s.tail)
    return _canon(runs, x * s.tail)


def eval_seq(s: WcetSeq, e: int, n: int) -> int:
    """Worst-case total of n executions spread over e loop entries."""
    if e < 1 or n < 1:
        raise NotMultiple(f"need e,n >= 1, got e={e}, n={n}")
    if n % e:
        raise NotMultiple(f"executions {n} not a multiple of entries {e}")
    return e * _top_sum(s, n // e)


# ---------------------------------------------------------------------------
# Abstract WCET values and their operators
# ---------------------------------------------------------------------------


class AbstractWcet(NamedTuple):
    loop: LoopRef
    seq: WcetSeq

    def __str__(self) -> str:
        return f"(loop={self.loop}, {self.seq})"


ZERO = AbstractWcet(TOP, ZERO_SEQ)


def abstract(loop: LoopRef, seq: WcetSeq) -> AbstractWcet:
    # A zero ranking carries no loop-relative information; normalizing its
    # loop to TOP makes the zero value unique.
    if not seq.tail and not seq.prefix:
        return ZERO
    return _tuple_new(AbstractWcet, (loop, seq))


def plus_abstract(a: AbstractWcet, b: AbstractWcet, f: LoopForest) -> AbstractWcet:
    return abstract(loop_meet(a.loop, b.loop, f), ms_ranksum(a.seq, b.seq))


def max_abstract(a: AbstractWcet, b: AbstractWcet, f: LoopForest) -> AbstractWcet:
    return abstract(loop_meet(a.loop, b.loop, f), ms_merge(a.seq, b.seq))


def fold(values: Iterable[AbstractWcet],
         op: Callable[[AbstractWcet, AbstractWcet, LoopForest], AbstractWcet],
         f: LoopForest) -> AbstractWcet:
    """Left fold of `plus_abstract` or `max_abstract`; ZERO, the identity
    of both, when there are no values.  The order does not matter: the
    loop meet is a lattice meet on the forest, and `ms_ranksum` and
    `ms_merge` are associative and commutative.

    Prefix-free rankings, the common case, fold as integers: while no
    value has a prefix, the fold keeps one running tail (their sum or
    maximum) and the meet of their loops, and only at the first value
    with a prefix does it build that running value and go on with `op`.
    A zero value is TOP-relative, so skipping the zero-to-TOP step of
    `abstract` between values leaves the meet as the pairwise fold has it.
    """
    it = iter(values)
    acc = next(it, ZERO)
    if (op is plus_abstract or op is max_abstract) and not acc.seq.prefix:
        summing = op is plus_abstract
        loop, tail = acc.loop, acc.seq.tail
        for v in it:
            seq = v.seq
            if seq.prefix:
                acc = op(abstract(loop, WcetSeq((), tail)), v, f)
                break
            if summing:
                tail += seq.tail
            elif seq.tail > tail:
                tail = seq.tail
            if v.loop != loop:
                loop = loop_meet(loop, v.loop, f)
        else:
            return abstract(loop, WcetSeq((), tail))
    for v in it:
        acc = op(acc, v, f)
    return acc


def scalar_abstract(k: int, a: AbstractWcet) -> AbstractWcet:
    return abstract(a.loop, ms_scalar(k, a.seq))


def restrict_abstract(a: AbstractWcet, loop: LoopRef, m: int,
                      f: LoopForest) -> AbstractWcet:
    """Annotation application: meet the loops, keep the m greatest costs."""
    return abstract(loop_meet(a.loop, loop, f), ms_restrict(a.seq, m))


def loop_term(header: str, body: AbstractWcet, exit_: AbstractWcet
              ) -> tuple[int, int, LoopRef, LoopRef | None]:
    """The forest-free part of the prefix-free loop rule, for loop `header`
    over body and exit rankings without a prefix: (body tail, exit tail,
    exit loop, the body loop to meet in or None).

    Run `count` times, the loop has the tail `count * body tail + exit
    tail`.  The tail is relative to the exit's loop when the loop runs
    zero times or when there is no body loop to meet in (the body is
    ranked per iteration of this loop, or per the exit's loop), and to
    the meet of that body loop and the exit's loop otherwise.  A zero
    tail stands for ZERO, whatever the loop.
    """
    inner = body.loop
    if inner == exit_.loop or (inner.kind == "loop"
                               and inner.header == header):
        inner = None
    return body.seq.tail, exit_.seq.tail, exit_.loop, inner


def loop_tail(header: str, count: int, body: AbstractWcet,
              exit_: AbstractWcet, f: LoopForest) -> tuple[LoopRef, int]:
    """The prefix-free loop rule: (loop, tail) of a loop running `count`
    iterations whose body and exit rankings have no prefix, from
    `loop_term` and the integer step."""
    body_tail, tail, loop, inner = loop_term(header, body, exit_)
    if count:
        tail += count * body_tail
        if inner is not None:
            loop = loop_meet(inner, loop, f)
    return loop, tail


def loop_abstract(
    header: str,
    count: int,
    body: AbstractWcet,
    exit_: AbstractWcet,
    f: LoopForest,
) -> AbstractWcet:
    """Combine body and exit rankings of a loop running `count` iterations.

    A loop that runs zero times is its exit: the body meets no loop into
    the result.  When neither ranking has a prefix, `loop_tail` gives the
    integer result; the general path below computes the same on such
    values.
    """
    if not body.seq.prefix and not exit_.seq.prefix:
        loop, tail = loop_tail(header, count, body, exit_, f)
        if not tail:
            return ZERO
        return _tuple_new(AbstractWcet, (loop, WcetSeq((), tail)))
    if not count:
        return exit_
    if body.loop.kind == "loop" and body.loop.header == header:
        # Body costs are ranked per iteration of this very loop: one entry
        # takes the `count` greatest, a constant total.
        total = _top_sum(body.seq, count)
        return abstract(exit_.loop, ms_ranksum(const_seq(total), exit_.seq))
    grouped = ms_group(body.seq, count)
    return abstract(loop_meet(body.loop, exit_.loop, f),
                    ms_ranksum(grouped, exit_.seq))


# ---------------------------------------------------------------------------
# Tree evaluation
# ---------------------------------------------------------------------------


def _concrete(value: int | str, what: str) -> int:
    if isinstance(value, str):
        raise SymbolicValuePresent(f"{what} is symbolic: {value!r}")
    return value


def node_value(t: cft.Cft, kids: list[AbstractWcet],
               f: LoopForest) -> AbstractWcet:
    """Value of one tree node, its annotation aside, from the values of its
    children (body, then exit, for a Loop).  The node's own leaf cost or
    loop bound must be an integer."""
    if isinstance(t, cft.Leaf):
        return abstract(TOP, const_seq(t.wcet))
    if isinstance(t, cft.Alt):
        return fold(kids, max_abstract, f)
    if isinstance(t, cft.Seq):
        return fold(kids, plus_abstract, f)
    return loop_abstract(t.header, t.bound, kids[0], kids[1], f)


def gamma(t: cft.Cft, f: LoopForest) -> AbstractWcet:
    """Abstract WCET of a fully concrete tree."""
    if isinstance(t, cft.Leaf):
        _concrete(t.wcet, f"wcet of leaf {t.label}")
    elif isinstance(t, cft.Loop):
        _concrete(t.bound, f"bound of loop {t.header}")
    val = node_value(t, [gamma(c, f) for c in cft.child_nodes(t)], f)
    if t.annotation is not None:
        m = _concrete(t.annotation.max, "annotation max")
        loop = t.annotation.loop
        # A cap whose loop is unrelated to the value's counts executions of
        # something else entirely.
        if loop_meet(val.loop, loop, f) == BOT:
            raise IncomparableLoops(
                f"cannot cap {val.loop}-relative costs per entry of {loop}")
        val = restrict_abstract(val, loop, m, f)
    return val
