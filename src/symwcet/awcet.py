"""Abstract WCET algebra.

The execution-time domain is a pair (loop, seq): `seq` ranks the costs of
the paths a (sub)tree can take, greatest first, as a non-increasing integer
sequence with an eventually-constant tail; `loop` records the innermost loop
whose iteration count the ranking is relative to.  All tree-level evaluation
(gamma) and the numeric instantiation helpers shared with the formula layer
live here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial, reduce
from typing import Iterable

from .cfg import BOT, TOP, LoopForest, LoopRef, loop_meet, loop_ref, parse_loop_ref
from . import cft
from .errors import IncomparableLoops, NotMultiple, SymbolicValuePresent


@dataclass(frozen=True)
class WcetSeq:
    """Non-increasing cost ranking: finite prefix, then `tail` forever."""

    prefix: tuple[int, ...]
    tail: int

    def __post_init__(self) -> None:
        assert self.tail >= 0
        last = None
        for e in self.prefix:
            assert e > self.tail, f"prefix element {e} not above tail {self.tail}"
            assert last is None or e <= last, "prefix must be non-increasing"
            last = e

    def __str__(self) -> str:
        return "[%s|%d]" % (",".join(str(e) for e in self.prefix), self.tail)


def make_seq(elems: Iterable[int], tail: int) -> WcetSeq:
    """Canonical sequence: sorted descending, elements <= tail absorbed."""
    kept = sorted((e for e in elems if e > tail), reverse=True)
    return WcetSeq(tuple(kept), tail)


def const_seq(k: int) -> WcetSeq:
    return WcetSeq((), k)


ZERO_SEQ = const_seq(0)

_SEQ_RE = re.compile(r"\[([0-9,]*)\|(\d+)\]\Z")


def parse_seq(text: str) -> WcetSeq:
    m = _SEQ_RE.match(text)
    if not m:
        raise ValueError(f"bad sequence literal {text!r}")
    elems = [int(x) for x in m.group(1).split(",") if x]
    return make_seq(elems, int(m.group(2)))


def ms_index(s: WcetSeq, i: int) -> int:
    """i-th greatest cost (0-based)."""
    return s.prefix[i] if i < len(s.prefix) else s.tail


def ms_restrict(s: WcetSeq, n: int | None) -> WcetSeq:
    """Keep the n greatest costs, zero out the rest; None keeps everything."""
    if n is None:
        return s
    return make_seq((ms_index(s, i) for i in range(n)), 0)


def ms_merge(a: WcetSeq, b: WcetSeq) -> WcetSeq:
    """Multiset union: the larger tail swallows everything at or below it."""
    tail = max(a.tail, b.tail)
    return make_seq(a.prefix + b.prefix, tail)


def ms_ranksum(a: WcetSeq, b: WcetSeq) -> WcetSeq:
    """Rank-wise sum: i-th greatest of the result = a[i] + b[i]."""
    n = max(len(a.prefix), len(b.prefix))
    return make_seq((ms_index(a, i) + ms_index(b, i) for i in range(n)),
                    a.tail + b.tail)


def ms_scalar(k: int, s: WcetSeq) -> WcetSeq:
    assert k >= 0
    return make_seq((k * e for e in s.prefix), k * s.tail)


def ms_group(s: WcetSeq, x: int) -> WcetSeq:
    """Sum costs in consecutive groups of x.

    The first group that reaches into the tail becomes the new tail, which
    rounds the ranking up (sound) while staying exact on constant tails.
    """
    if x == 0:
        return ZERO_SEQ
    elems: list[int] = []
    i = 0
    while i < len(s.prefix):
        chunk = sum(ms_index(s, j) for j in range(i, i + x))
        if i + x <= len(s.prefix):
            elems.append(chunk)
            i += x
        else:
            return make_seq(elems, chunk)
    return make_seq(elems, x * s.tail)


def eval_seq(s: WcetSeq, e: int, n: int) -> int:
    """Worst-case total of n executions spread over e loop entries."""
    if e < 1 or n < 1:
        raise NotMultiple(f"need e,n >= 1, got e={e}, n={n}")
    if n % e:
        raise NotMultiple(f"executions {n} not a multiple of entries {e}")
    return e * sum(ms_index(s, j) for j in range(n // e))


# ---------------------------------------------------------------------------
# Abstract WCET values and their operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbstractWcet:
    loop: LoopRef
    seq: WcetSeq

    def __str__(self) -> str:
        return f"(loop={self.loop}, {self.seq})"


def abstract(loop: LoopRef, seq: WcetSeq) -> AbstractWcet:
    # A zero ranking carries no loop-relative information; normalizing its
    # loop to TOP makes the zero value unique.
    if seq == ZERO_SEQ:
        return AbstractWcet(TOP, seq)
    return AbstractWcet(loop, seq)


ZERO = abstract(TOP, ZERO_SEQ)

_AW_RE = re.compile(r"\(loop=([^,]+),\s*(\[[0-9,]*\|\d+\])\)\Z")


def parse_abstract(text: str) -> AbstractWcet:
    m = _AW_RE.match(text)
    if not m:
        raise ValueError(f"bad abstract WCET literal {text!r}")
    return abstract(parse_loop_ref(m.group(1)), parse_seq(m.group(2)))


def plus_abstract(a: AbstractWcet, b: AbstractWcet, f: LoopForest) -> AbstractWcet:
    return abstract(loop_meet(a.loop, b.loop, f), ms_ranksum(a.seq, b.seq))


def max_abstract(a: AbstractWcet, b: AbstractWcet, f: LoopForest) -> AbstractWcet:
    return abstract(loop_meet(a.loop, b.loop, f), ms_merge(a.seq, b.seq))


def scalar_abstract(k: int, a: AbstractWcet) -> AbstractWcet:
    return abstract(a.loop, ms_scalar(k, a.seq))


def restrict_abstract(
    a: AbstractWcet,
    loop: LoopRef,
    m: int | None,
    f: LoopForest,
    strict: bool = False,
) -> AbstractWcet:
    """Annotation application: meet the loops, keep the m greatest costs.

    strict mode rejects a finite cap whose loop is unrelated to the value's
    loop: the cap would then count executions of something else entirely.
    """
    new_loop = loop_meet(a.loop, loop, f)
    if strict and m is not None and new_loop == BOT:
        raise IncomparableLoops(
            f"cannot cap {a.loop}-relative costs per entry of {loop}")
    return abstract(new_loop, ms_restrict(a.seq, m))


def loop_abstract(
    header: str,
    count: int,
    body: AbstractWcet,
    exit_: AbstractWcet,
    f: LoopForest,
) -> AbstractWcet:
    """Combine body and exit rankings of a loop running `count` iterations."""
    if body.loop == loop_ref(header):
        # Body costs are ranked per iteration of this very loop: one entry
        # takes the `count` greatest, a constant total.
        total = sum(ms_index(body.seq, i) for i in range(count))
        return abstract(exit_.loop, ms_ranksum(const_seq(total), exit_.seq))
    grouped = ms_group(body.seq, count)
    return abstract(loop_meet(body.loop, exit_.loop, f),
                    ms_ranksum(grouped, exit_.seq))


# ---------------------------------------------------------------------------
# Tree evaluation
# ---------------------------------------------------------------------------


def _concrete(value: int | str | None, what: str) -> int | None:
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
        return reduce(partial(max_abstract, f=f), kids)
    if isinstance(t, cft.Seq):
        return reduce(partial(plus_abstract, f=f), kids, ZERO)
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
        val = restrict_abstract(val, t.annotation.loop, m, f, strict=True)
    return val
