"""Symbolic WCET formulas.

A formula is an abstract WCET expression over unknowns: leaf costs left as
identifiers, loop iteration counts, and annotation caps.  Formulas are kept
in a canonical shape (flattened, sorted n-ary sums/maxima, no trivial
scalars or zeros) and simplified by a terminating rewrite system whose
normal form is schedule-independent.  Substitution and full evaluation fold
through the same operators the concrete tree evaluation uses, so a complete
instantiation of the formula equals evaluating the instantiated tree.

Identifiers stand for costs and counts only.  A loop position (a `pow`
header, an `ann` loop) names a loop, TOP or a header of the forest, and a
scalar's coefficient is an integer; no binding changes either.

Identifier values are per-execution constants: an unknown cost stands for
"this always takes k cycles", i.e. a rank-uniform ranking (l, [|k]).
Rankings with finite prefixes arise only from annotation caps, which the
formula layer tracks explicitly through `ann` nodes.  The constant-factoring
rule on maxima relies on this, so `substitute` and `evaluate` refuse a cost
bound to a ranking with a prefix.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable

from . import cft
from .awcet import (
    ZERO,
    AbstractWcet,
    abstract,
    const_seq,
    fold,
    loop_abstract,
    loop_term,
    max_abstract,
    parse_seq,
    plus_abstract,
    restrict_abstract,
    scalar_abstract,
)
from .cfg import (TOP, LoopForest, LoopRef, is_identifier, loop_meet,
                  loop_ref, parse_loop_ref)
from .errors import (FuelExhausted, TypeMismatch, UnboundIdentifier,
                     UnknownBlock)
from .records import slot_init

Value = int | str  # concrete integer or identifier


@slot_init
@dataclass(frozen=True, slots=True)
class Const:
    value: AbstractWcet


@slot_init
@dataclass(frozen=True, slots=True)
class WcetId:
    name: str


def _carries_terms(cls: type) -> type:
    """Give a sum or maximum class the `__post_init__` that stores what
    its instantiations read, through slot descriptors looked up here.

    `terms` holds one integer term per operand `pow` whose body and exit
    are prefix-free `Const`s and whose count is an identifier or a
    non-negative integer: `(header, count, *awcet.loop_term(...))`, the
    part of the loop rule that no binding or forest changes.  `others`
    holds every other operand, in order.  Both are derived from the
    operands whichever way the node is built, and take no part in its
    equality, hash, repr, text or sort key.
    """
    set_terms, set_others = cls.terms.__set__, cls.others.__set__

    def __post_init__(self) -> None:
        operands = self.operands
        terms = []
        others = None  # listed once the first term is found
        for i, op in enumerate(operands):
            if type(op) is Power:
                body, exit_, count = op.body, op.exit, op.count
                if (type(body) is Const and type(exit_) is Const
                        and (type(count) is not int or count >= 0)):
                    body, exit_ = body.value, exit_.value
                    if not body.seq.prefix and not exit_.seq.prefix:
                        if others is None:
                            others = list(operands[:i])
                        terms.append((op.header, count,
                                      *loop_term(op.header, body, exit_)))
                        continue
            if others is not None:
                others.append(op)
        if others is None:
            set_terms(self, ())
            set_others(self, operands)
        else:
            set_terms(self, tuple(terms))
            set_others(self, tuple(others))

    cls.__post_init__ = __post_init__
    return cls


@slot_init
@_carries_terms
@dataclass(frozen=True, slots=True)
class Plus:
    operands: tuple["Formula", ...]
    terms: tuple = field(init=False, repr=False, compare=False)
    others: tuple["Formula", ...] = field(init=False, repr=False,
                                          compare=False)


@slot_init
@_carries_terms
@dataclass(frozen=True, slots=True)
class Max:
    operands: tuple["Formula", ...]
    terms: tuple = field(init=False, repr=False, compare=False)
    others: tuple["Formula", ...] = field(init=False, repr=False,
                                          compare=False)


@slot_init
@dataclass(frozen=True, slots=True)
class Scalar:
    coeff: int
    operand: "Formula"


@slot_init
@dataclass(frozen=True, slots=True)
class Power:
    """Loop repetition: body ranking iterated `count` times for loop
    `header`, then the exit ranking once."""

    body: "Formula"
    exit: "Formula"
    header: str  # a loop header, or "TOP"
    count: Value


@slot_init
@dataclass(frozen=True, slots=True)
class Restrict:
    """Annotation application: keep the `count` greatest costs per entry of
    `loop` ("TOP" = per run)."""

    operand: "Formula"
    loop: str  # a loop header, or "TOP"
    count: Value


Formula = Const | WcetId | Plus | Max | Scalar | Power | Restrict

CONST_ZERO = Const(ZERO)


def _vkey(v: Value) -> tuple:
    return (0, v, "") if isinstance(v, int) else (1, 0, v)


@lru_cache(maxsize=None)
def sort_key(w: Formula) -> tuple:
    if isinstance(w, Const):
        v = w.value
        return (0, v.loop.kind, v.loop.header, v.seq.prefix, v.seq.tail)
    if isinstance(w, WcetId):
        return (1, w.name)
    if isinstance(w, Restrict):
        return (2, sort_key(w.operand), w.loop, _vkey(w.count))
    if isinstance(w, Scalar):
        return (3, sort_key(w.operand), w.coeff)
    if isinstance(w, Plus):
        return (4, tuple(sort_key(op) for op in w.operands))
    if isinstance(w, Max):
        return (5, tuple(sort_key(op) for op in w.operands))
    return (6, sort_key(w.body), sort_key(w.exit), w.header, _vkey(w.count))


# ---------------------------------------------------------------------------
# Canonical constructors
# ---------------------------------------------------------------------------


def _nary(cls: type, operands: Iterable[Formula]) -> Formula:
    """The canonical sum (cls Plus) or maximum (cls Max) of the operands:
    nested ones of the same class flattened, zeros dropped, the rest
    sorted; one operand stands alone and none is zero."""
    flat: list[Formula] = []
    for op in operands:
        if isinstance(op, cls):
            flat.extend(op.operands)
        elif op != CONST_ZERO:
            flat.append(op)
    if not flat:
        return CONST_ZERO
    if len(flat) == 1:
        return flat[0]
    return cls(tuple(sorted(flat, key=sort_key)))


def plus(operands: Iterable[Formula]) -> Formula:
    return _nary(Plus, operands)


def max_(operands: Iterable[Formula]) -> Formula:
    return _nary(Max, operands)


def scalar(coeff: int, operand: Formula) -> Formula:
    if coeff == 0:
        return CONST_ZERO
    if coeff == 1:
        return operand
    return Scalar(coeff, operand)


def _children(w: Formula) -> tuple[Formula, ...]:
    if isinstance(w, (Plus, Max)):
        return w.operands
    if isinstance(w, (Scalar, Restrict)):
        return (w.operand,)
    if isinstance(w, Power):
        return (w.body, w.exit)
    return ()


def walk(w: Formula):
    """Every node of w in preorder (operands left to right, a Power's body
    before its exit), without recursion."""
    stack = [w]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(_children(node)))


def operand_count(w: Formula) -> int:
    """Number of atomic operands (constants and cost identifiers)."""
    return sum(isinstance(node, (Const, WcetId)) for node in walk(w))


def _with_children(w: Formula, kids: list[Formula]) -> Formula:
    """w over new children, rebuilt through the canonical constructors."""
    if isinstance(w, Plus):
        return plus(kids)
    if isinstance(w, Max):
        return max_(kids)
    if isinstance(w, Scalar):
        return scalar(w.coeff, kids[0])
    if isinstance(w, Restrict):
        return Restrict(kids[0], w.loop, w.count)
    return Power(kids[0], kids[1], w.header, w.count)


# ---------------------------------------------------------------------------
# Rewriting
# ---------------------------------------------------------------------------


def _const_valued(w: Formula) -> bool:
    """True when every instantiation of w is a rank-uniform constant.

    Restrict introduces finite prefixes; everything else preserves
    rank-uniformity given the constant-identifier convention above.
    """
    return not any(isinstance(node, Restrict)
                   or (isinstance(node, Const) and node.value.seq.prefix)
                   for node in walk(w))


def _merge(operands: tuple[Formula, ...], key: Callable,
           merge: Callable, make: Callable) -> Formula | None:
    """`make` over the operands with each group of two or more that share a
    `key` replaced by `merge(group)`, members in operand order; an operand
    whose key is None stays alone.  None when no group has two members."""
    groups: dict[object, list[Formula]] = {}
    out: list[Formula] = []
    shared = False
    for op in operands:
        k = key(op)
        if k is None:
            out.append(op)
        elif k in groups:
            groups[k].append(op)
            shared = True
        else:
            groups[k] = [op]
    if not shared:
        return None
    out.extend(merge(g) if len(g) > 1 else g[0] for g in groups.values())
    return make(out)


def _const_key(op: Formula) -> bool | None:
    return True if isinstance(op, Const) else None


def _rule_plus_const(w: Plus, f: LoopForest) -> Formula | None:
    return _merge(w.operands, _const_key, lambda g: Const(
        fold([c.value for c in g], plus_abstract, f)), plus)


def _rule_max_const(w: Max, f: LoopForest) -> Formula | None:
    return _merge(w.operands, _const_key, lambda g: Const(
        fold([c.value for c in g], max_abstract, f)), max_)


def _rule_distributivity(w: Max, f: LoopForest) -> Formula | None:
    # (cst1 + r) max (cst2 + r) -> (cst1 max cst2) + r, restricted to
    # factoring constants over a shared rank-uniform residue.  Operands are
    # grouped by residue first, and only a residue that two or more share
    # is walked, once, for rank-uniformity.
    groups: dict[tuple, list[Plus]] = {}  # residue -> its sums
    for op in w.operands:
        if not isinstance(op, Plus):
            continue
        rest = tuple(x for x in op.operands if not isinstance(x, Const))
        if len(rest) == len(op.operands) - 1 and rest:
            groups.setdefault(rest, []).append(op)
    keys = {id(op): i for i, (rest, g) in enumerate(groups.items())
            if len(g) > 1 and all(_const_valued(x) for x in rest)
            for op in g}
    if not keys:
        return None

    def merge(g: list[Plus]) -> Formula:
        consts = [x.value for op in g for x in op.operands
                  if isinstance(x, Const)]
        return plus([Const(fold(consts, max_abstract, f)),
                     *(x for x in g[0].operands if not isinstance(x, Const))])

    return _merge(w.operands, lambda op: keys.get(id(op)), merge, max_)


def _weighted(op: Formula) -> tuple[int, Formula]:
    # (k, x) for k*x, else (1, op).
    if isinstance(op, Scalar):
        return op.coeff, op.operand
    return 1, op


def _rule_mult_merge(w: Plus, f: LoopForest) -> Formula | None:
    # x + 2*x + y -> 3*x + y.
    def key(op: Formula) -> tuple | None:
        return None if isinstance(op, Const) else sort_key(_weighted(op)[1])

    def merge(g: list[Formula]) -> Formula:
        weights = [_weighted(op) for op in g]
        return scalar(sum(k for k, _ in weights), weights[0][1])

    return _merge(w.operands, key, merge, plus)


def _rule_restrict_merge(w: Plus, f: LoopForest) -> Formula | None:
    # ann(w1,(h,it)) + ann(w2,(h,it)) -> ann(w1+w2,(h,it)), but only for
    # restricts that can never fold (symbolic count or unresolvable loop).
    # Fold-enabled restricts go the other way (restrict-distribute), and the
    # complementary guards keep the pair from looping.
    def key(op: Formula) -> tuple | None:
        if (isinstance(op, Restrict)
                and not (isinstance(op.count, int)
                         and _loop_of(op.loop, f) is not None)):
            return op.loop, _vkey(op.count)
        return None

    def merge(g: list[Restrict]) -> Formula:
        return Restrict(plus([r.operand for r in g]), g[0].loop, g[0].count)

    return _merge(w.operands, key, merge, plus)


def _rule_restrict_distribute(w: Restrict, f: LoopForest) -> Formula | None:
    # ann(w1+c,(h,it)) -> ann(w1,(h,it)) + ann(c,(h,it)) for constants c,
    # which restrict-fold then consumes: keeping the `it` greatest is
    # rank-wise, so it distributes exactly over rank-wise addition.
    if not (isinstance(w.operand, Plus) and isinstance(w.count, int)
            and _loop_of(w.loop, f) is not None):
        return None
    consts = [op for op in w.operand.operands if isinstance(op, Const)]
    if not consts:
        return None
    rest = [op for op in w.operand.operands if not isinstance(op, Const)]
    out = [Restrict(op, w.loop, w.count) for op in consts]
    if rest:
        out.append(Restrict(plus(rest), w.loop, w.count))
    return plus(out)


def _rule_restrict_zero(w: Restrict, f: LoopForest) -> Formula | None:
    return CONST_ZERO if w.operand == CONST_ZERO else None


def _loop_of(name: str, f: LoopForest) -> LoopRef | None:
    """Concrete loop reference for a Restrict/Power loop position, if any."""
    if name == "TOP":
        return TOP
    if name in f.loops:
        return loop_ref(name)
    return None  # parsed text naming no loop of f; cannot fold


def _rule_restrict_fold(w: Restrict, f: LoopForest) -> Formula | None:
    if not (isinstance(w.operand, Const) and isinstance(w.count, int)):
        return None
    ref = _loop_of(w.loop, f)
    if ref is None:
        return None
    return Const(restrict_abstract(w.operand.value, ref, w.count, f))


def _rule_scalar_fold(w: Scalar, f: LoopForest) -> Formula | None:
    if isinstance(w.operand, Const):
        return Const(scalar_abstract(w.coeff, w.operand.value))
    # Scaling commutes with restriction, so the coefficient also folds
    # straight through a chain of restricts onto a constant.
    chain: list[Restrict] = []
    node = w.operand
    while isinstance(node, Restrict):
        chain.append(node)
        node = node.operand
    if chain and isinstance(node, Const):
        out: Formula = Const(scalar_abstract(w.coeff, node.value))
        for r in reversed(chain):
            out = Restrict(out, r.loop, r.count)
        return out
    return None


def _rule_scalar_restrict(w: Restrict, f: LoopForest) -> Formula | None:
    # ann(k*w,(h,it)) -> k * ann(w,(h,it)): scaling by k >= 0 keeps the rank
    # order, so it commutes with keeping the `it` greatest.  Scalars float
    # out of restricts; restrict-fold then still sees Const operands.
    if isinstance(w.operand, Scalar):
        inner = w.operand
        return scalar(inner.coeff, Restrict(inner.operand, w.loop, w.count))
    return None


def _rule_power_zero(w: Power, f: LoopForest) -> Formula | None:
    if w.body == CONST_ZERO and w.exit == CONST_ZERO:
        return CONST_ZERO
    return None


def _rule_power_extract(w: Power, f: LoopForest) -> Formula | None:
    # (w1,w2,b)^it -> (w1,0,b)^it + w2: pull the exit out of the loop.
    if w.exit != CONST_ZERO:
        return plus([Power(w.body, CONST_ZERO, w.header, w.count), w.exit])
    return None


def _rule_power_fold(w: Power, f: LoopForest) -> Formula | None:
    if not (isinstance(w.body, Const) and isinstance(w.exit, Const)
            and isinstance(w.count, int) and w.header in f.loops):
        return None
    return Const(loop_abstract(w.header, w.count, w.body.value,
                               w.exit.value, f))


# The rewrite system: each node class's rules, in the order they are
# tried (the first that rewrites a node fires).  A rule is only ever called
# on a node of its own class; leaves have no rules.
_RULES: dict[type, tuple[Callable, ...]] = {
    Plus: (_rule_plus_const, _rule_mult_merge, _rule_restrict_merge),
    Max: (_rule_max_const, _rule_distributivity),
    Restrict: (_rule_restrict_distribute, _rule_restrict_zero,
               _rule_restrict_fold, _rule_scalar_restrict),
    Scalar: (_rule_scalar_fold,),
    Power: (_rule_power_zero, _rule_power_extract, _rule_power_fold),
}

DEFAULT_FUEL = 10_000


def _rewrite(w: Formula, f: LoopForest) -> Formula | None:
    """The first rule's rewrite of w at its root, None when none applies."""
    for rule in _RULES.get(type(w), ()):
        new = rule(w, f)
        if new is not None and new != w:
            return new
    return None


def simplify(w: Formula, f: LoopForest, fuel: int = DEFAULT_FUEL) -> Formula:
    """Normal form of w under the rewrite system.

    Innermost: children are normalised first (each distinct node once per
    call), then rules rewrite the rebuilt node until none applies.  A node
    tries only its own class's rules, and a leaf none.  The result is
    independent of application order.  `fuel` bounds the number of rewrite
    steps.
    """
    steps = 0
    # id(node) -> (node, normal form); the node is kept so its id stays
    # unique for the call.
    memo: dict[int, tuple[Formula, Formula]] = {}

    def normal(node: Formula) -> Formula:
        nonlocal steps
        if isinstance(node, (Const, WcetId)):
            return node
        hit = memo.get(id(node))
        if hit is not None:
            return hit[1]
        cur = node
        while True:
            kids = _children(cur)
            if kids:
                new_kids = [normal(k) for k in kids]
                if any(a is not b for a, b in zip(new_kids, kids)):
                    cur = _with_children(cur, new_kids)
            new = _rewrite(cur, f)
            if new is None:
                break
            steps += 1
            if steps > fuel:
                raise FuelExhausted(
                    f"no normal form within {fuel} rewrite steps")
            cur = new
        memo[id(node)] = (node, cur)
        memo[id(cur)] = (cur, cur)
        return cur

    try:
        return normal(w)
    finally:
        del normal  # the closure refers to itself: break the cycle


# ---------------------------------------------------------------------------
# Symbolic tree evaluation
# ---------------------------------------------------------------------------


def gamma_symbolic(t: cft.Cft, f: LoopForest,
                   fold_concrete: bool = True) -> Formula:
    """Formula for a tree that may contain symbolic costs, bounds and caps.

    Concrete subexpressions fold to constants eagerly (disable to measure
    the structural formula size): a node whose children are all constant
    folds to one constant, and the constant children of any other Seq or
    Alt fold into one constant operand of its sum or maximum (the
    plus-const and max-const rewrites, applied as the node is built).  A
    complete instantiation of the result equals gamma of the instantiated
    tree.  Equal concrete leaf costs share one Const object.
    """
    leaf_consts: dict[int, Const] = {}

    def combine(kids: list[Formula], op, make) -> Formula:
        # One Const when every child is constant; else `make` over the
        # children, their constants folded into one operand.
        if fold_concrete:
            consts: list[AbstractWcet] = []
            rest: list[Formula] = []
            for k in kids:
                if type(k) is Const:
                    consts.append(k.value)
                else:
                    rest.append(k)
            if not rest:
                return Const(fold(consts, op, f))
            if len(consts) >= 2:
                rest.append(Const(fold(consts, op, f)))
                kids = rest
        return make(kids)

    def build(node: cft.Cft) -> Formula:
        cls = type(node)
        if cls is cft.Seq:
            base: Formula = combine([build(c) for c in node.children],
                                    plus_abstract, plus)
        elif cls is cft.Leaf:
            wcet = node.wcet
            if isinstance(wcet, str):
                base = WcetId(wcet)
            else:
                base = leaf_consts.get(wcet)
                if base is None:
                    base = leaf_consts[wcet] = Const(
                        abstract(TOP, const_seq(wcet)))
        elif cls is cft.Alt:
            base = combine([build(c) for c in node.children],
                           max_abstract, max_)
        else:
            body, exit_ = build(node.body), build(node.exit)
            if (fold_concrete and type(body) is Const
                    and type(exit_) is Const and isinstance(node.bound, int)):
                base = Const(loop_abstract(node.header, node.bound,
                                           body.value, exit_.value, f))
            else:
                base = Power(body, exit_, node.header, node.bound)
        ann = node.annotation
        if ann is not None:
            if fold_concrete and type(base) is Const \
                    and isinstance(ann.max, int):
                base = Const(restrict_abstract(base.value, ann.loop,
                                               ann.max, f))
            else:
                base = Restrict(base, str(ann.loop), ann.max)
        return base

    try:
        return build(t)
    finally:
        del build  # the closure refers to itself: break the cycle


def structural_operand_count(t: cft.Cft) -> int:
    """`operand_count(gamma_symbolic(t, f, fold_concrete=False))`, counted
    on the tree without building the formula."""
    return _structural_operands(t)[0]


def _structural_operands(node: cft.Cft) -> tuple[int, bool]:
    # (operand count, whether the unfolded formula is CONST_ZERO).  Only a
    # cost-0 leaf gives CONST_ZERO, and a sum or maximum of nothing but
    # zeros; `plus` and `max_` drop zero operands, so they count for
    # nothing, and every other node wraps its operands as they are.
    cls = type(node)
    if cls is cft.Leaf:
        count, zero = 1, node.wcet == 0
    elif cls is cft.Loop:
        count = (_structural_operands(node.body)[0]
                 + _structural_operands(node.exit)[0])
        zero = False
    else:
        count = 0
        for c in node.children:
            n, z = _structural_operands(c)
            if not z:
                count += n
        count, zero = (count, False) if count else (1, True)
    if node.annotation is not None:
        zero = False
    return count, zero


# ---------------------------------------------------------------------------
# Substitution and evaluation
# ---------------------------------------------------------------------------


def _bind_int(v: Value, bindings: dict, *, require: bool) -> Value:
    if isinstance(v, int):
        return v
    if v in bindings:
        val = bindings[v]
        if isinstance(val, bool) or not isinstance(val, int) or val < 0:
            raise TypeMismatch(f"{v!r} must bind a non-negative integer, "
                               f"got {val!r}")
        return val
    if require:
        raise UnboundIdentifier(f"no binding for integer identifier {v!r}")
    return v


def _cost(name: str, val: object) -> AbstractWcet:
    """The value a cost identifier binds: a rank-uniform abstract WCET, as
    the rewrite rules assume (see the module docstring)."""
    if not isinstance(val, AbstractWcet):
        raise TypeMismatch(f"WCET identifier {name!r} must bind an "
                           f"abstract WCET, got {val!r}")
    if val.seq.prefix:
        raise TypeMismatch(f"WCET identifier {name!r} must bind a "
                           f"rank-uniform abstract WCET, got {val}")
    return val


def _loop_position(name: str, f: LoopForest) -> str:
    """A loop position's name, which must be TOP or a header of f."""
    if name != "TOP" and name not in f.loops:
        raise UnknownBlock(f"loop {name!r} is neither TOP nor a loop header")
    return name


def substitute(w: Formula, bindings: dict) -> Formula:
    """Replace bound identifiers by their values; unbound ones remain, and
    so do loop positions and coefficients."""
    if isinstance(w, Const):
        return w
    if isinstance(w, WcetId):
        if w.name in bindings:
            return Const(_cost(w.name, bindings[w.name]))
        return w
    if isinstance(w, Plus):
        return plus([substitute(op, bindings) for op in w.operands])
    if isinstance(w, Max):
        return max_([substitute(op, bindings) for op in w.operands])
    if isinstance(w, Scalar):
        return scalar(w.coeff, substitute(w.operand, bindings))
    if isinstance(w, Restrict):
        return Restrict(substitute(w.operand, bindings), w.loop,
                        _bind_int(w.count, bindings, require=False))
    return Power(substitute(w.body, bindings), substitute(w.exit, bindings),
                 w.header, _bind_int(w.count, bindings, require=False))


def evaluate(w: Formula, bindings: dict, f: LoopForest) -> AbstractWcet:
    """Fold a completely bound formula to its abstract WCET.

    Dispatches on the exact node class.  A node checks its own positions
    in a fixed order, so the first wrong binding is the one reported: a
    restrict checks its loop, evaluates its operand, then binds its count;
    a power checks its header and binds its count before its body and
    exit.  A loop position must be TOP or a header of f, else `UnknownBlock`
    is raised; no binding is read for it.  A cost identifier must bind a
    rank-uniform abstract WCET.  A `Const` child is read in place, not
    evaluated by a call: most operands of a simplified formula are
    constants.

    A sum or maximum reads its loops over prefix-free constants from the
    integer terms it carries (see `_sum_or_max`), without a call per
    loop; every other operand is evaluated in order.
    """
    cls = type(w)
    if cls is Const:
        return w.value
    if cls is Plus or cls is Max:
        return _sum_or_max(w, bindings, f)
    if cls is WcetId:
        if w.name not in bindings:
            raise UnboundIdentifier(f"no binding for WCET identifier {w.name!r}")
        return _cost(w.name, bindings[w.name])
    if cls is Power:
        header = _loop_position(w.header, f)
        count = w.count
        if type(count) is not int:
            bound = bindings.get(count)
            count = (bound if type(bound) is int and bound >= 0
                     else _bind_int(count, bindings, require=True))
        body, exit_ = w.body, w.exit
        body = body.value if type(body) is Const else evaluate(body, bindings, f)
        exit_ = (exit_.value if type(exit_) is Const
                 else evaluate(exit_, bindings, f))
        return loop_abstract(header, count, body, exit_, f)
    if cls is Scalar:
        return scalar_abstract(w.coeff, evaluate(w.operand, bindings, f))
    if cls is Restrict:
        ref = parse_loop_ref(_loop_position(w.loop, f))
        return restrict_abstract(evaluate(w.operand, bindings, f), ref,
                                 _bind_int(w.count, bindings, require=True), f)
    raise TypeError(f"not a formula: {w!r}")


def _sum_or_max(w: Plus | Max, bindings: dict, f: LoopForest
                ) -> AbstractWcet:
    """The value of a sum or maximum, for `evaluate`.

    One loop over the node's terms binds each count (an `int`, or an
    identifier bound to a non-negative `int`), checks that the header is
    one of f, and adds `count * body + exit` (the exit alone at count 0)
    to one running sum or maximum; loops are met only where a term has a
    body loop to meet in.  Such a term cannot fail, so the other operands
    are then evaluated in order and folded with the running value.  When
    a term fails its check, every operand is evaluated in order instead,
    which raises the first failing operand's error.
    """
    summing = type(w) is Plus
    loops = f.loops
    loop, tail = TOP, 0  # the terms folded so far
    for header, count, body, exit_, at, inner in w.terms:
        if type(count) is not int:
            try:
                count = bindings[count]
            except KeyError:
                return _in_order(w, bindings, f)
            if type(count) is not int or count < 0:
                return _in_order(w, bindings, f)
        if header not in loops:
            return _in_order(w, bindings, f)
        if count:
            t = count * body + exit_
            if inner is not None:
                at = loop_meet(inner, at, f)
        else:
            t = exit_
        if t:
            if summing:
                tail += t
            elif t > tail:
                tail = t
            if at != loop:
                loop = loop_meet(loop, at, f)
    values = []
    for x in w.others:
        values.append(x.value if type(x) is Const
                      else evaluate(x, bindings, f))
    if tail:
        values.append(abstract(loop, const_seq(tail)))
    return fold(values, plus_abstract if summing else max_abstract, f)


def _in_order(w: Plus | Max, bindings: dict, f: LoopForest) -> AbstractWcet:
    """The value of a sum or maximum with every operand evaluated in order."""
    return fold([evaluate(x, bindings, f) for x in w.operands],
                plus_abstract if type(w) is Plus else max_abstract, f)


def identifiers(w: Formula) -> tuple[set[str], set[str]]:
    """Identifiers of w by position: (costs, counts)."""
    costs: set[str] = set()
    counts: set[str] = set()
    for node in walk(w):
        if isinstance(node, WcetId):
            costs.add(node.name)
        elif isinstance(node, (Restrict, Power)):
            if isinstance(node.count, str):
                counts.add(node.count)
    return costs, counts


def free_identifiers(w: Formula, f: LoopForest) -> set[str]:
    """Identifiers a complete instantiation must bind (`f` is unused)."""
    costs, counts = identifiers(w)
    return costs | counts


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------


def render(w: Formula) -> str:
    if isinstance(w, Const):
        return f"(l={w.value.loop},{w.value.seq})"
    if isinstance(w, WcetId):
        return w.name
    if isinstance(w, Plus):
        return "(+ " + " ".join(render(op) for op in w.operands) + ")"
    if isinstance(w, Max):
        return "(max " + " ".join(render(op) for op in w.operands) + ")"
    if isinstance(w, Scalar):
        return f"(* {w.coeff} {render(w.operand)})"
    if isinstance(w, Power):
        return (f"(pow {render(w.body)} {render(w.exit)} "
                f"{w.header} {w.count})")
    return f"(ann {render(w.operand)} {w.loop} {w.count})"


_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")
_INT_RE = re.compile(r"\d+\Z")


def parse(text: str) -> Formula:
    """Parse the textual formula form (inverse of render).

    Constants may spell their rankings with runs (`[105^5|70]`) or
    expanded (`[105,105,105,105,105|70]`); see `awcet.parse_seq`.  Every
    other atom is as `render` prints it: a coefficient is an integer, a
    cost, loop or header an identifier (`cfg.is_identifier`), and a count
    either; anything else raises ValueError.
    """
    tokens = _TOKEN_RE.findall(text)
    tokens.reverse()  # the next token is the last
    result = _parse_expr(tokens)
    if tokens:
        raise ValueError("trailing tokens in formula text")
    return result


def _take(tokens: list[str]) -> str:
    if not tokens:
        raise ValueError("unexpected end of formula text")
    return tokens.pop()


def _close(tokens: list[str], what: str) -> None:
    if _take(tokens) != ")":
        raise ValueError(f"malformed {what}")


def _name(tok: str) -> str:
    if not is_identifier(tok):
        raise ValueError(f"{tok!r} is not an identifier")
    return tok


def _int(tok: str) -> int:
    if not _INT_RE.match(tok):
        raise ValueError(f"{tok!r} is not an integer")
    return int(tok)


def _value(tok: str) -> Value:
    if _INT_RE.match(tok):
        return int(tok)
    if not is_identifier(tok):
        raise ValueError(f"{tok!r} is neither an integer nor an identifier")
    return tok


def _operands(tokens: list[str]) -> list[Formula]:
    """Formulas up to the closing parenthesis, which is consumed."""
    ops = []
    while tokens[-1:] != [")"]:
        ops.append(_parse_expr(tokens))
    tokens.pop()
    return ops


def _parse_expr(tokens: list[str]) -> Formula:
    tok = _take(tokens)
    if tok != "(":
        return WcetId(_name(tok))
    head = _take(tokens)
    if head.startswith("l="):
        parts = [head]
        while tokens[-1:] != [")"]:
            parts.append(_take(tokens))
        tokens.pop()
        loop_txt, _, seq_txt = "".join(parts)[2:].partition(",")
        return Const(abstract(parse_loop_ref(_name(loop_txt)),
                              parse_seq(seq_txt.strip())))
    if head == "+":
        return plus(_operands(tokens))
    if head == "max":
        return max_(_operands(tokens))
    if head == "*":
        k = _int(_take(tokens))
        op = _parse_expr(tokens)
        _close(tokens, "scalar")
        return scalar(k, op)
    if head == "pow":
        body = _parse_expr(tokens)
        exit_ = _parse_expr(tokens)
        header = _name(_take(tokens))
        count = _value(_take(tokens))
        _close(tokens, "pow")
        return Power(body, exit_, header, count)
    if head == "ann":
        op = _parse_expr(tokens)
        loop = _name(_take(tokens))
        count = _value(_take(tokens))
        _close(tokens, "ann")
        return Restrict(op, loop, count)
    raise ValueError(f"unknown operator {head!r}")
