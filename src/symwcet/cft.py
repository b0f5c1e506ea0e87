"""Control-flow tree model.

Trees are immutable values built from Leaf/Alt/Seq/Loop nodes.  Any node can
carry one context annotation bounding how often its paths occur per entry of
an enclosing loop.  This module also hosts the annotation-driven transforms:
attaching annotations to leaves named by label and splitting a leaf into
annotated variants (the cache hit/miss modeling device).

Queries, which find, collect or count nodes, go through the one iterative
preorder `walk`, so they work at any depth.  Folds, which build one value
per node (`strip_annotations`, `to_sexpr`), recurse.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .cfg import TOP, Annotation, Variant
from .errors import (
    AmbiguousTarget,
    DuplicateVariantId,
    NonAncestorLoop,
    UnknownBlock,
)
from .records import slot_init


@slot_init
@dataclass(frozen=True, slots=True)
class Leaf:
    label: str
    wcet: int | str
    annotation: Annotation | None = None


@slot_init
@dataclass(frozen=True, slots=True)
class Alt:
    children: tuple["Cft", ...]
    annotation: Annotation | None = None

    def __post_init__(self) -> None:
        assert len(self.children) >= 2, "Alt needs at least two children"


@slot_init
@dataclass(frozen=True, slots=True)
class Seq:
    # Zero children encode the empty path (a branch that skips straight to
    # the join point); one child never occurs (collapsed by seq()).
    children: tuple["Cft", ...]
    annotation: Annotation | None = None


@slot_init
@dataclass(frozen=True, slots=True)
class Loop:
    header: str
    body: "Cft"
    bound: int | str
    exit: "Cft"
    annotation: Annotation | None = None


Cft = Leaf | Alt | Seq | Loop


def seq(children: list["Cft"]) -> "Cft":
    """Canonical Seq: flattens unannotated nested Seqs, collapses arity 1."""
    flat: list[Cft] = []
    for c in children:
        if isinstance(c, Seq) and c.annotation is None:
            flat.extend(c.children)
        else:
            flat.append(c)
    if len(flat) == 1:
        return flat[0]
    return Seq(tuple(flat))


def alt(children: list["Cft"]) -> "Cft":
    """Canonical Alt: collapses arity 1, refuses arity 0."""
    if not children:
        raise ValueError("Alt with no alternatives")
    if len(children) == 1:
        return children[0]
    return Alt(tuple(children))


def child_nodes(t: Cft) -> tuple[Cft, ...]:
    if isinstance(t, Leaf):
        return ()
    if isinstance(t, (Alt, Seq)):
        return t.children
    return (t.body, t.exit)


def walk(t: Cft):
    """Every node of t in preorder (a Loop's body before its exit).

    Yields (node, path, loops).  path is the node's child-index path from
    t (Loop children are 0=body, 1=exit) and loops holds the headers of the
    loops whose body holds the node; a Loop's exit lies outside that loop.
    Both are linked cells `(last, rest)` ending in None, so a step costs
    the same at any depth; `spell_out` turns one into a tuple, outermost
    first.
    """
    stack: list[tuple[Cft, tuple | None, tuple | None]] = [(t, None, None)]
    while stack:
        node, path, loops = stack.pop()
        yield node, path, loops
        if isinstance(node, Loop):
            stack.append((node.exit, (1, path), loops))
            stack.append((node.body, (0, path), (node.header, loops)))
        elif isinstance(node, (Alt, Seq)):
            kids = node.children
            stack.extend((kids[i], (i, path), loops)
                         for i in range(len(kids) - 1, -1, -1))


def spell_out(cell: tuple | None) -> tuple:
    """The values of a linked cell from `walk`, outermost first."""
    out = []
    while cell is not None:
        out.append(cell[0])
        cell = cell[1]
    out.reverse()
    return tuple(out)


def subtrees(t: Cft):
    """All nodes of t in preorder (Loop: body before exit)."""
    return (node for node, _, _ in walk(t))


def leaves(t: Cft) -> list[Leaf]:
    return [n for n in subtrees(t) if isinstance(n, Leaf)]


def strip_suffix(label: str) -> str:
    """Drop the '#k' duplication suffix from a leaf label."""
    return label.split("#", 1)[0]


def _replace_node(t: Cft, path: tuple[int, ...], new: Cft) -> Cft:
    """t with the node at path replaced by new, rebuilt along the path."""
    spine = [t]
    for i in path[:-1]:
        spine.append(child_nodes(spine[-1])[i])
    for node, i in zip(reversed(spine), reversed(path)):
        if isinstance(node, Loop):
            new = (replace(node, body=new) if i == 0
                   else replace(node, exit=new))
        else:
            kids = list(node.children)
            kids[i] = new
            new = replace(node, children=tuple(kids))
    return new


def _find_leaf(t: Cft, target: str):
    """The leaf a label target names, in one walk of t.

    Exact labels win; otherwise the target matches leaves whose label minus
    the '#k' duplication suffix equals it.  Several matches need a suffixed
    target to disambiguate.  Returns (leaf, path, loops), path and loops
    spelled out as tuples, and the set of t's leaf labels.
    """
    exact = []
    loose = []
    labels: set[str] = set()
    for found in walk(t):
        node = found[0]
        if isinstance(node, Leaf):
            labels.add(node.label)
            if node.label == target:
                exact.append(found)
            elif strip_suffix(node.label) == target:
                loose.append(found)
    if len(exact) > 1:
        # Leaf labels are unique after renaming; duplicates mean the caller
        # fed an un-renamed tree.
        raise AmbiguousTarget(f"label {target!r} matches {len(exact)} leaves")
    if not exact:
        if not loose:
            raise UnknownBlock(f"no leaf matches target {target!r}")
        if len(loose) > 1:
            raise AmbiguousTarget(
                f"target {target!r} matches duplicated leaves "
                f"{[node.label for node, _, _ in loose]}; "
                "use a '#k'-suffixed label")
    node, path, loops = (exact or loose)[0]
    return (node, spell_out(path), spell_out(loops)), labels


def _check_ancestor(loops: tuple[str, ...], a: Annotation) -> None:
    """a must name TOP or a loop whose body holds the node (see walk)."""
    if a.loop == TOP:
        return
    if a.loop.kind != "loop":
        raise NonAncestorLoop(f"annotation loop {a.loop} is not a loop")
    if a.loop.header not in loops:
        raise NonAncestorLoop(
            f"loop {a.loop.header} does not enclose the annotated node "
            f"(enclosing loops: {list(loops) or 'none'})")


def attach_annotation(t: Cft, target: str, a: Annotation) -> Cft:
    """Return t with annotation a set on the leaf a label target names
    (rename-suffix aware).  Replaces any prior annotation."""
    (node, path, loops), _ = _find_leaf(t, target)
    _check_ancestor(loops, a)
    return _replace_node(t, path, replace(node, annotation=a))


def split_leaf(
    t: Cft,
    block: str,
    variants: Sequence[Variant],
) -> Cft:
    """Replace one leaf with an Alt over annotated variant leaves.

    A single unannotated variant degenerates into a plain rename.
    """
    (node, path, loops), existing = _find_leaf(t, block)
    ids = [vid for vid, _, _ in variants]
    if len(set(ids)) != len(ids):
        raise DuplicateVariantId(f"split of {block!r} repeats variant ids {ids}")
    clash = existing & set(ids)
    if clash:
        raise DuplicateVariantId(
            f"variant ids {sorted(clash)} collide with existing leaf labels")
    new_leaves: list[Cft] = []
    for vid, wcet, ann in variants:
        if ann is not None:
            _check_ancestor(loops, ann)
        new_leaves.append(Leaf(vid, wcet, ann))
    repl = alt(new_leaves)
    if node.annotation is not None and repl.annotation is None:
        repl = replace(repl, annotation=node.annotation)
    return _replace_node(t, path, repl)


def strip_annotations(t: Cft) -> Cft:
    """The same tree with every annotation removed."""
    if isinstance(t, Leaf):
        return replace(t, annotation=None)
    if isinstance(t, (Alt, Seq)):
        return replace(t, children=tuple(strip_annotations(c)
                                         for c in t.children),
                       annotation=None)
    return replace(t, body=strip_annotations(t.body),
                   exit=strip_annotations(t.exit), annotation=None)


def to_sexpr(t: Cft, display=strip_suffix) -> str:
    """Render the tree as an S-expression using display(label) for leaves."""
    if isinstance(t, Leaf):
        return display(t.label)
    if isinstance(t, Alt):
        return "(alt " + " ".join(to_sexpr(c, display) for c in t.children) + ")"
    if isinstance(t, Seq):
        inner = " ".join(to_sexpr(c, display) for c in t.children)
        return "(seq " + inner + ")" if inner else "(seq)"
    return "(loop {} {} {} {})".format(
        t.header, to_sexpr(t.body, display), t.bound, to_sexpr(t.exit, display))
